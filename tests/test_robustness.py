"""Cross-regime exercises: extension coefficients, rational towers, higher
degrees, and composite grammar operands."""

import random
from fractions import Fraction

import pytest

from valdiv.errors import NormCertificateError, ValdivError
from valdiv.fields import QQ, ExtensionField, PrimeField, has_order, primitive_root_of_unity
from valdiv.grammar import parse_algebra, parse_series, parse_tower, print_algebra
from valdiv.laurent import SeriesRing, Tower, hensel_sqrt, unit_is_square
from valdiv.ordered import Lattice
from valdiv.profiles import declared_profile
from valdiv.sk1 import certify_norm_one, commutator, decompose_norm_one, kappa
from valdiv.symbol import SymbolAlgebra

F = Fraction
F3 = PrimeField(3)
F9 = ExtensionField(F3, [1, 0, 1], var="w")


def test_hensel_over_extension_residue_field():
    tower = Tower(F9, ["t"], default_prec=12)
    w = F9.generator()
    t = tower.var("t")
    # w is a square in F9 (its multiplicative group is cyclic of order 8 and
    # w has order 4), so w + t lifts
    u = tower.constant(w) + t
    s = hensel_sqrt(u)
    assert s is not None
    assert (s * s).agrees_to_precision(u)
    # a generator of F9* has order 8 and is not a square
    gen = next(
        el for el in F9.elements() if not el.is_zero() and has_order(el, 8)
    )
    assert not unit_is_square(tower.constant(gen) + t)


def test_symbol_with_extension_coefficients():
    # degree 4 needs a primitive 4th root; F9 has one (w itself: w^2 = -1)
    tower = Tower(F9, ["x", "y"], default_prec=8)
    omega = primitive_root_of_unity(F9, 4)
    alg = SymbolAlgebra(tower, 4, omega, tower.var("x"), tower.var("y"))
    report = alg.classify()
    assert report.index == 16
    assert report.is_totally_ramified and report.is_tame
    assert alg.value_group() == Lattice.scaled(2, F(1, 4))
    out = kappa(alg, alg.v_of_i(), alg.v_of_j())
    root = out.element.scalar_part().residue()
    assert has_order(root, 4)


def test_quaternion_over_rational_coefficient_tower():
    tower = Tower(QQ, ["t"], default_prec=8)
    t = tower.var("t")
    alg = SymbolAlgebra(tower, 2, QQ.element(-1), tower.constant(2), t)
    report = alg.classify()
    # 2 is not a rational square, so the residue extension is quadratic
    assert report.index == 2
    assert report.residue_degree == 2
    assert report.is_semiramified
    assert report.is_division is True
    rng = random.Random(17)
    for _ in range(20):
        e1 = alg.scalar(F(rng.randint(1, 5))) + alg.monomial(
            1, 0, tower.monomial((rng.randint(-1, 1),), F(rng.randint(-3, 3)))
        )
        e2 = alg.monomial(0, 1, tower.constant(F(rng.randint(1, 4))))
        assert (e1 * e2).nrd().agrees_to_precision(e1.nrd() * e2.nrd())


def test_decompose_in_higher_degree_symbols():
    rng = random.Random(19)
    for n, p in [(3, 7), (4, 5)]:
        field = PrimeField(p)
        tower = Tower(field, ["x", "y"], default_prec=8)
        omega = primitive_root_of_unity(field, n)
        alg = SymbolAlgebra(tower, n, omega, tower.var("x"), tower.var("y"))
        done = 0
        while done < 8:
            c = alg.zero()
            for k in range(n):
                v = rng.randint(0, p - 1)
                if v:
                    c = c + alg.monomial(k, 0, tower.constant(v))
            if c.is_zero() or c.nrd().indistinguishable_from_zero():
                continue
            j = alg.j()
            target = c * j * c.inv() * j.inv()
            witness = decompose_norm_one(certify_norm_one(target), rng)
            assert witness.verify()
            done += 1


def test_scalar_root_of_unity_witnesses_in_degree_four():
    field = PrimeField(5)
    tower = Tower(field, ["x", "y"], default_prec=8)
    omega = primitive_root_of_unity(field, 4)
    alg = SymbolAlgebra(tower, 4, omega, tower.var("x"), tower.var("y"))
    for k in range(4):
        scalar = alg.scalar(omega**k)
        witness = decompose_norm_one(certify_norm_one(scalar), random.Random(0))
        assert witness.verify()
        assert len(witness) == (k if k else 0)


def test_commutator_of_mixed_monomials_in_degree_four():
    field = PrimeField(5)
    tower = Tower(field, ["x", "y"], default_prec=8)
    omega = primitive_root_of_unity(field, 4)
    alg = SymbolAlgebra(tower, 4, omega, tower.var("x"), tower.var("y"))
    i, j = alg.i(), alg.j()
    # [i^2, j] = omega^{-2} and [i, j^3] = omega^{-3}
    assert commutator(i * i, j).element == alg.scalar(omega**-2)
    assert commutator(i, j * j * j).element == alg.scalar(omega**-3)


def test_certify_rejects_units_with_nontrivial_norm_in_extension_regime():
    tower = Tower(F9, ["x", "y"], default_prec=8)
    omega = primitive_root_of_unity(F9, 4)
    alg = SymbolAlgebra(tower, 4, omega, tower.var("x"), tower.var("y"))
    with pytest.raises(NormCertificateError):
        certify_norm_one(alg.scalar(F9.generator() + F9.one()))


def test_parse_algebra_with_composite_operands():
    alg = parse_algebra(
        "symbol(n=2, omega=-1, a=2 + t, b=(1 + t)*t) over F5((t))",
        default_prec=8,
    )
    t = alg.tower.var("t")
    assert alg.a == alg.tower.constant(2) + t
    assert alg.b == (alg.tower.one() + t) * t
    assert parse_algebra(print_algebra(alg), default_prec=8) == alg


def test_parse_series_with_fraction_coefficients():
    tow = parse_tower("Q((t))", default_prec=8)
    s = parse_series("1/2 + 3/4*t^2", tow)
    assert s.payload.coeffs[0] == QQ.element(F(1, 2))
    assert s.payload.coeffs[2] == QQ.element(F(3, 4))


def test_three_level_tower_valuations():
    tower = Tower(PrimeField(5), ["u", "v", "w"], default_prec=6)
    u, v, w = tower.var("u"), tower.var("v"), tower.var("w")
    # outermost w is coordinate 1
    assert (w * v**-2 * u).valuation() == (1, -2, 1)
    e = u + v + w
    assert e.valuation() == (0, 0, 1)
    assert (e * e).valuation() == (0, 0, 2)
    assert tower.monomial((0, 1, -3)).residue() == PrimeField(5).zero()


def test_out_of_range_arguments_raise_library_errors():
    profile = declared_profile({2: 1}, ("x",))
    for call in [
        lambda: profile.r_q(4),
        lambda: profile.cd_q(4),
        lambda: Lattice.from_generators(2, [[1, 0], [0, 1]]).q_rank(4),
        lambda: SeriesRing(F3, "t", default_prec=0),
        lambda: primitive_root_of_unity(F3, 0),
    ]:
        with pytest.raises(ValdivError):
            call()
