import random

import pytest

from valdiv.errors import (
    DescriptorMismatchError,
    FieldConstructionError,
    NotAUnitError,
    NotInvertibleError,
    PrecisionExhaustedError,
)
from valdiv.fields import QQ, ExtensionField, FieldAutomorphism, PrimeField, frobenius
from valdiv.laurent import (
    INFINITE_VALUATION,
    Tower,
    TwistedSeriesRing,
    central_indeterminate,
    hensel_sqrt,
    unit_is_square,
)

from oracles import brute_force_squares

F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


def t_f5(prec=32):
    return Tower(F5, ["t"], default_prec=prec)


def xy_tower(field=F5, prec=32):
    return Tower(field, ["x", "y"], default_prec=prec)


def test_inverse_of_one_minus_t_is_geometric_series():
    tow = Tower(QQ, ["t"], default_prec=8)
    t = tow.var("t")
    inv = (tow.one() - t).inv()
    for k in range(8):
        assert inv.payload.coeffs.get(k) == QQ.one()
    assert inv.payload.bound == 8


def test_valuation_examples():
    tow = t_f5()
    t = tow.var("t")
    e = t**-2 + tow.constant(3) * t
    assert e.valuation() == (-2,)
    assert tow.one().valuation() == (0,)
    assert tow.zero().valuation() is INFINITE_VALUATION

    xy = xy_tower()
    x, y = xy.var("x"), xy.var("y")
    assert (y * x**-1).valuation() == (1, -1)
    assert (x + y).valuation() == (0, 1)
    assert ((x + y) * y).valuation() == (1, 1)


def test_series_product_in_f5():
    tow = t_f5()
    t = tow.var("t")
    prod = (tow.constant(2) + t) * (tow.constant(3) + t)
    # (2+t)(3+t) = 6 + 5t + t^2 = 1 + t^2 over F5
    assert prod == tow.constant(1) + t * t


def test_residue_examples():
    tow = t_f5()
    t = tow.var("t")
    e = tow.constant(2) + t + t**3
    assert e.residue() == F5.element(2)
    assert t.residue() == F5.zero()

    xy = xy_tower()
    x, y = xy.var("x"), xy.var("y")
    val = (xy.one() + x) * (xy.one() + y)
    assert val.residue() == F5.one()
    # negative inner exponent hidden above outer level 0 is fine
    assert (y * x**-5).residue() == F5.zero()
    with pytest.raises(NotAUnitError):
        (x**-1).residue()


def test_residue_is_ring_homomorphism_on_valuation_ring():
    rng = random.Random(2)
    xy = xy_tower()
    for _ in range(200):
        a = _random_nonneg_element(xy, rng)
        b = _random_nonneg_element(xy, rng)
        assert (a + b).residue() == a.residue() + b.residue()
        assert (a * b).residue() == a.residue() * b.residue()


def _random_element(tower, rng, terms=3, span=3):
    out = tower.zero()
    for _ in range(rng.randint(1, terms)):
        exps = tuple(rng.randint(-span, span) for _ in range(tower.height))
        c = rng.randint(0, tower.base.char - 1 if tower.base.char else 9)
        out = out + tower.monomial(exps, c)
    return out


def _random_nonneg_element(tower, rng, terms=3, span=3):
    out = tower.zero()
    for _ in range(rng.randint(1, terms)):
        exps = tuple(rng.randint(0, span) for _ in range(tower.height))
        c = rng.randint(0, tower.base.char - 1 if tower.base.char else 9)
        out = out + tower.monomial(exps, c)
    return out


def test_ultrametric_and_multiplicativity_bulk():
    rng = random.Random(4)
    towers = [t_f5(), xy_tower(F7)]
    for tower in towers:
        for _ in range(1000):
            a = _random_element(tower, rng)
            b = _random_element(tower, rng)
            va, vb = a.valuation(), b.valuation()
            s = a + b
            vs = s.valuation()
            if va is INFINITE_VALUATION or vb is INFINITE_VALUATION:
                continue
            mn = min(va, vb)
            assert vs is INFINITE_VALUATION or vs >= mn
            if va != vb:
                assert vs == mn
            p = a * b
            vp = p.valuation()
            if vp is not INFINITE_VALUATION:
                assert vp == tuple(u + v for u, v in zip(va, vb))


def test_inverse_is_two_sided_to_precision():
    rng = random.Random(6)
    for tower in (t_f5(8), xy_tower(F7, 8)):
        for _ in range(60):
            a = _random_element(tower, rng)
            if a.is_zero():
                continue
            left = a.inv() * a
            right = a * a.inv()
            assert left.agrees_to_precision(tower.one())
            assert right.agrees_to_precision(tower.one())


def test_zero_to_precision_is_not_exact_zero():
    tow = t_f5(prec=6)
    t = tow.var("t")
    u = (tow.one() + t).inv()  # truncated
    diff = u * (tow.one() + t) - tow.one()
    assert diff.indistinguishable_from_zero()
    assert not diff.is_zero()
    with pytest.raises(PrecisionExhaustedError):
        diff.valuation()
    with pytest.raises(NotInvertibleError):
        tow.zero().inv()


def test_precision_never_silently_extends():
    tow = t_f5(prec=5)
    t = tow.var("t")
    u = (tow.one() - t).inv()
    assert u.payload.bound == 5
    prod = u * (tow.one() - t)
    assert prod.payload.bound == 5
    assert prod.agrees_to_precision(tow.one())


def test_hensel_square_examples():
    tow = t_f5()
    t = tow.var("t")
    assert unit_is_square(tow.constant(4) + t)
    assert unit_is_square(tow.one())
    assert not unit_is_square(tow.constant(2) + t)
    with pytest.raises(NotAUnitError):
        unit_is_square(t)
    with pytest.raises(Exception):
        unit_is_square(Tower(PrimeField(2), ["t"]).one())


def test_hensel_witness_matches_exhaustive_residue_squaring():
    rng = random.Random(8)
    for p in (3, 5, 7, 11):
        field = PrimeField(p)
        tower = Tower(field, ["t"], default_prec=16)
        squares = brute_force_squares(p)
        t = tower.var("t")
        for _ in range(200):
            r0 = rng.randint(1, p - 1)
            u = tower.constant(r0)
            for k in range(1, rng.randint(2, 5)):
                u = u + tower.monomial((k,), rng.randint(0, p - 1))
            witness = hensel_sqrt(u)
            assert (witness is not None) == (r0 in squares)
            if witness is not None:
                assert (witness * witness).agrees_to_precision(u)


def test_hensel_on_two_variable_towers():
    xy = xy_tower(F7, prec=8)
    x, y = xy.var("x"), xy.var("y")
    u = xy.constant(2) + x + y  # 2 = 3^2 mod 7
    w = hensel_sqrt(u)
    assert w is not None
    assert (w * w).agrees_to_precision(u)


# --- twisted Laurent series -------------------------------------------------

F9 = ExtensionField(F3, [1, 0, 1], var="w")


def twisted_ring(prec=16):
    return TwistedSeriesRing(F9, frobenius(F9), var="t", default_prec=prec)


def test_twist_relation_on_basis():
    ring = twisted_ring()
    w = F9.generator()
    t = ring.t()
    for c in (w, w + F9.one(), F9.element(2) * w):
        lhs = t * ring.constant(c)
        rhs = ring.constant(c**3) * t
        assert lhs == rhs
    # prime-subfield coefficients commute with t
    c = ring.constant(2)
    assert t * c == c * t


def test_twisted_examples():
    ring = twisted_ring()
    w = F9.generator()
    t = ring.t()
    wt = ring.constant(w) * t
    # t*w = w^3 t = -w t = 2w t
    assert t * ring.constant(w) == ring.constant(F9.element(2) * w) * t
    # (w t)(w t) = w sigma(w) t^2 = -w^2 t^2 = t^2 since w^2 = -1
    assert wt * wt == ring.monomial(2)


def test_twisted_associativity_and_twist_power():
    rng = random.Random(10)
    ring = twisted_ring()
    sigma = ring.sigma

    def rand_series():
        out = ring.zero()
        for _ in range(rng.randint(1, 3)):
            e = rng.randint(-2, 3)
            c = F9.element([rng.randint(0, 2), rng.randint(0, 2)])
            out = out + ring.monomial(e, c)
        return out

    for _ in range(500):
        a, b, c = rand_series(), rand_series(), rand_series()
        assert (a * b) * c == a * (b * c)
    m = ring.sigma_order
    tm = ring.monomial(m)
    for _ in range(50):
        d = F9.element([rng.randint(0, 2), rng.randint(0, 2)])
        lhs = tm * ring.constant(d)
        rhs = ring.constant(sigma(sigma(d))) * tm
        assert lhs == rhs


def test_twisted_valuation_is_min_support_and_multiplicative():
    ring = twisted_ring()
    w = F9.generator()
    z = ring.monomial(-1, w) + ring.monomial(2)
    assert z.valuation() == -1
    assert ring.zero().valuation() is INFINITE_VALUATION
    rng = random.Random(12)
    for _ in range(300):
        a = ring.monomial(rng.randint(-3, 3), F9.element([rng.randint(0, 2), rng.randint(0, 2)]))
        b = ring.monomial(rng.randint(-3, 3), F9.element([rng.randint(1, 2), rng.randint(0, 2)]))
        extra = ring.monomial(rng.randint(4, 6))
        za, zb = a + extra, b
        assert (za * zb).valuation() == za.valuation() + zb.valuation()
        assert (za + zb).valuation() >= min(za.valuation(), zb.valuation())


def test_twisted_inverse():
    ring = twisted_ring(prec=10)
    w = F9.generator()
    z = ring.monomial(1, w) + ring.monomial(2)
    zi = z.inv()
    assert (z * zi).agrees_to_precision(ring.one())
    assert (zi * z).agrees_to_precision(ring.one())


def test_central_indeterminate():
    ring = twisted_ring()
    x = central_indeterminate(ring)
    assert x == ring.monomial(2)
    w = F9.generator()
    t = ring.t()
    assert x * ring.constant(w) == ring.constant(w) * x
    assert x * t == t * x
    assert x.is_central()
    assert not t.is_central()
    assert not ring.constant(w).is_central()
    # sigma^1 != id over F9, so m=1 is rejected
    with pytest.raises(FieldConstructionError):
        central_indeterminate(ring, m=1)
    # with the identity twist, t itself is central at m=1
    from valdiv.fields import identity_automorphism

    plain = TwistedSeriesRing(F9, identity_automorphism(F9))
    x1 = central_indeterminate(plain, m=1)
    assert x1 == plain.t()
    assert x1.is_central()
    # conjugation of order 2 on Q(i): t^2 * i = i * t^2
    QI = ExtensionField(QQ, [1, 0, 1], var="i")
    conj = FieldAutomorphism(QI, -QI.generator())
    qring = TwistedSeriesRing(QI, conj, var="t")
    x2 = central_indeterminate(qring, m=2)
    assert x2 * qring.constant(QI.generator()) == qring.constant(QI.generator()) * x2


def test_twisted_degree_bookkeeping_basis_independent_over_center():
    # {1, w, t, wt} is linearly independent over the center subring F3((t^2))
    ring = twisted_ring()
    w = F9.generator()
    basis = [ring.one(), ring.constant(w), ring.t(), ring.constant(w) * ring.t()]
    rng = random.Random(14)

    def random_central():
        out = ring.zero()
        for _ in range(rng.randint(0, 2)):
            out = out + ring.monomial(2 * rng.randint(-1, 2), rng.randint(0, 2))
        return out

    for _ in range(200):
        cs = [random_central() for _ in basis]
        if all(c.is_zero() for c in cs):
            continue
        combo = ring.zero()
        for c, b in zip(cs, basis):
            combo = combo + c * b
        if combo.is_zero():
            # dependence found: must mean every coefficient was zero
            assert all(c.is_zero() for c in cs)
    # and each central coefficient is recoverable from the combination
    c0, c1, c2, c3 = (ring.monomial(0, 1), ring.monomial(2, 2), ring.zero(), ring.monomial(-2, 1))
    combo = c0 * basis[0] + c1 * basis[1] + c2 * basis[2] + c3 * basis[3]
    assert not combo.is_zero()


def test_series_str_forms():
    tow = t_f5(prec=4)
    t = tow.var("t")
    s = tow.constant(2) + t
    assert str(s) == "2 + t"
    u = (tow.one() - t).inv()
    assert str(u).endswith("O(t^4)")


def test_series_reject_operands_of_other_rings():
    twisted = twisted_ring()
    plain = t_f5().var("t").payload
    for a, b in ((twisted.t(), 2), (plain, 3), (twisted.t(), plain)):
        with pytest.raises(DescriptorMismatchError):
            a * b
        with pytest.raises(DescriptorMismatchError):
            a + b
