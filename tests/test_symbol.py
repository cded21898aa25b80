import gc
import itertools
import random
import weakref
from fractions import Fraction

import pytest

from valdiv import laurent, symbol
from valdiv.errors import (
    DescriptorMismatchError,
    FieldConstructionError,
    InvariantBreachError,
    NotAUnitError,
    NotInvertibleError,
    PrecisionExhaustedError,
    UnsupportedFieldError,
    ValdivError,
)
from valdiv.fields import QQ, ExtensionField, PrimeField, primitive_root_of_unity
from valdiv.grammar import parse_algebra
from valdiv.laurent import INFINITE_VALUATION, Tower, TowerElement
from valdiv.ordered import Lattice, quotient
from valdiv.symbol import AlgebraElement, SymbolAlgebra, quaternion_is_division

from conftest import (
    make_quaternion_f5,
    make_rational_quaternion,
    make_symbol_xy,
    random_algebra_element,
)
from oracles import (
    left_regular_det,
    pairwise_algebra_product,
    pairwise_l_dot,
    series_invariant_breaches,
    series_plain,
    splitting_trace,
)

F = Fraction


def test_defining_relations():
    alg = make_symbol_xy(3, 7)
    i, j = alg.i(), alg.j()
    omega = alg.scalar(alg.omega)
    assert j * i == omega * (i * j)
    assert i**3 == alg.scalar(alg.a)
    assert j**3 == alg.scalar(alg.b)
    assert i ** (3 - 1) * i == alg.scalar(alg.a)


def test_quaternion_square_example():
    alg = make_quaternion_f5()
    i, j = alg.i(), alg.j()
    # (i+j)^2 = i^2 + ij + ji + j^2 = u + t since ij + ji = 0
    lhs = (i + j) * (i + j)
    rhs = alg.scalar(alg.a) + alg.scalar(alg.b)
    assert lhs == rhs


def test_construction_validation():
    field = PrimeField(5)
    tower = Tower(field, ["t"])
    with pytest.raises(FieldConstructionError):
        SymbolAlgebra(tower, 2, field.element(2), tower.one(), tower.var("t"))
    with pytest.raises(FieldConstructionError):
        # residue characteristic divides the degree
        SymbolAlgebra(tower, 5, field.element(1), tower.one(), tower.var("t"))
    with pytest.raises(FieldConstructionError):
        SymbolAlgebra(tower, 2, field.element(-1), tower.zero(), tower.var("t"))


def test_splitting_representation_relations_and_example():
    alg = make_quaternion_f5()
    alg.verify_splitting_relations()
    rho_i = alg.i().splitting_matrix()
    # rho(i) = diag(i, -i), entries in L = F[i]
    assert rho_i[0][0] == alg.i()
    assert rho_i[1][1] == -alg.i()
    assert rho_i[0][1] == alg.zero()
    rho_j = alg.j().splitting_matrix()
    # rho(j) = [[0, 1], [t, 0]]
    assert rho_j[0][1] == alg.one()
    assert rho_j[1][0] == alg.scalar(alg.b)
    one_mat = alg.one().splitting_matrix()
    assert one_mat[0][0] == alg.one()
    assert one_mat[0][1].is_zero()


def test_splitting_is_homomorphism_on_samples():
    """rho(e1 e2) = rho(e1) rho(e2), with every entry in F[i], on exact
    elements of (x, y) over F7, on elements truncated by (1 + x + y)^-1, and
    over F9 = F3[w]/(w^2 + 1), where char F <= n: the inputs Berkowitz serves."""
    rng = random.Random(21)
    from valdiv.symbol import _l_matrix_agrees, _l_matrix_mul

    truncated = parse_algebra("symbol(n=4, omega=auto, a=x+y, b=y) over F5((x))((y))", 8)
    tower = truncated.tower
    dense = (tower.one() + tower.var("x") + tower.var("y")).inv()
    over_f9 = parse_algebra("symbol(n=4, omega=auto, a=x, b=y) over F3[w]/(w^2+1)((x))((y))", 8)
    cases = [(make_symbol_xy(3, 7), None, 10), (truncated, dense, 6), (over_f9, None, 6)]
    for alg, scale, count in cases:
        for _ in range(count):
            e1 = random_algebra_element(alg, rng)
            e2 = random_algebra_element(alg, rng)
            if scale is not None:
                e1, e2 = e1.scale(scale), e2.scale(scale)
            rho = [(e1 * e2).splitting_matrix(), e1.splitting_matrix(), e2.splitting_matrix()]
            assert all(l == 0 for mat in rho for row in mat for x in row for _, l in x.coeffs)
            assert _l_matrix_agrees(rho[0], _l_matrix_mul(alg, rho[1], rho[2]))


def test_quaternion_norm_closed_form():
    rng = random.Random(23)
    alg = make_quaternion_f5()
    tower = alg.tower
    u, t = alg.a, alg.b
    for _ in range(200):
        cs = [
            tower.monomial((rng.randint(-2, 2),), rng.randint(0, 4))
            for _ in range(4)
        ]
        e = (
            alg.scalar(cs[0])
            + alg.monomial(1, 0, cs[1])
            + alg.monomial(0, 1, cs[2])
            + alg.monomial(1, 1, cs[3])
        )
        if e.is_zero():
            continue
        expected = (
            cs[0] * cs[0]
            - u * cs[1] * cs[1]
            - t * cs[2] * cs[2]
            + u * t * cs[3] * cs[3]
        )
        assert e.nrd() == expected


def test_nrd_of_generators():
    for n, p in [(2, 3), (3, 7), (4, 5)]:
        alg = make_symbol_xy(n, p)
        sign = alg.tower.base.one() if n % 2 else -alg.tower.base.one()
        assert alg.i().nrd() == alg.a.scale(sign)
        assert alg.j().nrd() == alg.b.scale(sign)
        assert alg.one().nrd() == alg.tower.one()


def test_nrd_multiplicative_and_unit_criterion():
    rng = random.Random(29)
    for alg in (make_quaternion_f5(), make_symbol_xy(3, 7)):
        for _ in range(100):
            e1 = random_algebra_element(alg, rng)
            e2 = random_algebra_element(alg, rng)
            assert (e1 * e2).nrd().agrees_to_precision(e1.nrd() * e2.nrd())
        for _ in range(25):
            e = random_algebra_element(alg, rng)
            if e.is_zero():
                continue
            nr = e.nrd()
            if nr.indistinguishable_from_zero():
                continue
            inv = e.inv()
            assert (e * inv).agrees_to_precision(alg.one())
            assert (inv * e).agrees_to_precision(alg.one())


def test_unit_criterion_both_directions():
    # nrd = 0 in a split-like algebra means no inverse exists
    field = PrimeField(5)
    tower = Tower(field, ["t"])
    split = SymbolAlgebra(
        tower, 2, field.element(-1), tower.one(), tower.var("t")
    )
    zero_divisor = split.one() + split.i()  # nrd = 1 - a = 0 when a = 1
    assert zero_divisor.nrd().is_zero()
    with pytest.raises(NotInvertibleError):
        zero_divisor.inv()

    # and when nrd != 0, the inverse agrees with the one found by solving
    # the n^2-dimensional linear system e*z = 1 directly
    rng = random.Random(97)
    alg = make_quaternion_f5()
    for _ in range(10):
        e = random_algebra_element(alg, rng)
        if e.is_zero() or e.nrd().indistinguishable_from_zero():
            continue
        z = _solve_right_inverse(e)
        assert (e * z).agrees_to_precision(alg.one())
        assert z.agrees_to_precision(e.inv())


def _solve_right_inverse(e):
    """Independent inverse: Gaussian elimination on the left-regular system."""
    alg = e.algebra
    n = alg.degree
    basis = [(k, l) for k in range(n) for l in range(n)]
    cols = []
    for kl in basis:
        prod = e * alg.monomial(*kl)
        cols.append([prod.coeffs.get(b, alg.tower.zero()) for b in basis])
    size = len(basis)
    mat = [[cols[c][r] for c in range(size)] for r in range(size)]
    rhs = [alg.tower.one() if b == (0, 0) else alg.tower.zero() for b in basis]
    for col in range(size):
        piv = next(
            r for r in range(col, size)
            if not mat[r][col].indistinguishable_from_zero()
        )
        mat[col], mat[piv] = mat[piv], mat[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        inv = mat[col][col].inv()
        mat[col] = [x * inv for x in mat[col]]
        rhs[col] = rhs[col] * inv
        for r in range(size):
            if r != col and not mat[r][col].is_zero():
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[col])]
                rhs[r] = rhs[r] - f * rhs[col]
    return alg.element({b: rhs[idx] for idx, b in enumerate(basis)})


def test_left_regular_determinant_oracle():
    rng = random.Random(31)
    for alg, samples in [
        (make_quaternion_f5(8), 8),
        (make_symbol_xy(3, 7, 6), 4),
        (make_symbol_xy(5, 11, 6), 2),
    ]:
        n = alg.degree
        for _ in range(samples):
            e = random_algebra_element(alg, rng, terms=2, span=1)
            if e.is_zero():
                continue
            det = left_regular_det(e)
            nrd_power = e.nrd() ** n
            assert det.agrees_to_precision(nrd_power)


def test_trd_and_prd():
    alg = make_symbol_xy(3, 7)
    assert alg.i().trd().is_zero()
    assert alg.j().trd().is_zero()
    # characteristic polynomial of the first generator is X^n - a
    prd_i = alg.i().prd()
    assert prd_i[3] == alg.tower.one()
    assert prd_i[2].is_zero() and prd_i[1].is_zero()
    assert prd_i[0] == -alg.a
    one_prd = alg.one().prd()
    # (X - 1)^3 = X^3 - 3X^2 + 3X - 1 over F7
    tower = alg.tower
    assert one_prd[3] == tower.one()
    assert one_prd[2] == tower.constant(-3)
    assert one_prd[1] == tower.constant(3)
    assert one_prd[0] == tower.constant(-1)

    quat = make_quaternion_f5()
    rng = random.Random(37)
    for _ in range(20):
        e = random_algebra_element(quat, rng)
        poly = e.prd()
        # X^2 - trd X + nrd
        assert poly[2] == quat.tower.one()
        assert (-poly[1]) == e.trd()
        assert poly[0] == e.nrd()


def test_cayley_hamilton_in_the_algebra():
    rng = random.Random(41)
    for alg, samples in [
        (make_quaternion_f5(), 15),
        (make_symbol_xy(3, 7), 15),
        (make_symbol_xy(5, 11, 6), 3),
        (make_symbol_xy(6, 13, 6), 3),
        (make_symbol_xy(7, 29, 6), 2),
    ]:
        for _ in range(samples):
            e = random_algebra_element(alg, rng)
            poly = e.prd()
            acc = alg.zero()
            power = alg.one()
            for k, c in enumerate(poly):
                if k:
                    power = power * e
                acc = acc + power.scale(c)
            assert acc.indistinguishable_from_zero()


def test_prd_returns_a_copy_of_its_cache():
    alg = make_symbol_xy(3, 7)
    e = alg.one() + alg.i() + alg.j()
    poly, norm, inverse = list(e.prd()), e.nrd(), e.inv()
    returned = e.prd()
    returned[0] = alg.tower.zero()
    returned.append(alg.tower.one())
    assert e.prd() == poly
    assert e.nrd() == norm
    assert e.inv() == inverse
    assert (e * e.inv()).agrees_to_precision(alg.one())


def test_valuation_of_generators():
    for n, p in [(2, 3), (3, 7), (4, 5)]:
        alg = make_symbol_xy(n, p)
        assert alg.i().valuation() == (F(0), F(1, n))
        assert alg.j().valuation() == (F(1, n), F(0))
        assert alg.one().valuation() == (F(0), F(0))
    quat = make_quaternion_f5()
    assert quat.j().valuation() == (F(1, 2),)
    assert quat.i().valuation() == (F(0),)
    with pytest.raises(NotInvertibleError):
        quat.zero().inv()
    assert quat.zero().valuation() is INFINITE_VALUATION


def test_valuation_restricted_to_center_is_field_valuation():
    rng = random.Random(43)
    alg = make_symbol_xy(3, 7)
    for _ in range(40):
        f = alg.tower.monomial(
            (rng.randint(-3, 3), rng.randint(-3, 3)), rng.randint(1, 6)
        )
        assert alg.scalar(f).valuation() == tuple(F(x) for x in f.valuation())


def test_valuation_additive_and_ultrametric():
    rng = random.Random(47)
    for alg in (make_quaternion_f5(), make_symbol_xy(3, 7)):
        zero_vec = tuple(F(0) for _ in range(alg.tower.height))
        for _ in range(150):
            e1 = random_algebra_element(alg, rng)
            e2 = random_algebra_element(alg, rng)
            if e1.is_zero() or e2.is_zero():
                continue
            v1, v2 = e1.valuation(), e2.valuation()
            prod = e1 * e2
            assert prod.valuation() == tuple(a + b for a, b in zip(v1, v2))
            s = e1 + e2
            if not s.is_zero():
                assert s.valuation() >= min(v1, v2)
                if v1 != v2:
                    assert s.valuation() == min(v1, v2)
            assert zero_vec == alg.one().valuation()


def test_value_group_examples():
    for n, p in [(2, 3), (3, 7), (4, 5)]:
        alg = make_symbol_xy(n, p)
        assert alg.value_group() == Lattice.scaled(2, F(1, n))
        q = quotient(alg.value_group(), Lattice.standard(2))
        assert q.order == n * n
        assert q.invariant_factors == (n, n)
    quat = make_quaternion_f5()
    assert quat.value_group() == Lattice.scaled(1, F(1, 2))
    # degenerate split-like algebra: unit a, b give the trivial extension
    field = PrimeField(5)
    tower = Tower(field, ["t"])
    degenerate = SymbolAlgebra(
        tower, 2, field.element(-1), tower.constant(2), tower.constant(3)
    )
    assert degenerate.value_group() == Lattice.standard(1)


def test_classification_totally_ramified_corpus():
    for n, p in [(2, 3), (3, 7), (4, 5)]:
        report = make_symbol_xy(n, p).classify()
        assert report.index == n * n
        assert report.residue_degree == 1
        assert report.defect == 1
        assert report.is_totally_ramified
        assert report.is_tame
        assert not report.is_semiramified
        assert report.is_division is True


def test_classification_quaternion_semiramified():
    report = make_quaternion_f5().classify()
    assert report.dimension == 4
    assert report.index == 2
    assert report.residue_degree == 2
    assert report.is_semiramified
    assert not report.is_totally_ramified
    assert report.is_tame
    assert report.is_division is True
    # oracle: the residue class of i generates a quadratic extension since
    # its square has a non-square residue
    alg = make_quaternion_f5()
    i_sq_res = (alg.i() * alg.i()).residue()
    from valdiv.fields import is_square

    assert not is_square(i_sq_res)
    # a residue needs positive value on every non-scalar term: v(t j) = 3/2, v(i) = 0
    t = alg.tower.var("t")
    assert (alg.scalar(3) + alg.monomial(0, 1, t)).residue() == alg.tower.base.element(3)
    with pytest.raises(UnsupportedFieldError, match="positive value"):
        (alg.scalar(3) + alg.i()).residue()


def test_classify_reads_squares_from_the_residue(monkeypatch):
    # Hensel: the unit 4 + t is a square because its residue 4 is, so the
    # quaternion (4 + t, t) splits without lifting a root
    alg = parse_algebra("symbol(n=2, omega=-1, a=4+t, b=t) over F5((t))")
    calls = {"hensel_sqrt": 0, "inv": 0}
    hensel_sqrt, inv = laurent.hensel_sqrt, laurent.LaurentSeries.inv

    def spy(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    monkeypatch.setattr(laurent, "hensel_sqrt", spy("hensel_sqrt", hensel_sqrt))
    monkeypatch.setattr(laurent.LaurentSeries, "inv", spy("inv", inv))
    assert alg.classify().is_division is False
    assert calls == {"hensel_sqrt": 0, "inv": 0}


def test_classification_trivial_algebra():
    field = PrimeField(5)
    tower = Tower(field, ["t"])
    triv = SymbolAlgebra(tower, 1, field.one(), tower.constant(2), tower.var("t"))
    report = triv.classify()
    assert report.dimension == 1
    assert report.index == 1
    assert report.residue_degree == 1
    assert report.defect == 1
    assert report.is_division is True


def test_fundamental_equality_on_reports():
    for alg in (make_quaternion_f5(), make_symbol_xy(2, 3), make_symbol_xy(3, 7)):
        r = alg.classify()
        assert r.residue_degree * r.index == r.dimension
        assert r.residue_degree * r.index <= r.dimension


def test_quaternion_division_criterion():
    field = PrimeField(5)
    tower = Tower(field, ["t"])
    t = tower.var("t")
    assert quaternion_is_division(tower.constant(2), t)
    assert not quaternion_is_division(tower.constant(4), t)
    assert not quaternion_is_division(tower.one(), t)
    with pytest.raises(NotAUnitError):
        quaternion_is_division(t, t)
    with pytest.raises(NotAUnitError):
        quaternion_is_division(tower.constant(2), tower.constant(3))
    with pytest.raises(UnsupportedFieldError):
        xy = Tower(field, ["x", "y"])
        quaternion_is_division(xy.constant(2), xy.var("x"))


def test_value_group_is_realized_by_monomials():
    # every generator of the computed value group is hit by some monomial
    for alg in (make_quaternion_f5(), make_symbol_xy(3, 7), make_symbol_xy(4, 5)):
        for row in alg.value_group().fraction_rows():
            d = alg.monomial_with_value(row)
            assert d is not None
            assert d.valuation() == tuple(row)


def test_monomial_with_value():
    alg = make_symbol_xy(3, 7)
    d = alg.monomial_with_value((F(0), F(1, 3)))
    assert d is not None and d.valuation() == (F(0), F(1, 3))
    d2 = alg.monomial_with_value((F(1, 3), F(2, 3)))
    assert d2 is not None and d2.valuation() == (F(1, 3), F(2, 3))
    assert alg.monomial_with_value((F(1, 2), F(0))) is None
    central = alg.monomial_with_value((F(2), F(-1)))
    assert central is not None and central.is_scalar()


def test_rational_quaternion_norms():
    alg = make_rational_quaternion()
    i, j = alg.i(), alg.j()
    assert (i * i) == alg.scalar(-1)
    e = alg.scalar(F(3, 5)) + i.scale(alg.tower.constant(F(4, 5)))
    assert e.nrd() == alg.tower.one()
    assert e.valuation() == ()
    assert (i * j + j * i).is_zero()


# slot pairs per tower suffix; the second pair of a tower is truncated
_GENERATOR_SLOTS = {
    "": [("3", "5")],
    "((t))": [("t^3+2", "4*t^-1"), ("t+O(t^2)", "2+t+O(t^5)")],
    "((x))((y))": [("x^2*y+y^2", "3*x^-1"), ("x+O(y^0*x^3)", "y+O(y^2)")],
}


@pytest.mark.parametrize(
    "text",
    [
        f"symbol(n={n}, omega=auto, a={a}, b={b}) over F61{suffix}"
        for n in range(1, 6)
        for suffix, slots in _GENERATOR_SLOTS.items()
        for a, b in slots
    ],
)
def test_generator_values_agree_with_their_reduced_norms(text):
    alg = parse_algebra(text, 8)
    assert alg.v_of_i() == alg.i().valuation()
    assert alg.v_of_j() == alg.j().valuation()


def test_generator_value_of_a_vanishing_slot_fails_as_its_norm_does():
    alg = parse_algebra("symbol(n=2, omega=auto, a=O(t^2), b=t) over F5((t))")
    with pytest.raises(PrecisionExhaustedError) as direct:
        alg.v_of_i()
    with pytest.raises(PrecisionExhaustedError) as via_norm:
        alg.i().valuation()
    assert type(direct.value) is type(via_norm.value)
    assert str(direct.value) == str(via_norm.value)


def test_classification_builds_no_splitting_matrix(monkeypatch):
    def refuse(self):
        raise AssertionError("splitting matrix built")

    monkeypatch.setattr(AlgebraElement, "splitting_matrix", refuse)
    for alg in (make_quaternion_f5(), make_symbol_xy(3, 7), make_symbol_xy(4, 5)):
        alg.classify()
        for row in alg.value_group().fraction_rows():
            assert alg.monomial_with_value(row) is not None


def test_relation_check_catches_a_wrong_twist():
    # omega^2 is another primitive cube root: the n-th powers hold, the twist fails
    alg = make_symbol_xy(3, 7)
    alg._omega_pow = [alg.omega ** (2 * k) for k in range(3)]
    with pytest.raises(InvariantBreachError, match="twist relation"):
        alg.verify_splitting_relations()


def test_relation_check_catches_a_phase_that_is_no_root_of_unity():
    # 3^3 = 6 in F7, so rho(i)^3 = diag(a, 6a, a) is not rho(a)
    alg = make_symbol_xy(3, 7)
    alg._omega_pow = [alg.tower.base.element(3) ** k for k in range(3)]
    with pytest.raises(InvariantBreachError, match="n-th powers"):
        alg.verify_splitting_relations()


def test_inverse_is_cached(monkeypatch):
    alg = make_symbol_xy(3, 7)
    e = alg.one() + alg.i() + alg.j()
    first = e.inv()
    products = []
    real = AlgebraElement.__mul__

    def counted(x, y):
        products.append((x, y))
        return real(x, y)

    monkeypatch.setattr(AlgebraElement, "__mul__", counted)
    assert e.inv() is first
    assert products == []


# --- sums of products against the pairwise sums ---------------------------------

_VARIABLES = ["x", "y", "z"]
_PRODUCT_SUM_CASES = (
    [("F61", height, n) for height in (1, 2, 3) for n in range(2, 7)]
    + [("F7[w]/(w^3-2)", height, 3) for height in (1, 2, 3)]
    + [("Q", height, 2) for height in (1, 2, 3)]
)


def _product_sum_algebra(base, height, n):
    """Degree n over base((x))...: a = x + O(x^3) truncated in its innermost
    slot, b = 1 + (outermost variable), at precision 8."""
    variables = _VARIABLES[:height]
    marker = "*".join([f"{v}^0" for v in reversed(variables[1:])] + ["x^3"])
    tower = "".join(f"(({v}))" for v in variables)
    return parse_algebra(
        f"symbol(n={n}, omega=auto, a=x+O({marker}), b=1+{variables[-1]}) over {base}{tower}",
        8,
    )


def _product_sum_operands(alg, rng):
    """A sparse element, one with dense truncated coefficients (an inverse in
    the tower), and a truncated inverse in the algebra."""
    tower = alg.tower
    sparse = random_algebra_element(alg, rng, terms=3)
    dense = (tower.one() + tower.var("x") + tower.var(_VARIABLES[tower.height - 1])).inv()
    mixed = sparse + alg.monomial(1, 1, dense) + alg.scalar(dense)
    inverse = (alg.one() + alg.monomial(1, 1, tower.var("x"))).inv()
    return [sparse, mixed, inverse]


def _algebra_plain(e):
    return [(kl, series_plain(c.payload)) for kl, c in e.coeffs.items()]


@pytest.mark.parametrize(
    "base, height, n", _PRODUCT_SUM_CASES, ids=[f"{b}/h{h}/n{n}" for b, h, n in _PRODUCT_SUM_CASES]
)
def test_sums_of_products_match_the_pairwise_sums(monkeypatch, base, height, n):
    """Every coefficient and every bound at every nesting level, and the key
    order, of algebra products and of L-dot products of splitting-matrix rows
    and columns equal those of the pairwise oracles."""
    alg = _product_sum_algebra(base, height, n)
    operands = _product_sum_operands(alg, random.Random(f"{base}/{height}/{n}"))
    paths = {"kronecker": 0, "loop": 0}
    real_kronecker, real_loop = laurent._kronecker_mul_into, laurent._mul_into

    def kronecker(acc, *args):
        held = bool(acc[0]) or acc[1] is not None
        took = real_kronecker(acc, *args)
        paths["kronecker"] += took and held
        return took

    def loop(acc, *args):
        paths["loop"] += bool(acc[0]) or acc[1] is not None
        return real_loop(acc, *args)

    for x in operands:
        for y in operands:
            with monkeypatch.context() as patch:
                patch.setattr(laurent, "_kronecker_mul_into", kronecker)
                patch.setattr(laurent, "_mul_into", loop)
                product = x * y
            want = pairwise_algebra_product(x, y)
            assert _algebra_plain(product) == _algebra_plain(want)
            scalar = symbol._scalar_of_product(x, y)
            assert series_plain(scalar.payload) == series_plain(want.scalar_part().payload)
    for x, y in zip(operands, operands[::-1]):
        rows, cols = x.splitting_matrix(), list(zip(*y.splitting_matrix()))
        for row in rows:
            for col in cols:
                got = symbol._sum_of_products(alg, zip(row, col))
                assert _algebra_plain(got) == _algebra_plain(pairwise_l_dot(alg, row, col))
    # products added to a sum that already held one, on either side of the
    # Kronecker gate
    assert paths["loop"] > 0
    assert paths["kronecker"] > 0 or base != "F61"


# (a, b) with {o} the outermost variable, 2 at height 1: exact slots of one
# and two terms
_EXACT_SLOTS = [("x", "{o}"), ("x+{o}", "{o}"), ("x", "x+{o}")]
_ROW_CASES = [
    (base, height, n, _EXACT_SLOTS[(height + n) % 3])
    for base, degrees in (("F61", range(2, 7)), ("F7[w]/(w^3-2)", (2, 3, 6)))
    for height in (1, 2, 3)
    for n in degrees
]


def _spread_element(alg):
    """Every key of j-degree 0 holds x^-s ... + x^s ... + O(outer^(s+2)),
    s = 40 / height: two terms so far apart that the rows' product is too
    sparse for Kronecker substitution."""
    tower = alg.tower
    h = tower.height
    wide = tower.monomial((-40 // h,) * h) + tower.monomial((40 // h,) * h)
    ring = tower.top_ring()
    c = TowerElement(tower, ring.series(dict(wide.payload.coeffs), 40 // h + 2))
    return alg.element({(k, 0): c for k in range(alg.degree)})


def _spied_kernels(monkeypatch):
    """Spies on the packed rows: the pairs (x, y) they took, and the
    results of the Kronecker products of rows (series in one more variable
    than the tower has)."""
    rows, row_products = [], []
    real_rows, real_kronecker = symbol._add_rows, symbol._kronecker_mul_into

    def add_rows(alg, x, y, *args):
        rows.append((x, y))
        return real_rows(alg, x, y, *args)

    def kronecker(acc, a, *args):
        took = real_kronecker(acc, a, *args)
        row_products.append(took)
        return took

    monkeypatch.setattr(symbol, "_add_rows", add_rows)
    monkeypatch.setattr(symbol, "_kronecker_mul_into", kronecker)
    return rows, row_products


@pytest.mark.parametrize(
    "base, height, n, slots",
    _ROW_CASES,
    ids=[f"{b}/h{h}/n{n}/{s[0]},{s[1]}" for b, h, n, s in _ROW_CASES],
)
def test_packed_rows_match_the_pairwise_sums(monkeypatch, base, height, n, slots):
    """With exact a and b in a ring that packs, products with a truncated
    coefficient take one product per pair of rows of j-degree, and the rest
    the pair loop; both equal the pairwise oracles in every coefficient,
    every bound at every level and the key order, for algebra products,
    scalar parts and L-dot products of splitting-matrix rows and columns.
    Rows too sparse to pack are multiplied per pair of terms."""
    variables = _VARIABLES[:height]
    outer = variables[-1] if height > 1 else "2"
    a, b = (slot.format(o=outer) for slot in slots)
    tower = "".join(f"(({v}))" for v in variables)
    alg = parse_algebra(f"symbol(n={n}, omega=auto, a={a}, b={b}) over {base}{tower}", 8)
    rng = random.Random(f"rows {base}/{height}/{n}/{slots}")
    operands = _product_sum_operands(alg, rng)
    operands[0] = random_algebra_element(alg, rng, terms=3)  # exact, no truncated coefficient
    operands.append(_spread_element(alg))
    rows, row_products = _spied_kernels(monkeypatch)
    for x in operands:
        for y in operands:
            product = x * y
            assert _algebra_plain(product) == _algebra_plain(pairwise_algebra_product(x, y))
            scalar = symbol._scalar_of_product(x, y)
            want = pairwise_algebra_product(x, y).scalar_part()
            assert series_plain(scalar.payload) == series_plain(want.payload)
    for x, y in zip(operands, operands[::-1]):
        for row in x.splitting_matrix():
            for col in zip(*y.splitting_matrix()):
                got = symbol._sum_of_products(alg, zip(row, col))
                assert _algebra_plain(got) == _algebra_plain(pairwise_l_dot(alg, row, col))
    # x * y by rows exactly when x or y has a truncated coefficient
    took = {(id(x), id(y)) for x, y in rows}
    assert (id(operands[0]), id(operands[0])) not in took
    assert all((id(x), id(y)) in took for x in operands for y in operands[1:])
    assert True in row_products and False in row_products


@pytest.mark.parametrize("base, height, n", [("F61", 2, 3), ("Q", 2, 2), ("F7[w]/(w^3-2)", 1, 3)])
def test_truncated_slots_and_q_towers_keep_the_pair_loop(monkeypatch, base, height, n):
    """A truncated slot, and a tower over Q, which does not pack, take no
    packed rows."""
    algebras = [_product_sum_algebra(base, height, n)]
    if base == "Q":
        algebras.append(parse_algebra("symbol(n=2, omega=-1, a=x, b=y) over Q((x))((y))", 8))
    rows, row_products = _spied_kernels(monkeypatch)
    for alg in algebras:
        operands = _product_sum_operands(alg, random.Random(f"pairwise {base}"))
        for x in operands:
            for y in operands:
                assert _algebra_plain(x * y) == _algebra_plain(pairwise_algebra_product(x, y))
    assert rows == row_products == []


def test_a_truncated_slot_wraps_each_term_pair_alone():
    """1*a + (x - 1)*a with a = x + O(x^3): folded together, the sum x of
    the two cells would meet a at the window O(x^4); pair by pair, each
    product has O(x^3), as the pairwise sum has."""
    alg = parse_algebra("symbol(n=2, omega=-1, a=x + O(x^3), b=x) over F61((x))", 8)
    one, x = alg.tower.one(), alg.tower.var("x")
    i = alg.i()
    rights = [alg.monomial(1, 0, one), alg.monomial(1, 0, x - one)]
    got = symbol._sum_of_products(alg, zip([i, i], rights))
    assert _algebra_plain(got) == _algebra_plain(pairwise_l_dot(alg, [i, i], rights))
    assert got.coeffs[(0, 0)].payload.bound == 3


def test_sum_of_products_leaves_out_keys_no_product_reaches():
    alg = make_symbol_xy(3, 7)
    x, y = alg.tower.var("x"), alg.tower.var("y")
    us = [alg.scalar(x), alg.monomial(1, 0, y)]
    vs = [alg.monomial(1, 0, y), alg.scalar(x)]
    got = symbol._sum_of_products(alg, zip(us, vs))
    assert (0, 0) not in got.coeffs
    assert got.coeffs[(1, 0)] == x * y + y * x
    assert (2, 0) not in got.coeffs


# --- products by one constant term, and scaling by a tower constant -------------

# F_p, F_p[w]/(f) and Q, each with a primitive n-th root of unity, n = 1...5
_CONSTANT_TERM_CASES = (
    [("F61", height, n) for height in (1, 2) for n in range(1, 6)]
    + [("F11[w]/(w^2-2)", height, n) for height in (1, 2) for n in range(1, 6)]
    + [("Q", height, n) for height in (1, 2) for n in (1, 2)]
)


def _constant_term_algebras(base, height, n):
    """The algebra of _product_sum_algebra, whose a is truncated, and one
    with exact a = x + (outermost variable) and b = (outermost variable)."""
    outer = _VARIABLES[height - 1]
    tower = "".join(f"(({v}))" for v in _VARIABLES[:height])
    exact = parse_algebra(f"symbol(n={n}, omega=auto, a=x+{outer}, b={outer}) over {base}{tower}", 8)
    return [_product_sum_algebra(base, height, n), exact]


def _constants(tower):
    """Exact tower constants: 1, a prime-field value, and w over F_p[w]/(f)."""
    base = tower.base
    values = [base.one(), base.element(3 if base.char else Fraction(-2, 3))]
    if isinstance(base, ExtensionField):
        values.append(base.generator())
    return [tower.constant(c) for c in values]


@pytest.mark.parametrize(
    "base, height, n",
    _CONSTANT_TERM_CASES,
    ids=[f"{b}/h{h}/n{n}" for b, h, n in _CONSTANT_TERM_CASES],
)
def test_products_by_one_constant_term_match_the_pairwise_products(base, height, n):
    """c i^k j^l times an exact or truncated element, on either side, for
    every key and every exact constant c, equals the pairwise oracle in
    every coefficient, every bound at every level and the key order.  The
    terms are moved unless a key wraps, and then the kernel forms the
    product; a coefficient that is not an exact constant always goes to the
    kernel."""
    for alg in _constant_term_algebras(base, height, n):
        tower = alg.tower
        rng = random.Random(f"constant terms {base}/{height}/{n}/{alg.a}")
        operands = _product_sum_operands(alg, rng)
        operands.append(random_algebra_element(alg, rng, terms=4))
        keys = [(k, l) for k in range(n) for l in range(n)]
        for c in _constants(tower):
            for k, l in keys:
                m = alg.monomial(k, l, c)
                for z in operands + [alg.monomial(*key) for key in keys]:
                    for x, y in ((m, z), (z, m)):
                        wraps = any(
                            ka + kb >= n or la + lb >= n
                            for ka, la in x.coeffs
                            for kb, lb in y.coeffs
                        )
                        moved = symbol._constant_term_product(x, y)
                        assert (moved is None) == wraps
                        product = x * y
                        assert _algebra_plain(product) == _algebra_plain(pairwise_algebra_product(x, y))
                        for coeff in product.coeffs.values():
                            assert series_invariant_breaches(coeff.payload) == []
        # neither a truncated constant nor a non-constant coefficient moves terms
        x_var = tower.var("x")
        truncated_unit = (tower.one() + x_var).inv()
        assert not truncated_unit.is_exact()
        z = alg.scalar(x_var) + alg.monomial(n - 1, n - 1, x_var)
        for coeff in (x_var, truncated_unit):
            m = alg.monomial(0, 0, coeff)
            assert symbol._constant_term_product(m, z) is None
            assert symbol._constant_term_product(z, m) is None


@pytest.mark.parametrize(
    "base, height, n",
    _CONSTANT_TERM_CASES,
    ids=[f"{b}/h{h}/n{n}" for b, h, n in _CONSTANT_TERM_CASES],
)
def test_scaling_by_a_tower_constant_is_scaling_by_its_value(monkeypatch, base, height, n):
    """z.scale(c) for an exact tower constant c makes no tower product and
    equals z scaled by c's base-field value, each coefficient's tower
    product by c, and the pairwise product by alg.scalar(c), in every
    coefficient and bound at every level; an exact zero gives the zero
    element."""
    real_mul, tower_products = TowerElement.__mul__, []

    def counted(a, b):
        tower_products.append((a, b))
        return real_mul(a, b)

    for alg in _constant_term_algebras(base, height, n):
        tower = alg.tower
        rng = random.Random(f"scale {base}/{height}/{n}/{alg.a}")
        for z in _product_sum_operands(alg, rng):
            for c in _constants(tower):
                (value,) = (part for _, part in laurent._payload_parts(c.payload))
                with monkeypatch.context() as patch:
                    patch.setattr(TowerElement, "__mul__", counted)
                    scaled = z.scale(c)
                assert tower_products == []
                got = _algebra_plain(scaled)
                assert got == _algebra_plain(z.scale(value))
                by_products = AlgebraElement(alg, {kl: v * c for kl, v in z.coeffs.items()})
                assert got == _algebra_plain(by_products)
                assert got == _algebra_plain(pairwise_algebra_product(z, alg.scalar(c)))
                for coeff in scaled.coeffs.values():
                    assert series_invariant_breaches(coeff.payload) == []
            zero = z.scale(tower.zero())
            assert zero.coeffs == {} and zero == alg.zero()


def test_constant_routes_refuse_other_towers_and_algebras():
    """A constant of another tower, even its zero, cannot scale, and a
    monomial of another algebra cannot multiply, on either side."""
    alg = parse_algebra("symbol(n=3, omega=2, a=x+y, b=y) over F7((x))((y))", 8)
    other = parse_algebra("symbol(n=3, omega=2, a=x, b=t) over F7((x))((t))", 8)
    z = alg.one() + alg.i() * alg.j()
    for c in (other.tower.constant(3), other.tower.zero(), other.tower.var("t")):
        with pytest.raises(DescriptorMismatchError):
            z.scale(c)
        with pytest.raises(DescriptorMismatchError):
            alg.zero().scale(c)
    for m in (other.j(), other.monomial(1, 1, other.tower.constant(2))):
        with pytest.raises(DescriptorMismatchError):
            m * z
        with pytest.raises(DescriptorMismatchError):
            z * m


def test_separate_parses_of_one_algebra_are_equal_and_combine():
    """Equality tries identity first; two parses of the same text are still
    equal at every descriptor, and their elements combine."""
    text = "symbol(n=3, omega=2, a=x+y, b=y) over F7[w]/(w^2-3)((x))((y))"
    first, second = parse_algebra(text, 8), parse_algebra(text, 8)
    assert first is not second and first.tower is not second.tower
    assert first == second and first.tower == second.tower
    assert first.tower.top_ring() == second.tower.top_ring()
    assert first.tower.base is not second.tower.base
    assert first.tower.base == second.tower.base
    x, y = first.i() + first.j(), second.i() * second.j()
    assert _algebra_plain(x * y) == _algebra_plain(pairwise_algebra_product(x, y))
    assert x + y == y + x and (x - y) + y == x
    assert second.j() * first.i() == first.scalar(first.omega) * (second.i() * first.j())


# --- the reduced trace from the normal form --------------------------------------

_TRACE_BASES = {
    "F5": PrimeField(5),
    "F7": PrimeField(7),
    "F11": PrimeField(11),
    "F13": PrimeField(13),
    "Q": QQ,
    "F9": ExtensionField(PrimeField(3), [1, 0, 1], var="w"),
}
# (base, degree, height); every degree divides the order of the base's unit group
_TRACE_CASES = [
    ("F7", 1, 0), ("F7", 2, 1), ("F7", 3, 2), ("F7", 6, 1), ("F7", 3, 0),
    ("F5", 4, 2), ("F5", 4, 3), ("F11", 5, 1), ("F11", 5, 2), ("F11", 2, 3),
    ("F13", 3, 3), ("F13", 6, 2), ("F13", 4, 0), ("Q", 1, 1), ("Q", 2, 0),
    ("Q", 2, 2), ("Q", 2, 3), ("F9", 2, 1), ("F9", 4, 2), ("F9", 1, 3),
    ("F9", 4, 0), ("F7", 6, 0),
]


def _trace_constant(base, rng):
    if base.char == 0:
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
    if isinstance(base, PrimeField):
        return rng.randrange(1, base.p)
    while True:
        c = base.element([rng.randrange(base.char) for _ in range(base.degree)])
        if not c.is_zero():
            return c


def _trace_coefficient(tower, rng):
    """A sum of monomials, truncated half the time by a unit inverse in the tower."""
    c = tower.zero()
    for _ in range(rng.randint(1, 3)):
        exps = tuple(rng.randint(-1, 2) for _ in range(tower.height))
        c = c + tower.monomial(exps, _trace_constant(tower.base, rng))
    if tower.height and rng.random() < 0.5:
        exps = [0] * tower.height
        exps[rng.randrange(tower.height)] = 1
        c = c * (tower.one() + tower.monomial(exps, _trace_constant(tower.base, rng))).inv()
    return tower.one() if c.is_zero() else c


def _has_bound(plain):
    """Whether a series in the nested form of series_plain is truncated at some level."""
    return isinstance(plain, tuple) and (
        plain[1] is not None or any(_has_bound(c) for c in plain[0].values())
    )


# (base, degree, height): prime and extension bases, and F9 with char <= n
_CHAIN_CASES = [
    (base, n, height)
    for base, degrees in (
        ("F13", (2, 3, 4, 6)), ("F11", (5,)), ("F7[w]/(w^3-2)", (2, 3, 6)), ("F3[w]/(w^2+1)", (4,))
    )
    for n in degrees
    for height in (1, 2, 3)
    if (base, n, height) != ("F7[w]/(w^3-2)", 6, 3)  # Berkowitz alone takes seconds there
]


def _chain_algebra(base, n, height, truncated_slot):
    """Degree n over base((x))..., a = x, or x + O(x^2) in the innermost
    slot, and b = 1 + (outermost variable), at precision 6."""
    variables = _VARIABLES[:height]
    a = "x"
    if truncated_slot:
        a += "+O(" + "*".join([f"{v}^0" for v in reversed(variables[1:])] + ["x^2"]) + ")"
    tower = "".join(f"(({v}))" for v in variables)
    return parse_algebra(
        f"symbol(n={n}, omega=auto, a={a}, b=1+{variables[-1]}) over {base}{tower}", 6
    )


def _norm_or_error(norm):
    try:
        return series_plain(norm().payload)
    except ValdivError as exc:
        return type(exc), str(exc)


def test_conjugate_chain_norm_matches_berkowitz_in_every_window(monkeypatch):
    """On 312 elements of L = F[i], nrd equals (-1)^n times the constant term
    of Berkowitz over L on rho(x) in every coefficient and bound at every
    level, with the same errors, and builds no rho: heights 1-3, n = 2-6,
    F_p, F7[w]/(w^3 - 2) and F9, exact and truncated a.  Those off the trace
    route take the conjugate chain.  A truncated element outside F[i] still
    takes Berkowitz."""
    rng = random.Random(23)
    real_charpoly, real_matrix = symbol._l_charpoly, AlgebraElement.splitting_matrix
    built, chained = [], 0

    def matrix(self):
        built.append(self)
        return real_matrix(self)

    def berkowitz_norm(e):
        c0 = symbol._scalar_in_f(real_charpoly(e.algebra, real_matrix(e))[0])
        return -c0 if e.algebra.degree % 2 else c0

    calls = _spied_charpoly(monkeypatch)
    monkeypatch.setattr(AlgebraElement, "splitting_matrix", matrix)
    for (base, n, height), truncated_slot in itertools.product(_CHAIN_CASES, (False, True)):
        alg = _chain_algebra(base, n, height, truncated_slot)
        alg.verify_splitting_relations()
        for _ in range(6):
            e = alg.zero()
            for k in rng.sample(range(n), rng.randint(1, n)):
                e = e + alg.monomial(k, 0, _trace_coefficient(alg.tower, rng))
            want = _norm_or_error(lambda: berkowitz_norm(e))
            del built[:], calls[:]
            assert _norm_or_error(e.nrd) == want, (alg.describe(), str(e))
            assert built == [] and calls == []
            chained += e._chain is not None
        outside = e + alg.monomial(0, 1, _trace_coefficient(alg.tower, rng))
        if not outside._on_trace_route():
            outside.nrd()
            assert built == [outside] and len(calls) == 1
    assert chained >= 250


def test_trace_from_the_normal_form_matches_the_splitting_trace():
    """n * c_00 equals the trace of rho(e) in every coefficient and every bound
    at every level, on 550 elements with exact and truncated coefficients."""
    rng = random.Random(2016)
    checked = nonzero = truncated = 0
    for name, n, height in _TRACE_CASES:
        base = _TRACE_BASES[name]
        tower = Tower(base, ["x", "y", "z"][:height], default_prec=6)
        alg = SymbolAlgebra(
            tower,
            n,
            primitive_root_of_unity(base, n),
            _trace_coefficient(tower, rng),
            _trace_coefficient(tower, rng),
        )
        for _ in range(25):
            keys = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3))]
            keys += [(0, 0)] if rng.random() < 0.7 else []
            e = alg.element({kl: _trace_coefficient(tower, rng) for kl in keys})
            trace = series_plain(e.trd().payload)
            assert trace == series_plain(splitting_trace(e).payload)
            checked += 1
            nonzero += not e.trd().is_zero()
            truncated += _has_bound(trace)
    assert checked >= 500
    assert nonzero >= 300
    assert truncated >= 100


def test_trace_builds_no_splitting_matrix(monkeypatch):
    def refuse(self):
        raise AssertionError("splitting matrix built")

    monkeypatch.setattr(AlgebraElement, "splitting_matrix", refuse)
    alg = make_symbol_xy(3, 7)
    e = alg.scalar(alg.tower.var("x")) + alg.i() + alg.j()
    assert e.trd() == alg.tower.constant(3) * alg.tower.var("x")
    assert not alg._splitting_verified


def test_algebra_product_has_one_accumulator_per_output_key(monkeypatch):
    created = []

    class CountedSum(laurent.ProductSum):
        def __init__(self, ring):
            super().__init__(ring)
            created.append(self)

    monkeypatch.setattr(symbol, "ProductSum", CountedSum)
    alg = make_symbol_xy(3, 7)
    e = alg.one() + alg.i() + alg.j()
    square = e * e
    # 1 + 2i + 2j + i^2 + (1 + omega) ij + j^2: ij and ji share the key (1, 1)
    assert sorted(square.coeffs) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
    assert square.coeffs[(1, 1)] == alg.tower.constant(1 + 2)
    assert len(created) == len(square.coeffs)


def test_difference_negates_no_algebra_element(monkeypatch):
    rng = random.Random(53)
    pairs = []
    for alg in (make_symbol_xy(3, 7, prec=6), make_quaternion_f5(prec=6)):
        tower = alg.tower
        for _ in range(10):
            x = random_algebra_element(alg, rng, terms=3)
            y = random_algebra_element(alg, rng, terms=3)
            y = y + alg.scalar(_trace_coefficient(tower, rng))
            pairs.append((x, y, x + (-y)))
    pairs.append((pairs[0][0], pairs[0][0], pairs[0][0] + (-pairs[0][0])))

    def refuse(self):
        raise AssertionError("negated a copy")

    monkeypatch.setattr(AlgebraElement, "__neg__", refuse)
    for x, y, want in pairs:
        assert _algebra_plain(x - y) == _algebra_plain(want)


# --- the trace route of prd against Berkowitz over L ------------------------------

# (base, degree, height); the degree divides the order of the base's unit group
_ROUTE_CASES = [
    ("F5", 2, 1), ("F5", 4, 2), ("F7", 3, 1), ("F7", 6, 1), ("F11", 5, 1),
    ("F11", 2, 3), ("F13", 4, 1), ("F13", 6, 2), ("F13", 3, 3), ("F29", 7, 1),
    ("F29", 7, 2), ("F29", 4, 2), ("Q", 2, 1), ("Q", 2, 2),
]


def _berkowitz_prd(e):
    return [c.scalar_part() for c in symbol._l_charpoly(e.algebra, e.splitting_matrix())]


def _inverse_from(e, poly):
    """-(e^(n-1) + c_(n-1) e^(n-2) + ... + c_1) / c_0, powers formed from 1 up;
    the error class when c_0 is indistinguishable from zero."""
    alg = e.algebra
    if poly[0].indistinguishable_from_zero():
        return NotInvertibleError if poly[0].is_zero() else PrecisionExhaustedError
    acc, power = alg.zero(), alg.one()
    for k in range(1, alg.degree + 1):
        if k > 1:
            power = power * e
        if not poly[k].is_zero():
            acc = acc + power.scale(poly[k])
    return acc.scale(-poly[0].inv())


def _inverse_or_error(e):
    try:
        return e.inv()
    except (NotInvertibleError, PrecisionExhaustedError) as exc:
        return type(exc)


def _plain_or_error(x):
    return x if isinstance(x, type) else sorted(_algebra_plain(x))


def _route_algebra(name, n, height):
    """Degree n over base((x))..., a = x and b = 1 + (outermost variable), or
    b = 2 + x at height 1, at precision 8; and the truncated (1 + x + ...)^-1."""
    base = _TRACE_BASES.get(name) or PrimeField(int(name[1:]))
    tower = Tower(base, _VARIABLES[:height], default_prec=8)
    xs = [tower.var(v) for v in tower.variables]
    b = xs[-1] + tower.constant(1 if height > 1 else 2)
    alg = SymbolAlgebra(tower, n, primitive_root_of_unity(base, n), xs[0], b)
    return alg, sum(xs, tower.one()).inv()


def test_trace_route_matches_berkowitz_in_every_window(monkeypatch):
    """prd, nrd and inv equal Berkowitz over L, and the inverse formed from
    its polynomial, in every coefficient and every bound at every level, on
    140 elements at precision 8.  About half are scaled by the truncated
    (1 + x + ...)^-1 and take Berkowitz; the exact rest take the trace route."""
    calls = _spied_charpoly(monkeypatch)
    rng = random.Random(16)
    routes = {"trace": 0, "berkowitz": 0}
    for name, n, height in _ROUTE_CASES:
        alg, dense = _route_algebra(name, n, height)
        for _ in range(10):
            e = alg.zero()
            for _ in range(rng.randint(1, 3)):
                exps = tuple(rng.randint(-1, 2) for _ in range(height))
                c = alg.tower.monomial(exps, _trace_constant(alg.tower.base, rng))
                e = e + alg.monomial(rng.randrange(n), rng.randrange(n), c)
            truncated = rng.random() < 0.5
            if truncated:
                e = e.scale(dense)
            before = len(calls)
            got = e.prd()
            assert (len(calls) > before) == truncated
            routes["berkowitz" if truncated else "trace"] += 1
            want = got if truncated else _berkowitz_prd(e)
            assert [series_plain(c.payload) for c in got] == [
                series_plain(c.payload) for c in want
            ], (name, n, height, str(e))
            norm = -want[0] if n % 2 else want[0]
            assert series_plain(e.nrd().payload) == series_plain(norm.payload)
            assert _plain_or_error(_inverse_or_error(e)) == _plain_or_error(_inverse_from(e, want))
    assert min(routes.values()) >= 60


def test_trace_route_is_kept_off_truncated_inputs():
    """On truncated inputs the two routes can certify different windows.  Here
    the y^-4 coefficient of the constant term is x^2 + 4x^4 + 4x^7 + x^9 +
    O(x^10) by power sums, but x^2 + 4x^4 + 4x^7 + O(x^9) by Berkowitz, whose
    window prd keeps."""
    alg, dense = _route_algebra("F5", 4, 2)
    tower = alg.tower
    terms = {(1, 1): 2, (1, 3): 3, (3, 0): 1}  # c y^-1 i^k j^l
    e = alg.element({kl: tower.monomial((-1, 0), c) for kl, c in terms.items()}).scale(dense)
    want = _berkowitz_prd(e)
    plain = [series_plain(c.payload) for c in want]
    assert [series_plain(c.payload) for c in e.prd()] == plain
    assert e._powers is None
    by_traces = [series_plain(c.payload) for c in e._newton_charpoly()]
    assert by_traces[1:] == plain[1:]
    assert by_traces[0][0][-4][1] == 10 and plain[0][0][-4][1] == 9
    assert by_traces[0][0][-4][0] == {**plain[0][0][-4][0], 9: tower.base.one()}


@pytest.mark.parametrize("n, p", [(3, 7), (4, 5), (5, 11), (6, 7)])
def test_inverse_forms_only_the_powers_prd_did_not(monkeypatch, n, p):
    """nrd() then inv() costs n - 2 algebra products, and the powers stay
    cached on the element, x itself left out, so asking again forms none."""
    alg = make_symbol_xy(n, p, prec=6)
    e = alg.one() + alg.i() + alg.monomial(1, 1, alg.tower.var("x"))
    alg.verify_splitting_relations()
    products = []
    real = AlgebraElement.__mul__

    def counted(x, y):
        products.append((x, y))
        return real(x, y)

    monkeypatch.setattr(AlgebraElement, "__mul__", counted)
    e.nrd()
    assert len(e._powers) == (n + 1) // 2 - 1  # x^2, ..., x^m
    e.inv()
    assert len(products) == n - 2
    assert len(e._powers) == n - 2  # x^2, ..., x^(n-1)
    assert e.powers(n - 1)[2:] == e._powers and len(products) == n - 2


def test_inverse_on_the_berkowitz_route_starts_its_powers_at_x(monkeypatch):
    """A truncated element forms x^2, ..., x^(n-1) and multiplies nothing by one."""
    alg, truncated = _route_algebra("F13", 4, 2)
    e = alg.one() + alg.i() + alg.monomial(1, 1, truncated)
    products = []
    real = AlgebraElement.__mul__

    def counted(x, y):
        products.append((x, y))
        return real(x, y)

    monkeypatch.setattr(AlgebraElement, "__mul__", counted)
    e.prd()
    assert e._powers is None  # Berkowitz: prd forms no powers
    e.inv()
    assert len(e._powers) == alg.degree - 2  # x^2, ..., x^(n-1)
    assert len(products) == alg.degree - 2
    assert [pair for pair in products if alg.one() in pair] == []


class _Tracked(AlgebraElement):
    """An element that a weak reference can watch."""

    __slots__ = ("__weakref__",)


@pytest.mark.parametrize("route", ["prd", "inv"])
def test_an_element_is_freed_without_the_cycle_collector(route):
    """The cached powers leave x out, so an element whose prd took the trace
    route, or that was inverted, is in no reference cycle: with the cycle
    collector off it is freed once nothing refers to it."""
    alg = make_symbol_xy(3, 7, prec=6)
    alg.verify_splitting_relations()
    x = alg.tower.var("x")
    e = _Tracked(alg, (alg.one() + alg.i() + alg.monomial(1, 1, x)).coeffs)
    assert e._on_trace_route()
    gc.disable()
    try:
        getattr(e, route)()
        ref = weakref.ref(e)
        del e
        assert ref() is None
    finally:
        gc.enable()


def _spied_charpoly(monkeypatch):
    calls = []
    real = symbol._l_charpoly

    def spy(alg, mat):
        calls.append(alg)
        return real(alg, mat)

    monkeypatch.setattr(symbol, "_l_charpoly", spy)
    return calls


@pytest.mark.parametrize("name, berkowitz", [("F9", True), ("F5", False)])
def test_norm_routes_agree_with_the_left_regular_determinant(monkeypatch, name, berkowitz):
    """(t, w + t) of degree 4 over F9((t)), F9 = F3[w]/(w^2 + 1), takes
    Berkowitz over L (char F <= n); (t, 2 + t) over F5((t)) the trace route.
    On both, the determinant of left multiplication is Nrd^4."""
    calls = _spied_charpoly(monkeypatch)
    base = _TRACE_BASES[name]
    tower = Tower(base, ["t"], default_prec=8)
    t = tower.var("t")
    b = t + tower.constant(base.element([0, 1]) if name == "F9" else 2)
    alg = SymbolAlgebra(tower, 4, primitive_root_of_unity(base, 4), t, b)
    rng = random.Random(44)
    checked = 0
    while checked < 4:
        e = random_algebra_element(alg, rng, terms=3, span=1)
        if e.is_zero():
            continue
        assert left_regular_det(e).agrees_to_precision(e.nrd() ** 4)
        checked += 1
    assert len(calls) == (4 if berkowitz else 0)


# --- one as a factor --------------------------------------------------------------


def test_one_is_a_neutral_factor_bound_for_bound():
    """one * x and x * one equal x in every key, coefficient and bound at every
    level, on 600 truncated elements over F13((x))..., heights 1-3 and n = 2-4;
    so a chain of products may start from its first factor instead of one."""
    rng = random.Random(600)
    shapes = [(height, n) for height in (1, 2, 3) for n in (2, 3, 4)]
    algebras = {shape: _route_algebra("F13", shape[1], shape[0]) for shape in shapes}
    for case in range(600):
        alg, truncated = algebras[shapes[case % len(shapes)]]
        keys = rng.sample([(k, l) for k in range(alg.degree) for l in range(alg.degree)], 2)
        coefficients = [_trace_coefficient(alg.tower, rng) * truncated]
        coefficients.append(_trace_coefficient(alg.tower, rng))
        x = alg.monomial(*keys[0], coefficients[0]) + alg.monomial(*keys[1], coefficients[1])
        assert any(_has_bound(series_plain(c.payload)) for c in x.coeffs.values())
        want = _algebra_plain(x)
        assert _algebra_plain(alg.one() * x) == want
        assert _algebra_plain(x * alg.one()) == want
