import copy
import random
from collections import Counter
from fractions import Fraction

import pytest

from valdiv import laurent
from valdiv.errors import (
    DescriptorMismatchError,
    FieldConstructionError,
    NotAUnitError,
    NotInvertibleError,
    PrecisionExhaustedError,
)
from valdiv.fields import (
    QQ,
    ExtensionField,
    FieldAutomorphism,
    FieldElement,
    IrreducibilityWarning,
    PrimeField,
    frobenius,
    is_square,
)
from valdiv.grammar import parse_algebra
from valdiv.laurent import (
    INFINITE_VALUATION,
    LaurentSeries,
    SeriesRing,
    Tower,
    TwistedSeries,
    TwistedSeriesRing,
    central_indeterminate,
    hensel_sqrt,
    unit_is_square,
)

from oracles import (
    _naive_sum,
    boxed_series_inverse,
    brute_force_squares,
    budget_hensel_sqrt,
    naive_series_product,
    pairwise_algebra_product,
    series_invariant_breaches,
    series_plain,
    square_roots,
)

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


def test_infinite_valuation_is_above_every_valuation_and_equals_only_itself():
    inf = INFINITE_VALUATION
    values = [(-3,), (0,), (10**9,), (0, 1), (2, -5)]
    for v in values:
        assert inf > v and inf >= v and not inf < v and not inf <= v
        assert v < inf and v <= inf and not v > inf and not v >= inf
        assert inf != v and v != inf
    assert sorted([inf] + values)[-1] is inf
    assert sorted(values + [inf], reverse=True)[0] is inf
    assert min(inf, (7,)) == (7,) and max((7,), inf) is inf
    assert inf == inf and inf <= inf and inf >= inf
    assert not inf > inf and not inf < inf
    assert inf != 0 and inf != float("inf") and inf != "infinity" and inf is not None
    assert inf == copy.copy(inf) and hash(inf) == hash(copy.copy(inf)) == hash(inf)
    assert {inf: 1}[inf] == 1 and len({inf, copy.deepcopy(inf)}) == 1
    assert repr(inf) == str(inf) == "infinity"


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


def test_truncated_unit_with_vanishing_tail_keeps_its_window():
    """A truncated unit whose certified terms past the constant all vanish
    gets a root with the unit's windows, not an exact one; an exact
    constant keeps its exact root."""
    tower = Tower(F7, ["t"], default_prec=16)
    u = tower.element(tower.rings[0].series({0: F7.element(2)}, 5))
    assert str(hensel_sqrt(u)) == "3 + O(t^5)"
    xy = xy_tower(F7, prec=16)
    u = xy.element(xy.rings[1].series({0: xy.rings[0].series({0: F7.element(2)}, 3)}, 4))
    assert str(hensel_sqrt(u)) == "(3 + O(x^3)) + O(y^4)"
    for tow in (tower, xy):
        assert hensel_sqrt(tow.constant(2)) == tow.constant(3)


def _spy(monkeypatch, owner, name):
    """The list that gets one entry per call of owner.name from now on."""
    calls, real = [], getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


@pytest.mark.parametrize("prec", [64, 128])
def test_height_one_square_root_inverts_once(monkeypatch, prec):
    tower = Tower(F7, ["t"], default_prec=prec)
    t = tower.var("t")
    v = tower.constant(3) + t + tower.monomial((4,), 2) + tower.monomial((9,), 5)
    u = v * v
    inversions = _spy(monkeypatch, LaurentSeries, "inv")
    s = hensel_sqrt(u)
    assert len(inversions) == 1
    assert s.payload.bound == prec
    assert (s * s).agrees_to_precision(u)


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
    plain = TwistedSeriesRing(F9, FieldAutomorphism(F9))
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


def test_tower_refuses_coefficients_of_other_fields():
    # F5's 2 added to F7's t once printed 3*t
    f7 = Tower(F7, ["t"])
    with pytest.raises(DescriptorMismatchError, match="different base field"):
        f7.monomial((1,), F5.element(2))
    f9 = Tower(F9, ["t"])
    for make in (lambda c: f9.monomial((1,), c), f9.constant):
        with pytest.raises(DescriptorMismatchError, match="different base field"):
            make(F3.element(1))
    assert f9.monomial((1,), F9.generator()) == f9.var("t") * f9.constant(F9.generator())


# --- the product kernel against the naive pair loop ---------------------------

F343 = ExtensionField(F7, [-2, 0, 0, 1], var="w")  # w^3 - 2 has no root in F7


def _random_coefficient(field, rng):
    if field == QQ:
        return field.element(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    if field == F7:
        return field.element(rng.randrange(7))
    return field.element([rng.randrange(field.base.size()) for _ in range(field.degree)])


def _random_series(ring, rng):
    """Up to four terms at exponents -2..4, each child possibly O(v^k) alone;
    exact, or truncated at -1..6 with no term kept at or above the bound."""
    inner = ring.coeff_ring
    coeffs = {}
    for _ in range(rng.randint(0, 4)):
        e = rng.randint(-2, 4)
        if isinstance(inner, SeriesRing):
            if rng.random() < 0.15:
                coeffs[e] = inner.series({}, rng.randint(-1, 3))  # truncated zero
            else:
                coeffs[e] = _random_series(inner, rng)
        else:
            coeffs[e] = _random_coefficient(inner, rng)
    bound = None if rng.random() < 0.4 else rng.randint(-1, 6)
    return ring.series(coeffs, bound)


@pytest.mark.parametrize("field", [F7, F343, QQ], ids=["F7", "F7[w]", "Q"])
@pytest.mark.parametrize("height", [1, 2, 3])
def test_product_matches_naive_pair_loop(field, height):
    rng = random.Random(f"{field}/{height}")
    ring = Tower(field, ["x", "y", "z"][:height]).top_ring()
    for _ in range({1: 120, 2: 60, 3: 20}[height]):
        a, b = _random_series(ring, rng), _random_series(ring, rng)
        product = a * b
        assert type(product) is LaurentSeries
        assert series_plain(product) == naive_series_product(a, b)
        assert series_invariant_breaches(product) == []


def test_twisted_product_matches_naive_pair_loop():
    ring = twisted_ring()
    rng = random.Random("F9((t, frobenius))")
    for _ in range(200):
        a, b = _random_series(ring, rng), _random_series(ring, rng)
        product = a * b
        assert type(product) is TwistedSeries
        assert series_plain(product) == naive_series_product(a, b)
        assert series_invariant_breaches(product) == []


@pytest.mark.parametrize("field", [F7, F343, QQ], ids=["F7", "F7[w]", "Q"])
@pytest.mark.parametrize("height", [1, 2, 3])
def test_sum_matches_naive_sum(field, height):
    rng = random.Random(f"sum {field}/{height}")
    ring = Tower(field, ["x", "y", "z"][:height]).top_ring()
    seen = set()
    for _ in range({1: 200, 2: 100, 3: 40}[height]):
        a, b = _random_series(ring, rng), _random_series(ring, rng)
        seen.add((a.bound is None, b.bound is None))
        total, difference = a + b, a - b
        assert type(total) is type(difference) is LaurentSeries
        assert series_plain(total) == _naive_sum(series_plain(a), series_plain(b))
        assert series_plain(difference) == _naive_sum(series_plain(a), series_plain(-b))
        assert series_plain(a + a) == _naive_sum(series_plain(a), series_plain(a))
        assert series_invariant_breaches(total) == series_invariant_breaches(difference) == []
    assert len(seen) == 4  # exact and truncated on either side


def test_twisted_sum_matches_naive_sum():
    ring = twisted_ring()
    rng = random.Random("sum F9((t, frobenius))")
    for _ in range(200):
        a, b = _random_series(ring, rng), _random_series(ring, rng)
        total = a + b
        assert type(total) is TwistedSeries
        assert series_plain(total) == _naive_sum(series_plain(a), series_plain(b))
        assert series_invariant_breaches(total) == series_invariant_breaches(-b) == []


# --- the Kronecker path against the naive pair loop ---------------------------


def _grid(ring, rng, counts, low=0, spread=1, truncate=False, empty=0.0):
    """counts[0] terms at low, low + spread, ... at the outer level, counts[1]
    in each child and so on, every field coefficient nonzero.  Truncated, a
    series ends 1-3 exponents past its last term, so children of one series
    are cut at different bounds; with probability `empty` a child is
    replaced by O(v^k) with no terms."""
    inner = ring.coeff_ring
    coeffs = {}
    for k in range(counts[0]):
        e = low + k * spread
        if isinstance(inner, SeriesRing):
            if rng.random() < empty:
                coeffs[e] = inner.series({}, rng.randint(low, low + 3))
            else:
                coeffs[e] = _grid(inner, rng, counts[1:], low, spread, truncate, empty)
        else:
            coeffs[e] = _nonzero_coefficient(inner, rng)
    bound = low + counts[0] * spread + rng.randrange(3) if truncate else None
    return ring.series(coeffs, bound)


def _nonzero_coefficient(field, rng):
    """A random nonzero element of F_p, or of an extension of F_p."""
    if isinstance(field, PrimeField):
        return field.element(rng.randrange(1, field.p))
    while True:
        c = _random_coefficient(field, rng)
        if not c.is_zero():
            return c


def _terms_outside_windows(acc, level, inside=True):
    """Representatives in an accumulator at or above its node's bound, or
    under a node that lies at or above its parent's bound."""
    coeffs, bound = acc
    count = 0
    for e, c in coeffs.items():
        here = inside and (bound is None or e < bound)
        count += _terms_outside_windows(c, level - 1, here) if level else not here
    return count


def _checked_product(monkeypatch, a, b):
    """a*b checked against the naive pair loop at every coefficient and every
    bound; returns whether it took the Kronecker path, after checking that
    the Kronecker path wrote no term outside its windows."""
    seen = {"loop": 0, "acc": None}
    real_loop, real_box = laurent._mul_into, laurent._box

    def loop(*args):
        seen["loop"] += 1
        return real_loop(*args)

    def box(ring, acc):
        if seen["acc"] is None:
            seen["acc"] = copy.deepcopy(acc)
        return real_box(ring, acc)

    with monkeypatch.context() as patch:
        patch.setattr(laurent, "_mul_into", loop)
        patch.setattr(laurent, "_box", box)
        product = a * b
    assert series_plain(product) == naive_series_product(a, b)
    assert series_invariant_breaches(product) == []
    kronecker = seen["loop"] == 0
    if kronecker:
        assert _terms_outside_windows(seen["acc"], a.ring.height - 1) == 0
    return kronecker


def _field_terms(s):
    """The field terms of a series at every level, flattened."""
    if not hasattr(s, "coeffs"):
        return [s]
    return [t for c in s.coeffs.values() for t in _field_terms(c)]


def _all_reps(value, rep):
    """value with every field coefficient replaced by rep."""
    if not hasattr(value, "coeffs"):
        return value.field.element(rep)
    return value.ring.series({e: _all_reps(c, rep) for e, c in value.coeffs.items()}, value.bound)


def _outer_counts(pairs):
    """Outer term counts (m, n) with m * n == pairs and m, n as close as can be."""
    m = max(d for d in range(1, int(pairs**0.5) + 1) if pairs % d == 0)
    return m, pairs // m


def _gate_cases():
    """(field, height, truncate) for the gate tests: F7 under the ids
    "exact-1" ... "truncated-3", F7[w]/(w^3 - 2) under "F7[w]-exact-1" ..."""
    return [
        pytest.param(field, height, truncate, id=f"{prefix}{trunc_id}-{height}")
        for field, prefix in ((F7, ""), (F343, "F7[w]-"))
        for truncate, trunc_id in ((False, "exact"), (True, "truncated"))
        for height in (1, 2, 3)
    ]


@pytest.mark.parametrize("field, height, truncate", _gate_cases())
def test_kronecker_gate_on_outer_term_pairs(monkeypatch, field, height, truncate):
    """Dense operands on both sides of the O(1) gate take the path it picks."""
    rng = random.Random(f"outer/{height}/{truncate}")
    ring = Tower(field, ["x", "y", "z"][:height]).top_ring()
    inner = [3] * (height - 1)
    for pairs, kronecker in [
        (laurent.KRONECKER_MIN_PAIRS - 1, False),
        (laurent.KRONECKER_MIN_PAIRS, True),
    ]:
        m, n = _outer_counts(pairs)
        a = _grid(ring, rng, [m] + inner, low=-2, truncate=truncate)
        b = _grid(ring, rng, [n] + inner, low=-1, truncate=truncate)
        assert _checked_product(monkeypatch, a, b) is kronecker


@pytest.mark.parametrize("field, height, truncate", _gate_cases())
def test_kronecker_gate_on_density(monkeypatch, field, height, truncate):
    """Operands past the O(1) gate go the Kronecker way when dense and to the
    pair loop when their exponents spread too far for their term pairs."""
    rng = random.Random(f"density/{height}/{truncate}")
    ring = Tower(field, ["x", "y", "z"][:height]).top_ring()
    n = 6
    assert n * n >= laurent.KRONECKER_MIN_PAIRS
    for spread, inner, kronecker in [(1, n, True), (2, n, True), (40, 2, False)]:
        counts = [n] + [inner] * (height - 1)
        slots = (2 * (n - 1) * spread + 1) * (2 * (inner - 1) * spread + 1) ** (height - 1)
        terms = n * inner ** (height - 1)
        assert (slots <= laurent.KRONECKER_SLOTS_PER_PAIR * terms**2) is kronecker
        a = _grid(ring, rng, counts, low=0, spread=spread, truncate=truncate)
        b = _grid(ring, rng, counts, low=-3, spread=spread, truncate=truncate)
        assert _checked_product(monkeypatch, a, b) is kronecker


@pytest.mark.parametrize(
    "p, width",
    [(3, 1), (7, 2), (257, 4), (65537, 8), (4294967311, 9), (2**61 - 1, 16)],
)
def test_kronecker_slot_widths(monkeypatch, p, width):
    """Each slot width, native (1, 2, 4, 8 bytes) or wider, packs and reads
    back every sum, up to primes above 2^32 whose slots pass 2^64."""
    field = PrimeField(p)
    rng = random.Random(f"width/{p}")
    for counts in ([8], [6, 3]):
        ring = Tower(field, ["x", "y"][: len(counts)]).top_ring()
        for truncate in (False, True):
            a = _grid(ring, rng, counts, low=-1, truncate=truncate)
            b = _grid(ring, rng, counts, low=2, truncate=truncate)
            assert laurent._slot_width(p, len(_field_terms(a))) == width
            assert _checked_product(monkeypatch, a, b)
        # the largest sums a slot holds: every representative p - 1
        top = _all_reps(_grid(ring, rng, counts), p - 1)
        assert _checked_product(monkeypatch, top, top)


@pytest.mark.parametrize("height", [1, 2, 3])
def test_kronecker_slot_sums_divisible_by_p(monkeypatch, height):
    """sum x^i y^j... times sum (-1)^(i+j...) x^i y^j...: many slots hold a
    nonzero multiple of p, which must leave no term."""
    ring = Tower(F7, ["x", "y", "z"][:height]).top_ring()
    n = 6

    def alternating(r, sign):
        inner = r.coeff_ring
        if isinstance(inner, SeriesRing):
            return r.series({e: alternating(inner, sign * (-1) ** e) for e in range(n)})
        return r.series({e: inner.element(sign * (-1) ** e) for e in range(n)})

    signs = alternating(ring, 1)
    ones = _all_reps(signs, 1)
    assert _checked_product(monkeypatch, ones, signs)
    # the slot of x^1 under outer exponents 0 sums 6 + 1 = 7: no term there
    node = series_plain(ones * signs)
    for _ in range(height - 1):
        node = node[0][0]
    assert 1 not in node[0]


@pytest.mark.parametrize("height", [2, 3])
def test_kronecker_windows_with_empty_children(monkeypatch, height):
    """Truncated operands with O(v^k) children that hold no terms, negative
    exponents and children cut at different bounds, both orders, exact times
    truncated, and an operand with no field term at all (windows alone)."""
    rng = random.Random(f"empty/{height}")
    ring = Tower(F7, ["x", "y", "z"][:height]).top_ring()
    counts = [7] + [4] * (height - 1)
    for _ in range(6):
        a = _grid(ring, rng, counts, low=-3, truncate=True, empty=0.4)
        b = _grid(ring, rng, counts, low=rng.randint(-2, 1), truncate=True, empty=0.2)
        exact = _grid(ring, rng, counts, low=-1)
        hollow = _grid(ring, rng, counts, low=-2, truncate=True, empty=1.0)
        assert _checked_product(monkeypatch, hollow, a)
        assert _checked_product(monkeypatch, exact, hollow)
        assert _checked_product(monkeypatch, a, b)
        assert _checked_product(monkeypatch, b, a)
        assert _checked_product(monkeypatch, exact, a)
        assert _checked_product(monkeypatch, a, exact)
        assert _checked_product(monkeypatch, a, a)


# --- Kronecker products over extension-field bases ----------------------------

F25 = ExtensionField(F5, [-2, 0, 1], var="w")  # 2 is not a square mod 5
F27 = ExtensionField(F3, [-1, -1, 0, 1], var="w")  # w^3 - w - 1 has no root in F3
F7_DEGREE_1 = ExtensionField(F7, [-3, 1], var="w")  # w = 3, tuple representatives
PACKED_EXTENSIONS = [F343, F9, F25, F27, F7_DEGREE_1]
PACKED_IDS = ["F7[w]", "F9", "F25", "F27", "F7[w]/(w-3)"]


@pytest.mark.parametrize("field", PACKED_EXTENSIONS, ids=PACKED_IDS)
@pytest.mark.parametrize("height", [1, 2, 3])
@pytest.mark.parametrize("truncate", [False, True], ids=["exact", "truncated"])
def test_packed_extension_products_match_the_naive_pair_loop(monkeypatch, field, height, truncate):
    """Over F_p[w]/(f) the ring packs d coordinates in 2d - 1 slots per
    exponent vector, and every product, with empty truncated children and
    both orders, equals the naive pair loop at every coefficient and bound."""
    ring = Tower(field, ["x", "y", "z"][:height]).top_ring()
    d = field.degree
    assert ring.packing == laurent.Packing(field.base.p, d, 2 * d - 1, field)
    rng = random.Random(f"packed/{field}/{height}/{truncate}")
    counts = [7] + [3] * (height - 1)
    for _ in range(3):
        a = _grid(ring, rng, counts, low=-2, truncate=truncate, empty=0.2 if truncate else 0.0)
        b = _grid(ring, rng, counts, low=rng.randint(-1, 2), truncate=truncate)
        assert _checked_product(monkeypatch, a, b)
        assert _checked_product(monkeypatch, b, a)
        assert _checked_product(monkeypatch, a, a)


@pytest.mark.parametrize("field", PACKED_EXTENSIONS[:4], ids=PACKED_IDS[:4])
@pytest.mark.parametrize("height", [1, 2, 3])
def test_packed_slot_sums_divisible_by_p_in_some_coordinates(monkeypatch, field, height):
    """Sums over sign patterns, as over F7: at x^1 under outer exponents 0
    the coordinates of sign +-1 sum to (p - 1) + 1 = p in their slot.  With
    one such coordinate the coefficient keeps the others, also when that
    slot is w^(2d-2), which the reduction row folds; with every coordinate
    signed no term is left."""
    ring = Tower(field, ["x", "y", "z"][:height]).top_ring()
    n, d, w = 6, field.degree, field.generator()

    def alternating(r, sign, coefficient):
        inner = r.coeff_ring
        if isinstance(inner, SeriesRing):
            return r.series({e: alternating(inner, sign * (-1) ** e, coefficient) for e in range(n)})
        return r.series({e: coefficient(sign * (-1) ** e) for e in range(n)})

    def node_at_x1(s):
        node = series_plain(s)
        for _ in range(height - 1):
            node = node[0][0]
        return node[0]

    top = w ** (d - 1)
    ones, tops = (alternating(ring, 1, lambda sign: c) for c in (field.one(), top))
    for left, coefficient, want in [
        (ones, lambda sign: field.element(sign) + w, 2 * w),
        (tops, lambda sign: field.element(sign) * top + field.one(), 2 * top),
        (tops, lambda sign: field.element(sign) * (field.one() + w), None),
    ]:
        right = alternating(ring, 1, coefficient)
        assert _checked_product(monkeypatch, left, right)
        assert node_at_x1(left * right).get(1) == want


@pytest.mark.parametrize("truncate", [False, True], ids=["exact", "truncated"])
@pytest.mark.parametrize("height", [1, 2])
def test_product_sum_mixes_packed_and_pair_loop_products(monkeypatch, height, truncate):
    """A ProductSum over F7[w]/(w^3 - 2) that adds pair-loop products (below
    KRONECKER_MIN_PAIRS) and packed ones, in turn, into one accumulator: the
    packed products fold into tuples the pair loop left there."""
    rng = random.Random(f"mixed/{height}/{truncate}")
    ring = Tower(F343, ["x", "y"][:height]).top_ring()
    inner = [3] * (height - 1)
    dense = [_grid(ring, rng, [6] + inner, low=-1, truncate=truncate) for _ in range(4)]
    sparse = [_grid(ring, rng, [2] + inner, low=0, truncate=truncate) for _ in range(4)]
    pairs = [(sparse[0], sparse[1]), (dense[0], dense[1]), (sparse[2], dense[2]), (dense[3], sparse[3])]
    pairs += [(dense[1], dense[0])]
    want = naive_series_product(*pairs[0])
    for a, b in pairs[1:]:
        want = _naive_sum(want, naive_series_product(a, b))
    paths = []
    real_kronecker, real_loop = laurent._kronecker_mul_into, laurent._mul_into
    total = laurent.ProductSum(ring)

    def kronecker(acc, *args):
        took = real_kronecker(acc, *args)
        paths.append("packed" if took else "declined")
        return took

    def loop(acc, *args):
        if acc is total.acc:  # not the recursion into children
            paths.append("loop")
        return real_loop(acc, *args)

    with monkeypatch.context() as patch:
        patch.setattr(laurent, "_kronecker_mul_into", kronecker)
        patch.setattr(laurent, "_mul_into", loop)
        for a, b in pairs:
            total.add(a, b)
    assert paths == ["loop", "packed", "loop", "loop", "packed"]
    assert series_plain(total.result()) == want
    assert series_invariant_breaches(total.result()) == []


F81 = ExtensionField(F9, [F9.element([-1, -1]), 0, 1], var="v")  # v^2 = 1 + w, a non-square of F9


def test_rings_that_do_not_pack_keep_the_pair_loop(monkeypatch):
    """Dense products past both gates over a depth-2 field, over Q[w] and in
    the twisted F9((t, frobenius)) never reach the Kronecker path."""
    with pytest.warns(IrreducibilityWarning):
        qw = ExtensionField(QQ, [-2, 0, 1], var="w")
    rings = [SeriesRing(F81, "t"), SeriesRing(qw, "t"), twisted_ring()]
    tried = []
    monkeypatch.setattr(laurent, "_kronecker_mul_into", lambda *args: tried.append(args))
    for ring in rings:
        assert ring.packing is None
        field = ring.coeff_ring
        a, b = (
            ring.series({e: field.generator() + field.element(e % 3 + k) for e in range(8)})
            for k in (1, 2)
        )
        seen = []
        real = laurent._mul_into
        with monkeypatch.context() as patch:
            patch.setattr(laurent, "_mul_into", lambda *args: seen.append(1) or real(*args))
            product = a * b
        assert seen == [1]
        assert series_plain(product) == naive_series_product(a, b)
    assert tried == []


# --- sums of products in one accumulator ---------------------------------------


@pytest.mark.parametrize("height", [1, 2, 3])
@pytest.mark.parametrize("truncate", [False, True], ids=["exact", "truncated"])
def test_product_sum_of_two_kronecker_products_apart(monkeypatch, height, truncate):
    """Two products whose exponent ranges do not overlap, added in either
    order, both by Kronecker substitution, sum to _sum of the boxed products."""
    rng = random.Random(f"apart/{height}/{truncate}")
    ring = Tower(F7, ["x", "y", "z"][:height]).top_ring()
    counts = [6] + [3] * (height - 1)
    low = [_grid(ring, rng, counts, low=-3, truncate=truncate) for _ in range(2)]
    high = [_grid(ring, rng, counts, low=20, truncate=truncate) for _ in range(2)]
    assert _checked_product(monkeypatch, *low) and _checked_product(monkeypatch, *high)
    want = series_plain(laurent._sum(low[0] * low[1], high[0] * high[1]))
    kronecker = []
    real = laurent._kronecker_mul_into

    def counted(*args):
        kronecker.append(real(*args))
        return kronecker[-1]

    for first, second in ((low, high), (high, low)):
        kronecker.clear()
        total = laurent.ProductSum(ring)
        with monkeypatch.context() as patch:
            patch.setattr(laurent, "_kronecker_mul_into", counted)
            total.add(*first)
            total.add(*second)
        assert kronecker == [True, True]
        assert series_plain(total.result()) == want
        assert series_invariant_breaches(total.result()) == []


# --- what each series caches for the product kernels ---------------------------


@pytest.mark.parametrize("p", [5, 257])
@pytest.mark.parametrize("height", [1, 2, 3])
@pytest.mark.parametrize("truncate", [False, True], ids=["exact", "truncated"])
def test_cached_packing_follows_each_partner(monkeypatch, p, height, truncate):
    """One operand times three partners in a row, each with other extents
    and term counts, in both orders: every product matches the naive pair
    loop at every coefficient and every bound.  Between products the
    operand's packing changes its strides (heights 2-3) or its slot width
    (F5); at height 1 over F257 neither can change, so it is reused."""
    rng = random.Random(f"stale/{p}/{height}/{truncate}")
    ring = Tower(PrimeField(p), ["x", "y", "z"][:height]).top_ring()
    a = _grid(ring, rng, [16] + [3] * (height - 1), low=-2, truncate=truncate)
    keys = []
    for counts, low, spread in [
        ([6] + [3] * (height - 1), 0, 1),
        ([24] + [4] * (height - 1), -5, 1),
        ([8] + [1] * (height - 1), 3, 2),
    ]:
        b = _grid(ring, rng, counts, low=low, spread=spread, truncate=truncate)
        assert _checked_product(monkeypatch, a, b)
        width, strides, _ = a._packing
        keys.append((width, tuple(strides)))
        assert _checked_product(monkeypatch, b, a)
    if (height, p) == (1, 257):
        assert keys == [(4, (1,))] * 3
    else:
        assert keys[0] != keys[1] != keys[2]
    if p == 5:
        assert {width for width, _ in keys} == {1, 2}


def test_algebra_product_surveys_and_sorts_each_series_once(monkeypatch):
    """x*y for dense truncated coefficients in an n = 3 algebra over
    F7((x))((y)): each of the three rows of j-degree of x meets each of y's
    on the Kronecker path, as one series in a power of i, and no series is
    surveyed or sorted twice."""
    alg = parse_algebra("symbol(n=3, omega=2, a=x+y, b=y) over F7((x))((y))", 8)
    tower = alg.tower
    dense = (tower.one() + tower.var("x") + tower.var("y")).inv()
    rng = random.Random("survey once")

    def element():
        shifts = [(rng.randint(-1, 1), rng.randint(-1, 1)) for _ in range(9)]
        return alg.element({
            (k // 3, k % 3): dense * tower.monomial(shift, rng.randrange(1, 7))
            for k, shift in enumerate(shifts)
        })

    x, y = element(), element()
    surveyed, sorted_dicts = [], []
    real_survey = laurent._survey

    def survey(s):
        surveyed.append(s)
        return real_survey(s)

    def counted_sorted(items):
        sorted_dicts.append(items.mapping)
        return sorted(items)

    monkeypatch.setattr(laurent, "_survey", survey)
    monkeypatch.setattr(laurent, "sorted", counted_sorted, raising=False)
    product = x * y
    monkeypatch.undo()
    assert len({id(s) for s in surveyed}) == len(surveyed)
    assert len({id(d) for d in sorted_dicts}) == len(sorted_dicts) > 0
    assert len(surveyed) == 3 + 3 * 3
    assert {s.ring.height for s in surveyed} == {tower.height + 1}
    assert product == x * y == pairwise_algebra_product(x, y)


# --- exact small factors as shifted copies ---------------------------------------


def _small_factors(tower, rng):
    """Exact factors of one and two field terms: 1, a monomial, two terms in
    one outer child and in two, and the innermost plus the outermost
    variable (2x at height 1)."""
    height = tower.height

    def monomial(exps=None):
        exps = exps or tuple(rng.randint(-2, 2) for _ in range(height))
        return tower.monomial(exps, _nonzero_coefficient(tower.base, rng)).payload

    outer = rng.randint(-2, 2)
    inner = [tuple([outer] + [rng.randint(-2, 2) for _ in range(height - 1)]) for _ in range(2)]
    apart = [(outer,) + inner[0][1:], (outer + 1 + rng.randint(0, 2),) + inner[1][1:]]
    factors = [tower.one().payload, monomial(), monomial(apart[0]) + monomial(apart[1])]
    if height > 1 and inner[0] != inner[1]:
        factors.append(monomial(inner[0]) + monomial(inner[1]))
    factors.append((tower.var("x") + tower.var(tower.variables[-1])).payload)
    return factors


@pytest.mark.parametrize("field", [F7, F343, QQ], ids=["F7", "F7[w]", "Q"])
@pytest.mark.parametrize("height", [1, 2, 3])
def test_exact_small_factors_add_shifted_copies(monkeypatch, field, height):
    """A truncated series times an exact factor of at most two field terms,
    on either side, alone and added to a ProductSum that already holds a
    product, equals the naive pair loop in every coefficient and bound at
    every level, bound-only children included; the shifted copies made it."""
    rng = random.Random(f"shifted {field}/{height}")
    tower = Tower(field, ["x", "y", "z"][:height])
    ring = tower.top_ring()
    shifted = _spy(monkeypatch, laurent, "_add_shifted")
    checked = 0
    while checked < {1: 60, 2: 40, 3: 20}[height]:
        s = _random_series(ring, rng)
        if s.bound is None:
            continue
        checked += 1
        held = _random_series(ring, rng), _random_series(ring, rng)
        for m in _small_factors(tower, rng):
            for x, y in ((s, m), (m, s)):
                assert series_plain(x * y) == naive_series_product(x, y)
                total = laurent.ProductSum(ring)
                total.add(*held)
                total.add(x, y)
                want = _naive_sum(naive_series_product(*held), naive_series_product(x, y))
                assert series_plain(total.result()) == want
                assert series_invariant_breaches(total.result()) == []
    assert len(shifted) >= checked * 4


def test_twisted_products_take_no_shifted_copies(monkeypatch):
    """sigma^e1 acts on the right factor's terms, so a twisted ring keeps the
    pair loop for exact small factors."""
    ring = twisted_ring()
    rng = random.Random("twisted small factors")
    shifted = _spy(monkeypatch, laurent, "_add_shifted")
    for _ in range(100):
        s = _random_series(ring, rng)
        m = ring.series({e: _random_coefficient(F9, rng) for e in rng.sample(range(-2, 3), 2)})
        for x, y in ((s, m), (m, s)):
            assert series_plain(x * y) == naive_series_product(x, y)
    assert shifted == []


# --- inversion on representatives ---------------------------------------------


def test_inversion_over_an_extension_field_boxes_no_products(monkeypatch):
    tower = Tower(F343, ["t"], default_prec=64)
    w = F343.generator()
    u = (
        tower.constant(w)
        + tower.var("t")
        + tower.monomial((3,), w + F343.one())
        + tower.monomial((7,), w * w)
    )
    products = _spy(monkeypatch, FieldElement, "__mul__")
    ui = u.inv()
    assert products == []
    monkeypatch.undo()
    assert ui.payload.bound == 64
    assert (u * ui).agrees_to_precision(tower.one())


@pytest.mark.parametrize("field", [F7, F343, QQ, None], ids=["F7", "F7[w]", "Q", "F9-twisted"])
def test_inverse_matches_boxed_recurrence(field):
    """Every coefficient and the bound of the inverse, against the
    recurrence run on boxed elements; leads -3..3 so that the twisted
    inverse is untwisted by every power of sigma."""
    ring = twisted_ring(prec=24) if field is None else SeriesRing(field, "t", 24)
    field = ring.coeff_ring
    rng = random.Random(f"inverse {ring}")
    for k in range(80):
        lead, c = rng.randint(-3, 3), _random_coefficient(field, rng)
        coeffs = {lead: field.one() if c.is_zero() else c}
        for _ in range(rng.randint(0, 6)):
            coeffs[lead + rng.randint(1, 12)] = _random_coefficient(field, rng)
        bound = None if k % 2 else lead + rng.randint(1, 20)
        x = ring.series(coeffs, bound)
        assert series_plain(x.inv()) == boxed_series_inverse(x), str(x)
        assert series_invariant_breaches(x.inv()) == []


# --- Hensel square roots against the reference lift ---------------------------


def _tower_series(rng, tower, level, truncated):
    """Up to four terms at exponents -2..8 of level `level` of the tower (0
    innermost), their coefficients one level down truncated about half as
    often as this one."""
    ring = tower.rings[level]
    lead = rng.randint(-2, 2)
    coeffs = {}
    for _ in range(rng.randint(1, 4)):
        coeffs[lead + rng.randint(0, 6)] = (
            _random_coefficient(tower.base, rng)
            if level == 0
            else _tower_series(rng, tower, level - 1, truncated and rng.random() < 0.5)
        )
    return ring.series(coeffs, lead + rng.randint(2, 9) if truncated else None)


def _random_unit(rng, tower, truncated, square):
    """c + z: c a nonzero constant, a square or not, and z a random element
    moved by a monomial to a random valuation above 0, so that its terms at
    every level may have exponents below 0."""
    while True:
        c = _random_coefficient(tower.base, rng)
        if not c.is_zero() and is_square(c) == square:
            break
    while True:
        z = tower.element(_tower_series(rng, tower, tower.height - 1, truncated))
        try:
            v = z.valuation()
        except PrecisionExhaustedError:
            continue
        if v is not INFINITE_VALUATION:
            break
    first = rng.randrange(tower.height)
    w = [0] * first + [rng.randint(1, 3)]
    w += [rng.randint(-2, 2) for _ in range(tower.height - first - 1)]
    return tower.constant(c) + z * tower.monomial(tuple(a - b for a, b in zip(w, v)))


def _root_outcome(sqrt, u):
    try:
        s = sqrt(u)
    except PrecisionExhaustedError as exc:
        return type(exc).__name__
    if s is None:
        return None
    assert series_invariant_breaches(s.payload) == []
    return series_plain(s.payload)


@pytest.mark.parametrize("field", [F7, F9, F343], ids=["F7", "F9", "F7[w]"])
def test_hensel_sqrt_matches_the_reference_lift(field):
    """Every coefficient and every bound of hensel_sqrt, at every level,
    against the lift with a full-precision inversion per step, for exact
    and truncated units and non-squares at heights 1-3.  A truncated unit
    whose residue root already squares to it in every certified term is
    left out: the reference returns that root as if it were exact."""
    rng = random.Random(f"hensel sweep {field}")
    seen = Counter()
    for height, prec in [(1, 8), (1, 16), (1, 32), (1, 64), (2, 8), (2, 16), (3, 8)]:
        tower = Tower(field, ["x", "y", "z"][:height], default_prec=prec)
        for k in range(12):
            truncated, square = k % 2 == 1, k % 3 != 2
            u = _random_unit(rng, tower, truncated, square)
            if square:
                d = tower.constant(square_roots(u.residue())[0]) ** 2 - u
                if not d.is_zero() and d.indistinguishable_from_zero():
                    seen["left out"] += 1
                    continue
            got = _root_outcome(hensel_sqrt, u)
            assert got == _root_outcome(budget_hensel_sqrt, u), (height, prec, str(u))
            seen[height, truncated, got is None] += 1
    for height in (1, 2, 3):
        for truncated in (False, True):
            assert seen[height, truncated, False] >= 2 and seen[height, truncated, True] >= 1


# --- the series invariant where outside input enters ---------------------------


def test_ring_series_drops_zeros_and_terms_at_or_above_the_bound():
    inner, outer = xy_tower(F7).rings
    s = inner.series({0: F7.zero(), 1: F7.one(), 5: F7.one(), 6: F7.element(3)}, 5)
    assert series_plain(s) == ({1: F7.one()}, 5)
    nested = outer.series(
        {0: inner.zero(), 1: inner.series({}, 3), 2: inner.one(), 6: inner.one()}, 6
    )
    assert series_plain(nested) == ({1: ({}, 3), 2: ({0: F7.one()}, None)}, 6)
    twisted = twisted_ring().series({0: F9.zero(), 2: F9.one()})
    assert series_plain(twisted) == ({2: F9.one()}, None)
    for value in (s, nested, twisted):
        assert series_invariant_breaches(value) == []


def test_scale_by_zero_keeps_truncated_zeros_with_their_bounds():
    xy = xy_tower(F7)
    inner, outer = xy.rings
    u = xy.element(outer.series({0: inner.series({0: F7.one()}, 3), 1: inner.one()}, 4))
    assert str(u) == "(1 + O(x^3)) + y + O(y^4)"
    zero = u.scale(F7.zero()).payload
    assert series_plain(zero) == ({0: ({}, 3)}, 4)
    assert series_invariant_breaches(zero) == []


@pytest.mark.parametrize("height", [0, 1, 2, 3])
def test_zero_constants_are_exact_zeros(height):
    tower = Tower(F7, ["x", "y", "z"][:height])
    for zero in (tower.constant(0), tower.constant(F7.zero()), tower.zero()):
        assert zero.is_zero()
        assert series_plain(zero.payload) == (F7.zero() if height == 0 else ({}, None))
    three = tower.constant(3).payload
    assert series_invariant_breaches(three) == []
    for _ in range(height):
        assert set(three.coeffs) == {0} and three.bound is None
        three = three.coeffs[0]
    assert three == F7.element(3)
