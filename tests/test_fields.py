import itertools
import random
import warnings
from fractions import Fraction

import pytest

from valdiv.errors import (
    DescriptorMismatchError,
    FieldConstructionError,
    NotInvertibleError,
    UnsupportedFieldError,
)
from valdiv.fields import (
    QQ,
    ExtensionField,
    FieldAutomorphism,
    FieldElement,
    PrimeField,
    cyclotomic_polynomial,
    frobenius,
    has_order,
    is_square,
    multiplicative_order,
    primitive_root_of_unity,
    sqrt,
)

from oracles import (
    brute_force_squares,
    extension_sort_key,
    extension_str,
    is_irreducible_mod_p,
    matrix_charpoly,
    matrix_det,
    naive_extension_elements,
    naive_extension_inverse,
    naive_extension_negative,
    naive_extension_product,
    naive_extension_sum,
    smallest_element_of_order,
    square_roots,
)

F5 = PrimeField(5)
F7 = PrimeField(7)
F3 = PrimeField(3)
F9 = ExtensionField(F3, [1, 0, 1], var="w")  # w^2 + 1
F25 = ExtensionField(F5, [-2, 0, 1], var="g")  # g^2 - 2
F7a = ExtensionField(F7, [-2, 0, 0, 1], var="a")  # a^3 - 2
QI = ExtensionField(QQ, [1, 0, 1], var="z")  # z^2 + 1


def test_prime_field_inverse():
    assert F5.element(2).inv() == F5.element(3)
    with pytest.raises(NotInvertibleError):
        F5.zero().inv()


def test_extension_arithmetic_examples():
    one, z = QI.one(), QI.generator()
    assert (one + z) * (one - z) == QI.element(2)
    a = F7a.generator()
    assert a.inv() == F7a.element([0, 0, 4])
    assert a * a.inv() == F7a.one()


def test_descriptor_mismatch_is_rejected():
    with pytest.raises(DescriptorMismatchError):
        F5.element(1) + F7.element(1)


def test_field_axioms_fuzz():
    rng = random.Random(5)
    fields = [F5, F7a, F9, QQ, QI]

    def rand_elem(field):
        if field is QQ:
            return field.element(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        if isinstance(field, PrimeField):
            return field.element(rng.randint(0, field.p - 1))
        if field.base is QQ:
            return field.element(
                [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(field.degree)]
            )
        return field.element(
            [rng.randint(0, field.base.p - 1) for _ in range(field.degree)]
        )

    for field in fields:
        for _ in range(500):
            x, y, z = (rand_elem(field) for _ in range(3))
            assert (x + y) + z == x + (y + z)
            assert x * (y + z) == x * y + x * z
            assert (x * y) * z == x * (y * z)
            assert x + (-x) == field.zero()
            if not x.is_zero():
                assert x * x.inv() == field.one()


def test_reducible_modulus_rejected_over_finite_fields():
    with pytest.raises(FieldConstructionError):
        ExtensionField(F5, [-4, 0, 1])  # x^2 - 4 = (x-2)(x+2)
    with pytest.raises(FieldConstructionError):
        ExtensionField(F5, [1, 2, 1])  # (x+1)^2


def test_irreducibility_matches_trial_division_at_every_degree():
    def accepted(p, low):
        try:
            ExtensionField(PrimeField(p), list(low) + [1])
        except FieldConstructionError:
            return False
        return True

    rng = random.Random(5)
    cases = [(2, low) for d in range(1, 8) for low in itertools.product(range(2), repeat=d)]
    cases += [(3, low) for d in range(1, 5) for low in itertools.product(range(3), repeat=d)]
    cases += [(p, [rng.randrange(p) for _ in range(d)]) for p in (5, 7) for d in (5, 6, 7)
              for _ in range(40)]
    wrong = [(p, low) for p, low in cases
             if accepted(p, low) != is_irreducible_mod_p(list(low) + [1], p)]
    assert wrong == []


def test_reducible_modulus_without_roots_rejected_above_degree_four():
    with pytest.raises(FieldConstructionError, match="is reducible over F7"):
        ExtensionField(F7, [2, 0, 2, 1, 0, 1])  # (w^2 + 1)(w^3 + 2)
    assert ExtensionField(F7, [3, 1, 0, 0, 0, 1]).degree == 5


def test_primitive_root_examples():
    assert primitive_root_of_unity(F5, 4) == F5.element(2)
    assert primitive_root_of_unity(F7, 1) == F7.one()
    zeta = primitive_root_of_unity(QQ, 4)
    assert isinstance(zeta.field, ExtensionField)
    assert zeta.field.modulus == tuple(QQ.element(c) for c in [1, 0, 1])
    assert zeta * zeta == zeta.field.element(-1)
    with pytest.raises(FieldConstructionError):
        primitive_root_of_unity(F5, 3)  # 3 does not divide 4


@pytest.mark.parametrize("n", [3, 4, 5])
def test_cyclotomic_root_over_q_warns_nothing(n):
    """Phi_n is irreducible over Q, so no IrreducibilityWarning is raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        zeta = primitive_root_of_unity(QQ, n)
    assert has_order(zeta, n)


def test_primitive_root_order_is_exact():
    for field, n in [(F5, 4), (F7, 3), (F7, 6), (F9, 8), (F25, 24)]:
        w = primitive_root_of_unity(field, n)
        assert has_order(w, n)
        assert multiplicative_order(w) == n
        for m in range(1, n):
            assert w**m != field.one()


F10007 = PrimeField(10007)
F101w = ExtensionField(PrimeField(101), [-2, 0, 1], var="w")  # 10,201 elements
F81 = ExtensionField(F9, [F9.element([-1, -1]), 0, 1], var="v")  # v^2 = 1 + w, a non-square of F9


@pytest.mark.parametrize(
    "field, n, primes",
    [
        (F10007, 2, [2]),
        (F10007, 5003, [5003]),
        (F10007, 10006, [2, 5003]),
        (F101w, 2, [2]),
        (F101w, 8, [2]),
        (F101w, 51, [3, 17]),
        (F101w, 10200, [2, 3, 5, 17]),
    ],
    ids=str,
)
def test_roots_of_unity_above_ten_thousand_elements(field, n, primes):
    w = primitive_root_of_unity(field, n)
    assert w**n == field.one()
    assert all(w ** (n // ell) != field.one() for ell in primes)
    assert multiplicative_order(w) == n
    if n == 2:
        assert w == field.element(-1)


@pytest.mark.parametrize(
    "field, non_square, sample",
    [
        (F10007, -1, lambda rng: rng.randrange(10007)),
        (F101w, [0, 1], lambda rng: [rng.randrange(101), rng.randrange(101)]),
    ],
    ids=["F10007", "F101w"],
)
def test_square_roots_above_ten_thousand_elements(field, non_square, sample):
    rng = random.Random(6)
    non_square = field.element(non_square)
    for _ in range(50):
        y = field.element(sample(rng))
        r = sqrt(y * y)
        assert r * r == y * y
        assert r == min(y, -y, key=lambda e: e.sort_key())
        assert y.is_zero() or sqrt(non_square * y * y) is None


@pytest.mark.parametrize(
    "field",
    [PrimeField(p) for p in range(3, 102) if all(p % d for d in range(2, p))]
    + [F9, ExtensionField(F3, [1, 2, 0, 1], var="u"), F25, F7a]
    + [ExtensionField(PrimeField(11), [1, 0, 1], var="i"), F81, F10007],
    ids=str,
)
def test_roots_and_square_roots_match_brute_force_oracles(field):
    q = field.size()
    for n in range(1, q):
        if (q - 1) % n == 0:
            assert primitive_root_of_unity(field, n) == smallest_element_of_order(field, n)
    for x in field.elements():
        roots = square_roots(x)
        assert sqrt(x) == (roots[0] if roots else None)


@pytest.mark.parametrize(
    "field",
    [
        PrimeField(2**61 - 1),
        ExtensionField(PrimeField(9973), [11, 1, 0, 1], var="w"),
        ExtensionField(PrimeField(2), [1, 1, 0, 1], var="w"),
        F7a,
        F9,
    ],
    ids=str,
)
@pytest.mark.parametrize("terms", [1, 2, 127])
def test_packed_sums_of_the_largest_products_fold_exactly(field, terms):
    """`terms` products of the element whose every coordinate is p - 1 fill
    the middle slot to (p-1)^2 * d * terms, the bound the slots are sized
    for; the sum must fold to the same element as the boxed sum."""
    pack, fold = field._packer(terms)
    top = field.element([-1] * field.degree if isinstance(field, ExtensionField) else -1)
    acc = sum(pack(top.rep) * pack(top.rep) for _ in range(terms))
    assert FieldElement(field, fold(acc)) == top * top * terms


@pytest.mark.parametrize(
    "field",
    [PrimeField(13), PrimeField(17), PrimeField(41), ExtensionField(F7, [3, 1, 1], var="w"), F9],
    ids=str,
)
def test_sqrt_decides_squares_by_tonelli_shanks_alone(field, monkeypatch):
    """Where 4 divides q - 1, so that the 2-part 2^s of q - 1 has s >= 2,
    sqrt returns None for a non-square from the order of x^t, with no
    separate square test, and the least root of a square otherwise."""
    q = field.size()
    assert (q - 1) % 4 == 0
    tests = []
    monkeypatch.setattr("valdiv.fields.is_square", lambda x: tests.append(x) or is_square(x))
    for x in field.elements():
        roots = square_roots(x)
        if isinstance(field, PrimeField):
            assert bool(roots) == (x.rep in brute_force_squares(q))
        tests.clear()
        assert sqrt(x) == (roots[0] if roots else None)
        assert roots or tests == []


def test_multiplicative_order_in_characteristic_zero():
    assert multiplicative_order(QQ.element(-1)) == 2
    assert multiplicative_order(QI.generator()) == 4
    assert multiplicative_order(ExtensionField(QQ, [1, 0, 0, 0, 1], var="z").generator()) == 8
    with pytest.raises(UnsupportedFieldError):
        multiplicative_order(QQ.element(2))


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(4) == [1, 0, 1]
    assert cyclotomic_polynomial(3) == [1, 1, 1]
    assert cyclotomic_polynomial(6) == [1, -1, 1]
    assert cyclotomic_polynomial(8) == [1, 0, 0, 0, 1]


def test_is_square_examples():
    assert not is_square(F5.element(2))
    assert is_square(F5.one())
    assert is_square(QQ.element(Fraction(9, 4)))
    assert not is_square(QQ.element(Fraction(-9, 4)))
    assert not is_square(QQ.element(Fraction(2)))
    with pytest.raises(UnsupportedFieldError):
        is_square(QI.generator())


def test_is_square_matches_brute_force_for_small_primes():
    for p in [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]:
        field = PrimeField(p)
        squares = brute_force_squares(p)
        for v in range(p):
            assert is_square(field.element(v)) == (v in squares)
            w = sqrt(field.element(v))
            if v in squares:
                assert w is not None and w * w == field.element(v)
            else:
                assert w is None


def test_sqrt_rational():
    r = sqrt(QQ.element(Fraction(9, 4)))
    assert r == QQ.element(Fraction(3, 2))
    assert sqrt(QQ.element(2)) is None


def test_frobenius_is_additive_automorphism():
    rng = random.Random(9)
    for field in (F9, F25):
        frob = frobenius(field)
        p = field.char
        for _ in range(100):
            x = field.element([rng.randint(0, p - 1) for _ in range(field.degree)])
            y = field.element([rng.randint(0, p - 1) for _ in range(field.degree)])
            assert frob(x + y) == frob(x) + frob(y)
            assert frob(x * y) == frob(x) * frob(y)
            assert frob(x) == x**p
        assert frob.order == field.degree


def test_conjugation_automorphism_on_gaussian_rationals():
    conj = FieldAutomorphism(QI, -QI.generator())
    z = QI.generator()
    x = QI.element([Fraction(3, 5), Fraction(4, 5)])
    assert conj(x) == QI.element([Fraction(3, 5), Fraction(-4, 5)])
    assert conj(conj(x)) == x
    assert conj.order == 2
    assert conj(z * x) == conj(z) * conj(x)


def test_matrix_det_and_charpoly():
    a, b, c, d = (QQ.element(v) for v in (2, 3, 5, 7))
    assert matrix_det([[a, b], [c, d]]) == a * d - b * c

    ext = ExtensionField(QQ, [-2, 0, 1], var="s")  # s^2 = 2
    s = ext.generator()
    cp = matrix_charpoly([[s, ext.zero()], [ext.zero(), -s]])
    # (X - s)(X + s) = X^2 - 2
    assert cp == [ext.element(-2), ext.zero(), ext.one()]

    singular = [[QQ.one(), QQ.one()], [QQ.one(), QQ.one()]]
    assert matrix_det(singular).is_zero()
    with pytest.raises(ValueError):
        matrix_det([[QQ.one(), QQ.one()]])


def test_field_elements_equal_only_field_elements():
    f7 = PrimeField(7)
    three = f7.element(3)
    assert three != 3 and three != 10
    assert 3 not in {three} and len({three, 3}) == 2
    assert three == f7.element(10)
    assert three + 1 == f7.element(4)


# --- extension arithmetic against the plain-list oracles ---------------------

F27 = ExtensionField(F3, [1, 2, 0, 1], var="u")  # u^3 + 2u + 1
# every extension below with its oracle moduli (innermost first) and p (0 for Q)
EXTENSIONS = [
    (F9, [[1, 0, 1]], 3),
    (F25, [[3, 0, 1]], 5),
    (F27, [[1, 2, 0, 1]], 3),
    (F7a, [[5, 0, 0, 1]], 7),
    (F81, [[1, 0, 1], [[2, 2], [0, 0], [1, 0]]], 3),
    (QI, [[1, 0, 1]], 0),
]


def _plain(x):
    """An extension element as nested lists of its coefficients."""
    return _plain_rep(x.rep)


def _plain_rep(rep):
    """Nested lists of base values; a boxed coefficient is read through its
    rep, so values compare whatever the representation."""
    out = []
    for c in rep:
        c = c.rep if isinstance(c, FieldElement) else c
        out.append(_plain_rep(c) if isinstance(c, tuple) else c)
    return out


def _from_plain(field, coeffs):
    if isinstance(field.base, ExtensionField):
        return field.element([_from_plain(field.base, c) for c in coeffs])
    return field.element(coeffs)


def _random_plain(moduli, p, rng):
    if not moduli:
        return rng.randrange(p) if p else Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    *inner, f = moduli
    return [_random_plain(inner, p, rng) for _ in range(len(f) - 1)]


def _check_against_oracle(field, moduli, p, a, b):
    x, y = _from_plain(field, a), _from_plain(field, b)
    assert _plain(x * y) == naive_extension_product(a, b, moduli, p)
    assert _plain(x + y) == naive_extension_sum(a, b, p)
    assert _plain(x - y) == naive_extension_sum(a, naive_extension_negative(b, p), p)


@pytest.mark.parametrize("field, moduli, p", EXTENSIONS[:3], ids=["F9", "F25", "F27"])
def test_extension_arithmetic_matches_oracle_exhaustively(field, moduli, p):
    elements = naive_extension_elements(moduli, p)
    for a in elements:
        for b in elements:
            _check_against_oracle(field, moduli, p, a, b)
        x = _from_plain(field, a)
        if x.is_zero():
            with pytest.raises(NotInvertibleError):
                x.inv()
        else:
            assert _plain(x.inv()) == naive_extension_inverse(a, moduli, p)


@pytest.mark.parametrize("field, moduli, p", EXTENSIONS[3:], ids=["F7[a]", "F9[v]", "Q(z)"])
def test_extension_arithmetic_matches_oracle_on_seeded_pairs(field, moduli, p):
    rng = random.Random(str(field))
    for k in range(60):
        a, b = _random_plain(moduli, p, rng), _random_plain(moduli, p, rng)
        _check_against_oracle(field, moduli, p, a, b)
        x = _from_plain(field, a)
        if x.is_zero():
            continue
        if p and k % 3 == 0:
            assert _plain(x.inv()) == naive_extension_inverse(a, moduli, p)
        one = _plain(field.one())
        assert naive_extension_product(a, _plain(x.inv()), moduli, p) == one


@pytest.mark.parametrize("field", [F9, F25, F27], ids=str)
def test_extension_keys_and_text_follow_the_coefficients(field):
    p, one = field.char, field.one()
    tuples = list(itertools.product(range(p), repeat=field.degree))
    assert [_plain(x) for x in field.elements()] == [list(c) for c in tuples]
    keys = set()
    for coeffs in tuples:
        x = field.element(list(coeffs))
        twin = (x + one) - one
        assert x.sort_key() == extension_sort_key(coeffs)
        assert str(x) == extension_str(coeffs, field.var)
        assert x == twin and hash(x) == hash(twin)
        assert x == field.element(list(coeffs) + [0] * field.degree)
        keys.add(x.sort_key())
    assert len(keys) == len({*field.elements()}) == field.size()


def test_extension_text_reads_representatives(monkeypatch):
    """An element of F7[a]/(a^3 - 2) and of the depth-2 F9[v] prints each
    coordinate from its representative: printing constructs no
    FieldElement, and the text is the polynomial in the field's variable."""
    elements = [
        (F7a.element([3, 1, 0]), "3 + a"),
        (F7a.element([0, 5, 1]), "5*a + a^2"),
        (F7a.zero(), "0"),
        (F81.element([F9.element([1, 2]), F9.one()]), "1 + 2*w + v"),
        (F81.element([0, F9.element([0, 2])]), "2*w*v"),
    ]
    built = []
    real = FieldElement.__init__

    def counted(self, *args):
        built.append(args)
        real(self, *args)

    monkeypatch.setattr(FieldElement, "__init__", counted)
    assert [str(x) for x, _ in elements] == [text for _, text in elements]
    assert built == []


def test_depth_two_text_tells_every_element_apart():
    """Over F9[v] a base coordinate that prints as a sum is parenthesised
    before a power of v, so the 81 elements print 81 texts: [0, 1 + w] is
    (1 + w)*v and [1, w] is 1 + w*v."""
    texts = {str(x) for x in F81.elements()}
    assert len(texts) == 81
    assert str(F81.element([0, F9.element([1, 1])])) == "(1 + w)*v"
    assert str(F81.element([1, F9.element([0, 1])])) == "1 + w*v"

def _conjugation(field):
    """w -> -w, for a modulus w^2 - c: the nontrivial automorphism over the base."""
    return FieldAutomorphism(field, -field.generator())


def _holds_field_element(rep):
    if isinstance(rep, FieldElement):
        return True
    return isinstance(rep, tuple) and any(_holds_field_element(c) for c in rep)


@pytest.mark.parametrize("field", [F9, F27, F7a, F81, QI], ids=str)
def test_extension_representatives_hold_no_field_elements(field):
    base = field.base
    made = [field.element(2), field.element([1, 1]), field.element(base.one()), field.generator()]
    made += [field.element(Fraction(1, 2))] if field.char != 2 else []
    if field.size() is not None and field.size() < 1000:
        made += list(field.elements())[:50]
    x, y = field.generator() + 1, field.element([2, 1])
    made += [x * y, x + y, x - y, -x, x.inv(), x**5, x / y]
    sigma = frobenius(field) if field.base.size() == field.char else _conjugation(field)
    made += [sigma(x), sigma.power(-1)(y), sigma.gen_image]
    for e in made:
        assert e.field == field and isinstance(e.rep, tuple) and len(e.rep) == field.degree
        assert not _holds_field_element(e.rep)


@pytest.mark.parametrize(
    "field, sigma",
    [(F9, frobenius(F9)), (F25, frobenius(F25)), (F27, frobenius(F27)), (F81, _conjugation(F81))],
    ids=["F9", "F25", "F27", "F81"],
)
def test_automorphism_powers_match_repeated_application(field, sigma):
    assert sigma.order == field.degree
    for k in range(sigma.order):
        sigma_k = sigma.power(k)
        assert sigma.power(k + sigma.order) is sigma_k
        for x in field.elements():
            y = x
            for _ in range(k):
                y = sigma(y)
            assert sigma_k(x) == y


def test_frobenius_refuses_a_depth_two_field():
    # x -> x^p moves the base F9, so no F9-linear map given by v's image is it:
    # the map such an image defines fixes w, while w^3 = -w
    w = F81.element(F9.generator())
    assert w**3 == -w != w
    with pytest.raises(UnsupportedFieldError, match="relative Frobenius"):
        frobenius(F81)
    relative = FieldAutomorphism(F81, F81.generator() ** F81.base.size())
    assert relative.order == F81.degree
    for x in F81.elements():
        assert relative(x) == x ** F81.base.size()
