import random
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
    PrimeField,
    cyclotomic_polynomial,
    frobenius,
    has_order,
    is_square,
    multiplicative_order,
    poly_eval,
    poly_gcd,
    primitive_root_of_unity,
    sqrt,
)

from oracles import brute_force_squares, matrix_charpoly, matrix_det

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


def test_primitive_root_examples():
    assert primitive_root_of_unity(F5, 4) == F5.element(2)
    assert primitive_root_of_unity(F7, 1) == F7.one()
    zeta = primitive_root_of_unity(QQ, 4)
    assert isinstance(zeta.field, ExtensionField)
    assert zeta.field.modulus == tuple(QQ.element(c) for c in [1, 0, 1])
    assert zeta * zeta == zeta.field.element(-1)
    with pytest.raises(FieldConstructionError):
        primitive_root_of_unity(F5, 3)  # 3 does not divide 4


def test_primitive_root_order_is_exact():
    for field, n in [(F5, 4), (F7, 3), (F7, 6), (F9, 8), (F25, 24)]:
        w = primitive_root_of_unity(field, n)
        assert has_order(w, n)
        assert multiplicative_order(w) == n
        for m in range(1, n):
            assert w**m != field.one()


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


def test_polynomial_gcd_and_eval():
    x2m1 = [QQ.element(-1), QQ.zero(), QQ.one()]
    xm1 = [QQ.element(-1), QQ.one()]
    assert poly_gcd(x2m1, xm1) == xm1
    assert poly_eval(x2m1, QQ.element(3)) == QQ.element(8)


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
