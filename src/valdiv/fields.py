"""Exact coefficient fields: Q, prime fields, and univariate quotient extensions.

Field elements are immutable wrappers with operator arithmetic.  Extensions
are F[x]/(modulus) with fully reduced representatives, so equality is
representational.  Towers of extensions are limited to depth 2 over Q or a
prime field; that covers every coefficient domain this package constructs.
"""

from __future__ import annotations

import itertools
import warnings
from fractions import Fraction
from math import isqrt

from .errors import (
    DescriptorMismatchError,
    FieldConstructionError,
    NotInvertibleError,
    UnsupportedFieldError,
)
from .ordered import is_prime


class IrreducibilityWarning(UserWarning):
    """Modulus irreducibility over Q is a trusted precondition."""


def _binary_power(base, e: int, one):
    """base**e by square-and-multiply; a negative e inverts base first.

    Serves every element type with `*` and `inv()`.  Products are always
    formed as acc * base, which fixes the windows of truncated series.
    """
    if e < 0:
        base, e = base.inv(), -e
    acc = one
    while e:
        if e & 1:
            acc = acc * base
        e >>= 1
        if e:
            base = base * base
    return acc


class FieldElement:
    """Element of a Field; arithmetic dispatches to the owning field."""

    __slots__ = ("field", "rep")

    def __init__(self, field: "Field", rep):
        self.field = field
        self.rep = rep

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise DescriptorMismatchError(
                    f"elements of {self.field} and {other.field} combined"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.element(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field._add(self.rep, o.rep))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, self.field._neg(self.rep))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field._mul(self.rep, o.rep))

    __rmul__ = __mul__

    def inv(self) -> "FieldElement":
        if self.is_zero():
            raise NotInvertibleError("division by zero")
        return FieldElement(self.field, self.field._inv(self.rep))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        return self.inv() * other

    def __pow__(self, exponent: int):
        return _binary_power(self, exponent, self.field.one())

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.element(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field == other.field and self.rep == other.rep

    def __hash__(self):
        return hash((id(type(self.field)), self._hash_key()))

    def _hash_key(self):
        return self.field._key(self.rep)

    def is_zero(self) -> bool:
        return self.field._is_zero(self.rep)

    def indistinguishable_from_zero(self) -> bool:
        # exact field arithmetic: zero detection is always decisive
        return self.is_zero()

    def sort_key(self):
        """Deterministic representative ordering used by search routines."""
        return self.field._key(self.rep)

    def __str__(self):
        return self.field._str(self.rep)

    def __repr__(self):
        return f"<{self} in {self.field}>"


class Field:
    """Abstract exact field; subclasses implement representative-level ops."""

    char: int

    def element(self, value) -> FieldElement:
        raise NotImplementedError

    def zero(self) -> FieldElement:
        return self.element(0)

    def one(self) -> FieldElement:
        return self.element(1)

    def size(self) -> int | None:
        """Number of elements, or None when infinite."""
        raise NotImplementedError

    def elements(self):
        """Iterate all elements (finite fields only)."""
        raise UnsupportedFieldError(f"{self} is not finite")

    def describe(self) -> str:
        raise NotImplementedError

    def __str__(self):
        return self.describe()

    def __repr__(self):
        return self.describe()


class RationalField(Field):
    char = 0

    def element(self, value):
        if isinstance(value, FieldElement):
            if value.field != self:
                raise DescriptorMismatchError("element from a different field")
            return value
        return FieldElement(self, Fraction(value))

    def size(self):
        return None

    def _add(self, a, b):
        return a + b

    def _neg(self, a):
        return -a

    def _mul(self, a, b):
        return a * b

    def _inv(self, a):
        return 1 / a

    def _is_zero(self, a):
        return a == 0

    def _key(self, a):
        return (0, a)

    def _str(self, a):
        return str(a)

    def describe(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")


QQ = RationalField()


class PrimeField(Field):
    def __init__(self, p: int):
        if not is_prime(p):
            raise FieldConstructionError(f"{p} is not prime")
        self.p = p
        self.char = p

    def element(self, value):
        if isinstance(value, FieldElement):
            if value.field != self:
                raise DescriptorMismatchError("element from a different field")
            return value
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise NotInvertibleError(f"denominator divisible by {self.p}")
            return FieldElement(
                self,
                value.numerator * pow(value.denominator, -1, self.p) % self.p,
            )
        return FieldElement(self, int(value) % self.p)

    def size(self):
        return self.p

    def elements(self):
        for v in range(self.p):
            yield FieldElement(self, v)

    def _add(self, a, b):
        return (a + b) % self.p

    def _neg(self, a):
        return (-a) % self.p

    def _mul(self, a, b):
        return (a * b) % self.p

    def _inv(self, a):
        return pow(a, -1, self.p)

    def _is_zero(self, a):
        return a == 0

    def _key(self, a):
        return (0, a)

    def _str(self, a):
        return str(a)

    def describe(self):
        return f"F{self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))


class ExtensionField(Field):
    """base[var]/(modulus); modulus given as low-to-high base coefficients."""

    def __init__(self, base: Field, modulus, var: str = "w"):
        mod = [base.element(c) for c in modulus]
        while mod and mod[-1].is_zero():
            mod.pop()
        if len(mod) < 2:
            raise FieldConstructionError("modulus must have degree >= 1")
        if mod[-1] != base.one():
            raise FieldConstructionError("modulus must be monic")
        self.base = base
        self.var = var
        self.modulus = tuple(mod)
        self.degree = len(mod) - 1
        self.char = base.char
        if isinstance(base, ExtensionField) and isinstance(base.base, ExtensionField):
            raise FieldConstructionError("extension towers limited to depth 2")
        if base.size() is not None:
            if self.degree <= 4 and not _is_irreducible_finite(base, self.modulus):
                raise FieldConstructionError(
                    f"{self._poly_str(self.modulus)} is reducible over {base}"
                )
        else:
            warnings.warn(
                f"irreducibility of {self._poly_str(self.modulus)} over {base} "
                "is a trusted precondition",
                IrreducibilityWarning,
                stacklevel=2,
            )

    def element(self, value):
        if isinstance(value, FieldElement):
            if value.field == self:
                return value
            if value.field == self.base:
                rep = [value] + [self.base.zero()] * (self.degree - 1)
                return FieldElement(self, tuple(rep))
            raise DescriptorMismatchError("element from an unrelated field")
        if isinstance(value, (int, Fraction)):
            return self.element(self.base.element(value))
        if isinstance(value, (list, tuple)):
            coeffs = [self.base.element(c) for c in value]
            coeffs = _poly_mod(self.base, coeffs, list(self.modulus))
            coeffs += [self.base.zero()] * (self.degree - len(coeffs))
            return FieldElement(self, tuple(coeffs))
        raise FieldConstructionError(f"cannot coerce {value!r}")

    def generator(self) -> FieldElement:
        return self.element([0, 1])

    def size(self):
        s = self.base.size()
        return None if s is None else s**self.degree

    def elements(self):
        if self.size() is None:
            raise UnsupportedFieldError(f"{self} is not finite")
        for combo in itertools.product(
            *(list(self.base.elements()) for _ in range(self.degree))
        ):
            yield FieldElement(self, tuple(combo))

    def _add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def _neg(self, a):
        return tuple(-x for x in a)

    def _mul(self, a, b):
        prod = _poly_mul(self.base, list(a), list(b))
        prod = _poly_mod(self.base, prod, list(self.modulus))
        prod += [self.base.zero()] * (self.degree - len(prod))
        return tuple(prod)

    def _inv(self, a):
        g, s, _ = _poly_xgcd(self.base, list(a), list(self.modulus))
        if len(g) != 1:
            raise NotInvertibleError("representative shares a factor with modulus")
        lead_inv = g[0].inv()
        rep = [c * lead_inv for c in s]
        rep = _poly_mod(self.base, rep, list(self.modulus))
        rep += [self.base.zero()] * (self.degree - len(rep))
        return tuple(rep)

    def _is_zero(self, a):
        return all(c.is_zero() for c in a)

    def _key(self, a):
        return (1, tuple(c.sort_key() for c in a))

    def _str(self, a):
        return self._poly_str(a)

    def _poly_str(self, coeffs):
        terms = []
        for k, c in enumerate(coeffs):
            if c.is_zero():
                continue
            if k == 0:
                terms.append(str(c))
            else:
                var = self.var if k == 1 else f"{self.var}^{k}"
                terms.append(var if c == self.base.one() else f"{c}*{var}")
        return " + ".join(terms) if terms else "0"

    def describe(self):
        return f"{self.base.describe()}[{self.var}]/({self._poly_str(self.modulus)})"

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionField)
            and other.base == self.base
            and other.var == self.var
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("ext", hash(self.base), self.var, len(self.modulus)))


# ---------------------------------------------------------------------------
# dense polynomial helpers over an arbitrary Field (low-to-high coefficients)


def poly_trim(coeffs: list[FieldElement]) -> list[FieldElement]:
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return coeffs


def _poly_add(field, a, b):
    n = max(len(a), len(b))
    z = field.zero()
    out = [
        (a[i] if i < len(a) else z) + (b[i] if i < len(b) else z) for i in range(n)
    ]
    return poly_trim(out)


def _poly_mul(field, a, b):
    if not a or not b:
        return []
    out = [field.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return poly_trim(out)


def _poly_divmod(field, num, den):
    den = poly_trim(list(den))
    if not den:
        raise NotInvertibleError("polynomial division by zero")
    num = poly_trim(list(num))
    quo = [field.zero()] * max(0, len(num) - len(den) + 1)
    lead_inv = den[-1].inv()
    while len(num) >= len(den):
        shift = len(num) - len(den)
        factor = num[-1] * lead_inv
        quo[shift] = factor
        for i, c in enumerate(den):
            num[shift + i] = num[shift + i] - factor * c
        num = poly_trim(num)
    return poly_trim(quo), num


def _poly_mod(field, num, den):
    return _poly_divmod(field, num, den)[1]


def _poly_xgcd(field, a, b):
    """(g, s, t) with s*a + t*b = g; g not normalized."""
    r0, r1 = poly_trim(list(a)), poly_trim(list(b))
    s0, s1 = [field.one()], []
    t0, t1 = [], [field.one()]
    while r1:
        q, r = _poly_divmod(field, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_add(field, s0, [-c for c in _poly_mul(field, q, s1)])
        t0, t1 = t1, _poly_add(field, t0, [-c for c in _poly_mul(field, q, t1)])
    return r0, s0, t0


def poly_gcd(a: list[FieldElement], b: list[FieldElement]) -> list[FieldElement]:
    """Monic gcd of two polynomials over the same field."""
    field = (a or b)[0].field
    g, _, _ = _poly_xgcd(field, a, b)
    if g:
        lead_inv = g[-1].inv()
        g = [c * lead_inv for c in g]
    return g


def poly_eval(coeffs, point):
    field = point.field
    acc = field.zero()
    for c in reversed(list(coeffs)):
        if isinstance(c, (int, Fraction)):
            c = field.element(c)
        acc = acc * point + c
    return acc


def _is_irreducible_finite(base: Field, modulus) -> bool:
    """Exhaustive irreducibility check over a finite field, degree <= 4."""
    deg = len(modulus) - 1
    if deg == 1:
        return True
    for el in base.elements():
        if poly_eval(modulus, el).is_zero():
            return False
    if deg <= 3:
        return True
    # degree 4: also rule out quadratic factors
    one = base.one()
    for c0 in base.elements():
        for c1 in base.elements():
            cand = [c0, c1, one]
            if not _poly_mod(base, list(modulus), cand):
                return False
    return True


# ---------------------------------------------------------------------------
# roots of unity, squares, automorphisms


def multiplicative_order(x: FieldElement, bound: int = 10_000) -> int:
    if x.is_zero():
        raise NotInvertibleError("0 has no multiplicative order")
    acc = x
    for k in range(1, bound + 1):
        if acc == x.field.one():
            return k
        acc = acc * x
    raise UnsupportedFieldError(f"order of {x} exceeds search bound {bound}")


def has_order(x: FieldElement, n: int) -> bool:
    """ord(x) == n, checking x^n = 1 and all maximal proper power divisors."""
    if x.is_zero():
        return False
    if x**n != x.field.one():
        return False
    for ell in _prime_factors(n):
        if x ** (n // ell) == x.field.one():
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def cyclotomic_polynomial(n: int) -> list[Fraction]:
    """Coefficients of the n-th cyclotomic polynomial over Q (low to high)."""
    field = QQ
    poly = [field.element(-1)] + [field.zero()] * (n - 1) + [field.one()]
    for d in range(1, n):
        if n % d == 0:
            phi_d = [field.element(c) for c in cyclotomic_polynomial(d)]
            poly, rem = _poly_divmod(field, poly, phi_d)
            assert not rem
    return [c.rep for c in poly]


def primitive_root_of_unity(field: Field, n: int, var: str = "z") -> FieldElement:
    """A root of unity of exact order n.

    Over a prime field the smallest representative is returned; over Q the
    cyclotomic extension Q[var]/(Phi_n) is built and its generator returned;
    over a finite extension the multiplicative structure is searched.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return field.one()
    if field.char and n % field.char == 0:
        raise FieldConstructionError(
            f"characteristic {field.char} divides {n}; no primitive root"
        )
    size = field.size()
    if size is not None:
        if (size - 1) % n:
            raise FieldConstructionError(
                f"{field} has no element of order {n}; rebuild over an extension"
            )
        if size > 10_000:
            raise UnsupportedFieldError("field too large for exhaustive search")
        for el in sorted(field.elements(), key=lambda e: e.sort_key()):
            if not el.is_zero() and has_order(el, n):
                return el
        raise FieldConstructionError(f"no element of order {n} found in {field}")
    if isinstance(field, RationalField):
        if n == 2:
            return field.element(-1)
        ext = ExtensionField(field, cyclotomic_polynomial(n), var=var)
        return ext.generator()
    if isinstance(field, ExtensionField):
        gen = field.generator()
        candidates = [gen**k for k in range(1, field.degree + 1)]
        candidates += [-c for c in candidates] + [-field.one()]
        for c in candidates:
            if has_order(c, n):
                return c
        raise FieldConstructionError(
            f"no order-{n} element found among generator powers of {field}"
        )
    raise UnsupportedFieldError(f"roots of unity unsupported over {field}")


def is_square(x: FieldElement) -> bool:
    field = x.field
    if field.char == 2:
        raise UnsupportedFieldError("characteristic 2 square theory unsupported")
    if x.is_zero():
        return True
    size = field.size()
    if size is not None:
        return x ** ((size - 1) // 2) == field.one()
    if isinstance(field, RationalField):
        v = x.rep
        if v < 0:
            return False
        return (
            isqrt(v.numerator) ** 2 == v.numerator
            and isqrt(v.denominator) ** 2 == v.denominator
        )
    raise UnsupportedFieldError(f"squares undecidable over {field}")


def sqrt(x: FieldElement) -> FieldElement | None:
    """A square root of x, or None; exact witness for is_square."""
    field = x.field
    if field.char == 2:
        raise UnsupportedFieldError("characteristic 2 square theory unsupported")
    if x.is_zero():
        return x
    if not is_square(x):
        return None
    size = field.size()
    if size is not None:
        if size > 10_000:
            raise UnsupportedFieldError("field too large for exhaustive sqrt")
        for el in field.elements():
            if el * el == x:
                return el
        return None
    v = x.rep
    return field.element(Fraction(isqrt(v.numerator), isqrt(v.denominator)))


class FieldAutomorphism:
    """Automorphism of an extension fixing the base, given by the generator image."""

    def __init__(self, field: Field, gen_image: FieldElement | None = None):
        self.field = field
        if gen_image is not None and gen_image.field != field:
            raise DescriptorMismatchError("generator image lies in a different field")
        self.gen_image = gen_image
        self._order = None

    def __eq__(self, other):
        return (
            isinstance(other, FieldAutomorphism)
            and other.field == self.field
            and other.gen_image == self.gen_image
        )

    def __hash__(self):
        return hash(("automorphism", hash(self.field)))

    def __call__(self, x: FieldElement) -> FieldElement:
        if x.field != self.field:
            raise DescriptorMismatchError("element from a different field")
        if self.gen_image is None or not isinstance(self.field, ExtensionField):
            return x
        acc = self.field.zero()
        for c in reversed(x.rep):
            acc = acc * self.gen_image + self.field.element(c)
        return acc

    def is_identity(self) -> bool:
        if self.gen_image is None or not isinstance(self.field, ExtensionField):
            return True
        return self.gen_image == self.field.generator()

    @property
    def order(self) -> int:
        if self._order is None:
            if self.is_identity():
                self._order = 1
            else:
                gen = self.field.generator()
                cur = self.gen_image
                k = 1
                while cur != gen:
                    cur = self(cur)
                    k += 1
                    if k > 64:
                        raise UnsupportedFieldError("automorphism order exceeds 64")
                self._order = k
        return self._order

    def power(self, k: int):
        """Apply the k-th power of the automorphism as a callable."""
        k %= self.order

        def apply(x, _k=k):
            for _ in range(_k):
                x = self(x)
            return x

        return apply


def identity_automorphism(field: Field) -> FieldAutomorphism:
    return FieldAutomorphism(field, None)


def frobenius(field: ExtensionField) -> FieldAutomorphism:
    """x -> x^p on a finite extension field."""
    if field.size() is None:
        raise UnsupportedFieldError("Frobenius needs a finite field")
    return FieldAutomorphism(field, field.generator() ** field.char)
