"""Exact coefficient fields: Q, prime fields, and univariate quotient extensions.

Field elements are immutable wrappers with operator arithmetic around a
representative, on which each field computes: a Fraction over Q, an int in
0..p-1 over F_p, and over F[x]/(modulus) a tuple of deg(modulus)
representatives of F, fully reduced, so equality is representational.  No
representative holds a FieldElement; elements are boxed only where they
leave a field.  Towers of extensions are limited to depth 2 over Q or a
prime field; that covers every coefficient domain this package constructs.
"""

from __future__ import annotations

import itertools
import operator
import warnings
from fractions import Fraction
from math import gcd, isqrt

from .errors import (
    DescriptorMismatchError,
    FieldConstructionError,
    NotInvertibleError,
    UnsupportedFieldError,
    UsageError,
)
from .ordered import _prime_factors, is_prime


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
            if other.field is not self.field and other.field != self.field:
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
        if not isinstance(other, FieldElement):
            return NotImplemented
        same_field = self.field is other.field or self.field == other.field
        return same_field and self.rep == other.rep

    def __hash__(self):
        return hash((id(type(self.field)), self.sort_key()))

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
    """base[var]/(modulus); modulus given as low-to-high base coefficients.

    A representative is a tuple of `degree` base representatives, the
    coefficients of 1, var, ..., var^(degree-1).  Products are schoolbook
    products folded below var^degree with one reduction row, var^degree =
    -(f_0 + f_1 var + ... + f_(degree-1) var^(degree-1)), computed once per
    field.  Over a prime field the slots are plain integer sums, reduced mod
    p once each at the end.
    """

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
        self.degree = d = len(mod) - 1
        self.char = base.char
        if isinstance(base, ExtensionField) and isinstance(base.base, ExtensionField):
            raise FieldConstructionError("extension towers limited to depth 2")
        self._p = base.p if isinstance(base, PrimeField) else None
        self._zero = base.zero().rep
        self._zero_rep = (self._zero,) * d
        self._mod_reps = [c.rep for c in mod]
        # the reduction row: (i, -f_i) for every nonzero f_i below the leading 1
        self._row = tuple(
            (i, base._neg(c.rep)) for i, c in enumerate(mod[:-1]) if not c.is_zero()
        )
        if base.size() is not None:
            if not _is_irreducible_finite(self):
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
                return FieldElement(self, (value.rep,) + self._zero_rep[1:])
            raise DescriptorMismatchError("element from an unrelated field")
        if isinstance(value, (int, Fraction)):
            return self.element(self.base.element(value))
        if isinstance(value, (list, tuple)):
            coeffs = [self.base.element(c).rep for c in value]
            coeffs += self._zero_rep[len(coeffs):]
            return FieldElement(self, self._reduce(coeffs))
        raise FieldConstructionError(f"cannot coerce {value!r}")

    def generator(self) -> FieldElement:
        return self.element([0, 1])

    def size(self):
        s = self.base.size()
        return None if s is None else s**self.degree

    def elements(self):
        if self.size() is None:
            raise UnsupportedFieldError(f"{self} is not finite")
        reps = [x.rep for x in self.base.elements()]
        for combo in itertools.product(reps, repeat=self.degree):
            yield FieldElement(self, combo)

    def _add(self, a, b):
        p = self._p
        if p:
            return tuple([(x + y) % p for x, y in zip(a, b)])
        return tuple(map(self.base._add, a, b))

    def _neg(self, a):
        p = self._p
        if p:
            return tuple([-x % p for x in a])
        return tuple(map(self.base._neg, a))

    def _mul(self, a, b):
        p = self._p
        if p:
            prod = [0] * (2 * self.degree - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b, i):
                        prod[j] += x * y
            return self._reduce(prod)
        base = self.base
        mul, add, is_zero = base._mul, base._add, base._is_zero
        prod = [self._zero] * (2 * self.degree - 1)
        for i, x in enumerate(a):
            if not is_zero(x):
                for j, y in enumerate(b, i):
                    prod[j] = add(prod[j], mul(x, y))
        return self._reduce(prod)

    def _reduce(self, prod):
        """The representative of sum_k prod[k] var^k, len(prod) >= degree:
        each slot from the top down to var^degree is folded into the slots
        below it with the reduction row."""
        d, p, row = self.degree, self._p, self._row
        if p:
            for k in range(len(prod) - 1, d - 1, -1):
                c = prod[k]
                if c:
                    for i, r in row:
                        prod[k - d + i] += c * r
            return tuple([v % p for v in prod[:d]])
        base = self.base
        mul, add, is_zero = base._mul, base._add, base._is_zero
        for k in range(len(prod) - 1, d - 1, -1):
            c = prod[k]
            if not is_zero(c):
                for i, r in row:
                    prod[k - d + i] = add(prod[k - d + i], mul(c, r))
        return tuple(prod[:d])

    def _inv(self, a):
        """Extended Euclid on representatives: r_i = s_i * a mod the modulus,
        from (r, s) = (modulus, 0), (a, 1) until r_i is a constant c; then
        a^-1 = s_i / c, of degree below the modulus's."""
        base = self.base
        mul, add, neg = base._mul, base._add, base._neg
        r0, r1 = self._mod_reps, _poly_trim(base, list(a))
        s0, s1 = [], [base.one().rep]
        while len(r1) > 1:
            q, r = _poly_divmod(base, r0, r1)
            s = s0 + [self._zero] * (len(q) + len(s1) - 1 - len(s0))
            for i, x in enumerate(q):
                x = neg(x)
                for j, y in enumerate(s1, i):
                    s[j] = add(s[j], mul(x, y))
            r0, r1, s0, s1 = r1, r, s1, s
        if not r1:
            raise NotInvertibleError("representative shares a factor with modulus")
        c = base._inv(r1[0])
        return tuple([mul(x, c) for x in s1]) + self._zero_rep[len(s1):]

    def _is_zero(self, a):
        return a == self._zero_rep

    def _key(self, a):
        return (1, tuple(map(self.base._key, a)))

    def _str(self, a):
        return self._poly_str([FieldElement(self.base, c) for c in a])

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
# dense polynomials of representatives of a Field (low-to-high coefficients)


def _poly_trim(field, coeffs: list) -> list:
    while coeffs and field._is_zero(coeffs[-1]):
        coeffs.pop()
    return coeffs


def _poly_divmod(field, num: list, den: list):
    """Quotient and remainder by long division (von zur Gathen & Gerhard,
    Modern Computer Algebra, 2.4); num and den are trimmed, den is not zero."""
    mul, add, neg = field._mul, field._add, field._neg
    num, d = list(num), len(den) - 1
    lead_inv, quo = field._inv(den[-1]), []
    for shift in range(len(num) - 1 - d, -1, -1):
        c = mul(num[shift + d], lead_inv)
        quo.append(c)
        c = neg(c)
        for i in range(d):
            num[shift + i] = add(num[shift + i], mul(c, den[i]))
    quo.reverse()
    return quo, _poly_trim(field, num[:d])


def _is_irreducible_finite(ring: ExtensionField) -> bool:
    """Rabin's test (SIAM J. Comput. 9, 1980) for the modulus f of a finite base.

    With q the base size and n = deg f, f is irreducible iff x^(q^n) = x mod f
    and gcd(x^(q^(n/r)) - x, f) = 1 for every prime r dividing n.  The powers
    are taken in F_q[x]/(f), whose multiplication needs no irreducibility, and
    the gcd is 1 exactly when x^(q^(n/r)) - x is invertible there: `_inv`'s
    extended Euclid raises NotInvertibleError otherwise.
    """
    n, q, x = ring.degree, ring.base.size(), ring.generator()
    frob = [x]  # frob[k] = x^(q^k)
    for _ in range(n):
        frob.append(frob[-1] ** q)
    if frob[n] != x:
        return False
    try:
        for r in _prime_factors(n):
            (frob[n // r] - x).inv()
    except NotInvertibleError:
        return False
    return True


# ---------------------------------------------------------------------------
# roots of unity, squares, automorphisms


def _order_dividing(x: FieldElement, m: int) -> int:
    """ord(x), given x^m = 1: each prime of m is stripped while the power stays 1."""
    one = x.field.one()
    for ell in _prime_factors(m):
        while m % ell == 0 and x ** (m // ell) == one:
            m //= ell
    return m


def multiplicative_order(x: FieldElement) -> int:
    """ord(x) in the multiplicative group of its field.

    Over F_q the primes of q - 1 are stripped while the power stays 1.  Over
    Q and its extensions of total degree d, phi(ord) <= d gives ord <= 2d^2,
    and the first 2d^2 powers are walked (x^lcm(1..2d^2) would grow without
    bound when x is no root of unity, which raises UnsupportedFieldError).
    """
    if x.is_zero():
        raise NotInvertibleError("0 has no multiplicative order")
    field, one = x.field, x.field.one()
    size = field.size()
    if size is not None:
        return _order_dividing(x, size - 1)
    d = 1
    while isinstance(field, ExtensionField):
        d, field = d * field.degree, field.base
    acc = x
    for k in range(1, 2 * d * d + 1):
        if acc == one:
            return k
        acc = acc * x
    raise UnsupportedFieldError(f"{x} is not a root of unity")


def has_order(x: FieldElement, n: int) -> bool:
    """ord(x) == n: x^n = 1 and no prime of n can be stripped."""
    return not x.is_zero() and x**n == x.field.one() and _order_dividing(x, n) == n


def cyclotomic_polynomial(n: int) -> list[Fraction]:
    """Coefficients of the n-th cyclotomic polynomial over Q (low to high)."""
    poly = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _poly_divmod(QQ, poly, cyclotomic_polynomial(d))
            assert not rem
    return poly


def primitive_root_of_unity(field: Field, n: int) -> FieldElement:
    """A root of unity of exact order n.

    Over F_q the least one by sort_key: zeta = h^((q-1)/n), for the first h
    in elements() order with ord(zeta) = n, generates the n-th roots, whose
    elements of order n are the zeta^k with gcd(k, n) = 1.  Over Q the
    generator of Q[z]/(Phi_n) is returned; over an extension of Q the
    generator powers and their negatives are tried.
    """
    if n < 1:
        raise UsageError("n must be >= 1")
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
        roots = (h ** ((size - 1) // n) for h in field.elements() if not h.is_zero())
        zeta = next(z for z in roots if _order_dividing(z, n) == n)
        powers = itertools.accumulate(itertools.repeat(zeta, n - 1), operator.mul)
        return min(
            (z for k, z in enumerate(powers, 1) if gcd(k, n) == 1),
            key=FieldElement.sort_key,
        )
    if isinstance(field, RationalField):
        if n == 2:
            return field.element(-1)
        ext = ExtensionField(field, cyclotomic_polynomial(n), var="z")
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
    """A square root of x, or None; exact witness for is_square.

    Over F_q, with q - 1 = 2^s * t and t odd, Tonelli-Shanks (Cohen, A Course
    in Computational Algebraic Number Theory, Alg. 1.5.1) keeps root^2 = x*b
    and halves the order of b with powers of z^t, z the first non-square in
    elements() order.  When q = 3 mod 4, b = 1 at once, root = x^((q+1)/4)
    and no z is sought.  min(root, -root) by sort_key is returned.
    """
    field = x.field
    if field.char == 2:
        raise UnsupportedFieldError("characteristic 2 square theory unsupported")
    if x.is_zero():
        return x
    if not is_square(x):
        return None
    size = field.size()
    if size is None:
        v = x.rep
        return field.element(Fraction(isqrt(v.numerator), isqrt(v.denominator)))
    one, s, t = field.one(), 0, size - 1
    while t % 2 == 0:
        s, t = s + 1, t // 2
    y = x ** (t // 2)
    root, b = y * x, y * y * x
    if b != one:
        c = next(h for h in field.elements() if not is_square(h)) ** t
    while b != one:
        i, b2 = 1, b * b
        while b2 != one:
            i, b2 = i + 1, b2 * b2
        g = c ** (1 << (s - i - 1))
        root, c, s = root * g, g * g, i
        b = b * c
    return min(root, -root, key=FieldElement.sort_key)


class FieldAutomorphism:
    """Automorphism of an extension fixing the base, given by the generator image.

    It is base-linear, so it is applied as a matrix: the images of
    1, w, ..., w^(d-1) as representatives, computed once.
    """

    def __init__(self, field: Field, gen_image: FieldElement | None = None):
        self.field = field
        if gen_image is not None and gen_image.field != field:
            raise DescriptorMismatchError("generator image lies in a different field")
        self.gen_image = gen_image
        self._order = None
        self._powers = {}
        self._images = None
        if gen_image is not None and isinstance(field, ExtensionField):
            images = [field.one().rep]
            for _ in range(1, field.degree):
                images.append(field._mul(images[-1], gen_image.rep))
            self._images = images

    def __eq__(self, other):
        return (
            isinstance(other, FieldAutomorphism)
            and other.field == self.field
            and other.gen_image == self.gen_image
        )

    def __hash__(self):
        return hash(("automorphism", hash(self.field)))

    def __call__(self, x: FieldElement) -> FieldElement:
        if x.field is not self.field and x.field != self.field:
            raise DescriptorMismatchError("element from a different field")
        if self._images is None:
            return x
        return FieldElement(self.field, self._map(x.rep))

    def _map(self, rep):
        """The image of a representative: sum_k rep[k] * sigma(w^k)."""
        field = self.field
        p = field._p
        if p:
            out = [0] * field.degree
            for c, image in zip(rep, self._images):
                if c:
                    for j, v in enumerate(image):
                        out[j] += c * v
            return tuple([v % p for v in out])
        base = field.base
        mul, add = base._mul, base._add
        out = field._zero_rep
        for c, image in zip(rep, self._images):
            if not base._is_zero(c):
                out = tuple([add(o, mul(c, v)) for o, v in zip(out, image)])
        return out

    def is_identity(self) -> bool:
        if self._images is None:
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

    def power(self, k: int) -> "FieldAutomorphism":
        """The k-th power, built once per k modulo the order and kept."""
        k %= self.order
        sigma_k = self._powers.get(k)
        if sigma_k is None:
            image = None
            if k:
                image = self.field.generator()
                for _ in range(k):
                    image = self(image)
            sigma_k = self._powers[k] = FieldAutomorphism(self.field, image)
        return sigma_k


def frobenius(field: ExtensionField) -> FieldAutomorphism:
    """x -> x^p on a finite extension of a prime field.

    Over an extension base x -> x^p moves the base, so it is no automorphism
    over it; the relative Frobenius x -> x^|base| is.
    """
    if field.size() is None:
        raise UnsupportedFieldError("Frobenius needs a finite field")
    if isinstance(field.base, ExtensionField):
        raise UnsupportedFieldError(
            "x -> x^p moves the base of a depth-2 field; use the relative Frobenius"
            " FieldAutomorphism(F, F.generator() ** F.base.size())"
        )
    return FieldAutomorphism(field, field.generator() ** field.char)
