"""Truncated Laurent series K((t)) and E((t, sigma)), iterated towers.

A series is exact (no truncation marker) until an inversion introduces one;
after that every certified coefficient is tracked through arithmetic.  A
result whose certified window contains no nonzero term is representable, but
any operation that needs a leading term on such a value raises
PrecisionExhaustedError: truncated arithmetic never proves a series zero.

Towers are nested: k((x))((y)) is series in y whose coefficients are series
in x.  Valuation vectors are written OUTERMOST variable first (most
significant lex coordinate).
"""

from __future__ import annotations

import sys
from math import inf
from typing import NamedTuple

from .errors import (
    DescriptorMismatchError,
    FieldConstructionError,
    NotAUnitError,
    NotInvertibleError,
    PrecisionExhaustedError,
    UnsupportedFieldError,
    UsageError,
)
from .fields import (
    Field,
    FieldAutomorphism,
    FieldElement,
    PrimeField,
    _binary_power,
    is_square,
    sqrt as field_sqrt,
)

DEFAULT_PRECISION = 32

# A product of series in a ring that packs (SeriesRing.packing: untwisted
# over F_p or F_p[w]/(f)) takes the Kronecker path when the outer term counts
# of its operands make at least KRONECKER_MIN_PAIRS pairs and the packed
# product has at most KRONECKER_SLOTS_PER_PAIR exponent vectors per pair of
# field terms; below either the pair loop of _mul_into is faster.  Both were
# measured on the products of the benchmark workloads, over F_p and over
# F_7[w]/(w^3 - 2) (see CHANGES.md).
KRONECKER_MIN_PAIRS = 36
KRONECKER_SLOTS_PER_PAIR = 8


class Packing(NamedTuple):
    """How the field terms of a ring's series pack into one integer.

    A coefficient of F_p[w]/(f), f of degree d, has d coordinates; each
    exponent vector gets u = 2d - 1 slots, which hold every coordinate of a
    product of two coefficients before `field` folds the top d - 1 of them
    with f.  F_p is the case d = u = 1.
    """

    p: int
    d: int
    u: int
    field: Field


class _InfiniteValuation:
    """Formal infinity marker: the valuation of an exact zero."""

    def __gt__(self, other):
        return not isinstance(other, _InfiniteValuation)

    def __ge__(self, other):
        return True

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, _InfiniteValuation)

    def __eq__(self, other):
        return isinstance(other, _InfiniteValuation)

    def __hash__(self):
        return hash("inf-valuation")

    def __repr__(self):
        return "infinity"


INFINITE_VALUATION = _InfiniteValuation()


class SeriesRing:
    """K((var)) viewed as a coefficient domain; K is a Field or a SeriesRing.

    With an automorphism sigma of a Field K the ring is the twisted
    K((var, sigma)), in which var * d = sigma(d) * var; sigma None is the
    commutative ring.
    """

    def __init__(
        self, coeff_ring, var: str, default_prec: int = DEFAULT_PRECISION, sigma=None
    ):
        if default_prec < 1:
            raise UsageError("precision must be >= 1")
        if sigma is not None and sigma.field != coeff_ring:
            raise DescriptorMismatchError("automorphism acts on a different field")
        self.coeff_ring = coeff_ring
        self.var = var
        self.default_prec = default_prec
        self.sigma = sigma
        self.sigma_order = 1 if sigma is None else sigma.order
        # packing (a Packing) is set when every level down to the field is
        # untwisted and the field is F_p or an extension F_p[w]/(f) of it:
        # the rings whose products Kronecker-pack.
        if isinstance(coeff_ring, SeriesRing):
            self.height = coeff_ring.height + 1
            packing = coeff_ring.packing
        else:
            self.height = 1
            prime = getattr(coeff_ring, "base", coeff_ring)
            d = getattr(coeff_ring, "degree", 1)
            packing = None
            if isinstance(prime, PrimeField):
                packing = Packing(prime.p, d, 2 * d - 1, coeff_ring)
        self.packing = packing if sigma is None else None
        self.series_class = LaurentSeries if sigma is None else TwistedSeries

    def __eq__(self, other):
        return other is self or (
            isinstance(other, SeriesRing)
            and other.var == self.var
            and other.coeff_ring == self.coeff_ring
            and other.sigma == self.sigma
        )

    def __hash__(self):
        return hash(("series", self.var, hash(self.coeff_ring)))

    def __repr__(self):
        twist = "" if self.sigma is None else ", sigma"
        return f"{self.coeff_ring}(({self.var}{twist}))"

    def series(self, coeffs: dict, bound: int | None = None) -> "LaurentSeries":
        """The series with the terms of coeffs, less its zeros (exact-zero
        children included) and its terms at or above bound."""
        clean = {
            e: c
            for e, c in coeffs.items()
            if (bound is None or e < bound) and not c.is_zero()
        }
        return self.series_class(self, clean, bound)

    def zero(self) -> "LaurentSeries":
        return self.series({})

    def one(self) -> "LaurentSeries":
        return self.series({0: self.coeff_ring.one()})

    def constant(self, c) -> "LaurentSeries":
        return self.series({0: c})

    def monomial(self, exponent: int, c=None) -> "LaurentSeries":
        if c is None:
            c = self.coeff_ring.one()
        return self.series({exponent: c})


class LaurentSeries:
    """Element of K((var)) or K((var, sigma)) with optional certification bound.

    coeffs maps exponent -> nonzero coefficient; bound None means exact,
    otherwise coefficients at exponents >= bound are unknown.

    A series is never mutated after construction, nor is its coeffs dict:
    every operation builds a new series.  So the product kernels cache what
    they derive from a series on it, at first use: its terms in exponent
    order (_sorted_terms), its Kronecker survey (_survey) and its last
    packing (_packed).
    """

    __slots__ = ("ring", "coeffs", "bound", "_terms", "_shape", "_packing")

    def __init__(self, ring: SeriesRing, coeffs: dict, bound: int | None):
        """Store coeffs as given.  The caller guarantees the invariant: no
        zero coefficient, no exact-zero child and no exponent at or above
        bound.  ring.series builds a series from terms that may break it."""
        self.ring = ring
        self.coeffs = coeffs
        self.bound = bound
        self._terms = self._shape = self._packing = None

    # -- classification ----------------------------------------------------

    def is_zero(self) -> bool:
        """Exactly zero (an exact series with no terms)."""
        return self.bound is None and not self.coeffs

    def indistinguishable_from_zero(self) -> bool:
        """No certified nonzero coefficient anywhere."""
        return all(c.indistinguishable_from_zero() for c in self.coeffs.values())

    def leading_exponent(self) -> int:
        """Valuation in this variable; raises on zero / undecided input."""
        if self.coeffs:
            e = min(self.coeffs)
            if self.coeffs[e].indistinguishable_from_zero():
                raise PrecisionExhaustedError(
                    f"leading coefficient at {self.ring.var}^{e} is undecided"
                )
            return e
        if self.bound is None:
            raise NotInvertibleError("exact zero has no leading term")
        raise PrecisionExhaustedError(
            f"all certified terms vanish below O({self.ring.var}^{self.bound})"
        )

    def valuation(self):
        """Leading exponent; INFINITE_VALUATION for an exact zero."""
        return INFINITE_VALUATION if self.is_zero() else self.leading_exponent()

    def residue(self):
        """Constant term of a single-variable series of valuation >= 0."""
        return _payload_residue(self, self.ring.coeff_ring)

    def is_central(self) -> bool:
        """Commutes with every series: exponents divisible by ord(sigma),
        coefficients fixed by sigma."""
        sigma, m = self.ring.sigma, self.ring.sigma_order
        return all(
            e % m == 0 and (sigma is None or sigma(c) == c)
            for e, c in self.coeffs.items()
        )

    # -- arithmetic ---------------------------------------------------------

    def _check_ring(self, other: "LaurentSeries"):
        ring = getattr(other, "ring", None)
        if ring is not self.ring and ring != self.ring:
            raise DescriptorMismatchError("series from different rings combined")

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        self._check_ring(other)
        return _sum(self, other)

    def __neg__(self) -> "LaurentSeries":
        return type(self)(self.ring, {e: -c for e, c in self.coeffs.items()}, self.bound)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        self._check_ring(other)
        return _sum(self, other, negate=True)

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        """(c t^i)(d t^j) = c sigma^i(d) t^(i+j), extended bilinearly."""
        self._check_ring(other)
        acc = [{}, None]
        _add_product(acc, self, other)
        return _box(self.ring, acc)

    def inv(self) -> "LaurentSeries":
        """Inverse by the coefficient recurrence, to the input's relative precision.

        With c_i the coefficient at t^(lead+i), the inverse is
        sum_j sigma^-lead(d_j) t^(j-lead) where sum_(i+j=m) c_i sigma^i(d_j)
        is 1 at m = 0 and 0 after, so each d_m follows from the earlier ones.
        Untwisted, sigma is the identity.  Over a field the recurrence runs on
        representatives: each c_i is multiplied by -d_0 once, and sigma^i is
        read from the maps of sigma^k, k below sigma's order, built once per
        call.  Over F_p and F_p[w]/(f) (Field._packer) each d_m is then one
        integer multiply-add per term pair of packed values (each d_j, and
        each sigma^k(d_j), packed once), folded once; over other fields (Q,
        Q[w]/(f), depth-2 towers) it is the field's own _mul per term pair,
        summed by its _add in tail order.  Above a field each sum is one
        ProductSum of the coefficient series, multiplied once by -d_0.
        """
        lead = self.leading_exponent()
        exact_monomial = len(self.coeffs) == 1 and self.bound is None
        if exact_monomial:
            rel = 1
        else:
            rel = self.ring.default_prec if self.bound is None else self.bound - lead
        field, sigma, order = self.ring.coeff_ring, self.ring.sigma, self.ring.sigma_order
        # maps[k] is sigma^k on representatives, None for the identity
        maps = [None] + [sigma.power(k)._map for k in range(1, order)]
        on_field = isinstance(field, Field)
        d0 = self.coeffs[lead].inv()
        if on_field:
            inv_coeffs = {0: d0.rep}
            neg_d0 = field._neg(d0.rep)
        else:
            inv_coeffs = {0: d0}
            neg_d0 = -d0
        tail = [
            (e - lead, field._mul(neg_d0, c.rep) if on_field else c)
            for e, c in self.coeffs.items()
            if 0 < e - lead < rel
        ]
        packer = field._packer(len(tail)) if on_field else None
        if packer is not None:
            pack, fold = packer
            # packed[k][j] is sigma^k(d_j) packed, for 0 <= k < order
            packed = [{0: pack(d0.rep if f is None else f(d0.rep))} for f in maps]
            tail = [(i, pack(c), packed[i % order]) for i, c in tail]
            plain, twists = packed[0], list(zip(packed[1:], maps[1:]))
            for m in range(1, rel):
                acc = 0
                for i, pc, ds in tail:
                    pd = ds.get(m - i)
                    if pd is not None:
                        acc += pc * pd
                if acc:
                    d = fold(acc)
                    pd = pack(d)
                    if pd:  # d is not zero
                        plain[m], inv_coeffs[m] = pd, d
                        if twists:  # only in a twisted ring
                            for ds, twist in twists:
                                ds[m] = pack(twist(d))
        elif on_field:
            mul, add, is_zero = field._mul, field._add, field._is_zero
            tail = [(i, c, maps[i % order]) for i, c in tail]
            for m in range(1, rel):
                acc = None
                for i, c, twist in tail:
                    d = inv_coeffs.get(m - i)
                    if d is not None:
                        d = mul(c, d if twist is None else twist(d))
                        acc = d if acc is None else add(acc, d)
                if acc is not None and not is_zero(acc):
                    inv_coeffs[m] = acc
        else:
            for m in range(1, rel):
                total = ProductSum(field)
                for i, c in tail:
                    d = inv_coeffs.get(m - i)
                    if d is not None:
                        total.add(c, d)
                val = neg_d0 * total.result()
                if not val.is_zero():
                    inv_coeffs[m] = val
        untwist = maps[-lead % order]
        out = {}
        for m, d in inv_coeffs.items():
            d = d if untwist is None else untwist(d)
            out[m - lead] = FieldElement(field, d) if on_field else d
        return self.ring.series_class(self.ring, out, None if exact_monomial else rel - lead)

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.bound == other.bound
            and self.coeffs == other.coeffs
        )

    def agrees_to_precision(self, other: "LaurentSeries") -> bool:
        """No certified coefficient distinguishes the two series."""
        return (self - other).indistinguishable_from_zero()

    # -- rendering -----------------------------------------------------------

    def __str__(self):
        var = self.ring.var
        terms = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            cs = str(c)
            composite = any(s in cs for s in " +-*") and not cs.lstrip("-").isdigit()
            if composite:
                cs = f"({cs})"
            if e == 0:
                terms.append(cs)
            else:
                power = var if e == 1 else f"{var}^{e}"
                terms.append(power if cs == "1" else f"{cs}*{power}")
        if self.bound is not None:
            terms.append(f"O({var}^{self.bound})")
        return " + ".join(terms) if terms else "0"

    def __repr__(self):
        return f"<{self}>"


def _product_bound(bound, a_low, a_bound, b_low, b_bound):
    """The least of bound and the bound of a product of series a and b.

    A truncated factor bounds the product at its bound plus the other
    factor's least exponent (its bound when it has no terms); a_low and b_low
    are those least exponents.
    """
    if a_bound is not None and (bound is None or a_bound + b_low < bound):
        bound = a_bound + b_low
    if b_bound is not None and (bound is None or b_bound + a_low < bound):
        bound = b_bound + a_low
    return bound


def _sum(a: LaurentSeries, b: LaurentSeries, negate: bool = False) -> LaurentSeries:
    """a + b, or a - b when negate, bounded by the least bound of the two (no
    bound counts as the greatest), at every level.

    A term of a alone is kept as it is, a term of b alone is kept or negated;
    the field terms of both are added on their representatives and boxed
    once, the children of both by recursion.  Terms at or above the bound are
    never summed.
    """
    if a.bound is None:
        bound = b.bound
    elif b.bound is None:
        bound = a.bound
    else:
        bound = min(a.bound, b.bound)
    if bound == a.bound:
        out = dict(a.coeffs)
    else:  # b's bound, below a's
        out = {e: c for e, c in a.coeffs.items() if e < bound}
    field = a.ring.coeff_ring
    on_field = isinstance(field, Field)
    for e, c in b.coeffs.items():
        if bound is not None and e >= bound:
            continue
        d = out.get(e)
        if d is None:
            out[e] = -c if negate else c
        elif on_field:
            r = field._add(d.rep, field._neg(c.rep) if negate else c.rep)
            if field._is_zero(r):
                del out[e]
            else:
                out[e] = FieldElement(field, r)
        else:
            s = _sum(d, c, negate)
            if s.is_zero():
                del out[e]
            else:
                out[e] = s
    return a.ring.series_class(a.ring, out, bound)


def _add_product(acc: list, a: LaurentSeries, b: LaurentSeries) -> None:
    """Add a*b into acc = [coeffs, bound] of a's ring.  An exact zero factor
    adds nothing, not even a bound.

    The product goes by Kronecker substitution when the ring packs and the
    operands are dense enough, else by the pair loop.
    """
    if a.is_zero() or b.is_zero():
        return
    packing = a.ring.packing
    if (
        packing is None
        or len(a.coeffs) * len(b.coeffs) < KRONECKER_MIN_PAIRS
        or not _kronecker_mul_into(acc, a, b, packing)
    ):
        _mul_into(acc, a, b)


class ProductSum:
    """A sum of products x*y in one ring, boxed once.

    Every product is added into one [coeffs, bound] accumulator, as a single
    product is, and result() boxes the sum.  The windows are those of the
    boxed products summed one by one: a sum's bound at every level is the
    least bound of its summands, however they are grouped.  Over a field (a
    tower of height 0) the products are summed as field elements.
    """

    __slots__ = ("ring", "acc")

    def __init__(self, ring):
        self.ring = ring
        self.acc = ring.zero() if isinstance(ring, Field) else [{}, None]

    def add(self, x, y) -> None:
        """Add x*y."""
        ring = self.ring
        for s in (x, y):
            s_ring = s.field if isinstance(s, FieldElement) else getattr(s, "ring", None)
            if s_ring is not ring and s_ring != ring:
                raise DescriptorMismatchError("factors from different rings combined")
        if isinstance(self.acc, FieldElement):
            self.acc += x * y
        else:
            _add_product(self.acc, x, y)

    def result(self):
        acc = self.acc
        return acc if isinstance(acc, FieldElement) else _box(self.ring, acc)


def _mul_into(acc: list, a: LaurentSeries, b: LaurentSeries) -> None:
    """Add a*b, neither an exact zero, into acc = [coeffs, bound] of a's ring.

    Over a field coeffs holds representatives, summed by the field's own _mul
    and _add (a twisted ring applies sigma^e1 to the right factor's terms);
    above it, one child accumulator per exponent.  acc keeps the least bound
    over its products (_product_bound).  Under a bound the terms are walked
    in order and stop at the bound; exact products are walked unsorted.
    """
    out, bound = acc
    rows, cols, limit, low = a.coeffs.items(), b.coeffs.items(), inf, 0
    if bound is not None or a.bound is not None or b.bound is not None:
        rows, cols = _sorted_terms(a), _sorted_terms(b)
        low = cols[0][0] if cols else b.bound
        a_low = rows[0][0] if rows else a.bound
        acc[1] = limit = _product_bound(bound, a_low, a.bound, low, b.bound)
    ring = a.ring
    field, sigma = ring.coeff_ring, ring.sigma
    if not isinstance(field, Field):
        for e1, c1 in rows:
            if e1 + low >= limit:
                break
            for e2, c2 in cols:
                e = e1 + e2
                if e >= limit:
                    break
                child = out.get(e)
                if child is None:
                    child = out[e] = [{}, None]
                _mul_into(child, c1, c2)
        return
    mul, add = field._mul, field._add
    for e1, c1 in rows:
        if e1 + low >= limit:
            break
        right = cols
        if sigma is not None:
            twist = sigma.power(e1)
            right = [(e2, twist(c2)) for e2, c2 in cols]
        r1 = c1.rep
        for e2, c2 in right:
            e = e1 + e2
            if e >= limit:
                break
            r = mul(r1, c2.rep)
            out[e] = add(out[e], r) if e in out else r


def _sorted_terms(s: LaurentSeries) -> list:
    """The (exponent, coefficient) terms of s in exponent order, sorted once."""
    terms = s._terms
    if terms is None:
        terms = s._terms = sorted(s.coeffs.items())
    return terms


# ---------------------------------------------------------------------------
# Kronecker products (von zur Gathen & Gerhard, Modern Computer Algebra, 8.4;
# D. Harvey, J. Symbolic Comput. 44 (2009))

# memoryview formats by item size, for slot widths written and read
# natively; other widths, and every width on big-endian hosts, go byte by byte.
_NATIVE_SLOTS = (
    {memoryview(bytes(8)).cast(code).itemsize: code for code in "QIHB"}
    if sys.byteorder == "little"
    else {}
)


def _slot_width(p: int, terms: int) -> int:
    """Bytes per slot holding a sum of `terms` products of coordinates
    0..p-1: the least of 1, 2, 4 and 8 that holds (p-1)^2 * terms, or past
    8 bytes the least byte count that does."""
    width = (((p - 1) ** 2 * terms).bit_length() + 7) // 8
    return width if width > 8 else 1 << (width - 1).bit_length()


def _read_slots(data: memoryview, start: int, stop: int, width: int) -> list:
    """Slots start..stop-1 of the little-endian slots of `width` bytes in data."""
    view = data[start * width : stop * width]
    code = _NATIVE_SLOTS.get(width)
    if code is not None:
        return view.cast(code).tolist()
    return [
        int.from_bytes(view[i : i + width], "little") for i in range(0, len(view), width)
    ]


def _survey(s: LaurentSeries) -> tuple:
    """Survey s for the Kronecker path and cache it on s: returns s._shape,
    (summary, field term count, lows, highs), where lows[k] and highs[k] are
    the least and greatest exponents of s at level k (0 innermost)."""
    height = s.ring.height
    lows, highs = [inf] * height, [-inf] * height
    summary, terms = _summarize(s, height - 1, lows, highs)
    s._shape = shape = (summary, terms, lows, highs)
    return shape


def _summarize(s: LaurentSeries, level: int, lows: list, highs: list):
    """Summarize s for the windows: returns (summary, field term count).

    The summary is (low, bound, children): low is the least exponent of s,
    or its bound when it has no terms, and children lists (exponent,
    summary) by exponent, or is None at level 0, whose coefficients are
    field elements.  Widens lows[k] and highs[k] to every exponent met at
    level k.
    """
    coeffs = s.coeffs
    if coeffs:
        low, high = min(coeffs), max(coeffs)
        if low < lows[level]:
            lows[level] = low
        if high > highs[level]:
            highs[level] = high
    else:
        low = s.bound
    if not level:
        return (low, s.bound, None), len(coeffs)
    kids, terms = [], 0
    for e, c in _sorted_terms(s):
        kid, n = _summarize(c, level - 1, lows, highs)
        kids.append((e, kid))
        terms += n
    return (low, s.bound, kids), terms


def _window_into(out: dict, bound, a_kids: list, b_kids: list) -> None:
    """Set the windows below an accumulator whose children are out.

    Every pair of surveyed children landing below bound gets the child
    accumulator at its exponent, whose bound the rule of _product_bound,
    written out here, lowers, and so on down the levels.  The children are
    sorted, so each loop stops at bound.
    """
    for e1, (a_low, a_bound, a_grand) in a_kids:
        if bound is not None and e1 + b_kids[0][0] >= bound:
            break
        for e2, (b_low, b_bound, b_grand) in b_kids:
            e = e1 + e2
            if bound is not None and e >= bound:
                break
            child = out.get(e)
            if child is None:
                child = out[e] = [{}, None]
            if a_bound is not None and (child[1] is None or a_bound + b_low < child[1]):
                child[1] = a_bound + b_low
            if b_bound is not None and (child[1] is None or b_bound + a_low < child[1]):
                child[1] = b_bound + a_low
            if a_grand and b_grand:
                _window_into(child[0], child[1], a_grand, b_grand)


def _pack(s: LaurentSeries, level: int, base: int, lows: list, strides: list, slots: list):
    """Put the representatives of s at base + sum_k (e_k - lows[k]) * strides[k],
    the d coordinates of one coefficient of F_p[w]/(f) in d slots in a row;
    strides[0] is the Packing's u, which leaves the u - d slots after them
    free."""
    low, stride = lows[level], strides[level]
    if not level:
        if isinstance(s.ring.coeff_ring, PrimeField):  # one coordinate, u = 1
            for e, c in s.coeffs.items():
                slots[base + e - low] = c.rep
            return
        for e, c in s.coeffs.items():
            for at, x in enumerate(c.rep, base + (e - low) * stride):
                slots[at] = x
        return
    for e, c in s.coeffs.items():
        _pack(c, level - 1, base + (e - low) * stride, lows, strides, slots)


def _packed(s: LaurentSeries, strides: list, width: int) -> int:
    """s, once surveyed, as one integer of little-endian slots of `width`
    bytes, its representatives in the slots _pack gives them.  The last
    packing is cached on s with its strides and width."""
    last = s._packing
    if last is not None and last[0] == width and last[1] == strides:
        return last[2]
    _, _, lows, highs = s._shape
    count = strides[0] + sum((h - l) * k for l, h, k in zip(lows, highs, strides))
    code = _NATIVE_SLOTS.get(width)
    data = bytearray(count * width)
    slots = memoryview(data).cast(code) if code else [0] * count
    _pack(s, len(lows) - 1, 0, lows, strides, slots)
    if code is None:
        data = b"".join(v.to_bytes(width, "little") for v in slots)
    packed = int.from_bytes(data, "little")
    s._packing = (width, strides, packed)
    return packed


def _unpack_into(acc, level, base, lows, highs, strides, data, width, packing) -> None:
    """Fill the level-0 accumulators under acc from the product's slots.

    The windows are already set.  Only the nodes inside their parents'
    windows are visited, and only the slots below each level-0 bound are
    read: u slots per exponent, folded by the Packing's field into one
    representative (over F_p the one slot mod p), which is added into the
    representative already there.  acc may hold earlier products, of either
    path, so only its nodes inside this product's exponent range
    [lows[k], highs[k]] have slots.
    """
    coeffs, bound = acc
    low, high = lows[level], highs[level]
    if not level:
        stop = high + 1 if bound is None or bound > high else bound
        if stop > low:
            p, _, u, field = packing
            slots = _read_slots(data, base, base + (stop - low) * u, width)
            if isinstance(field, PrimeField):  # one slot per exponent, u = 1
                for e, v in enumerate(slots, low):
                    v %= p
                    if v:
                        coeffs[e] = (coeffs[e] + v) % p if e in coeffs else v
                return
            fold, add, zero = field._reduce, field._add, field._zero_rep
            for e, at in zip(range(low, stop), range(0, len(slots), u)):
                r = fold(slots[at : at + u])
                if r != zero:
                    coeffs[e] = add(coeffs[e], r) if e in coeffs else r
        return
    stride = strides[level]
    for e, child in coeffs.items():
        if low <= e <= high and (bound is None or e < bound):
            _unpack_into(
                child, level - 1, base + (e - low) * stride,
                lows, highs, strides, data, width, packing,
            )


def _kronecker_mul_into(acc: list, a: LaurentSeries, b: LaurentSeries, packing: Packing) -> bool:
    """Add a*b into acc by Kronecker substitution, or return False and leave
    acc alone when the operands are too sparse for it.  Operands of which
    one has no field term add their windows alone.

    The ring is untwisted at every level over F_p or F_p[w]/(f), as packing
    describes.  Coordinate j of a field term whose exponents are e_k at
    level k (0 innermost) goes to slot j + sum_k (e_k - lo_k) * stride_k of
    one integer.  There lo_k is the operand's least exponent at level k,
    stride_0 is u = 2d - 1 and stride_(k+1) is stride_k times the product's
    extent at level k.  Each slot holds (p-1)^2 * d times the smaller term
    count, so one integer product sums every pair of coordinates into the
    slot of their exponents and degree, with no carry between slots.  The
    windows come first, by the rule _mul_into uses (_product_bound), from the
    survey of each operand, which like its packing is made once per series.
    """
    sa, na, a_lows, a_highs = a._shape or _survey(a)
    sb, nb, b_lows, b_highs = b._shape or _survey(b)
    if na and nb:
        lows = [x + y for x, y in zip(a_lows, b_lows)]
        highs = [x + y for x, y in zip(a_highs, b_highs)]
        strides = [packing.u]
        for low, high in zip(lows, highs):
            strides.append(strides[-1] * (high - low + 1))
        size = strides.pop()
        if size > KRONECKER_SLOTS_PER_PAIR * packing.u * na * nb:
            return False
    acc[1] = _product_bound(acc[1], *sa[:2], *sb[:2])
    if sa[2] and sb[2]:
        _window_into(acc[0], acc[1], sa[2], sb[2])
    if na and nb:
        width = _slot_width(packing.p, packing.d * min(na, nb))
        product = _packed(a, strides, width) * _packed(b, strides, width)
        data = memoryview(product.to_bytes(size * width, "little"))
        _unpack_into(acc, len(lows) - 1, 0, lows, highs, strides, data, width, packing)
    return True


def _box(ring: SeriesRing, acc: list) -> LaurentSeries:
    """The series of ring that acc holds, less its zeros, its exact-zero
    children and its exponents at or above the bound at every level, which
    are dropped before anything is boxed."""
    coeffs, bound = acc
    inner = ring.coeff_ring
    clean = {}
    if isinstance(inner, Field):
        is_zero = inner._is_zero
        for e, r in coeffs.items():
            if (bound is None or e < bound) and not is_zero(r):
                clean[e] = FieldElement(inner, r)
    else:
        for e, c in coeffs.items():
            if bound is None or e < bound:
                child = _box(inner, c)
                if child.coeffs or child.bound is not None:  # not an exact zero
                    clean[e] = child
    return ring.series_class(ring, clean, bound)


class Tower:
    """Iterated Laurent series field base((v1))((v2))...; v1 is innermost."""

    def __init__(
        self,
        base: Field,
        variables: tuple[str, ...] | list[str],
        default_prec: int = DEFAULT_PRECISION,
    ):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise FieldConstructionError("tower variables must be distinct")
        self.base = base
        self.variables = variables
        self.default_prec = default_prec
        self.rings: list[SeriesRing] = []
        ring: object = base
        for var in variables:
            ring = SeriesRing(ring, var, default_prec)
            self.rings.append(ring)

    @property
    def height(self) -> int:
        return len(self.variables)

    @property
    def residue_char(self) -> int:
        return self.base.char

    def top_ring(self):
        return self.rings[-1] if self.rings else self.base

    def __eq__(self, other):
        return other is self or (
            isinstance(other, Tower)
            and other.base == self.base
            and other.variables == self.variables
        )

    def __hash__(self):
        return hash(("tower", hash(self.base), self.variables))

    def describe(self) -> str:
        return self.base.describe() + "".join(f"(({v}))" for v in self.variables)

    def __repr__(self):
        return self.describe()

    # -- element factories ----------------------------------------------------

    def element(self, payload) -> "TowerElement":
        return TowerElement(self, payload)

    def zero(self) -> "TowerElement":
        return self.constant(self.base.zero())

    def one(self) -> "TowerElement":
        return self.constant(self.base.one())

    def _coefficient(self, value) -> FieldElement:
        """value as a base-field element; one from another field is refused."""
        c = value if isinstance(value, FieldElement) else self.base.element(value)
        if c.field != self.base:
            raise DescriptorMismatchError("constant from a different base field")
        return c

    def constant(self, value) -> "TowerElement":
        """value at exponent 0; ring.series drops a zero at every level."""
        return self.monomial((0,) * self.height, value)

    def var(self, name: str) -> "TowerElement":
        exps = [0] * self.height
        exps[self._var_position(name)] = 1
        return self.monomial(tuple(exps))

    def _var_position(self, name: str) -> int:
        """Position of the variable in OUTERMOST-first order."""
        if name not in self.variables:
            raise FieldConstructionError(f"unknown variable {name!r}")
        return self.height - 1 - self.variables.index(name)

    def monomial(self, exponents, coefficient=None) -> "TowerElement":
        """Monomial with valuation vector `exponents` (outermost first)."""
        exponents = tuple(exponents)
        if len(exponents) != self.height:
            raise DescriptorMismatchError("exponent vector length differs from height")
        payload: object = (
            self.base.one() if coefficient is None else self._coefficient(coefficient)
        )
        for level, ring in enumerate(self.rings):
            # ring at index `level` is variable variables[level]: innermost first,
            # which is the LAST entry of the outermost-first exponent vector
            e = exponents[self.height - 1 - level]
            payload = ring.monomial(e, payload)
        return self.element(payload)


class TowerElement:
    """Element of a tower field; payload is nested series (or a base element)."""

    __slots__ = ("tower", "payload")

    def __init__(self, tower: Tower, payload):
        self.tower = tower
        self.payload = payload

    def _check(self, other: "TowerElement"):
        if not isinstance(other, TowerElement) or other.tower != self.tower:
            raise DescriptorMismatchError("elements of different towers combined")

    def __add__(self, other):
        self._check(other)
        return TowerElement(self.tower, self.payload + other.payload)

    def __sub__(self, other):
        self._check(other)
        return TowerElement(self.tower, self.payload - other.payload)

    def __neg__(self):
        return TowerElement(self.tower, -self.payload)

    def __mul__(self, other):
        self._check(other)
        return TowerElement(self.tower, self.payload * other.payload)

    def inv(self) -> "TowerElement":
        return TowerElement(self.tower, self.payload.inv())

    def __pow__(self, exponent: int):
        return _binary_power(self, exponent, self.tower.one())

    def scale(self, c: FieldElement) -> "TowerElement":
        """Multiply by a base-field constant without building a full product."""
        if c.field != self.tower.base:
            raise DescriptorMismatchError("scalar from a different base field")
        return TowerElement(self.tower, _payload_scaled(self.payload, c))

    def is_zero(self) -> bool:
        return self.payload.is_zero()

    def indistinguishable_from_zero(self) -> bool:
        return self.payload.indistinguishable_from_zero()

    def agrees_to_precision(self, other: "TowerElement") -> bool:
        self._check(other)
        return (self - other).indistinguishable_from_zero()

    def __eq__(self, other):
        if not isinstance(other, TowerElement):
            return NotImplemented
        return self.tower == other.tower and self.payload == other.payload

    def valuation(self):
        """Valuation vector (outermost variable first); INFINITE for exact 0."""
        if self.is_zero():
            return INFINITE_VALUATION
        return tuple(_payload_valuation(self.payload))

    def residue(self) -> FieldElement:
        """Iterated constant term; requires valuation >= 0 lexicographically."""
        return _payload_residue(self.payload, self.tower.base)

    def certifies_zero_position(self) -> bool:
        """True when the constant-term position lies inside the certified window."""
        return _payload_certifies_origin(self.payload)

    def is_exact(self) -> bool:
        """True when no level carries a truncation marker."""
        return _payload_exact(self.payload)

    def __str__(self):
        return str(self.payload)

    def __repr__(self):
        return f"<{self.payload} in {self.tower.describe()}>"


def _payload_valuation(payload) -> list[int]:
    if isinstance(payload, FieldElement):
        if payload.is_zero():
            raise NotInvertibleError("zero coefficient reached in valuation")
        return []
    lead = payload.leading_exponent()
    return [lead] + _payload_valuation(payload.coeffs[lead])


def _payload_residue(payload, base: Field) -> FieldElement:
    """Constant term, verifying nonnegative valuation along the way.

    A certified-nonzero coefficient at a negative position is a hard error;
    an undecided one (or a window not covering the constant term) means the
    answer is not certifiable at the working precision.
    """
    if isinstance(payload, FieldElement):
        return payload
    if payload.bound is not None and payload.bound <= 0:
        raise PrecisionExhaustedError("constant term lies beyond the certified window")
    for e in sorted(payload.coeffs):
        if e >= 0:
            break
        if payload.coeffs[e].indistinguishable_from_zero():
            raise PrecisionExhaustedError(
                f"coefficient at {payload.ring.var}^{e} is undecided"
            )
        raise NotAUnitError(f"certified negative valuation at {payload.ring.var}^{e}")
    if 0 not in payload.coeffs:
        return base.zero()
    return _payload_residue(payload.coeffs[0], base)


def _payload_certifies_origin(payload) -> bool:
    if isinstance(payload, FieldElement):
        return True
    if payload.bound is not None and payload.bound <= 0:
        return False
    if 0 in payload.coeffs:
        return _payload_certifies_origin(payload.coeffs[0])
    return True


def _payload_exact(payload) -> bool:
    return all(isinstance(part, FieldElement) for _, part in _payload_parts(payload))


def _payload_parts(payload, path=()):
    """Each field term as (exponents outermost first, coefficient) and each
    truncation marker as (exponents of its series, bound), depth first."""
    if isinstance(payload, FieldElement):
        yield path, payload
        return
    if payload.bound is not None:
        yield path, payload.bound
    for e, c in payload.coeffs.items():
        yield from _payload_parts(c, path + (e,))


def _payload_constant(payload) -> FieldElement | None:
    """The base-field value of an exact constant (a single term at exponent
    0 at every level, no truncation marker), else None."""
    while not isinstance(payload, FieldElement):
        if payload.bound is not None or len(payload.coeffs) != 1 or 0 not in payload.coeffs:
            return None
        payload = payload.coeffs[0]
    return payload


def _payload_scaled(payload, c: FieldElement):
    """c times the payload term by term, every bound kept: the product by
    the exact constant c, with no product kernel, whose windows are these by
    the rule of _product_bound.  Only a zero c makes zero terms or exact-zero
    children, so only then does ring.series clean the result."""
    if isinstance(payload, FieldElement):
        return payload * c
    ring, coeffs = payload.ring, {e: _payload_scaled(v, c) for e, v in payload.coeffs.items()}
    if c.is_zero():
        return ring.series(coeffs, payload.bound)
    return ring.series_class(ring, coeffs, payload.bound)


# ---------------------------------------------------------------------------
# Hensel square roots


def hensel_sqrt(u: TowerElement) -> TowerElement | None:
    """Square root of a unit by residue sqrt + Newton lifting, or None.

    Lifts only a unit whose residue has a square root, which fields.sqrt
    decides (with unit_is_square's errors); the residue's root is returned
    unlifted only when its square is exactly u.  Otherwise
    _inverse_root lifts r = u^(-1/2) with no inversion and no certification,
    to half of prec in the top variable, and cuts it to prec: u's top-level
    window when u is truncated, the default precision otherwise.  Then
    s = u*r takes one Newton step s <- (s + u/s)/2, which doubles its
    precision and whose inversion sets the windows; the returned witness
    satisfies s*s = u in every certified coefficient.
    """
    root = field_sqrt(_unit_residue(u))
    if root is None:
        return None
    tower = u.tower
    s = tower.constant(root)
    if (s * s - u).is_zero():
        return s
    top = u.payload
    half = tower.constant(tower.base.element(2).inv())
    r = _inverse_root(top, root.inv(), half.payload, (_window(top) + 1) // 2)
    s = tower.element(top * r)
    s = (s + u * s.inv()) * half
    diff = s * s - u
    if diff.indistinguishable_from_zero():
        return s
    raise PrecisionExhaustedError("Newton iteration failed to certify a square root")


def _inverse_root(u, root_inv: FieldElement, half, goal):
    """u^(-1/2) for a unit u of a tower ring, right to O(t^goal) in the top
    variable and cut to u's window there, with no certification; root_inv is
    the inverse root of u's residue, half is 1/2 in u's ring.

    It starts from c^(-1/2) for u's constant coefficient c, lifted the same
    way one level down to c's window, which is all of it when u = c exactly.
    Otherwise r <- r + r(1 - u r^2)/2, which needs no inversion, runs at
    precision k = 2, 4, ... up to goal with the operands cut to k; the
    windows of the coefficients come from the levels below.
    """
    if isinstance(u, FieldElement):
        return root_inv
    c = u.coeffs[0]
    r = u.ring.constant(_inverse_root(c, root_inv, half.coeffs[0], _window(c)))
    if u.bound is None and len(u.coeffs) == 1:
        return r
    half_u, k = u * half, 1
    while k < goal:
        k = min(2 * k, goal)
        r = _cut(r, k)
        r = r + r * (half - _cut(half_u, k) * (r * r))
    return _cut(r, _window(u))


def _window(s):
    """The precision of a series in its top variable: its bound when it is
    truncated, the default precision when it is exact; None for a field
    element."""
    if isinstance(s, FieldElement):
        return None
    return s.ring.default_prec if s.bound is None else s.bound


def _cut(s: LaurentSeries, k: int) -> LaurentSeries:
    """The terms of s below t^k, taken as known to O(t^k) whatever s's bound."""
    return s.ring.series_class(s.ring, {e: c for e, c in s.coeffs.items() if e < k}, k)


def unit_is_square(u: TowerElement) -> bool:
    """Hensel test (Serre, Local Fields, ch. II): a unit of a tower with odd
    residue characteristic is a square iff its residue is a square."""
    return is_square(_unit_residue(u))


def _unit_residue(u: TowerElement) -> FieldElement:
    """The residue of a unit u of a tower with odd residue characteristic."""
    if u.tower.residue_char == 2:
        raise UnsupportedFieldError("Hensel square testing needs residue char != 2")
    v = u.valuation()
    if v is INFINITE_VALUATION or any(x != 0 for x in v):
        raise NotAUnitError(f"valuation {v} is nonzero; not a unit")
    return u.residue()


# ---------------------------------------------------------------------------
# twisted Laurent series E((t, sigma))


class TwistedSeriesRing(SeriesRing):
    """E((var, sigma)) over a field E: a SeriesRing with a twist.

    Adds the conveniences of a field-coefficient ring: coefficients given to
    constant/monomial are coerced into E, t() is the variable, and
    monomial_with_value serves the graded theta action.
    """

    def __init__(
        self,
        field: Field,
        sigma: FieldAutomorphism,
        var: str = "t",
        default_prec: int = DEFAULT_PRECISION,
    ):
        super().__init__(field, var, default_prec, sigma)

    def constant(self, c) -> "TwistedSeries":
        return super().constant(self.coeff_ring.element(c))

    def monomial(self, exponent: int, c=None) -> "TwistedSeries":
        if c is not None:
            c = self.coeff_ring.element(c)
        return super().monomial(exponent, c)

    def t(self) -> "TwistedSeries":
        return self.monomial(1)

    def monomial_with_value(self, gamma) -> "TwistedSeries":
        if isinstance(gamma, tuple):
            (gamma,) = gamma
        return self.monomial(int(gamma))


class TwistedSeries(LaurentSeries):
    """A LaurentSeries over a TwistedSeriesRing; it adds no behaviour.

    The arithmetic is bound again here so that instrumentation which looks
    methods up per class (the benchmark tracer's "laurent.twisted" layer)
    can tell twisted arithmetic from untwisted.
    """

    __slots__ = ()
    __add__ = LaurentSeries.__add__
    __mul__ = LaurentSeries.__mul__
    inv = LaurentSeries.inv


def central_indeterminate(ring: TwistedSeriesRing, m: int | None = None) -> TwistedSeries:
    """x = t^m commuting with the coefficient field and with t.

    With commutative coefficients the requirement is sigma^m = identity, so m
    must be a multiple of ord(sigma), which is the default.
    """
    m = ring.sigma_order if m is None else m
    if m % ring.sigma_order:
        raise FieldConstructionError(
            f"sigma^{m} is not the identity (order {ring.sigma_order})"
        )
    return ring.monomial(m)
