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

from .errors import (
    DescriptorMismatchError,
    FieldConstructionError,
    NotAUnitError,
    NotInvertibleError,
    PrecisionExhaustedError,
    UnsupportedFieldError,
)
from .fields import (
    Field,
    FieldAutomorphism,
    FieldElement,
    _binary_power,
    sqrt as field_sqrt,
)

DEFAULT_PRECISION = 32


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
            raise ValueError("precision must be >= 1")
        if sigma is not None and sigma.field != coeff_ring:
            raise DescriptorMismatchError("automorphism acts on a different field")
        self.coeff_ring = coeff_ring
        self.var = var
        self.default_prec = default_prec
        self.sigma = sigma
        self.sigma_order = 1 if sigma is None else sigma.order

    def __eq__(self, other):
        return (
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

    def coeff_zero(self):
        return self.coeff_ring.zero()

    def coeff_one(self):
        return self.coeff_ring.one()

    def series(self, coeffs: dict, bound: int | None = None) -> "LaurentSeries":
        return LaurentSeries(self, coeffs, bound)

    def zero(self) -> "LaurentSeries":
        return self.series({})

    def one(self) -> "LaurentSeries":
        return self.series({0: self.coeff_one()})

    def constant(self, c) -> "LaurentSeries":
        return self.series({0: c})

    def var_element(self) -> "LaurentSeries":
        return self.series({1: self.coeff_one()})

    def monomial(self, exponent: int, c=None) -> "LaurentSeries":
        if c is None:
            c = self.coeff_one()
        return self.series({exponent: c})


class LaurentSeries:
    """Element of K((var)) or K((var, sigma)) with optional certification bound.

    coeffs maps exponent -> nonzero coefficient; bound None means exact,
    otherwise coefficients at exponents >= bound are unknown.
    """

    __slots__ = ("ring", "coeffs", "bound")

    def __init__(self, ring: SeriesRing, coeffs: dict, bound: int | None):
        clean = {}
        for e, c in coeffs.items():
            if bound is not None and e >= bound:
                continue
            if c.is_zero():
                continue
            clean[e] = c
        self.ring = ring
        self.coeffs = clean
        self.bound = bound

    # -- classification ----------------------------------------------------

    def is_zero(self) -> bool:
        """Exactly zero (an exact series with no terms)."""
        return self.bound is None and not self.coeffs

    def indistinguishable_from_zero(self) -> bool:
        """No certified nonzero coefficient anywhere."""
        return all(c.indistinguishable_from_zero() for c in self.coeffs.values())

    def _effective_lead(self) -> int | None:
        """Smallest exponent that could carry a nonzero coefficient."""
        if self.coeffs:
            return min(self.coeffs)
        return self.bound  # None for exact zero

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
        if self.bound is None:
            bound = other.bound
        elif other.bound is None:
            bound = self.bound
        else:
            bound = min(self.bound, other.bound)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out[e] + c if e in out else c
        return type(self)(self.ring, out, bound)

    def __neg__(self) -> "LaurentSeries":
        return type(self)(self.ring, {e: -c for e, c in self.coeffs.items()}, self.bound)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        """(c t^i)(d t^j) = c sigma^i(d) t^(i+j), extended bilinearly."""
        self._check_ring(other)
        if self.is_zero() or other.is_zero():
            return self.ring.zero()
        bounds = []
        if self.bound is not None:
            lead = other._effective_lead()
            bounds.append(self.bound + (lead if lead is not None else 0))
        if other.bound is not None:
            lead = self._effective_lead()
            bounds.append(other.bound + (lead if lead is not None else 0))
        bound = min(bounds) if bounds else None
        sigma = self.ring.sigma
        right = other.coeffs
        out: dict = {}
        for e1, c1 in self.coeffs.items():
            if sigma is not None:
                twist = sigma.power(e1)
                right = {e2: twist(c2) for e2, c2 in other.coeffs.items()}
            for e2, c2 in right.items():
                e = e1 + e2
                if bound is not None and e >= bound:
                    continue
                prod = c1 * c2
                out[e] = out[e] + prod if e in out else prod
        return type(self)(self.ring, out, bound)

    def scale(self, c) -> "LaurentSeries":
        """Multiply every coefficient by a constant of the coefficient ring."""
        return type(self)(
            self.ring, {e: v * c for e, v in self.coeffs.items()}, self.bound
        )

    def shift(self, k: int) -> "LaurentSeries":
        return type(self)(
            self.ring,
            {e + k: c for e, c in self.coeffs.items()},
            None if self.bound is None else self.bound + k,
        )

    def inv(self) -> "LaurentSeries":
        """Inverse by the coefficient recurrence, to the input's relative precision.

        With c_i the coefficient at t^(lead+i), the inverse is
        sum_j sigma^-lead(d_j) t^(j-lead) where sum_(i+j=m) c_i sigma^i(d_j)
        is 1 at m = 0 and 0 after, so each d_m follows from the earlier ones.
        Untwisted, sigma is the identity.
        """
        lead = self.leading_exponent()
        c0_inv = self.coeffs[lead].inv()
        exact_monomial = len(self.coeffs) == 1 and self.bound is None
        if exact_monomial:
            rel = 1
        else:
            rel = self.ring.default_prec if self.bound is None else self.bound - lead
        sigma = self.ring.sigma
        tail = [
            (e - lead, c) for e, c in self.coeffs.items() if e != lead and e - lead < rel
        ]
        inv_coeffs = {0: c0_inv}
        for m in range(1, rel):
            acc = None
            for off, c in tail:
                if 0 <= m - off and (m - off) in inv_coeffs:
                    d = inv_coeffs[m - off]
                    term = c * (d if sigma is None else sigma.power(off)(d))
                    acc = term if acc is None else acc + term
            if acc is not None:
                val = -(c0_inv * acc)
                if not val.is_zero():
                    inv_coeffs[m] = val
        if sigma is not None:
            untwist = sigma.power(-lead)
            inv_coeffs = {m: untwist(d) for m, d in inv_coeffs.items()}
        return type(self)(
            self.ring,
            {e - lead: c for e, c in inv_coeffs.items()},
            None if exact_monomial else -lead + rel,
        )

    def __pow__(self, exponent: int) -> "LaurentSeries":
        return _binary_power(self, exponent, self.ring.one())

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
        return (
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
        return self.element(self._nested_constant(self.base.zero(), zero=True))

    def one(self) -> "TowerElement":
        return self.element(self._nested_constant(self.base.one()))

    def constant(self, value) -> "TowerElement":
        c = value if isinstance(value, FieldElement) else self.base.element(value)
        if c.field != self.base:
            raise DescriptorMismatchError("constant from a different base field")
        return self.element(self._nested_constant(c, zero=c.is_zero()))

    def _nested_constant(self, c, zero: bool = False):
        payload = c
        for ring in self.rings:
            payload = ring.zero() if zero else ring.constant(payload)
        return payload

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
        c = (
            self.base.one()
            if coefficient is None
            else (
                coefficient
                if isinstance(coefficient, FieldElement)
                else self.base.element(coefficient)
            )
        )
        payload: object = c
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

        def go(payload):
            if isinstance(payload, FieldElement):
                return payload * c
            return LaurentSeries(
                payload.ring,
                {e: go(v) for e, v in payload.coeffs.items()},
                payload.bound,
            )

        return TowerElement(self.tower, go(self.payload))

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

    def valuation_exceeds(self, gamma) -> bool:
        """Certified v(self) > gamma; raises when truncation leaves it open."""
        gamma = tuple(gamma)
        if len(gamma) != self.tower.height:
            raise DescriptorMismatchError("comparison vector has wrong length")
        return _payload_exceeds(self.payload, gamma)

    def certifies_zero_position(self) -> bool:
        """True when the constant-term position lies inside the certified window."""
        return _payload_certifies_origin(self.payload)

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


def _payload_exceeds(payload, gamma) -> bool:
    if isinstance(payload, FieldElement):
        # fully consumed vector: position equals gamma exactly
        return payload.is_zero()
    g0 = gamma[0]
    if payload.bound is not None and payload.bound <= g0:
        raise PrecisionExhaustedError(
            f"window O({payload.ring.var}^{payload.bound}) cannot decide positions near {g0}"
        )
    for e in sorted(payload.coeffs):
        c = payload.coeffs[e]
        if e < g0:
            if c.indistinguishable_from_zero():
                raise PrecisionExhaustedError(
                    f"coefficient at {payload.ring.var}^{e} is undecided"
                )
            return False
        if e == g0:
            if not _payload_exceeds(c, gamma[1:]):
                return False
    return True


def _payload_certifies_origin(payload) -> bool:
    if isinstance(payload, FieldElement):
        return True
    if payload.bound is not None and payload.bound <= 0:
        return False
    if 0 in payload.coeffs:
        return _payload_certifies_origin(payload.coeffs[0])
    return True


# ---------------------------------------------------------------------------
# Hensel square roots


def hensel_sqrt(u: TowerElement) -> TowerElement | None:
    """Square root of a unit by residue sqrt + Newton lifting, or None.

    Requires valuation 0 and odd residue characteristic.  The returned
    witness satisfies s*s = u in every certified coefficient.
    """
    tower = u.tower
    if tower.residue_char == 2:
        raise UnsupportedFieldError("Hensel square testing needs residue char != 2")
    v = u.valuation()
    if v is INFINITE_VALUATION or any(x != 0 for x in v):
        raise NotAUnitError(f"valuation {v} is nonzero; not a unit")
    r0 = u.residue()
    s0 = field_sqrt(r0)
    if s0 is None:
        return None
    s = tower.constant(s0)
    half = tower.constant(tower.base.element(2).inv())
    budget = 4 + 2 * sum(
        max(1, tower.default_prec).bit_length() for _ in range(max(1, tower.height))
    )
    for _ in range(budget):
        diff = s * s - u
        if diff.indistinguishable_from_zero():
            return s
        s = (s + u * s.inv()) * half
    diff = s * s - u
    if diff.indistinguishable_from_zero():
        return s
    raise PrecisionExhaustedError("Newton iteration failed to certify a square root")


def unit_is_square(u: TowerElement) -> bool:
    """Hensel test: a unit is a square iff its residue is a square."""
    return hensel_sqrt(u) is not None


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

    def series(self, coeffs: dict, bound: int | None = None) -> "TwistedSeries":
        return TwistedSeries(self, coeffs, bound)

    def constant(self, c) -> "TwistedSeries":
        return super().constant(self.coeff_ring.element(c))

    def monomial(self, exponent: int, c=None) -> "TwistedSeries":
        if c is not None:
            c = self.coeff_ring.element(c)
        return super().monomial(exponent, c)

    def t(self) -> "TwistedSeries":
        return self.var_element()

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


def central_indeterminate(
    ring: TwistedSeriesRing, a: FieldElement | None = None, m: int | None = None
) -> TwistedSeries:
    """x = a*t^m commuting with the coefficient field and with t.

    With commutative coefficients the requirement is sigma^m = identity, so m
    must be a multiple of ord(sigma).
    """
    m = ring.sigma_order if m is None else m
    if m % ring.sigma_order:
        raise FieldConstructionError(
            f"sigma^{m} is not the identity (order {ring.sigma_order})"
        )
    return ring.monomial(m, a)
