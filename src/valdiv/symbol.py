"""Symbol algebras over tower fields.

(a,b) of degree n with relations i^n = a, j^n = b, j*i = omega*i*j, where
omega is a primitive n-th root of unity in the coefficient field.  Elements
are kept in normal form on the basis {i^k j^l}.  The reduced trace is read
from the normal form: Trd(i^k j^l) = 0 unless k = l = 0, so Trd(e) = n c_00.
The reduced characteristic polynomial of an exact element comes from the
power sums Trd(x^k), k = 1..n, by Newton's identities, when char F = 0 or
char F > n and a, b are exact.  Otherwise it is computed through an explicit
degree-n splitting representation over L = F[i], the commutative subalgebra
in which i^n = a, by Berkowitz's division-free recurrence, so truncated
coefficients are never inverted.  The defining relations of that
representation are verified once per algebra on every route.  The reduced
norm is read from the constant term, except for an element of L off the
trace route, whose norm is the product of its conjugates under j.

The extended valuation is v(e) = v(Nrd(e)) / n, a vector of rationals over
the tower's value group Z^m (outermost variable = most significant).  The
value group needs no norm: v(i) = v(a) / n and v(j) = v(b) / n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import (
    DescriptorMismatchError,
    FieldConstructionError,
    InvariantBreachError,
    NotAUnitError,
    NotInvertibleError,
    PrecisionExhaustedError,
    UnsupportedFieldError,
)
from .fields import FieldElement, _binary_power, has_order
from .laurent import (
    INFINITE_VALUATION,
    ProductSum,
    SeriesRing,
    Tower,
    TowerElement,
    _add_product,
    _add_shifted,
    _kronecker_mul_into,
    _small_exact_terms,
    unit_is_square,
)
from .ordered import Lattice, QuotientStructure, _prime_factors, quotient


class SymbolAlgebra:
    """Degree-n symbol algebra over a tower field."""

    def __init__(
        self,
        tower: Tower,
        degree: int,
        omega: FieldElement,
        a: TowerElement,
        b: TowerElement,
    ):
        if degree < 1:
            raise FieldConstructionError("degree must be >= 1")
        if omega.field != tower.base:
            raise DescriptorMismatchError("omega must live in the coefficient field")
        if degree == 1:
            if omega != tower.base.one():
                raise FieldConstructionError("degree 1 requires omega = 1")
        elif not has_order(omega, degree):
            raise FieldConstructionError(
                f"omega = {omega} is not a primitive {degree}-th root of unity"
            )
        p = tower.residue_char
        if p and gcd(p, degree) != 1:
            raise FieldConstructionError(
                f"residue characteristic {p} must be coprime to the degree {degree}"
            )
        if a.tower != tower or b.tower != tower:
            raise DescriptorMismatchError("a, b must be elements of the tower")
        if a.is_zero() or b.is_zero():
            raise FieldConstructionError("a and b must be nonzero")
        self.tower = tower
        self.degree = degree
        self.omega = omega
        self.a = a
        self.b = b
        self._omega_pow = [omega**k for k in range(degree)]
        self._splitting_verified = False
        # prd's trace route divides by k <= n and is taken on exact inputs only
        char = tower.base.char
        self._exact_slots = a.is_exact() and b.is_exact()
        self._trace_route = (char == 0 or char > degree) and self._exact_slots
        # the packed rows of _sum_of_products: tower series in a power of i
        ring = tower.top_ring()
        packs = self._exact_slots and getattr(ring, "packing", None) is not None
        self._row_ring = SeriesRing(ring, "i") if packs else None
        # a and b as wraps, with their field terms when shifted copies apply
        self._wraps = [
            (c.payload, _small_exact_terms(c.payload) if isinstance(ring, SeriesRing) else None)
            for c in (a, b)
        ]
        # one i and one j per algebra, so their cached prd and inv are shared
        if degree == 1:
            self._i, self._j = self.scalar(a), self.scalar(b)
        else:
            self._i, self._j = self.monomial(1, 0), self.monomial(0, 1)

    @property
    def dimension(self) -> int:
        return self.degree * self.degree

    def __eq__(self, other):
        return (
            isinstance(other, SymbolAlgebra)
            and other.tower == self.tower
            and other.degree == self.degree
            and other.omega == self.omega
            and other.a == self.a
            and other.b == self.b
        )

    def __hash__(self):
        return hash(("symbol", self.degree, hash(self.tower)))

    def describe(self) -> str:
        return (
            f"symbol(n={self.degree}, omega={self.omega}, a={self.a}, b={self.b})"
            f" over {self.tower.describe()}"
        )

    def __repr__(self):
        return self.describe()

    # -- element factories -----------------------------------------------

    def element(self, coeffs: dict) -> "AlgebraElement":
        fixed = {}
        for (k, l), c in coeffs.items():
            if not (0 <= k < self.degree and 0 <= l < self.degree):
                raise FieldConstructionError("basis exponents out of range")
            if not isinstance(c, TowerElement):
                c = self.tower.constant(c)
            fixed[(k, l)] = c
        return AlgebraElement(self, fixed)

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    def one(self) -> "AlgebraElement":
        return self.element({(0, 0): self.tower.one()})

    def scalar(self, value) -> "AlgebraElement":
        return self.element({(0, 0): value})

    def i(self) -> "AlgebraElement":
        return self._i

    def j(self) -> "AlgebraElement":
        return self._j

    def monomial(self, k: int, l: int, coeff=None) -> "AlgebraElement":
        c = self.tower.one() if coeff is None else coeff
        return self.element({(k % self.degree, l % self.degree): c})

    # -- splitting representation ------------------------------------------

    def verify_splitting_relations(self):
        """Check rho(i)^n = rho(a), rho(j)^n = rho(b) and
        rho(j)rho(i) = rho(omega i)rho(j)."""
        if self._splitting_verified:
            return
        rho_i = self.i().splitting_matrix()
        rho_j = self.j().splitting_matrix()
        for rho, c in ((rho_i, self.a), (rho_j, self.b)):
            power = rho
            for _ in range(self.degree - 1):
                power = _l_matrix_mul(self, power, rho)
            if not _l_matrix_agrees(power, self.scalar(c).splitting_matrix()):
                raise InvariantBreachError("splitting generators fail their n-th powers")
        ji = _l_matrix_mul(self, rho_j, rho_i)
        twisted = _l_matrix_mul(self, self.i().scale(self.omega).splitting_matrix(), rho_j)
        if not _l_matrix_agrees(ji, twisted):
            raise InvariantBreachError("splitting generators fail the twist relation")
        self._splitting_verified = True

    # -- valuation data -----------------------------------------------------

    def v_of_i(self) -> tuple[Fraction, ...]:
        """v(i) = v(a) / n: i^n = a, so Nrd(i) = (-1)^(n+1) a and no norm is needed."""
        return tuple(Fraction(x, self.degree) for x in self.a.valuation())

    def v_of_j(self) -> tuple[Fraction, ...]:
        """v(j) = v(b) / n, as for v_of_i."""
        return tuple(Fraction(x, self.degree) for x in self.b.valuation())

    def value_group(self) -> Lattice:
        """Lattice generated by the field's Z^m together with v(i), v(j)."""
        m = self.tower.height
        gens = [row for row in Lattice.standard(m).fraction_rows()]
        if self.degree > 1:
            gens.append(self.v_of_i())
            gens.append(self.v_of_j())
        lat = Lattice.from_generators(m, gens)
        if not lat.contains_lattice(Lattice.standard(m)):
            raise InvariantBreachError("value group lost the base lattice")
        return lat

    def monomial_with_value(self, gamma) -> "AlgebraElement | None":
        """A monomial c * i^k j^l with valuation gamma, or None."""
        gamma = tuple(Fraction(x) for x in gamma)
        if len(gamma) != self.tower.height:
            raise DescriptorMismatchError("value vector has wrong length")
        vi, vj = self.v_of_i(), self.v_of_j()
        for k in range(self.degree):
            for l in range(self.degree):
                rem = tuple(
                    g - k * x - l * y for g, x, y in zip(gamma, vi, vj)
                )
                if all(r.denominator == 1 for r in rem):
                    coeff = self.tower.monomial(tuple(int(r) for r in rem))
                    return self.monomial(k, l, coeff)
        return None

    def classify(self) -> "RamificationReport":
        """Value group, index, residue degree, defect and ramification flags.

        The residue characteristic is coprime to the degree by construction,
        which forces defect 1; the residue degree is then pinned by the
        dimension formula.
        """
        n = self.degree
        m = self.tower.height
        lat = self.value_group()
        quot = quotient(lat, Lattice.standard(m))
        index = quot.order
        defect = 1
        if (n * n) % (index * defect):
            raise InvariantBreachError(
                f"index {index} does not divide the dimension {n * n}"
            )
        residue_degree = (n * n) // (index * defect)
        totally_ramified = index == n * n
        semiramified = residue_degree == n and index == n and n > 1
        tame = True  # defectless with residue char coprime to the degree
        notes: list[str] = []
        is_division: bool | None
        if n == 1:
            is_division = True
            notes.append("degree 1: the algebra is its own base field")
        elif totally_ramified and len(list(_prime_factors(n))) == 1:
            is_division = True
            notes.append(
                "totally ramified with defect 1 and prime-power degree over an"
                " iterated Laurent tower: division"
            )
        elif n == 2 and m == 1:
            is_division = self._quaternion_division_flag(notes)
        else:
            is_division = None
            notes.append("division status not decided by the supported criteria")
        if totally_ramified:
            residue_report = "residue algebra equals the residue field"
        elif semiramified and n == 2:
            residue_report = "residue algebra is the quadratic residue extension"
        else:
            residue_report = "residue algebra reported by dimension only"
        notes.append(residue_report)
        return RamificationReport(
            algebra=self.describe(),
            dimension=n * n,
            degree=n,
            value_group=lat,
            grade_quotient=quot,
            index=index,
            residue_degree=residue_degree,
            defect=defect,
            is_defectless=True,
            is_totally_ramified=totally_ramified,
            is_semiramified=semiramified,
            is_tame=tame,
            is_division=is_division,
            notes=tuple(notes),
        )

    def _quaternion_division_flag(self, notes: list[str]) -> bool | None:
        for unit, uniformizer in ((self.a, self.b), (self.b, self.a)):
            try:
                is_division = quaternion_is_division(unit, uniformizer)
            except (NotAUnitError, UnsupportedFieldError):
                continue
            notes.append(
                "quaternion unit/uniformizer criterion: division iff the unit slot"
                " is a non-square"
            )
            return is_division
        notes.append("division status not decided by the supported criteria")
        return None


def quaternion_is_division(u: TowerElement, t_elem: TowerElement) -> bool:
    """Quaternion (u, t) over a height-1 tower: division iff u is a non-square unit.

    Requires u a unit, t a uniformizer and residue characteristic != 2.
    """
    tower = u.tower
    if t_elem.tower != tower:
        raise DescriptorMismatchError("u and t live in different towers")
    if tower.height != 1:
        raise UnsupportedFieldError("criterion restricted to height-1 towers")
    if tower.residue_char == 2:
        raise UnsupportedFieldError("residue characteristic 2 unsupported")
    if u.valuation() != (0,):
        raise NotAUnitError("u must be a unit")
    if t_elem.valuation() != (1,):
        raise NotAUnitError("t must be a uniformizer (minimal positive value)")
    return not unit_is_square(u)


class AlgebraElement:
    """Normal-form element sum c_kl i^k j^l with tower-field coefficients."""

    __slots__ = ("algebra", "coeffs", "_prd", "_inv", "_powers", "_chain")

    def __init__(self, algebra: SymbolAlgebra, coeffs: dict):
        self.algebra = algebra
        self.coeffs = {kl: c for kl, c in coeffs.items() if not c.is_zero()}
        self._prd = None
        self._inv = None
        self._powers = None
        self._chain = None

    def _check(self, other: "AlgebraElement"):
        if not isinstance(other, AlgebraElement) or other.algebra != self.algebra:
            raise DescriptorMismatchError("elements of different algebras combined")

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for kl, c in other.coeffs.items():
            out[kl] = out[kl] + c if kl in out else c
        return AlgebraElement(self.algebra, out)

    def __neg__(self):
        return AlgebraElement(self.algebra, {kl: -c for kl, c in self.coeffs.items()})

    def __sub__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for kl, c in other.coeffs.items():
            out[kl] = out[kl] - c if kl in out else -c
        return AlgebraElement(self.algebra, out)

    def __mul__(self, other):
        self._check(other)
        return _sum_of_products(self.algebra, [(self, other)])

    def scale(self, c) -> "AlgebraElement":
        if isinstance(c, FieldElement):
            return AlgebraElement(
                self.algebra, {kl: v.scale(c) for kl, v in self.coeffs.items()}
            )
        return AlgebraElement(
            self.algebra, {kl: v * c for kl, v in self.coeffs.items()}
        )

    def __pow__(self, exponent: int):
        return _binary_power(self, exponent, self.algebra.one())

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs.values())

    def indistinguishable_from_zero(self) -> bool:
        return all(c.indistinguishable_from_zero() for c in self.coeffs.values())

    def agrees_to_precision(self, other: "AlgebraElement") -> bool:
        self._check(other)
        return (self - other).indistinguishable_from_zero()

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.algebra == other.algebra and self.coeffs == other.coeffs

    def is_scalar(self) -> bool:
        return all(kl == (0, 0) for kl in self.coeffs)

    def scalar_part(self) -> TowerElement:
        return self.coeffs.get((0, 0), self.algebra.tower.zero())

    # -- splitting representation and norms --------------------------------

    def splitting_matrix(self):
        """Image in M_n(L), L = F[i]; every entry is an element with keys (k, 0)."""
        alg = self.algebra
        n = alg.degree
        mat = [[{} for _ in range(n)] for _ in range(n)]
        for (k, l), c in self.coeffs.items():
            for r in range(n):
                col = r + l  # rho(j)^l moves row r to column r + l, wrapping by b
                val = c.scale(alg._omega_pow[(r * k) % n]) if n > 1 else c
                if col >= n:
                    val = val * alg.b
                    col -= n
                mat[r][col][(k, 0)] = val  # (k, l) is the one key that lands here
        return [[AlgebraElement(alg, entry) for entry in row] for row in mat]

    def nrd(self) -> TowerElement:
        """Reduced norm: (-1)^n times the constant term of `prd`, except for
        x in L = F[i] off the trace route, where it is the scalar part, which
        must lie in F, of the last entry of `conjugate_chain`.  Its factors
        tau^r(x) are the diagonal entries d_r of rho(x), on which Berkowitz
        forms c_k = (-d_k) c_(k-1), the same products up to sign and order,
        and no other nonempty one: both agree in every coefficient and bound.
        """
        alg = self.algebra
        if self._on_trace_route() or any(l for _, l in self.coeffs):
            c0 = self.prd()[0]
            return -c0 if alg.degree % 2 else c0
        alg.verify_splitting_relations()
        return _scalar_in_f(self.conjugate_chain()[-1])

    def conjugate_chain(self) -> list["AlgebraElement"]:
        """x, x tau(x), ..., x tau(x) ... tau^(n-1)(x) for x in L = F[i], where
        tau, the phase of j, sends c i^k to omega^k c i^k.  The last entry is
        the norm from L to F, and the entries are the norm prefixes of a
        Hilbert-90 resolvent along j, so they are cached on x, as `powers`
        are; the cache leaves x out, so x is in no reference cycle."""
        if self._chain is None:
            n = self.algebra.degree
            self._chain = _norm_prefixes(self, lambda z: z.phase((0, 1)), n)[1:]
        return [self, *self._chain]

    def powers(self, k: int) -> list["AlgebraElement"]:
        """1, x, ..., x^k, each x^r formed once as x^(r-1) x.  They serve the
        trace route of `prd`, `inv` and the Hilbert-90 sampler, so x^2, x^3,
        ... are cached on x; the cache leaves x out, as `_chain` does."""
        powers = [self.algebra.one(), self, *(self._powers or ())]
        while len(powers) <= k:
            powers.append(powers[-1] * self)
        self._powers = powers[2:]
        return powers[: k + 1]

    def phase(self, key) -> "AlgebraElement":
        """x0 x x0^-1 for x0 = i^k j^l, key = (k, l): c i^k' j^l' times omega^m,
        m = _phase(key, (k', l'), n), term by term.  Exact, with no product;
        `sk1.conjugation` uses it only where x0's inverse is exact too."""
        alg = self.algebra
        out = {}
        for kl, c in self.coeffs.items():
            m = _phase(key, kl, alg.degree)
            out[kl] = c.scale(alg._omega_pow[m]) if m else c
        return AlgebraElement(alg, out)

    def trd(self) -> TowerElement:
        """Reduced trace n * c_00: Trd(i^k j^l) = 0 unless k = l = 0."""
        alg = self.algebra
        return self.scalar_part().scale(alg.tower.base.element(alg.degree))

    def prd(self) -> list[TowerElement]:
        """Reduced characteristic polynomial (low-to-high, monic, degree n).

        The trace route (`_newton_charpoly`) divides by every k <= n, so it
        needs char F = 0 or char F > n; it is taken only when x, a and b are
        exact, because on truncated inputs the two routes can certify
        different windows.  Otherwise the polynomial is that of the splitting
        representation, by Berkowitz's recurrence in L = F[i]; it must lie in
        F, and a certified component off (0, 0) is a construction bug.
        The splitting relations are verified once per algebra on both routes.
        The result is cached; callers get a copy.
        """
        if self._prd is None:
            alg = self.algebra
            alg.verify_splitting_relations()
            if self._on_trace_route():
                self._prd = self._newton_charpoly()
            else:
                self._prd = [_scalar_in_f(c) for c in _l_charpoly(alg, self.splitting_matrix())]
        return list(self._prd)

    def _on_trace_route(self) -> bool:
        return self.algebra._trace_route and all(c.is_exact() for c in self.coeffs.values())

    def _newton_charpoly(self) -> list[TowerElement]:
        """The trace route of `prd`, from the powers 1, x, ..., x^m.

        With m = ceil(n/2), p_k = Trd(x^k) = n c_00(x^k) for k <= m; for k > m
        only the scalar part of x^m x^(k-m) is summed.  With c_n = 1, Newton's
        identities read k c_(n-k) = -(p_1 c_(n-k+1) + ... + p_k c_n)
        (Macdonald, Symmetric Functions and Hall Polynomials, ch. I 2).
        """
        alg = self.algebra
        n, tower = alg.degree, alg.tower
        m = (n + 1) // 2
        powers = self.powers(m)
        sums = [x.trd() for x in powers[1:]]
        for k in range(m + 1, n + 1):
            c00 = _scalar_of_product(powers[m], powers[k - m])
            sums.append(c00.scale(tower.base.element(n)))
        high = [tower.one()]  # c_n, c_(n-1), ...
        for k in range(1, n + 1):
            total = ProductSum(tower.top_ring())
            for p, c in zip(sums, high[:0:-1]):  # p_i c_(n-k+i), i < k
                total.add(p.payload, c.payload)
            s = TowerElement(tower, total.result()) + sums[k - 1]
            high.append(s.scale(-tower.base.element(k).inv()))
        return high[::-1]

    def unit_prd(self) -> list[TowerElement]:
        """`prd` of a unit: its constant term, (-1)^n Nrd, must be certified
        nonzero, else NotInvertibleError (exactly zero) or
        PrecisionExhaustedError (zero to precision)."""
        poly = self.prd()
        if poly[0].indistinguishable_from_zero():
            if poly[0].is_zero():
                raise NotInvertibleError("reduced norm is zero; not a unit")
            raise PrecisionExhaustedError("reduced norm is undecided at precision")
        return poly

    def inv(self) -> "AlgebraElement":
        """Inverse via the reduced characteristic polynomial.

        From e^n + c_{n-1} e^{n-1} + ... + c_0 = 0 and c_0 = (-1)^n Nrd(e),
        the inverse is -(e^{n-1} + c_{n-1} e^{n-2} + ... + c_1) / c_0.  The
        result is cached; no code mutates an element, so it is returned as is.
        """
        if self._inv is not None:
            return self._inv
        alg = self.algebra
        poly = self.unit_prd()
        c0_inv = poly[0].inv()
        # poly[k] multiplies x^(k-1), with the monic leading 1 at k = n
        powers = self.powers(alg.degree - 1)
        pairs = ((power, alg.scalar(c)) for power, c in zip(powers, poly[1:]))
        self._inv = _sum_of_products(alg, pairs).scale(-c0_inv)
        return self._inv

    def valuation(self):
        """v(e) = v(Nrd(e)) / degree; INFINITE marker for exact zero."""
        if self.is_zero():
            return INFINITE_VALUATION
        v = self.nrd().valuation()
        if v is INFINITE_VALUATION:
            raise NotInvertibleError("nonzero element with zero reduced norm")
        n = self.algebra.degree
        return tuple(Fraction(x, n) for x in v)

    def residue(self) -> FieldElement:
        """Residue in the scalar regime: every non-scalar term must have
        certified positive value; general residue algebras are out of scope."""
        alg = self.algebra
        zero_grade = tuple(Fraction(0) for _ in range(alg.tower.height))
        for kl, c in self.coeffs.items():
            if kl == (0, 0):
                continue
            term = AlgebraElement(alg, {kl: c})
            v = term.valuation()
            if not (v is INFINITE_VALUATION or v > zero_grade):
                raise UnsupportedFieldError(
                    "residue supported only when non-scalar terms have positive value"
                )
        return self.scalar_part().residue()

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for (k, l) in sorted(self.coeffs):
            c = self.coeffs[(k, l)]
            basis = ""
            if k:
                basis += "i" if k == 1 else f"i^{k}"
            if l:
                basis += ("*" if basis else "") + ("j" if l == 1 else f"j^{l}")
            cs = str(c)
            if basis:
                if cs == "1":
                    parts.append(basis)
                else:
                    parts.append(f"({cs})*{basis}")
            else:
                parts.append(f"({cs})" if " " in cs else cs)
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self}>"


def _sum_of_products(alg: SymbolAlgebra, pairs) -> AlgebraElement:
    """The sum of the normal-form products x*y over the pairs (x, y), via
    j^l i^k = omega^(lk) i^k j^l.

    The term pair (c1 i^k1 j^l1, c2 i^k2 j^l2) adds c1 omega^m c2, m = l1 k2,
    to the cell i^(k1+k2) j^(l1+l2) (_cell); a cell past i^(n-1) or j^(n-1)
    is folded into its key by a and b (_fold_wraps).  The pair loop adds
    each term pair's product.  For exact a and b in a ring that packs, a
    pair (x, y) with a coefficient truncated in the top variable instead
    adds one Kronecker product per pair of rows of j-degree (_add_rows).

    Windows.  With exact a and b the cells of all pairs are folded once, at
    the end.  That gives the windows of ((c1 c2) a) b summed pair by pair:
    by the rule of _product_bound, s*m for an exact m has at every level the
    bound of s plus the least exponent of m, never reading the least
    exponent of s, and a sum's bound is the least bound of its summands.
    A truncated a or b would read the least exponent of a sum, which
    cancellation can raise, so then each wrapping term pair is folded alone.
    """
    n, ring = alg.degree, alg.tower.top_ring()
    sums: dict = {}
    cells: dict = {}
    for x, y in pairs:
        scaled: dict = {}
        rows: dict = {}  # j-degree -> i-degree -> accumulator, for _add_rows
        packed = alg._row_ring is not None and (_truncated(x) or _truncated(y))
        for (k1, l1), c1 in x.coeffs.items():
            for key, c2 in y.coeffs.items():
                k, l = k1 + key[0], l1 + key[1]
                cell = sums.get((k, l)) or _cell(sums, cells, ring, n, k, l)
                if packed:
                    rows.setdefault(l, {})[k] = cell.acc
                    continue
                cell.add(c1.payload, _phased(alg, scaled, l1, key, c2))
                if cells and not alg._exact_slots:
                    _fold_wraps(alg, sums, cells)
        if packed:
            _add_rows(alg, x, y, rows, scaled)
    if cells:
        _fold_wraps(alg, sums, cells)
    return AlgebraElement(
        alg, {kl: TowerElement(alg.tower, s.result()) for kl, s in sums.items()}
    )


def _truncated(x: AlgebraElement) -> bool:
    """Whether a coefficient of x is truncated in the top variable."""
    for c in x.coeffs.values():
        if c.payload.bound is not None:
            return True
    return False


def _phased(alg: SymbolAlgebra, scaled: dict, l1: int, key: tuple, c2: TowerElement):
    """The payload of omega^m c2, m = l1 k2, for the term c2 i^k2 j^l2 of y
    at key = (k2, l2) passing j^l1, scaled once per phase and key into the
    dict scaled of one pair (x, y)."""
    m = l1 * key[0] % alg.degree
    if not m:
        return c2.payload
    got = scaled.get((m, key))
    if got is None:
        got = scaled[(m, key)] = c2.scale(alg._omega_pow[m]).payload
    return got


def _cell(sums: dict, cells: dict, ring, n: int, k: int, l: int) -> ProductSum:
    """The ProductSum of the cell i^k j^l, 0 <= k, l < 2n - 1: the sum of
    the key (k, l) itself when k, l < n.  A key's sum is created when a term
    pair first meets it, so the keys come in the order the pairs meet them."""
    key = (k - n if k >= n else k, l - n if l >= n else l)
    total = sums.get(key)
    if total is None:
        total = sums[key] = ProductSum(ring)
    if k < n and l < n:
        return total
    cell = cells.get((k, l))
    if cell is None:
        cell = cells[(k, l)] = ProductSum(ring)
    return cell


def _fold_wraps(alg: SymbolAlgebra, sums: dict, cells: dict) -> None:
    """Fold the cells into the sums of their keys and empty them: i^n = a
    first, into the cell i^(k-n) j^l, then j^n = b.  Each cell is multiplied
    once; by an a or b of at most two field terms as shifted copies of its
    accumulator, which is then never boxed."""
    n, ring = alg.degree, alg.tower.top_ring()
    for (k, l), cell in list(cells.items()):
        if k >= n:
            _wrap(cell, _cell(sums, cells, ring, n, k - n, l), *alg._wraps[0])
    for (k, l), cell in cells.items():
        if k < n:
            _wrap(cell, sums[(k, l - n)], *alg._wraps[1])
    cells.clear()


def _wrap(cell: ProductSum, target: ProductSum, factor, terms) -> None:
    if terms is None:
        target.add(cell.result(), factor)
    else:
        _add_shifted(target.acc, target.ring, cell.acc, terms)


def _add_rows(alg: SymbolAlgebra, x, y, rows: dict, scaled: dict) -> None:
    """Add x*y into the cell accumulators rows[l][k] by rows of j-degree.

    With x_l(alpha) = sum_k c_kl alpha^k, the rows l1 and l2 add
    x_l1(alpha) y_l2(omega^l1 alpha) at j^(l1+l2): one series product in
    the tower ring with alpha as one more, outer variable, whose child at
    alpha^k is the cell i^k j^(l1+l2).  It is taken by Kronecker
    substitution at any term count, else per pair of terms.  Its windows are
    those of the pair loop, because a sum's bound is the least of its
    summands' at every level.
    """
    ring = alg._row_ring
    rows_x: dict = {}
    rows_y: dict = {}
    for (k, l), c in x.coeffs.items():
        rows_x.setdefault(l, {})[k] = c.payload
    for key, c in y.coeffs.items():
        rows_y.setdefault(key[1], {})[key[0]] = (key, c)
    for l1, row in rows_x.items():
        left = ring.series_class(ring, row, None)
        for l2, terms in rows_y.items():
            phased = {k: _phased(alg, scaled, l1, key, c) for k, (key, c) in terms.items()}
            acc, right = [rows[l1 + l2], None], ring.series_class(ring, phased, None)
            if not _kronecker_mul_into(acc, left, right, ring.packing):
                for k1, c1 in row.items():
                    for k2, c2 in phased.items():
                        _add_product(acc[0][k1 + k2], c1, c2)


def _norm_prefixes(a, sigma, count: int) -> list:
    """a, a sigma(a), ..., a sigma(a) ... sigma^(count-1)(a), each product
    left-associated: the norm prefixes of a along the automorphism sigma."""
    prefixes, conj = [a], a
    for _ in range(count - 1):
        conj = sigma(conj)
        prefixes.append(prefixes[-1] * conj)
    return prefixes


def _phase(x0_key, key, n: int) -> int:
    """m with x0 i^k' j^l' x0^-1 = omega^m i^k' j^l' for x0 = i^k j^l:
    m = l k' - k l' mod n, from j^l i^k' = omega^(l k') i^k' j^l."""
    (k, l), (k2, l2) = x0_key, key
    return (l * k2 - k * l2) % n


def _scalar_in_f(x: AlgebraElement) -> TowerElement:
    """The scalar part of x, which must lie in F: a certified component off
    (0, 0) is a construction bug."""
    for kl, comp in x.coeffs.items():
        if kl != (0, 0) and not comp.indistinguishable_from_zero():
            raise InvariantBreachError("characteristic polynomial acquired a component in i")
    return x.scalar_part()


def _scalar_of_product(x: AlgebraElement, y: AlgebraElement) -> TowerElement:
    """The scalar part of x*y, summed as `__mul__` sums the key (0, 0): the
    term i^k j^l of x meets only the term i^(-k) j^(-l) of y."""
    alg = x.algebra
    n = alg.degree
    pairs = []
    for (k, l), c in x.coeffs.items():
        partner = (-k % n, -l % n)
        if partner in y.coeffs:
            term = AlgebraElement(alg, {partner: y.coeffs[partner]})
            pairs.append((AlgebraElement(alg, {(k, l): c}), term))
    return _sum_of_products(alg, pairs).scalar_part()


# ---------------------------------------------------------------------------
# matrices over L = F[i]: entries are algebra elements with keys (k, 0)


def _l_matrix_mul(alg, A, B):
    columns = list(zip(*B))
    return [[_sum_of_products(alg, zip(row, col)) for col in columns] for row in A]


def _l_matrix_agrees(A, B) -> bool:
    return all(x.agrees_to_precision(y) for ra, rb in zip(A, B) for x, y in zip(ra, rb))


def _l_charpoly(alg, mat):
    """det(X*I - mat) over L, low to high, by Berkowitz's recurrence.

    Step k multiplies the (high-to-low) polynomial of the leading k x k block
    M by the lower-triangular Toeplitz matrix with first column
    (1, -a_kk, -R*C, -R*M*C, ..., -R*M^(k-1)*C), where R and C are row k and
    column k cut to M (S. J. Berkowitz, Inf. Process. Lett. 18, 1984).  Only
    ring operations are used.
    """
    poly = [alg.one()]
    for k in range(len(mat)):
        block = [row[:k] for row in mat[:k]]
        row = mat[k][:k]
        vec = [mat[r][k] for r in range(k)]
        column = [None, -mat[k][k]]
        for step in range(k):
            if step:
                vec = [_sum_of_products(alg, zip(b, vec)) for b in block]
            column.append(-_sum_of_products(alg, zip(row, vec)))
        # the leading 1s of column and poly contribute without a product
        new = [poly[0]]
        for i in range(1, k + 2):
            acc = column[i] if i > k else column[i] + poly[i]
            if i > 1:
                acc = acc + _sum_of_products(alg, zip(column[i - 1 : 0 : -1], poly[1:i]))
            new.append(acc)
        poly = new
    return poly[::-1]


@dataclass(frozen=True)
class RamificationReport:
    """Valuation-theoretic invariants and classification flags of an algebra."""

    algebra: str
    dimension: int
    degree: int
    value_group: Lattice
    grade_quotient: QuotientStructure
    index: int
    residue_degree: int
    defect: int
    is_defectless: bool
    is_totally_ramified: bool
    is_semiramified: bool
    is_tame: bool
    is_division: bool | None
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.dimension != self.defect * self.residue_degree * self.index:
            raise InvariantBreachError("dimension formula violated in report")
        if self.is_totally_ramified and (
            self.residue_degree != 1 or self.defect != 1
        ):
            raise InvariantBreachError(
                "totally ramified forces residue degree 1 and defect 1"
            )
        if self.is_totally_ramified and self.is_semiramified and self.degree > 1:
            raise InvariantBreachError("mutually exclusive ramification flags")

    def to_json(self) -> dict:
        return {
            "algebra": self.algebra,
            "dimension": self.dimension,
            "degree": self.degree,
            "value_group": self.value_group.to_json(),
            "invariant_factors": list(self.grade_quotient.invariant_factors),
            "index": self.index,
            "residue_degree": self.residue_degree,
            "defect": self.defect,
            "flags": {
                "defectless": self.is_defectless,
                "totally_ramified": self.is_totally_ramified,
                "semiramified": self.is_semiramified,
                "tame": self.is_tame,
            },
            "is_division": self.is_division,
            "notes": list(self.notes),
        }
