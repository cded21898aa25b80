"""Symbol algebras over tower fields.

(a,b) of degree n with relations i^n = a, j^n = b, j*i = omega*i*j, where
omega is a primitive n-th root of unity in the coefficient field.  Elements
are kept in normal form on the basis {i^k j^l}.  The reduced norm, trace and
characteristic polynomial are computed through an explicit degree-n splitting
representation over L = F[alpha]/(alpha^n - a), whose defining relations are
verified once per algebra.

The extended valuation is v(e) = v(Nrd(e)) / n, a vector of rationals over
the tower's value group Z^m (outermost variable = most significant).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
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
from .laurent import INFINITE_VALUATION, Tower, TowerElement, unit_is_square
from .ordered import Lattice, QuotientStructure, quotient


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
        self._value_group: Lattice | None = None
        self._v_gens: dict[str, tuple[Fraction, ...]] = {}

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
        if isinstance(value, TowerElement):
            return self.element({(0, 0): value})
        if isinstance(value, FieldElement):
            return self.element({(0, 0): self.tower.constant(value)})
        return self.element({(0, 0): self.tower.constant(value)})

    def i(self) -> "AlgebraElement":
        if self.degree == 1:
            return self.scalar(self.a)
        return self.element({(1, 0): self.tower.one()})

    def j(self) -> "AlgebraElement":
        if self.degree == 1:
            return self.scalar(self.b)
        return self.element({(0, 1): self.tower.one()})

    def monomial(self, k: int, l: int, coeff=None) -> "AlgebraElement":
        c = self.tower.one() if coeff is None else coeff
        if not isinstance(c, TowerElement):
            c = self.tower.constant(c)
        return self.element({(k % self.degree, l % self.degree): c})

    # -- splitting representation ------------------------------------------

    def _rho_entry_shift(self, r: int, l: int) -> tuple[int, bool]:
        """Column and b-wrap flag of rho(j)^l acting on row r."""
        return (r + l) % self.degree, r + l >= self.degree

    def verify_splitting_relations(self):
        """Check rho(i)^n = a, rho(j)^n = b, rho(j)rho(i) = omega rho(i)rho(j)."""
        if self._splitting_verified:
            return
        n = self.degree
        rho_i = self.i().splitting_matrix()
        rho_j = self.j().splitting_matrix()
        id_a = _l_scalar_matrix(self, self.a)
        id_b = _l_scalar_matrix(self, self.b)
        pow_i = _l_matrix_power(self, rho_i, n)
        pow_j = _l_matrix_power(self, rho_j, n)
        if not _l_matrix_agrees(pow_i, id_a) or not _l_matrix_agrees(pow_j, id_b):
            raise InvariantBreachError("splitting generators fail their n-th powers")
        ji = _l_matrix_mul(self, rho_j, rho_i)
        ij = _l_matrix_mul(self, rho_i, rho_j)
        ij_scaled = [[_l_scale_base(self, e, self.omega) for e in row] for row in ij]
        if not _l_matrix_agrees(ji, ij_scaled):
            raise InvariantBreachError("splitting generators fail the twist relation")
        self._splitting_verified = True

    # -- valuation data -----------------------------------------------------

    def v_of_i(self) -> tuple[Fraction, ...]:
        if "i" not in self._v_gens:
            self._v_gens["i"] = self.i().valuation()
        return self._v_gens["i"]

    def v_of_j(self) -> tuple[Fraction, ...]:
        if "j" not in self._v_gens:
            self._v_gens["j"] = self.j().valuation()
        return self._v_gens["j"]

    def value_group(self) -> Lattice:
        """Lattice generated by the field's Z^m together with v(i), v(j)."""
        if self._value_group is None:
            m = self.tower.height
            gens = [row for row in Lattice.standard(m).fraction_rows()]
            if self.degree > 1:
                gens.append(self.v_of_i())
                gens.append(self.v_of_j())
            lat = Lattice.from_generators(m, gens)
            if not lat.contains_lattice(Lattice.standard(m)):
                raise InvariantBreachError("value group lost the base lattice")
            self._value_group = lat
        return self._value_group

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
        elif totally_ramified and _is_prime_power(n):
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
        unit_uniformizer = None
        va, vb = self.a.valuation(), self.b.valuation()
        if va == (0,) and vb == (1,):
            unit_uniformizer = (self.a, self.b)
        elif vb == (0,) and va == (1,):
            unit_uniformizer = (self.b, self.a)
        if unit_uniformizer is None or self.tower.residue_char == 2:
            notes.append("division status not decided by the supported criteria")
            return None
        u, _ = unit_uniformizer
        result = not unit_is_square(u)
        notes.append(
            "quaternion unit/uniformizer criterion: division iff the unit slot"
            " is a non-square"
        )
        return result


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

    __slots__ = ("algebra", "coeffs", "_nrd")

    def __init__(self, algebra: SymbolAlgebra, coeffs: dict):
        self.algebra = algebra
        self.coeffs = {kl: c for kl, c in coeffs.items() if not c.is_zero()}
        self._nrd = None

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
        return self + (-other)

    def __mul__(self, other):
        """Normal-form product via j^l i^k = omega^(lk) i^k j^l."""
        self._check(other)
        alg = self.algebra
        n = alg.degree
        out: dict = {}
        for (k1, l1), c1 in self.coeffs.items():
            for (k2, l2), c2 in other.coeffs.items():
                c = c1 * c2
                phase = alg._omega_pow[(l1 * k2) % n] if n > 1 else None
                if phase is not None and phase != alg.tower.base.one():
                    c = c.scale(phase)
                k, l = k1 + k2, l1 + l2
                if k >= n:
                    c = c * alg.a
                    k -= n
                if l >= n:
                    c = c * alg.b
                    l -= n
                key = (k, l)
                out[key] = out[key] + c if key in out else c
        return AlgebraElement(alg, out)

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
        """Image in M_n(L), L = F[alpha]/(alpha^n - a); entries are L-vectors."""
        alg = self.algebra
        n = alg.degree
        mat = [[_l_zero(alg) for _ in range(n)] for _ in range(n)]
        for (k, l), c in self.coeffs.items():
            for r in range(n):
                col, wraps = alg._rho_entry_shift(r, l)
                val = c.scale(alg._omega_pow[(r * k) % n]) if n > 1 else c
                if wraps:
                    val = val * alg.b
                entry = mat[r][col]
                entry[k] = entry[k] + val
        return mat

    def nrd(self) -> TowerElement:
        """Reduced norm: determinant of the splitting representation.

        The determinant is computed in L by permutation expansion and must be
        alpha-free; a certified alpha component is a construction bug.
        """
        if self._nrd is None:
            alg = self.algebra
            alg.verify_splitting_relations()
            det = _l_det(alg, self.splitting_matrix())
            for comp in det[1:]:
                if not comp.indistinguishable_from_zero():
                    raise InvariantBreachError(
                        "reduced norm acquired an alpha component"
                    )
            self._nrd = det[0]
        return self._nrd

    def trd(self) -> TowerElement:
        """Reduced trace: trace of the splitting representation (alpha-free)."""
        alg = self.algebra
        alg.verify_splitting_relations()
        mat = self.splitting_matrix()
        total = _l_zero(alg)
        for r in range(alg.degree):
            total = _l_add(alg, total, mat[r][r])
        for comp in total[1:]:
            if not comp.indistinguishable_from_zero():
                raise InvariantBreachError("reduced trace acquired an alpha component")
        return total[0]

    def prd(self) -> list[TowerElement]:
        """Reduced characteristic polynomial (low-to-high, monic, degree n)."""
        alg = self.algebra
        alg.verify_splitting_relations()
        n = alg.degree
        mat = self.splitting_matrix()
        entries = [
            [
                (
                    [_l_neg(alg, mat[r][c]), _l_one(alg)]
                    if r == c
                    else [_l_neg(alg, mat[r][c])]
                )
                for c in range(n)
            ]
            for r in range(n)
        ]
        poly = _lpoly_det(alg, entries)
        poly = poly + [_l_zero(alg) for _ in range(n + 1 - len(poly))]
        out = []
        for coeff in poly:
            for comp in coeff[1:]:
                if not comp.indistinguishable_from_zero():
                    raise InvariantBreachError(
                        "characteristic polynomial acquired an alpha component"
                    )
            out.append(coeff[0])
        return out

    def inv(self) -> "AlgebraElement":
        """Inverse via the reduced characteristic polynomial.

        From e^n + c_{n-1} e^{n-1} + ... + c_0 = 0 and c_0 = (-1)^n Nrd(e),
        the inverse is -(e^{n-1} + c_{n-1} e^{n-2} + ... + c_1) / c_0.
        """
        alg = self.algebra
        poly = self.prd()
        c0 = poly[0]
        if c0.indistinguishable_from_zero():
            if c0.is_zero():
                raise NotInvertibleError("reduced norm is zero; not a unit")
            raise PrecisionExhaustedError("reduced norm is undecided at precision")
        c0_inv = c0.inv()
        acc = alg.zero()
        power = alg.one()
        for k in range(1, alg.degree + 1):
            if k > 1:
                power = power * self
            coeff = poly[k]  # includes the monic leading 1 at k = n
            if not coeff.is_zero():
                acc = acc + power.scale(coeff)
        return (-acc).scale(c0_inv)

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


# ---------------------------------------------------------------------------
# arithmetic in L = F[alpha]/(alpha^n - a): vectors of n tower elements


def _l_zero(alg) -> list[TowerElement]:
    return [alg.tower.zero() for _ in range(alg.degree)]


def _l_one(alg) -> list[TowerElement]:
    out = _l_zero(alg)
    out[0] = alg.tower.one()
    return out


def _l_add(alg, u, v):
    return [x + y for x, y in zip(u, v)]


def _l_neg(alg, u):
    return [-x for x in u]


def _l_is_zero(u) -> bool:
    return all(x.is_zero() for x in u)


def _l_scale_base(alg, u, c: FieldElement):
    return [x.scale(c) for x in u]


def _l_mul(alg, u, v):
    n = alg.degree
    out = _l_zero(alg)
    for iu, x in enumerate(u):
        if x.is_zero():
            continue
        for iv, y in enumerate(v):
            if y.is_zero():
                continue
            prod = x * y
            d = iu + iv
            if d >= n:
                prod = prod * alg.a
                d -= n
            out[d] = out[d] + prod
    return out


def _l_agrees(u, v) -> bool:
    return all((x - y).indistinguishable_from_zero() for x, y in zip(u, v))


def _l_scalar_matrix(alg, c: TowerElement):
    n = alg.degree
    mat = [[_l_zero(alg) for _ in range(n)] for _ in range(n)]
    for r in range(n):
        mat[r][r][0] = c
    return mat


def _l_matrix_mul(alg, A, B):
    n = alg.degree
    out = [[_l_zero(alg) for _ in range(n)] for _ in range(n)]
    for r in range(n):
        for c in range(n):
            acc = _l_zero(alg)
            for t in range(n):
                if _l_is_zero(A[r][t]) or _l_is_zero(B[t][c]):
                    continue
                acc = _l_add(alg, acc, _l_mul(alg, A[r][t], B[t][c]))
            out[r][c] = acc
    return out


def _l_matrix_power(alg, A, e: int):
    out = _l_scalar_matrix(alg, alg.tower.one())
    for _ in range(e):
        out = _l_matrix_mul(alg, out, A)
    return out


def _l_matrix_agrees(A, B) -> bool:
    return all(_l_agrees(x, y) for ra, rb in zip(A, B) for x, y in zip(ra, rb))


def _l_det(alg, mat):
    """Determinant over L by signed permutation expansion (n! terms)."""
    n = alg.degree
    total = _l_zero(alg)
    for perm in permutations(range(n)):
        term = None
        for r in range(n):
            entry = mat[r][perm[r]]
            if _l_is_zero(entry):
                term = None
                break
            term = entry if term is None else _l_mul(alg, term, entry)
        if term is None:
            continue
        if _perm_sign(perm) < 0:
            term = _l_neg(alg, term)
        total = _l_add(alg, total, term)
    return total


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        cur = start
        while not seen[cur]:
            seen[cur] = True
            cur = perm[cur]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _lpoly_mul(alg, p, q):
    """Product of polynomials (in X) with L-vector coefficients."""
    out = [_l_zero(alg) for _ in range(len(p) + len(q) - 1)]
    for ip, u in enumerate(p):
        if _l_is_zero(u):
            continue
        for iq, v in enumerate(q):
            if _l_is_zero(v):
                continue
            out[ip + iq] = _l_add(alg, out[ip + iq], _l_mul(alg, u, v))
    return out


def _lpoly_det(alg, entries):
    """det of a matrix with L[X]-entries by permutation expansion."""
    n = len(entries)
    total = [_l_zero(alg)]
    for perm in permutations(range(n)):
        term = [_l_one(alg)]
        for r in range(n):
            term = _lpoly_mul(alg, term, entries[r][perm[r]])
        if _perm_sign(perm) < 0:
            term = [_l_neg(alg, u) for u in term]
        width = max(len(total), len(term))
        total = total + [_l_zero(alg) for _ in range(width - len(total))]
        total = [
            _l_add(alg, u, term[i]) if i < len(term) else u
            for i, u in enumerate(total)
        ]
    return total


def _is_prime_power(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            while n % d == 0:
                n //= d
            return n == 1
        d += 1
    return True


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
