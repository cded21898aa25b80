"""Norm-one elements, commutator witnesses and the triviality verdict engine.

Every constructive routine here is generate-and-verify: a Hilbert-90 style
resolvent produces a candidate, conjugation supplies the Galois action, and
the returned witness is accepted only after exact (certified-precision)
re-multiplication.  The verdict engine encodes the sufficient conditions for
a trivial reduced Whitehead group as a rule dispatch that never asserts
non-triviality.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm, prod

from .errors import (
    CharPolyMismatchError,
    ConjugatorSearchError,
    DegenerateDecompositionError,
    InvariantBreachError,
    NoRepresentativeError,
    NormCertificateError,
    PrecisionExhaustedError,
    UsageError,
)
from .laurent import INFINITE_VALUATION
from .ordered import QuotientStructure, _prime_factors
from .symbol import AlgebraElement, RamificationReport, SymbolAlgebra, _norm_prefixes, _phase

# candidates drawn by the randomized engines before they give up
RETRIES = 16


@dataclass(frozen=True)
class NormOneElement:
    """An element together with its certified reduced-norm-one evidence."""

    element: AlgebraElement
    certificate: object  # the computed reduced norm (a tower element)

    def __str__(self):
        return str(self.element)


@dataclass(frozen=True)
class CommutatorWitness:
    """factors (x_k, y_k) with prod x y x^-1 y^-1 equal to the target."""

    factors: tuple[tuple[AlgebraElement, AlgebraElement], ...]
    target: AlgebraElement

    def product(self) -> AlgebraElement:
        """The product of the commutators, each distinct pair formed once."""
        acc, formed = self.target.algebra.one(), {}
        for k, (x, y) in enumerate(self.factors):
            if (id(x), id(y)) not in formed:
                formed[id(x), id(y)] = x * y * x.inv() * y.inv()
            c = formed[id(x), id(y)]
            acc = acc * c if k else c
        return acc

    def verify(self) -> bool:
        """e y_m x_m = P x_m y_m with P = prod_{k<m} [x_k, y_k], and x_m, y_m
        certified units by `_certify_unit`: for units that is e = P [x_m, y_m],
        checked without the inverses of the last factor.  The layer route's
        witnesses have one factor, so P = 1; the scalar witness repeats
        [j, i], whose inverses are monomials."""
        if not self.factors:
            return self.product().agrees_to_precision(self.target)
        *head, (x, y) = self.factors
        _certify_unit(x)
        _certify_unit(y)
        right = x * y
        if head:
            right = CommutatorWitness(tuple(head), self.target).product() * right
        return (self.target * y * x).agrees_to_precision(right)

    def __len__(self):
        return len(self.factors)


@dataclass(frozen=True)
class DiagramContext:
    """Index bookkeeping around the norm-one/commutator comparison.

    zeta follows the tameness rule (tame algebras report 1); the raw value of
    ind/(ind_0 * [Z(D_0):F_0]) is kept alongside whenever the residue data
    determine it, so disagreements stay visible.
    """

    zeta: int | None
    zeta_formula_inputs: dict | None
    galois_order: int | None
    grade_quotient: QuotientStructure
    h_minus_1_trivial: bool | None
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class Verdict:
    conclusion: str  # "trivial" | "unknown" | "not_applicable"
    rule: str | None
    reasoning: str
    inputs: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "conclusion": self.conclusion,
            "case": self.rule,
            "reasoning": self.reasoning,
            "inputs": dict(self.inputs),
        }


# ---------------------------------------------------------------------------
# certificates and commutators


def certify_norm_one(e: AlgebraElement) -> NormOneElement:
    """Accept e only when Nrd(e) = 1 holds in every certified coefficient."""
    alg = e.algebra
    nr = e.nrd()
    diff = nr - alg.tower.one()
    if diff.is_zero():
        return NormOneElement(e, nr)
    if not diff.indistinguishable_from_zero():
        raise NormCertificateError(f"reduced norm is {nr}, not 1")
    if not diff.certifies_zero_position():
        raise PrecisionExhaustedError("norm-one check undecided at working precision")
    return NormOneElement(e, nr)


def commutator(x: AlgebraElement, y: AlgebraElement) -> NormOneElement:
    """x y x^-1 y^-1, norm-one by multiplicativity and certified on output."""
    z = x * y * x.inv() * y.inv()
    return certify_norm_one(z)


def _certify_unit(x: AlgebraElement) -> None:
    """Raise unless x is certified a unit; its inverse is not formed.

    A term c i^k j^l with c certified nonzero is a unit, as i and j are.
    So is a certified nonzero x whose keys, uncertified ones included, all
    lie in the cyclic group <g> of one of its keys g = (k, l), when
    v(g) = k v(i) + l v(j) has order n in Q^h / Z^h: g^n lies in F, so
    F[g] = F(g) has ramification index n and is a field of degree n, and
    every lift of x is a nonzero element of it (Serre, Local Fields,
    ch. I-II).  Otherwise, or when v(a) or v(b) is undecided, Nrd(x) must
    be certified nonzero, with the errors of `AlgebraElement.inv`.
    """
    alg, n = x.algebra, x.algebra.degree
    if not x.indistinguishable_from_zero():
        if len(x.coeffs) == 1:
            return
        try:
            vi, vj = alg.v_of_i(), alg.v_of_j()
        except PrecisionExhaustedError:
            vi = vj = ()  # every order below is then 1, and n > 1
        for k, l in x.coeffs:
            order = lcm(*((k * u + l * w).denominator for u, w in zip(vi, vj)))
            if order == n and x.coeffs.keys() <= {(m * k % n, m * l % n) for m in range(n)}:
                return
    x.unit_prd()


def kappa(algebra: SymbolAlgebra, gamma, delta) -> NormOneElement:
    """Commutator of monomial representatives of two values.

    Alternating and trivial on field values; the output lives in grade 0.
    """
    d_gamma = algebra.monomial_with_value(gamma)
    d_delta = algebra.monomial_with_value(delta)
    if d_gamma is None or d_delta is None:
        raise NoRepresentativeError(f"no monomial representative at {gamma} or {delta}")
    out = commutator(d_gamma, d_delta)
    v = out.element.valuation()
    zero = tuple(Fraction(0) for _ in range(algebra.tower.height))
    if not (v is INFINITE_VALUATION or v == zero):
        raise InvariantBreachError("kappa output left grade zero")
    return out


# ---------------------------------------------------------------------------
# Hilbert 90 and Skolem-Noether, both generate-and-verify


def hilbert90_decompose(a, sigma, order: int, sample, prefixes=None, accept=None):
    """Solve a = c * sigma(c)^-1 for a norm-one element of a cyclic layer.

    sigma is any callable realizing the generator of the action (a field
    automorphism, or conjugation inside an algebra); sample(k) draws the
    randomizer for retry k.  The resolvent c = sum_r (prod_{s<r} sigma^s(a))
    sigma^r(b) satisfies a * sigma(c) = c whenever the norm is 1, and that is
    a = c sigma(c)^-1 only when c is a unit, not just nonzero: inside an
    algebra a nonzero c can be a zero divisor.
    The partial products of the norm, prefixes[r] = a sigma(a) ... sigma^r(a),
    serve every attempt; they are formed once here unless passed.  A nonzero
    c is returned once accept(c) holds, by default a * sigma(c) ~ c;
    `decompose_norm_one` passes its witness's `verify`, which also
    certifies c a unit.
    """
    if prefixes is None:
        prefixes = _norm_prefixes(a, sigma, order)
    nrm = prefixes[-1]
    if not _equalish(nrm, a**0):
        raise NormCertificateError(f"norm along the cyclic layer is {nrm}, not 1")
    accept = accept or (lambda c: _equalish(a * sigma(c), c))
    for attempt in range(RETRIES):
        b = sample(attempt)
        c = sig_b = b
        for prefix in prefixes[:-1]:
            sig_b = sigma(sig_b)
            c = c + prefix * sig_b
        if c.indistinguishable_from_zero():
            continue
        if accept(c):
            return c
    raise DegenerateDecompositionError(
        f"no nonzero resolvent found in {RETRIES} retries"
    )


def _equalish(u, v) -> bool:
    return (u - v).indistinguishable_from_zero()


def _is_phase(x0: AlgebraElement) -> bool:
    """Whether conjugation by the unit x0 is a phase: x0 = i^k j^l with
    coefficient 1 and an exact inverse."""
    (_, c), *rest = x0.coeffs.items()
    exact_inverse = all(d.is_exact() for d in x0.inv().coeffs.values())
    return not rest and c == x0.algebra.tower.one() and exact_inverse


def conjugation(x0: AlgebraElement):
    """The inner automorphism z -> x0 z x0^-1 as a callable.

    For x0 = i^k j^l with coefficient 1 and an exact inverse it is the phase
    `AlgebraElement.phase`.  Otherwise it is the two products: a truncated
    inverse truncates windows that the phase would keep exact, and the
    products' windows are the ones kept.
    """
    x0_inv = x0.inv()  # x0 is a unit, so it has a term
    if _is_phase(x0):
        (x0_key,) = x0.coeffs

        def phase(z: AlgebraElement) -> AlgebraElement:
            x0._check(z)
            return z.phase(x0_key)

        return phase

    def act(z: AlgebraElement) -> AlgebraElement:
        return x0 * z * x0_inv

    return act


def skolem_noether_conjugator(
    k_elem: AlgebraElement,
    target: AlgebraElement,
    rng: random.Random | None = None,
) -> AlgebraElement:
    """Invertible x with x k x^-1 = target, via the linear system x k = target x.

    Requires equal reduced characteristic polynomials.  The nullspace of
    z -> z k - target z is computed over the tower field and random integer
    combinations are drawn until one has a certified nonzero reduced norm,
    so is a unit; it is returned once x k = target x holds to precision,
    which for a unit is x k x^-1 = target, checked without its inverse.
    """
    alg = k_elem.algebra
    if target.algebra != alg:
        raise CharPolyMismatchError("elements of different algebras")
    pk, pt = k_elem.prd(), target.prd()
    if not all(_equalish(u, v) for u, v in zip(pk, pt)):
        raise CharPolyMismatchError(
            "reduced characteristic polynomials differ; no conjugator exists"
        )
    n, zero = alg.degree, alg.tower.zero()
    basis = [(k, l) for k in range(n) for l in range(n)]
    images = [z * k_elem - target * z for z in (alg.monomial(*kl) for kl in basis)]
    # rows: equations (one per basis coordinate); cols: unknowns
    mat = [[image.coeffs.get(b, zero) for image in images] for b in basis]
    kernel = [AlgebraElement(alg, dict(zip(basis, vec))) for vec in _nullspace(alg, mat)]
    if not kernel:
        raise ConjugatorSearchError("conjugation system has trivial nullspace")
    rng = rng or random.Random(0)
    for _ in range(RETRIES):
        coeffs = [rng.randint(0, 4) for _ in kernel]
        if not any(coeffs):
            coeffs[rng.randrange(len(kernel))] = 1
        cand = alg.zero()
        for w, vec in zip(coeffs, kernel):
            if w:
                cand = cand + vec.scale(alg.tower.constant(w))
        if cand.indistinguishable_from_zero():
            continue
        try:
            nr = cand.nrd()
        except PrecisionExhaustedError:
            continue
        if nr.indistinguishable_from_zero():
            continue
        if (cand * k_elem).agrees_to_precision(target * cand):
            return cand
    raise ConjugatorSearchError(f"no invertible conjugator in {RETRIES} retries")


def _nullspace(alg, mat):
    """Kernel basis of a square matrix over the tower field.

    Pivots prefer low term-count entries so that divisions stay exact on the
    monomial-heavy systems this package builds; zero-to-precision entries are
    treated as zero, and every caller re-verifies results by multiplication.
    """
    tower = alg.tower
    size = len(mat)
    mat = [row[:] for row in mat]
    pivot_of_col: dict[int, int] = {}
    row = 0
    for col in range(size):
        best = None
        for r in range(row, size):
            entry = mat[r][col]
            if entry.indistinguishable_from_zero():
                continue
            cost = _term_count(entry)
            if best is None or cost < best[0]:
                best = (cost, r)
        if best is None:
            continue
        _, r = best
        mat[row], mat[r] = mat[r], mat[row]
        inv = mat[row][col].inv()
        mat[row] = [x * inv for x in mat[row]]
        for rr in range(size):
            if rr != row and not mat[rr][col].indistinguishable_from_zero():
                f = mat[rr][col]
                mat[rr] = [x - f * y for x, y in zip(mat[rr], mat[row])]
        pivot_of_col[col] = row
        row += 1
    free_cols = [c for c in range(size) if c not in pivot_of_col]
    kernel = []
    for fc in free_cols:
        vec = [tower.zero()] * size
        vec[fc] = tower.one()
        for pc, pr in pivot_of_col.items():
            vec[pc] = -mat[pr][fc]
        kernel.append(vec)
    return kernel


def _term_count(tower_elem) -> int:
    def count(payload):
        if not hasattr(payload, "coeffs"):
            return 1
        return sum(count(c) for c in payload.coeffs.values()) + (
            0 if payload.bound is None else 1
        )

    return count(tower_elem.payload)


# ---------------------------------------------------------------------------
# norm-one decomposition


def decompose_norm_one(
    cert: NormOneElement,
    rng: random.Random | None = None,
) -> CommutatorWitness:
    """Write a certified norm-one element as a product of commutators.

    Supported regimes: the identity; elements equal in every certified
    coefficient to a power of the root of unity, uncertified terms at other
    keys allowed (their witness is the generator commutator repeated); and
    elements moved by conjugation by a monomial x0 (j, i, then i^k j^l) into
    an element they commute with, where that conjugation realizes the Galois
    action of the cyclic layer and a Hilbert-90 resolvent produces the single
    commutator [c, x0].  When x0 = j acts on e in F[i] as a phase, it acts
    as tau, so the resolvent's norm prefixes are the head of e's
    `conjugate_chain`, which its norm formed.  Each candidate c is accepted
    by the witness's own `CommutatorWitness.verify`, so everything returned
    has passed it, and no identity is checked twice.
    """
    rng = rng or random.Random(0)
    e = cert.element
    alg = e.algebra

    if _equalish(e, alg.one()):
        return CommutatorWitness((), e)

    if all(kl == (0, 0) for kl, c in e.coeffs.items() if not c.indistinguishable_from_zero()):
        witness = _scalar_witness(e, alg)
        if witness is not None:
            return witness
        if e.is_scalar():
            raise DegenerateDecompositionError(
                "central norm-one scalar outside the root-of-unity image"
            )

    conj_by, order = _search_monomial_conjugator(e)
    sigma = conjugation(conj_by)

    def sample(attempt: int) -> AlgebraElement:
        # random element of the layer generated by e, whose powers e caches
        out = alg.zero()
        for k in range(order):
            c = rng.randint(0, max(alg.tower.base.char - 1, 9))
            if c:
                out = out + e.powers(k)[k].scale(alg.tower.constant(c))
        return out

    prefixes = None
    if conj_by is alg.j() and _is_phase(conj_by) and all(l == 0 for _, l in e.coeffs):
        prefixes = e.conjugate_chain()[:order]

    def witness(c: AlgebraElement) -> CommutatorWitness:
        return CommutatorWitness(((c, conj_by),), e)

    c = hilbert90_decompose(
        e, sigma, order, sample, prefixes=prefixes, accept=lambda c: witness(c).verify()
    )
    return witness(c)


def _scalar_witness(e: AlgebraElement, alg: SymbolAlgebra):
    s = e.scalar_part()
    power = alg.tower.one()
    for k in range(alg.degree):
        if _equalish(s, power):
            witness = CommutatorWitness(((alg.j(), alg.i()),) * k, e)
            return witness if witness.verify() else None
        power = power.scale(alg.omega)
    return None


def _search_monomial_conjugator(e: AlgebraElement) -> tuple[AlgebraElement, int]:
    """The first of j, i, i^k j^l whose conjugation sigma moves e to an
    element commuting with e, and the order of sigma on e; a
    DegenerateDecompositionError when no monomial does.

    sigma scales c i^k' j^l' by omega^m, m = _phase, so its order on e is
    n / gcd(n, phases of the certified keys), and order 1 fixes e.  Keys of
    pairwise phase 0 span a commutative subalgebra that sigma maps into
    itself, so then sigma(e) commutes with e without a product.
    """
    alg = e.algebra
    n = alg.degree
    keys = [kl for kl, c in e.coeffs.items() if not c.indistinguishable_from_zero()]
    commutative = all(_phase(u, v, n) == 0 for u in keys for v in keys)
    candidates = [alg.j(), alg.i()]  # then every i^k j^l with k + l > 1: all but 1, i, j
    candidates += [alg.monomial(k, l) for k in range(n) for l in range(n) if k + l > 1]
    for x0 in candidates:
        (x0_key,) = x0.coeffs
        order = n // gcd(n, *(_phase(x0_key, key, n) for key in keys))
        if order == 1:
            continue
        if commutative:
            return x0, order
        se = conjugation(x0)(e)
        if _equalish(se * e, e * se):
            return x0, order
    raise DegenerateDecompositionError(
        "element does not generate a recognized conjugation-cyclic layer"
    )


# ---------------------------------------------------------------------------
# diagram context and verdict rules


def compute_zeta(report: RamificationReport) -> DiagramContext:
    """Index bookkeeping for the norm-one column.

    Tame algebras report zeta 1 (the tameness rule); the literal quotient
    ind / (ind_0 * [Z(D_0):F_0]) is also recorded for totally ramified and
    semiramified division algebras, where ind_0 = 1, together with a note
    when the two disagree.
    """
    notes: list[str] = []
    inputs: dict | None = None
    formula_value: int | None = None
    ind = report.degree if report.is_division else None
    # [Z(D_0):F_0], which is also the order of the residue Galois group
    galois_order: int | None = None
    if report.is_totally_ramified:
        galois_order = 1
    elif report.is_semiramified:
        galois_order = report.residue_degree

    if ind and galois_order:
        inputs = {
            "algebra_index": ind,
            "residue_index": 1,
            "residue_center_degree": galois_order,
        }
        quotient_val = Fraction(ind, galois_order)
        if quotient_val.denominator == 1:
            formula_value = int(quotient_val)

    if report.is_tame:
        zeta = 1
        if formula_value is not None and formula_value != 1:
            notes.append(
                f"raw index quotient is {formula_value}; the tameness rule"
                " overrides it to 1"
            )
    else:
        zeta = formula_value
        if zeta is None:
            notes.append("residue data insufficient; zeta unknown")

    h_triv: bool | None = None
    if galois_order == 1 or report.grade_quotient.is_cyclic:
        h_triv = True

    return DiagramContext(
        zeta=zeta,
        zeta_formula_inputs=inputs,
        galois_order=galois_order,
        grade_quotient=report.grade_quotient,
        h_minus_1_trivial=h_triv,
        notes=tuple(notes),
    )


def _cd_not_exactly_3(cd) -> str:
    """Reasoning of the verdict when cd_q(F) is not exactly 3."""
    return (
        f"cd_q(F) is {cd.describe()}, not exactly 3; assert an exact value"
        " to enable the rank rules"
    )


def verdict(
    profile,
    report: RamificationReport,
    q: int,
    residue_hints: dict | None = None,
) -> Verdict:
    """Dispatch the sufficient conditions for a trivial reduced Whitehead group.

    Rule order: the two rank cases of the main criterion, then the
    square-free index rule, then the dimension-at-most-2 rule, then the
    rank-zero inertially-split fallback, which also needs the caller-supplied
    hint "inertially_split_residue_is_field", since residue algebras are not
    computed in general.  The rank cases and the fallback need cd_q(F)
    exactly 3 (so a finite residue dimension) and a q-primary degree.  Reports
    "unknown" only when every hypothesis holds and no sufficient condition
    fires; "not_applicable" when a standing hypothesis fails.  The profile
    must have one Laurent layer per level of the report's value group, as r_q
    is read from the profile; a UsageError otherwise.
    """
    layers = report.value_group.ambient_rank
    if profile.height != layers:
        raise UsageError(
            f"the profile has {profile.height} Laurent layers, but the algebra's"
            f" tower has {layers}"
        )
    deg = report.degree
    p_bar = profile.residue_char
    inputs: dict = {"q": q, "degree": deg, "residue_char": p_bar}
    if p_bar and q == p_bar:
        return Verdict(
            "not_applicable",
            None,
            f"q = {q} equals the residue characteristic; the coprimality"
            " hypothesis fails",
            inputs,
        )
    q_primary = all(r == q for r in _prime_factors(deg))
    cd = profile.cd_q(q)
    r_q = profile.r_q(q)
    inputs.update({"r_q": r_q, "cd_q": cd.describe()})

    cd_exact_3 = cd.kind == "exact" and cd.value == 3
    # the standing hypotheses of the paper's rank rules
    rank_rules = cd_exact_3 and q_primary

    if rank_rules and 1 <= r_q <= 3:
        return Verdict(
            "trivial",
            "rank_one_to_three",
            f"cd_q(F) = 3 with finite residue dimension, degree {deg} is"
            f" {q}-primary and the q-rank is {r_q} (between 1 and 3):"
            " the reduced Whitehead group is trivial",
            inputs,
        )
    if rank_rules and r_q == 0 and (report.is_semiramified or report.is_totally_ramified):
        return Verdict(
            "trivial",
            "rank_zero_semiramified_or_totally_ramified",
            "q-rank 0 with a semiramified or totally ramified algebra forces"
            " the value groups to coincide and the group collapses",
            inputs,
        )
    if prod(_prime_factors(deg)) == deg:
        return Verdict(
            "trivial",
            "squarefree_index",
            f"the index divides the square-free degree {deg}, which always"
            " gives a trivial reduced Whitehead group",
            inputs,
        )
    if cd.kind == "exact" and cd.value is not None and cd.value <= 2 and q_primary:
        return Verdict(
            "trivial",
            "cohomological_dimension_at_most_two",
            f"cd_q(F) = {cd.value} <= 2 with a {q}-primary index is a known"
            " triviality regime",
            inputs,
        )
    hint = (residue_hints or {}).get("inertially_split_residue_is_field")
    if rank_rules and r_q == 0 and hint:
        return Verdict(
            "trivial",
            "rank_zero_inertially_split_field_residue",
            "q-rank 0 reduces to an inertially split algebra whose residue"
            " algebra is a field, hence semiramified and trivial",
            inputs,
        )
    if not q_primary:
        return Verdict(
            "not_applicable",
            None,
            f"degree {deg} is not a power of {q}; the q-primary hypothesis fails",
            inputs,
        )
    if not cd_exact_3:
        return Verdict(
            "not_applicable",
            None,
            _cd_not_exactly_3(cd),
            inputs,
        )
    return Verdict(
        "unknown",
        None,
        "no sufficient condition applies: q-rank 0 with a division algebra"
        " that is neither semiramified nor totally ramified lies outside the"
        " proved cases",
        inputs,
    )
