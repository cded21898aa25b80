"""End-to-end pipelines: the three worked examples, witness batches, selftest.

Everything here is deterministic given the seed; reports are plain dicts
ready for JSON serialization with a top-level schema version.
"""

from __future__ import annotations

import random
import zlib
from fractions import Fraction

from .errors import DegenerateDecompositionError, UsageError, ValdivError
from .fields import ExtensionField, PrimeField, frobenius
from .graded import nrd_grade_check, theta, tilde
from .grammar import parse_algebra, print_algebra
from .laurent import DEFAULT_PRECISION, Tower, TwistedSeriesRing, central_indeterminate
from .ordered import Lattice, lex_compare, quotient
from .profiles import FieldProfile, ResidueBase, declared_profile, profile_from_tower
from .sk1 import (
    _cd_not_exactly_3,
    commutator,
    compute_zeta,
    decompose_norm_one,
    kappa,
    verdict,
)
from .symbol import SymbolAlgebra

SCHEMA_VERSION = 1


def build_symbol_example(n: int, p: int, precision: int = DEFAULT_PRECISION) -> SymbolAlgebra:
    """(x, y) symbol of degree n over F_p((x))((y)), smallest primitive root."""
    return parse_algebra(f"symbol(n={n}, omega=auto, a=x, b=y) over F{p}((x))((y))", precision)


def build_quaternion_example(precision: int = DEFAULT_PRECISION) -> SymbolAlgebra:
    """(2, t) over F5((t)): non-square unit and uniformizer."""
    return parse_algebra("symbol(n=2, omega=-1, a=2, b=t) over F5((t))", precision)


def run_example(idx: int, precision: int = DEFAULT_PRECISION, seed: int = 0) -> dict:
    if idx == 1:
        return _example_completion_profile()
    if idx == 2:
        return _example_quaternion(precision, seed)
    if idx == 3:
        return _example_symbol(precision, seed)
    raise ValdivError(f"unknown example {idx}; choose 1, 2 or 3")


def _example_completion_profile() -> dict:
    """Rank-1 completion of a rational function field over a local base.

    Profile-level only: the dimension is reported as an upper bound and the
    verdict engine demands an explicit declaration before the rank rules fire.
    """
    q = 2
    profile = FieldProfile(ResidueBase("padic", p=7), ("t",))
    cd = profile.cd_q(q)
    asserted = declared_profile({q: 2}, ("t",))
    cd_asserted = asserted.cd_q(q)
    return {
        "schema": SCHEMA_VERSION,
        "example": 1,
        "profile": profile.describe(),
        "q": q,
        "r_q": profile.r_q(q),
        "cd_q": cd.describe(),
        "cd_note": (
            "completion base only bounds the dimension; rank rules need an"
            " explicit declaration such as decl(cd2=2)((t))"
        ),
        "with_assertion": {
            "profile": asserted.describe(),
            "cd_q": cd_asserted.describe(),
        },
        "verdict": {
            "conclusion": "not_applicable",
            "case": None,
            "reasoning": _cd_not_exactly_3(cd),
        },
    }


def _example_quaternion(precision: int, seed: int) -> dict:
    alg = build_quaternion_example(precision)
    report = alg.classify()
    profile = profile_from_tower(alg.tower)
    v = verdict(profile, report, 2)
    ctx = compute_zeta(report)
    witnesses = sk1_witness_batch(alg, count=3, seed=seed)
    return {
        "schema": SCHEMA_VERSION,
        "example": 2,
        "algebra": print_algebra(alg),
        "is_division": report.is_division,
        "classification": report.to_json(),
        "cd_q": profile.cd_q(2).describe(),
        "r_q": profile.r_q(2),
        "zeta": ctx.zeta,
        "verdict": v.to_json(),
        "witnesses": witnesses,
        "twisted_demo": _twisted_demo(),
    }


def _twisted_demo() -> dict:
    """Quadratic twisted-series layer: center and degree bookkeeping."""
    F3 = PrimeField(3)
    F9 = ExtensionField(F3, [1, 0, 1], var="w")
    ring = TwistedSeriesRing(F9, frobenius(F9))
    w = F9.generator()
    t = ring.t()
    x = central_indeterminate(ring)
    tw = t * ring.constant(w)
    wt = ring.constant(w**3) * t
    theta_action = theta(ring, 1, ring.constant(w))
    return {
        "coefficients": "F3[w]/(1 + w^2)",
        "twist": f"t*w = {tw}",
        "twist_matches_frobenius": tw == wt,
        "central_element": str(x),
        "center_checks": {
            "x_commutes_with_w": (x * ring.constant(w)) == (ring.constant(w) * x),
            "x_commutes_with_t": (x * t) == (t * x),
            "x_is_central": x.is_central(),
            "t_is_central": t.is_central(),
        },
        "residue_action_of_t": str(theta_action),
        "degree_over_center": 2,
        "basis_over_center": ["1", "w", "t", "w*t"],
    }


def _example_symbol(precision: int, seed: int) -> dict:
    q = 3
    alg = build_symbol_example(3, 7, precision)
    report = alg.classify()
    profile = profile_from_tower(alg.tower)
    v = verdict(profile, report, q)
    ctx = compute_zeta(report)
    kap = kappa(alg, alg.v_of_i(), alg.v_of_j())
    return {
        "schema": SCHEMA_VERSION,
        "example": 3,
        "algebra": print_algebra(alg),
        "classification": report.to_json(),
        "class": "tame totally ramified"
        if report.is_totally_ramified and report.is_tame
        else "other",
        "index": report.index,
        "r_q": profile.r_q(q),
        "cd_q": profile.cd_q(q).describe(),
        "zeta": ctx.zeta,
        "kappa_of_generators": str(kap.element),
        "verdict": v.to_json(),
    }


def sk1_witness_batch(algebra: SymbolAlgebra, count: int, seed: int) -> list[dict]:
    """Generate-and-check harness: norm-one inputs built as c sigma(c)^-1."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        cert = _random_norm_one(algebra, rng)
        entry: dict = {"element": str(cert.element)}
        try:
            witness = decompose_norm_one(cert, rng)
            entry["witness"] = [
                {"x": str(x), "y": str(y)} for x, y in witness.factors
            ]
            entry["verified"] = True  # decompose_norm_one verified it
        except DegenerateDecompositionError as exc:
            entry["witness"] = None
            entry["verified"] = False
            entry["error"] = str(exc)
        out.append(entry)
    return out


def _random_norm_one(algebra: SymbolAlgebra, rng: random.Random):
    """c j c^-1 j^-1, certified, for random invertible c in the span of powers of i."""
    n = algebra.degree
    p = algebra.tower.base.char
    while True:
        c = algebra.zero()
        for k in range(n):
            val = (
                rng.randint(0, p - 1)
                if p
                else Fraction(rng.randint(-4, 4))
            )
            if val:
                c = c + algebra.monomial(k, 0, algebra.tower.constant(val))
        if c.is_zero():
            continue
        if not c.nrd().indistinguishable_from_zero():
            break
    return commutator(c, algebra.j())


# ---------------------------------------------------------------------------
# selftest


def selftest(seed: int = 0, sizes: dict | None = None) -> dict:
    """Run every module's property suite with one seed; JSON summary.

    sizes maps a suite's short name to its number of cases; an unknown name
    is a UsageError.  A suite of size 0 is skipped, fixed checks included.
    """
    sizes = sizes or {}
    suites = [
        ("lattice_invariants", _suite_lattices, "lattice", 200),
        ("field_axioms", _suite_fields, "fields", 150),
        ("series_valuations", _suite_series, "series", 300),
        ("hensel_squares", _suite_hensel, "hensel", 60),
        ("twisted_relations", _suite_twisted, "twisted", 120),
        ("norm_multiplicativity", _suite_norms, "norms", 40),
        ("valuation_extension", _suite_valuation, "valuation", 60),
        ("graded_structure", _suite_graded, "graded", 30),
        ("commutator_witnesses", _suite_witnesses, "witnesses", 10),
        ("verdict_rules", _suite_verdicts, "verdicts", 1),
    ]
    known = [key for _, _, key, _ in suites]
    unknown = sorted(set(sizes) - set(known))
    if unknown:
        raise UsageError(f"unknown suites {unknown}; known suites are {', '.join(known)}")
    results = []
    ok = True
    for name, fn, key, default in suites:
        cases = sizes.get(key, default)
        rng = random.Random(seed ^ zlib.crc32(name.encode()))
        failures = fn(rng, cases) if cases else 0
        results.append({"suite": name, "cases": cases, "failures": failures})
        ok = ok and failures == 0
    return {"schema": SCHEMA_VERSION, "seed": seed, "ok": ok, "suites": results}


def _suite_lattices(rng, cases):
    failures = 0
    for _ in range(cases):
        r = rng.randint(1, 4)
        k = rng.randint(1, r)
        gens = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(r)]
            for _ in range(k)
        ]
        big = Lattice.from_generators(r, gens)
        if big.rational_rank != k:
            continue
        mult = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
        rows = [
            tuple(
                sum(
                    (m * row[c] for m, row in zip(mrow, big.fraction_rows())),
                    Fraction(0),
                )
                for c in range(r)
            )
            for mrow in mult
        ]
        small = Lattice.from_generators(r, rows)
        if small.rational_rank != k:
            continue
        q = quotient(big, small)
        if q.torsion_rank > small.rational_rank:
            failures += 1
        if small.rational_rank == 1 and not q.is_cyclic:
            failures += 1
        for prime in (2, 3):
            # L/qL from the Smith form of qL in L
            q_big = [[prime * x for x in row] for row in big.fraction_rows()]
            q_quotient = quotient(big, Lattice.from_generators(r, q_big))
            if q_quotient.invariant_factors != (prime,) * big.q_rank(prime):
                failures += 1
    return failures


def _suite_fields(rng, cases):
    failures = 0
    F7a = ExtensionField(PrimeField(7), [-2, 0, 0, 1], var="a")
    fields = [PrimeField(5), F7a]
    for field in fields:
        for _ in range(cases):
            xs = []
            for _ in range(3):
                if isinstance(field, PrimeField):
                    xs.append(field.element(rng.randint(0, field.p - 1)))
                else:
                    xs.append(
                        field.element([rng.randint(0, 6) for _ in range(field.degree)])
                    )
            x, y, z = xs
            if (x + y) * z != x * z + y * z:
                failures += 1
            if not x.is_zero() and x * x.inv() != field.one():
                failures += 1
    return failures


def _suite_series(rng, cases):
    failures = 0
    tower = Tower(PrimeField(7), ["x", "y"], default_prec=8)
    for _ in range(cases):
        a = _random_tower_elem(tower, rng)
        b = _random_tower_elem(tower, rng)
        if a.is_zero() or b.is_zero():
            continue
        va, vb = a.valuation(), b.valuation()
        prod = a * b
        if prod.valuation() != tuple(x + y for x, y in zip(va, vb)):
            failures += 1
        s = a + b
        if not s.is_zero():
            vs = s.valuation()
            if lex_compare(vs, min(va, vb)) < 0:
                failures += 1
            if va != vb and vs != min(va, vb):
                failures += 1
    return failures


def _random_tower_elem(tower, rng, terms=3, span=3):
    out = tower.zero()
    for _ in range(rng.randint(1, terms)):
        exps = tuple(rng.randint(-span, span) for _ in range(tower.height))
        out = out + tower.monomial(exps, rng.randint(0, tower.base.char - 1))
    return out


def _suite_hensel(rng, cases):
    failures = 0
    from .laurent import hensel_sqrt

    for p in (3, 5, 7, 11):
        field = PrimeField(p)
        tower = Tower(field, ["t"], default_prec=12)
        squares = {(x * x) % p for x in range(1, p)}
        for _ in range(cases // 4 + 1):
            r0 = rng.randint(1, p - 1)
            u = tower.constant(r0)
            for k in range(1, 4):
                u = u + tower.monomial((k,), rng.randint(0, p - 1))
            w = hensel_sqrt(u)
            if (w is not None) != (r0 in squares):
                failures += 1
            elif w is not None and not (w * w).agrees_to_precision(u):
                failures += 1
    return failures


def _suite_twisted(rng, cases):
    failures = 0
    F3 = PrimeField(3)
    F9 = ExtensionField(F3, [1, 0, 1], var="w")
    ring = TwistedSeriesRing(F9, frobenius(F9))
    t = ring.t()
    for _ in range(cases):
        c = F9.element([rng.randint(0, 2), rng.randint(0, 2)])
        if (t * ring.constant(c)) != (ring.constant(c**3) * t):
            failures += 1
    x = central_indeterminate(ring)
    for _ in range(cases // 2):
        z = ring.monomial(rng.randint(-2, 2), F9.element([rng.randint(0, 2), rng.randint(0, 2)]))
        if (x * z) != (z * x):
            failures += 1
    return failures


def _suite_norms(rng, cases):
    failures = 0
    algebras = [build_quaternion_example(8), build_symbol_example(3, 7, 8)]
    for alg in algebras:
        for _ in range(cases):
            e1 = _random_algebra_elem(alg, rng)
            e2 = _random_algebra_elem(alg, rng)
            if not (e1 * e2).nrd().agrees_to_precision(e1.nrd() * e2.nrd()):
                failures += 1
    return failures


def _random_algebra_elem(alg, rng, terms=2, span=2):
    n = alg.degree
    p = alg.tower.base.char
    out = alg.zero()
    for _ in range(rng.randint(1, terms)):
        exps = tuple(rng.randint(-span, span) for _ in range(alg.tower.height))
        out = out + alg.monomial(
            rng.randrange(n), rng.randrange(n), alg.tower.monomial(exps, rng.randint(1, p - 1))
        )
    return out


def _suite_valuation(rng, cases):
    failures = 0
    alg = build_quaternion_example(8)
    zero_vec = (Fraction(0),)
    for _ in range(cases):
        e1 = _random_algebra_elem(alg, rng)
        e2 = _random_algebra_elem(alg, rng)
        if e1.is_zero() or e2.is_zero():
            continue
        if (e1 * e2).valuation() != tuple(
            a + b for a, b in zip(e1.valuation(), e2.valuation())
        ):
            failures += 1
    f = alg.tower.monomial((2,), 3)
    if alg.scalar(f).valuation() != (Fraction(2),):
        failures += 1
    if alg.one().valuation() != zero_vec:
        failures += 1
    return failures


def _suite_graded(rng, cases):
    failures = 0
    alg = build_symbol_example(3, 7, 8)
    for _ in range(cases):
        e = _random_algebra_elem(alg, rng, terms=1, span=1)
        if e.is_zero():
            continue
        h = tilde(e)
        if not nrd_grade_check(h):
            failures += 1
        hinv = h.inverse()
        if tuple(-g for g in h.grade) != hinv.grade:
            failures += 1
    return failures


def _suite_witnesses(rng, cases):
    failures = 0
    alg = build_quaternion_example(16)
    for _ in range(cases):
        try:
            witness = decompose_norm_one(_random_norm_one(alg, rng), rng)
            if not witness.verify():
                failures += 1
        except DegenerateDecompositionError:
            failures += 1
    kap = kappa(alg, alg.v_of_i(), alg.v_of_j())
    if not kap.element.is_scalar():
        failures += 1
    return failures


def _suite_verdicts(_rng, _cases):
    failures = 0
    alg3 = build_symbol_example(3, 7, 8)
    v3 = verdict(profile_from_tower(alg3.tower), alg3.classify(), 3)
    if v3.conclusion != "trivial" or v3.rule != "rank_one_to_three":
        failures += 1
    quat = build_quaternion_example(8)
    v2 = verdict(profile_from_tower(quat.tower), quat.classify(), 2)
    if v2.conclusion != "trivial" or v2.rule != "squarefree_index":
        failures += 1
    return failures
