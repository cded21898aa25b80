"""Golden corpus: frozen results of the series, tower and algebra kernels.

`data/golden_series.json` holds, for seeded inputs, every coefficient and
every window bound (at every nesting level) of twisted products and inverses
over F9((t, frobenius)), tower products, inverses and powers at heights 1-2,
Hensel square roots and powers of symbol-algebra elements.
`data/golden_norms.json` holds the same for the reduced norm, characteristic
polynomial, trace and inverse of symbol-algebra elements of degree 1-5 over
height-1 and height-2 towers, with exact and truncated coefficients.  Errors
are recorded by type.  `data/example_<n>.json` holds the exact output of
`valdiv example <n> --format json`.  Kernel rewrites must reproduce both
exactly; the data was written once, from the code before the rewrites.

`data/golden_grammar.json` holds description strings (every one in README
and tests/, every one the benchmark's cli_requests workload sends, and seeded
random integer moduli) with what the grammar made of them: the printed field,
tower, profile, algebra or series, or the error type and message.  It was
written before the grammar parsed each description once, and leaves out the
errors that rewrite changes on purpose: errors inside an algebra slot (they
now carry columns counted from the start of the description) and syntax
errors inside a modulus (now the expression parser's).  It was also written
while irreducibility over a finite field was checked only up to degree 4, so
it froze 31 reducible random moduli of degree 5 as fields (or as the error of
a later step).  Rabin's test now refuses them; each of those cases must carry
the refusal message, for a polynomial that trial division factors.
"""

import json
import random
import re
import warnings
from pathlib import Path

import pytest

from valdiv.cli import main
from valdiv.errors import ValdivError
from valdiv.fields import (
    ExtensionField,
    FieldElement,
    PrimeField,
    frobenius,
    primitive_root_of_unity,
)
from valdiv.grammar import (
    parse_algebra,
    parse_field,
    parse_profile,
    parse_series,
    parse_tower,
    print_algebra,
    print_series,
)
from valdiv.laurent import ProductSum, Tower, TowerElement, TwistedSeriesRing, hensel_sqrt
from valdiv.symbol import AlgebraElement, SymbolAlgebra

from oracles import is_irreducible_mod_p

DATA = Path(__file__).parent / "data"

F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)
F9 = ExtensionField(F3, [1, 0, 1], var="w")


def canon(value):
    """JSON form of a result: every coefficient and every window bound."""
    if value is None:
        return None
    if isinstance(value, list):
        return [canon(v) for v in value]
    if isinstance(value, FieldElement):
        return str(value)
    if isinstance(value, TowerElement):
        return canon(value.payload)
    if isinstance(value, AlgebraElement):
        return [[list(kl), canon(value.coeffs[kl])] for kl in sorted(value.coeffs)]
    return {
        "var": value.ring.var,
        "bound": value.bound,
        "terms": [[e, canon(value.coeffs[e])] for e in sorted(value.coeffs)],
    }


def outcome(thunk):
    try:
        return canon(thunk())
    except ValdivError as exc:
        return {"error": type(exc).__name__}


def _field_coeff(rng, field):
    if isinstance(field, ExtensionField):
        return field.element([rng.randrange(field.base.char) for _ in range(field.degree)])
    return field.element(rng.randrange(field.char))


def _random_series(rng, ring, field, lead, span, terms, truncated, inner=None):
    """Sparse series with a nonzero lead term; inner builds nested coefficients."""

    def coeff(force_nonzero):
        while True:
            c = inner() if inner else _field_coeff(rng, field)
            if not (force_nonzero and c.is_zero()):
                return c

    coeffs = {lead: coeff(True)}
    for _ in range(terms):
        coeffs[lead + rng.randint(1, span)] = coeff(False)
    bound = lead + rng.randint(1, span + 2) if truncated else None
    return ring.series(coeffs, bound)


def _twisted_cases(out, prec, count):
    ring = TwistedSeriesRing(F9, frobenius(F9), default_prec=prec)
    rng = random.Random(f"twisted:{prec}")

    def element(truncated):
        lead = rng.randint(-3, 3)
        coeffs = {lead: F9.element([rng.randint(1, 2), rng.randint(0, 2)])}
        for _ in range(rng.randint(1, 10)):
            coeffs[lead + rng.randint(1, prec // 2)] = _field_coeff(rng, F9)
        bound = lead + rng.randint(prec // 4, prec) if truncated else None
        return ring.series(coeffs, bound)

    for k in range(count):
        x, y = element(k % 2 == 1), element(k % 3 == 2)
        name = f"twisted/p{prec}/{k}"
        out[f"{name}/mul"] = outcome(lambda: x * y)
        out[f"{name}/mul_rev"] = outcome(lambda: y * x)
        out[f"{name}/inv"] = outcome(x.inv)
        out[f"{name}/inv_second"] = outcome(y.inv)


def _tower_element(rng, tower, truncated):
    base = tower.base
    if tower.height == 1:
        payload = _random_series(
            rng, tower.rings[0], base, rng.randint(-2, 2), 5, rng.randint(0, 3), truncated
        )
        return tower.element(payload)
    inner_ring = tower.rings[0]

    def inner():
        return _random_series(
            rng, inner_ring, base, rng.randint(-1, 1), 3, rng.randint(0, 2),
            truncated and rng.random() < 0.5,
        )

    payload = _random_series(
        rng, tower.rings[1], base, rng.randint(-1, 1), 3, rng.randint(0, 2),
        truncated, inner=inner,
    )
    return tower.element(payload)


def _tower_cases(out):
    setups = [
        ("h1-F5", Tower(F5, ["t"], default_prec=16), 8),
        ("h1-F9", Tower(F9, ["t"], default_prec=12), 6),
        ("h2-F7", Tower(F7, ["x", "y"], default_prec=6), 6),
        ("h2-F5", Tower(F5, ["x", "y"], default_prec=9), 4),
    ]
    for label, tower, count in setups:
        rng = random.Random(f"tower:{label}")
        for k in range(count):
            x = _tower_element(rng, tower, k % 2 == 1)
            y = _tower_element(rng, tower, k % 3 == 2)
            name = f"tower/{label}/{k}"
            out[f"{name}/mul"] = outcome(lambda: x * y)
            out[f"{name}/inv"] = outcome(x.inv)
            for e in (-2, -1, 0, 1, 2, 3):
                out[f"{name}/pow{e}"] = outcome(lambda: y**e)


def _hensel_cases(out):
    setups = [
        ("h1-F7", Tower(F7, ["t"], default_prec=16), 8),
        ("h1-F9", Tower(F9, ["t"], default_prec=10), 4),
        ("h2-F5", Tower(F5, ["x", "y"], default_prec=5), 4),
    ]
    for label, tower, count in setups:
        rng = random.Random(f"hensel:{label}")
        non_square = F9.element([1, 1]) if tower.base == F9 else tower.base.element(3)
        shift = tower.monomial(tuple([3] * tower.height))
        for k in range(count):
            r = _field_coeff(rng, tower.base)
            residue = non_square if k % 4 == 3 or r.is_zero() else r * r
            tail = _tower_element(rng, tower, k % 2 == 1)
            u = tower.constant(residue) + shift * tail
            out[f"hensel/{label}/{k}"] = outcome(lambda: hensel_sqrt(u))


def _algebra_cases(out):
    field = F7
    tower = Tower(field, ["x", "y"], default_prec=6)
    alg = SymbolAlgebra(tower, 3, field.element(2), tower.var("x"), tower.var("y"))
    rng = random.Random("algebra-pow")
    for k in range(4):
        e = alg.zero()
        for _ in range(rng.randint(1, 3)):
            exps = tuple(rng.randint(-1, 1) for _ in range(2))
            coeff = tower.monomial(exps, rng.randint(1, 6))
            e = e + alg.monomial(rng.randrange(3), rng.randrange(3), coeff)
        e = e + alg.one()
        for n in (-1, 0, 1, 2, 3, 4):
            out[f"algebra/xy3-F7/{k}/pow{n}"] = outcome(lambda: e**n)


def build_corpus() -> dict:
    out: dict = {}
    _twisted_cases(out, 16, 12)
    _twisted_cases(out, 64, 8)
    _tower_cases(out)
    _hensel_cases(out)
    _algebra_cases(out)
    return out


def _norm_algebras():
    """Degree 1-5 symbol algebras over height-1 and height-2 towers."""
    out = []
    for n, p, b in [(1, 5, 2), (2, 7, 3), (3, 7, 2), (4, 5, 2), (5, 11, 2)]:
        field = PrimeField(p)
        tower = Tower(field, ["t"], default_prec=6)
        omega = primitive_root_of_unity(field, n)
        a = tower.var("t")
        if n == 2:  # (b, t): a non-square unit and a uniformizer
            a, b = tower.constant(b), a
        else:
            b = tower.constant(b) + a
        out.append((f"h1-n{n}-F{p}", SymbolAlgebra(tower, n, omega, a, b)))
    for n, p in [(1, 5), (2, 3), (3, 7), (4, 5), (5, 11)]:
        field = PrimeField(p)
        tower = Tower(field, ["x", "y"], default_prec=4)
        omega = primitive_root_of_unity(field, n)
        x, y = tower.var("x"), tower.var("y")
        a = x + y if n == 3 else x
        out.append((f"h2-n{n}-F{p}", SymbolAlgebra(tower, n, omega, a, y)))
    return out


def _norm_elements(alg, rng):
    """Zero, one, exact sparse elements and elements with truncated coefficients.

    A truncated coefficient is a monomial times the inverse of a non-monomial
    tower element; the last element is a difference of two equal truncated
    elements, which certifies no term at all.
    """
    tower = alg.tower
    n = alg.degree
    p = tower.base.char
    h = tower.height
    divisor = tower.one()
    for name in tower.variables:
        divisor = divisor + tower.var(name)
    inverse = divisor.inv()

    def sparse(truncated):
        e = alg.zero()
        for _ in range(rng.randint(1, 3)):
            exps = tuple(rng.randint(-1, 1) for _ in range(h))
            coeff = tower.monomial(exps, rng.randint(1, p - 1))
            if truncated and rng.random() < 0.7:
                coeff = coeff * inverse
            e = e + alg.monomial(rng.randrange(n), rng.randrange(n), coeff)
        return e

    elements = [alg.zero(), alg.one()]
    elements += [sparse(False) for _ in range(3)]
    elements += [sparse(True) for _ in range(3)]
    shadow = alg.one().scale(inverse) + alg.monomial(n - 1, 0, inverse)
    elements.append(shadow - shadow)
    return elements


def build_norms_corpus() -> dict:
    out: dict = {}
    for label, alg in _norm_algebras():
        rng = random.Random(f"norms:{label}")
        for k, e in enumerate(_norm_elements(alg, rng)):
            name = f"norms/{label}/{k}"
            out[f"{name}/nrd"] = outcome(e.nrd)
            out[f"{name}/prd"] = outcome(e.prd)
            out[f"{name}/trd"] = outcome(e.trd)
            out[f"{name}/inv"] = outcome(e.inv)
    return out


def test_golden_series_corpus():
    frozen = json.loads((DATA / "golden_series.json").read_text())
    computed = build_corpus()
    assert sorted(computed) == sorted(frozen)
    mismatched = [key for key in frozen if computed[key] != frozen[key]]
    assert mismatched == []


def test_golden_norms_corpus():
    frozen = json.loads((DATA / "golden_norms.json").read_text())
    computed = build_norms_corpus()
    assert sorted(computed) == sorted(frozen)
    mismatched = [key for key in frozen if computed[key] != frozen[key]]
    assert mismatched == []


@pytest.mark.parametrize("number", [1, 2, 3])
def test_example_json_is_byte_identical(number, capsys):
    assert main(["example", str(number), "--format", "json"]) == 0
    assert capsys.readouterr().out == (DATA / f"example_{number}.json").read_text()


def _parse_case(case):
    kind, text, prec = case["kind"], case["text"], case.get("precision", 32)
    if kind == "field":
        return parse_field(text).describe()
    if kind == "tower":
        return parse_tower(text, default_prec=prec).describe()
    if kind == "profile":
        return parse_profile(text).describe()
    if kind == "algebra":
        return print_algebra(parse_algebra(text, default_prec=prec))
    tower = parse_tower(case["tower"], default_prec=prec)
    return print_series(parse_series(text, tower))


def test_golden_grammar_corpus():
    frozen = json.loads((DATA / "golden_grammar.json").read_text())
    mismatched = []
    for case in frozen:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # Q moduli: irreducibility is trusted
            try:
                got = {"value": _parse_case(case)}
            except ValdivError as exc:
                got = {"error": type(exc).__name__, "message": str(exc)}
        want = {k: case[k] for k in ("value", "error", "message") if k in case}
        if got != want:
            mismatched.append((case["text"], want, got))
    refused = [case for case in mismatched if _refused_as_reducible_above_degree_four(case[2])]
    assert len(refused) == 31
    assert [case for case in mismatched if case not in refused] == []


def _refused_as_reducible_above_degree_four(got):
    """A ParseError refusing a modulus of degree >= 5 over F_p as reducible,
    for a polynomial that trial division does factor."""
    found = re.fullmatch(
        r"(.+) is reducible over F(\d+) \(line \d+, col \d+\)", got.get("message", "")
    )
    if got.get("error") != "ParseError" or found is None:
        return False
    poly, p = found.group(1), int(found.group(2))
    var = re.search(r"[A-Za-z_]\w*", poly).group()
    coeffs = parse_series(poly, Tower(PrimeField(p), [var])).payload.coeffs
    ints = [coeffs[k].rep if k in coeffs else 0 for k in range(max(coeffs) + 1)]
    return len(ints) > 5 and not is_irreducible_mod_p(ints, p)


def test_operations_leave_their_operands_unchanged():
    """No operation writes to an operand: the product kernels cache what they
    derive from a series on the series, which holds only while series are
    never mutated.  Every coefficient and bound of the operands, at every
    level, is the same after each operation ran twice, and the second run,
    on operands whose caches the first one filled, gives the same results."""
    alg = parse_algebra("symbol(n=3, omega=2, a=x+y, b=y) over F7((x))((y))", 8)
    tower = alg.tower
    unit = tower.constant(2) + tower.var("x") + tower.var("y")
    dense = (tower.one() + tower.var("x") + tower.var("y")).inv()
    shifted = dense * tower.monomial((1, -1), 3)
    element = alg.element({(0, 0): unit, (1, 0): dense, (1, 2): shifted})

    def product_sum(a, b):
        total = ProductSum(tower.top_ring())
        total.add(a.payload, b.payload)
        total.add(b.payload, a.payload)
        return total.result()

    ops = [element.inv, element.nrd]
    for a in (unit, dense, shifted):
        ops += [a.inv, lambda a=a: a.scale(F7.element(3))]
        if a is not shifted:  # shifted is no unit
            ops.append(lambda a=a: hensel_sqrt(a))
        for b in (unit, dense, shifted):
            ops += [
                lambda a=a, b=b: a * b,
                lambda a=a, b=b: a + b,
                lambda a=a, b=b: a - b,
                lambda a=a, b=b: product_sum(a, b),
            ]
    operands = [unit, dense, shifted, element]
    before = canon(operands)
    first = [canon(op()) for op in ops]
    assert canon(operands) == before
    assert [canon(op()) for op in ops] == first
    assert canon(operands) == before
