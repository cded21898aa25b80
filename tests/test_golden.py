"""Golden corpus: frozen results of the series, tower and algebra kernels.

`data/golden_series.json` holds, for seeded inputs, every coefficient and
every window bound (at every nesting level) of twisted products and inverses
over F9((t, frobenius)), tower products, inverses and powers at heights 1-2,
Hensel square roots and powers of symbol-algebra elements.  Errors are
recorded by type.  `data/example_<n>.json` holds the exact output of
`valdiv example <n> --format json`.  Kernel rewrites must reproduce both
exactly; the data was written once, from the code before the rewrites.
"""

import json
import random
from pathlib import Path

import pytest

from valdiv.cli import main
from valdiv.errors import ValdivError
from valdiv.fields import ExtensionField, FieldElement, PrimeField, frobenius
from valdiv.laurent import Tower, TowerElement, TwistedSeriesRing, hensel_sqrt
from valdiv.symbol import AlgebraElement, SymbolAlgebra

DATA = Path(__file__).parent / "data"

F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)
F9 = ExtensionField(F3, [1, 0, 1], var="w")


def canon(value):
    """JSON form of a result: every coefficient and every window bound."""
    if value is None:
        return None
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


def test_golden_series_corpus():
    frozen = json.loads((DATA / "golden_series.json").read_text())
    computed = build_corpus()
    assert sorted(computed) == sorted(frozen)
    mismatched = [key for key in frozen if computed[key] != frozen[key]]
    assert mismatched == []


@pytest.mark.parametrize("number", [1, 2, 3])
def test_example_json_is_byte_identical(number, capsys):
    assert main(["example", str(number), "--format", "json"]) == 0
    assert capsys.readouterr().out == (DATA / f"example_{number}.json").read_text()
