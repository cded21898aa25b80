"""The four workloads: job classes, seeded plans, jobs with self-checks, digests.

A job is named by its class and a parameter, `<class>/<param>`.  The
concrete input of a job is a pure function of that name, so a job's frozen
reference digest holds for every run seed.  The run seed only decides which
parameters a run draws.  Classes follow a fixed weighted schedule, and within
a class the draws rotate over cost octiles frozen with the digests, so every
seed runs the same mix of cheap and dear jobs.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import os
import sys
from dataclasses import dataclass

from perfbench.tracer import MODULES


REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
STRATA = 8
# Cheapest and dearest strata alternate, so that every prefix of a class's
# draws is balanced in cost: a run that stops early, or runs more jobs
# because the program got faster, keeps the same cost mix.
STRATUM_ORDER = [0, 7, 1, 6, 2, 5, 3, 4]


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


class JobFailure(Exception):
    """A job's own check did not hold."""


def fresh_import() -> dict:
    """Import valdiv from scratch and return its modules by short name."""
    for name in [m for m in sys.modules if m == "valdiv" or m.startswith("valdiv.")]:
        del sys.modules[name]
    lib = {"__init__": importlib.import_module("valdiv")}
    for mod in MODULES:
        lib[mod] = importlib.import_module(f"valdiv.{mod}")
    return lib


# ---------------------------------------------------------------------------
# digests


def canon(value):
    """JSON-able form of a result: every coefficient and every window bound."""
    kind = type(value).__name__
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [canon(v) for v in value]
    if isinstance(value, dict):
        return {str(k): canon(v) for k, v in sorted(value.items())}
    if kind == "FieldElement":
        return str(value)
    if kind == "TowerElement":
        return canon(value.payload)
    if kind in ("LaurentSeries", "TwistedSeries"):
        return {
            "var": value.ring.var,
            "bound": value.bound,
            "terms": [[e, canon(value.coeffs[e])] for e in sorted(value.coeffs)],
        }
    if kind == "AlgebraElement":
        return [[list(kl), canon(value.coeffs[kl])] for kl in sorted(value.coeffs)]
    raise TypeError(f"no canonical form for {kind}")


def digest(value) -> str:
    text = json.dumps(canon(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


# ---------------------------------------------------------------------------
# shared machinery


@dataclass(frozen=True)
class JobClass:
    name: str
    weight: int
    spec: dict


def _schedule(classes) -> list[str]:
    """Smooth weighted round robin: one cycle, heavy classes spread out."""
    total = sum(c.weight for c in classes)
    current = {c.name: 0 for c in classes}
    order = []
    for _ in range(total):
        for c in classes:
            current[c.name] += c.weight
        best = max(classes, key=lambda c: current[c.name])
        current[best.name] -= total
        order.append(best.name)
    return order


def _param_rng(cls: str, param: int) -> random.Random:
    return random.Random(f"{cls}/{param}")


class Workload:
    name = ""
    why = ""
    params = 32  # parameters per class, all frozen in the reference file
    classes: list[JobClass] = []

    def plan(self, seed: int):
        """Endless stream of (class, param) for one run seed.

        The k-th draw of a class picks at random from stratum
        STRATUM_ORDER[k mod STRATA] of that class's parameters, ranked by
        their frozen job times.
        """
        rng = random.Random(f"{self.name}:{seed}")
        known = self.known_failures()
        ranked = {
            c: [p for p in r if f"{c}/{p}" not in known]
            for c, r in load_reference()[self.name]["cost_order"].items()
        }
        strata = {
            c: [r[i * len(r) // STRATA:(i + 1) * len(r) // STRATA] for i in range(STRATA)]
            for c, r in ranked.items()
        }
        order = _schedule(self.classes)

        def jobs():
            draws = {c.name: 0 for c in self.classes}
            while True:
                for cls in order:
                    chunk = strata[cls][STRATUM_ORDER[draws[cls] % STRATA]]
                    draws[cls] += 1
                    yield cls, rng.choice(chunk)

        return jobs()

    def known_failures(self) -> set[str]:
        """Jobs whose frozen reference is a failure: defects of the freezing commit.

        Plans never draw them, so `failed` in a timed run counts only new
        failures; run.py re-runs them apart from the timed loop and reports
        whether each still fails as frozen.
        """
        digests = load_reference()[self.name]["digests"]
        return {job for job, ref in digests.items() if ref.startswith("fail:")}

    def catalog(self):
        for c in self.classes:
            for param in range(self.params):
                yield c.name, param

    def spec(self, cls: str) -> dict:
        return next(c.spec for c in self.classes if c.name == cls)

    def setup(self, lib: dict) -> dict:
        raise NotImplementedError

    def make_input(self, ctx: dict, cls: str, param: int):
        raise NotImplementedError

    def run(self, ctx: dict, cls: str, inp):
        """Run one job, raise JobFailure if its check fails, return its output."""
        raise NotImplementedError

    def describe_input(self, ctx: dict, cls: str, param: int) -> str:
        """Text form of the input the library receives, for input digests."""
        return json.dumps(canon(self.make_input(ctx, cls, param)[1:]), sort_keys=True)


# ---------------------------------------------------------------------------
# witness_tower


class WitnessTower(Workload):
    name = "witness_tower"
    why = "certified commutator witnesses over height-2 towers: nested truncated series products"
    classes = [
        JobClass("n3-axy-p8", 2, {"alg": "symbol(n=3, omega=2, a=x+y, b=y) over F7((x))((y))", "prec": 8}),
        JobClass("n3-axy-p10", 1, {"alg": "symbol(n=3, omega=2, a=x+y, b=y) over F7((x))((y))", "prec": 10}),
        JobClass("n4-axy-p8", 2, {"alg": "symbol(n=4, omega=auto, a=x+y, b=y) over F5((x))((y))", "prec": 8}),
        JobClass("n3-bxy-p10", 2, {"alg": "symbol(n=3, omega=2, a=x, b=x+y) over F7((x))((y))", "prec": 10}),
        JobClass("n3-bxy-p12", 5, {"alg": "symbol(n=3, omega=2, a=x, b=x+y) over F7((x))((y))", "prec": 12}),
    ]

    def setup(self, lib):
        ctx = {"lib": lib}
        for c in self.classes:
            alg = lib["grammar"].parse_algebra(c.spec["alg"], default_prec=c.spec["prec"])
            alg.verify_splitting_relations()
            ctx[c.name] = alg
        return ctx

    def make_input(self, ctx, cls, param):
        return ctx[cls], _param_rng(cls, param).randrange(2**31)

    def describe_input(self, ctx, cls, param):
        spec = self.spec(cls)
        return json.dumps([spec["alg"], spec["prec"], self.make_input(ctx, cls, param)[1]])

    def run(self, ctx, cls, inp):
        alg, seed = inp
        batch = ctx["lib"]["pipeline"].sk1_witness_batch(alg, count=1, seed=seed)
        if not batch[0]["verified"]:
            raise JobFailure(batch[0].get("error", "witness not verified"))
        return batch


# ---------------------------------------------------------------------------
# norms_degree


def _random_element(alg, rng, terms):
    """Sparse element: `terms` monomials i^k j^l with monomial tower coefficients."""
    n, p = alg.degree, alg.tower.base.char
    coeffs = {}
    for _ in range(terms):
        kl = (rng.randrange(n), rng.randrange(n))
        c = alg.tower.monomial((rng.randint(0, 2), rng.randint(0, 2)), rng.randint(1, p - 1))
        coeffs[kl] = coeffs[kl] + c if kl in coeffs else c
    return alg.element(coeffs)


class NormsDegree(Workload):
    name = "norms_degree"
    why = "exact reduced norms and characteristic polynomials at degree 4-6: charpoly expansion"
    classes = [
        JobClass("nrd-n4-F5", 2, {"n": 4, "p": 5, "kind": "norms"}),
        JobClass("nrd-n4-F13", 2, {"n": 4, "p": 13, "kind": "norms"}),
        JobClass("nrd-n5-F11", 4, {"n": 5, "p": 11, "kind": "norms"}),
        JobClass("nrd-n6-F13", 3, {"n": 6, "p": 13, "kind": "norms"}),
        JobClass("sn-n4-F5", 1, {"n": 4, "p": 5, "kind": "sn"}),
    ]

    def setup(self, lib):
        ctx = {"lib": lib}
        for c in self.classes:
            text = f"symbol(n={c.spec['n']}, omega=auto, a=x, b=y) over F{c.spec['p']}((x))((y))"
            alg = lib["grammar"].parse_algebra(text)
            alg.verify_splitting_relations()
            ctx[c.name] = alg
        return ctx

    def make_input(self, ctx, cls, param):
        alg, rng = ctx[cls], _param_rng(cls, param)
        if self.spec(cls)["kind"] == "norms":
            return "norms", _random_element(alg, rng, 3), _random_element(alg, rng, 3)
        k = _random_element(alg, rng, 2)
        x = alg.monomial(
            rng.randrange(alg.degree),
            rng.randrange(1, alg.degree),
            alg.tower.monomial((rng.randint(0, 1), rng.randint(0, 1)), rng.randint(1, alg.tower.base.char - 1)),
        )
        return "sn", k, x, rng.randrange(2**31)

    def run(self, ctx, cls, inp):
        if inp[0] == "norms":
            _, e, f = inp
            n = e.algebra.degree
            ne, nf, nef = e.nrd(), f.nrd(), (e * f).nrd()
            if nef != ne * nf:
                raise JobFailure("nrd(e*f) != nrd(e)*nrd(f)")
            poly, tr = e.prd(), e.trd()
            if poly[0] != ne and poly[0] != -ne:
                raise JobFailure("prd(e) constant term is not +-nrd(e)")
            if poly[n - 1] != -tr:
                raise JobFailure("prd(e) next coefficient is not -trd(e)")
            return [ne, nf, nef, poly, tr]
        _, k, x, seed = inp
        target = x * k * x.inv()
        sk1 = ctx["lib"]["sk1"]
        c = sk1.skolem_noether_conjugator(k, target, random.Random(seed))
        if not (c * k).agrees_to_precision(target * c):
            raise JobFailure("conjugator does not satisfy c*k = target*c")
        return [target, c]


# ---------------------------------------------------------------------------
# series_precision


class SeriesPrecision(Workload):
    name = "series_precision"
    why = "height-1 inversion, Hensel square roots and twisted inversion at precision 64/128"
    params = 16
    classes = [
        JobClass(f"{op}-{field}-{prec}", weight, {"op": op, "field": field, "prec": prec})
        for op, field, prec, weight in [
            ("inv", "F7", 64, 1), ("inv", "F7", 128, 1), ("inv", "E", 64, 4), ("inv", "E", 128, 2),
            ("sqrt", "F7", 64, 1), ("sqrt", "F7", 128, 2), ("sqrt", "E", 64, 3),
            ("nonsq", "F7", 64, 1), ("nonsq", "F7", 128, 1), ("nonsq", "E", 64, 1), ("nonsq", "E", 128, 1),
            ("twisted", "F9", 64, 1),
        ]
    ]

    def setup(self, lib):
        fields, laurent = lib["fields"], lib["laurent"]
        f7 = fields.PrimeField(7)
        ext = fields.ExtensionField(f7, [-2, 0, 0, 1], var="a")
        f9 = fields.ExtensionField(fields.PrimeField(3), [1, 0, 1], var="w")
        ctx = {"lib": lib, "F7": f7, "E": ext, "F9": f9}
        for key in ("F7", "E", "F9"):
            ctx[("nonzero", key)] = [x for x in ctx[key].elements() if not x.is_zero()]
        for field in (f7, ext):
            ctx[("nonsq", field)] = next(
                x for x in field.elements() if not x.is_zero() and not fields.is_square(x)
            )
        for prec in (64, 128):
            for key in ("F7", "E"):
                ctx[(key, prec)] = laurent.Tower(ctx[key], ["t"], default_prec=prec)
        ctx[("F9", 64)] = laurent.TwistedSeriesRing(f9, fields.frobenius(f9), default_prec=64)
        return ctx

    def make_input(self, ctx, cls, param):
        """A unit with four nonzero terms below t^12, always at t^0 and t^1,
        so that the jobs of one class cost about the same."""
        spec, rng = self.spec(cls), _param_rng(cls, param)
        field, ring = ctx[spec["field"]], ctx[(spec["field"], spec["prec"])]
        nonzero = ctx[("nonzero", spec["field"])]
        exponents = [0, 1] + rng.sample(range(2, 12), 2)
        coeffs = {e: rng.choice(nonzero) for e in exponents}
        if spec["op"] == "twisted":
            return spec["op"], ring.series(coeffs)
        u = ring.element(ring.rings[0].series(coeffs))
        if spec["op"] == "sqrt":
            u = u * u
        elif spec["op"] == "nonsq":
            u = (u * u).scale(ctx[("nonsq", field)])
        return spec["op"], u

    def run(self, ctx, cls, inp):
        op, u = inp
        laurent = ctx["lib"]["laurent"]
        if op == "inv":
            ui = u.inv()
            if not (u * ui).agrees_to_precision(u.tower.one()):
                raise JobFailure("u * u^-1 does not agree with 1")
            return ui
        if op == "twisted":
            ui = u.inv()
            if not (u * ui).agrees_to_precision(u.ring.one()):
                raise JobFailure("twisted u * u^-1 does not agree with 1")
            return ui
        s = laurent.hensel_sqrt(u)
        if op == "nonsq":
            if s is not None:
                raise JobFailure("square root returned for a non-square unit")
            return None
        if s is None or not (s * s).agrees_to_precision(u):
            raise JobFailure("hensel_sqrt gave no certified root of a square")
        return s


# ---------------------------------------------------------------------------
# cli_requests


def _primes(lo, hi):
    return [n for n in range(max(2, lo), hi + 1) if all(n % d for d in range(2, int(n**0.5) + 1))]


SMALL_PRIMES = _primes(3, 100)
LARGE_PRIMES = _primes(7000, 9973)
TOWERS = {1: ["t"], 2: ["x", "y"], 3: ["x", "y", "z"]}


def _irreducible(coeffs, p):
    """Brute-force irreducibility of a monic polynomial of degree <= 4 over F_p."""

    def rem(num, den):
        num = num[:]
        while len(num) >= len(den):
            f = num[-1]
            shift = len(num) - len(den)
            for i, d in enumerate(den):
                num[shift + i] = (num[shift + i] - f * d) % p
            num.pop()
        return num

    deg = len(coeffs) - 1
    if any(sum(c * x**k for k, c in enumerate(coeffs)) % p == 0 for x in range(p)):
        return False
    if deg == 4:
        for c0 in range(p):
            for c1 in range(p):
                if not any(rem(coeffs, [c0, c1, 1])):
                    return False
    return True


def _poly_text(coeffs, var):
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c:
            power = "" if k == 0 else (var if k == 1 else f"{var}^{k}")
            terms.append(str(c) if not power else (power if c == 1 else f"{c}*{power}"))
    return "+".join(terms)


def _slots(rng, variables, unit, monomial=False):
    """Slot pair a, b of a symbol: monomials, unit constants and sums."""
    v = variables
    a_forms = [v[0], f"{unit}*{v[0]}"]
    if not monomial:
        a_forms.append(f"{v[0]}+{unit}")
        if len(v) > 1:
            a_forms.append(f"{v[0]}+{v[1]}")
    b_forms = [v[-1]] + ([v[1]] if len(v) > 1 else [] if monomial else [str(unit)])
    return rng.choice(a_forms), rng.choice(b_forms)


MALFORMED = [
    ("classify", "--algebra", "symbol(n=3, omega=auto, a=x, b=y over F7((x))((y))"),
    ("classify", "--algebra", "symbol(n=3, omega=auto, a=x, b=y) over G7((x))((y))"),
    ("classify", "--algebra", "symbol(n=2, omega=auto, a=t, b=3) over F7((t)"),
    ("verdict", "--algebra", "symbol(n=3, omega=auto, a=x, b=y) over F7((x))((y))", "--q", "4"),
    ("classify", "--precision", "0", "--algebra", "symbol(n=2, omega=auto, a=t, b=3) over F7((t))"),
    ("verdict", "--algebra", "symbol(n=2, omega=auto, a=t, b=3) over F7((t))", "--q", "two"),
    ("classify", "--algebra", "symbol(n=2, omega=auto, a=t, b=3) over F8((t))"),
]

_SMALL_EXT = [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (7, 3), (11, 2), (13, 2)]
_LARGE_EXT = [(11, 3)]


def _cli_class(name, weight, **spec):
    return JobClass(name, weight, spec)


class CliRequests(Workload):
    """Classes fix what sets a request's cost (command, degree, field size), so
    every seed runs the same cost mix; the seed varies the rest."""

    name = "cli_requests"
    why = "short CLI calls on a skewed pool of descriptions: grammar, root search, JSON, little series work"
    params = 64
    pool = 8  # descriptions per class in one run's pool
    classes = [
        _cli_class("classify-n2", 2, cmd="classify", primes=SMALL_PRIMES, n=2, heights=(1, 2, 3)),
        _cli_class("classify-n3", 6, cmd="classify", primes=[p for p in SMALL_PRIMES if p % 3 == 1], n=3, heights=(2,)),
        _cli_class("classify-n4", 1, cmd="classify", primes=[p for p in SMALL_PRIMES if p % 4 == 1], n=4, heights=(1, 2)),
        _cli_class("classify-n6", 1, cmd="classify", primes=[p for p in SMALL_PRIMES if p % 6 == 1], n=6, heights=(2,)),
        _cli_class("classify-large-n2", 1, cmd="classify", primes=LARGE_PRIMES, n=2, heights=(1, 2)),
        _cli_class("classify-large-n3", 1, cmd="classify", primes=[p for p in LARGE_PRIMES if p % 3 == 1], n=3, heights=(1, 2)),
        _cli_class("classify-ext", 2, cmd="classify", ext=_SMALL_EXT, n=2, heights=(1, 2)),
        _cli_class("classify-ext-large", 1, cmd="classify", ext=_LARGE_EXT, n=2, heights=(1,), monomial=True),
        _cli_class("classify-Q", 1, cmd="classify", primes=None, n=2, heights=(1, 2, 3)),
        _cli_class("verdict-n23", 2, cmd="verdict", primes=[p for p in SMALL_PRIMES if p % 6 == 1], n=(2, 3), heights=(1, 2, 3)),
        _cli_class("verdict-n5", 1, cmd="verdict", primes=[p for p in SMALL_PRIMES if p % 5 == 1], n=5, heights=(1, 2)),
        _cli_class("verdict-n7", 1, cmd="verdict", primes=[p for p in SMALL_PRIMES if p % 7 == 1], n=7, heights=(1,)),
        _cli_class("cd", 4, cmd="cd"),
        _cli_class("example-1", 1, cmd="example", number=1),
        _cli_class("example-2", 1, cmd="example", number=2),
        _cli_class("example-3", 1, cmd="example", number=3),
        _cli_class("sk1-unit", 1, cmd="sk1", series=False),
        _cli_class("sk1-series", 1, cmd="sk1", series=True),
        _cli_class("malformed", 1, cmd="malformed"),
    ]

    def plan(self, seed):
        """Per class, a pool of descriptions drawn with Zipf-skewed repetition."""
        rng = random.Random(f"{self.name}:{seed}")
        known = self.known_failures()
        pools = {
            c.name: rng.sample([p for p in range(self.params) if f"{c.name}/{p}" not in known], self.pool)
            for c in self.classes
        }
        zipf = [1.0 / (rank + 1) for rank in range(self.pool)]
        order = _schedule(self.classes)

        def jobs():
            while True:
                for cls in order:
                    yield cls, rng.choices(pools[cls], zipf)[0]

        return jobs()

    def setup(self, lib):
        return {"lib": lib}

    def make_input(self, ctx, cls, param):
        return "cli", self.argv(cls, param)

    def argv(self, cls, param):
        """The command line of one request."""
        spec, rng = self.spec(cls), _param_rng(cls, param)
        cmd = spec["cmd"]
        if cmd == "malformed":
            return list(MALFORMED[param % len(MALFORMED)])
        if cmd == "example":
            return ["example", str(spec["number"]), "--seed", str(param)]
        if cmd == "cd":
            q = rng.choice([2, 3, 5, 7])
            p = rng.choice([p for p in SMALL_PRIMES if p != q])  # cd_q needs q != char
            base = rng.choice(["decl(cd2=1, cd3=2)", "Qp(p=7)", f"F{p}", "Q"])
            suffix = "".join(f"(({v}))" for v in TOWERS[rng.randint(1, 3)])
            return ["cd", "--profile", base + suffix, "--q", str(q)]
        if cmd == "sk1":
            p = rng.choice(SMALL_PRIMES)
            unit = rng.randrange(2, p)
            a = f"t+{unit}" if spec["series"] else str(unit)
            return [
                "sk1-witness", "--algebra",
                f"symbol(n=2, omega=auto, a={a}, b=t) over F{p}((t))",
                "--count", "2" if spec["series"] else "3", "--seed", str(param),
            ]
        variables = TOWERS[rng.choice(spec["heights"])]
        suffix = "".join(f"(({v}))" for v in variables)
        if "ext" in spec:
            p, d = rng.choice(spec["ext"])
            while True:
                coeffs = [rng.randrange(p) for _ in range(d)] + [1]
                if _irreducible(coeffs, p):
                    break
            base = f"F{p}[w]/({_poly_text(coeffs, 'w')})"
        elif spec["primes"] is None:
            p, base = 5, "Q"
        else:
            p = rng.choice(spec["primes"])
            base = f"F{p}"
        n = spec["n"] if isinstance(spec["n"], int) else rng.choice(spec["n"])
        a, b = _slots(rng, variables, rng.randrange(2, p), spec.get("monomial", False))
        text = f"symbol(n={n}, omega=auto, a={a}, b={b}) over {base}{suffix}"
        if cmd == "verdict":
            q = rng.choice([ell for ell in (2, 3, 5, 7) if n % ell == 0])
            return ["verdict", "--algebra", text, "--q", str(q)]
        return ["classify", "--algebra", text]

    def describe_input(self, ctx, cls, param):
        return json.dumps(self.argv(cls, param))

    def run(self, ctx, cls, inp):
        argv = inp[1]
        out, code = io.StringIO(), None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = ctx["lib"]["cli"].main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # an uncaught exception is a traceback and exit 1
                code = 1
                out.write(f"traceback: {type(exc).__name__}")
        text = out.getvalue()
        try:
            payload = json.loads(text)
        except ValueError:
            payload = None
        if cls == "malformed":
            if code != 2 or not isinstance(payload, dict) or "error" not in payload:
                json_part = "a" if isinstance(payload, dict) else "no"
                raise JobFailure(f"exit {code} and {json_part} JSON object; expected exit 2 with a JSON error")
        elif code != 0 or not isinstance(payload, dict) or "error" in payload:
            raise JobFailure(f"exit {code} on a well-formed request")
        return [code, text]


WORKLOADS = {w.name: w for w in (WitnessTower(), NormsDegree(), SeriesPrecision(), CliRequests())}
