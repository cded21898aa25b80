"""Outside-in tracer: wraps public callables of the valdiv modules, then restores them.

Spans are aggregated in memory as they close: per span name, the number of
calls and the self time (span duration minus the time covered by its child
spans).  Field element operations are only counted, because a span around
each of them would cost more than the operation.  The tracer's own
bookkeeping is charged to no span: a parent receives the full interval of a
child, bookkeeping included, so it never shows up as the parent's self time.
"""

from __future__ import annotations

import inspect
import time
from bisect import bisect_left
from collections import defaultdict

_now = time.perf_counter

# Hot module-level helpers that get neither a span nor a count.
_UNWRAPPED = {"poly_trim", "poly_gcd", "poly_eval"}

# (module, qualified name) -> span name.  Everything else that is public and
# module-level in one of the modules below gets a span named "<module>.other",
# so that layer shares account for all library time.
_SPANS = {
    ("fields", "primitive_root_of_unity"): "fields.roots",
    ("fields", "has_order"): "fields.roots",
    ("fields", "sqrt"): "fields.sqrt",
    ("fields", "is_square"): "fields.sqrt",
    ("fields", "ExtensionField.__init__"): "fields.extension",
    ("laurent", "LaurentSeries.__mul__"): None,  # named by nesting level
    ("laurent", "LaurentSeries.inv"): "laurent.inv",
    ("laurent", "LaurentSeries.__add__"): "laurent.add",
    ("laurent", "hensel_sqrt"): "laurent.hensel",
    ("laurent", "TwistedSeries.__mul__"): "laurent.twisted",
    ("laurent", "TwistedSeries.__add__"): "laurent.twisted",
    ("laurent", "TwistedSeries.inv"): "laurent.twisted",
    ("symbol", "AlgebraElement.__mul__"): "symbol.mul",
    ("symbol", "AlgebraElement.nrd"): "symbol.nrd",
    ("symbol", "AlgebraElement.prd"): "symbol.prd",
    ("symbol", "AlgebraElement.inv"): "symbol.inv",
    ("symbol", "SymbolAlgebra.verify_splitting_relations"): "symbol.split_verify",
    ("symbol", "SymbolAlgebra.classify"): "symbol.classify",
    ("sk1", "decompose_norm_one"): "sk1.decompose",
    ("sk1", "hilbert90_decompose"): "sk1.hilbert90",
    ("sk1", "skolem_noether_conjugator"): "sk1.skolem_noether",
    ("sk1", "certify_norm_one"): "sk1.certify",
    ("sk1", "CommutatorWitness.verify"): "sk1.witness_verify",
    ("sk1", "verdict"): "sk1.verdict",
    ("cli", "main"): "cli",
}

# Counted, not spanned.
_COUNTS = {
    ("fields", "FieldElement.__mul__"): "fields.mul",
    ("fields", "FieldElement.__add__"): "fields.add",
    ("fields", "FieldElement.inv"): "fields.inv",
    ("fields", "PrimeField.__eq__"): "fields.field_eq",
    ("fields", "ExtensionField.__eq__"): "fields.field_eq",
    ("fields", "RationalField.__eq__"): "fields.field_eq",
    ("laurent", "TowerElement.__mul__"): "laurent.tower_mul",
}

# Modules whose public classes get every public method spanned as well.
_COARSE_CLASS_MODULES = {"ordered", "profiles", "graded", "sk1"}

_MODULE_LAYER = {
    "ordered": "ordered.lattice",
    "profiles": "profiles.cd",
    "graded": "graded",
    "pipeline": "pipeline",
    "cli": "cli",
}

MODULES = (
    "fields", "laurent", "ordered", "profiles", "symbol", "graded", "sk1",
    "grammar", "pipeline", "cli",
)

# Per-layer metrics in report order: name -> (unit, better).
LAYER_METRICS = {}
for _m in ("mul", "add", "inv", "field_eq", "roots"):
    LAYER_METRICS[f"fields.{_m}.calls"] = ("count/job", "lower")
for _m in ("roots", "sqrt", "extension"):
    LAYER_METRICS[f"fields.{_m}.self_ms"] = ("ms/job", "lower")
for _lvl in ("L1", "L2", "L3"):
    LAYER_METRICS[f"laurent.mul.{_lvl}.calls"] = ("count/job", "lower")
    LAYER_METRICS[f"laurent.mul.{_lvl}.self_ms"] = ("ms/job", "lower")
LAYER_METRICS.update({
    "laurent.mul.pair_useful_ratio": ("ratio", "higher"),
    "laurent.inv.calls": ("count/job", "lower"),
    "laurent.inv.self_ms": ("ms/job", "lower"),
    "laurent.add.self_ms": ("ms/job", "lower"),
    "laurent.tower_mul.calls": ("count/job", "lower"),
    "laurent.hensel.calls": ("count/job", "lower"),
    "laurent.hensel.self_ms": ("ms/job", "lower"),
    "laurent.hensel.inv_per_call": ("count/call", "lower"),
    "laurent.twisted.self_ms": ("ms/job", "lower"),
})
for _m in ("mul", "nrd", "prd", "inv"):
    LAYER_METRICS[f"symbol.{_m}.calls"] = ("count/job", "lower")
    LAYER_METRICS[f"symbol.{_m}.self_ms"] = ("ms/job", "lower")
LAYER_METRICS.update({
    "symbol.inv.repeat_ratio": ("ratio", "lower"),
    "symbol.split_verify.self_ms": ("ms/job", "lower"),
    "symbol.classify.self_ms": ("ms/job", "lower"),
    "sk1.decompose.self_ms": ("ms/job", "lower"),
    "sk1.hilbert90.calls": ("count/job", "lower"),
    "sk1.hilbert90.attempts": ("count/job", "lower"),
    "sk1.skolem_noether.self_ms": ("ms/job", "lower"),
    "sk1.skolem_noether.attempts": ("count/job", "lower"),
    "sk1.certify.self_ms": ("ms/job", "lower"),
    "sk1.witness_verify.self_ms": ("ms/job", "lower"),
    "sk1.verdict.self_ms": ("ms/job", "lower"),
    "ordered.lattice.self_ms": ("ms/job", "lower"),
    "grammar.parse.self_ms": ("ms/job", "lower"),
    "grammar.print.self_ms": ("ms/job", "lower"),
    "profiles.cd.self_ms": ("ms/job", "lower"),
    "graded.self_ms": ("ms/job", "lower"),
    "pipeline.self_ms": ("ms/job", "lower"),
    "cli.self_ms": ("ms/job", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
})


def _series_level(series) -> str:
    level = 1
    ring = series.ring.coeff_ring
    while hasattr(ring, "coeff_ring"):
        level += 1
        ring = ring.coeff_ring
    return f"laurent.mul.L{level}"


def _value_key(element) -> str:
    """Value identity of an algebra element: coefficients and windows."""
    return repr(sorted((kl, str(c)) for kl, c in element.coeffs.items()))


class Tracer:
    """Installs spans and counters on the valdiv modules; `restore` undoes it."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.stack: list[list[float]] = []
        self.names: list[str] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.pairs_attempted = 0
        self.pairs_useful = 0
        self.hensel_depth = 0
        self.hensel_inv = 0
        self.inverted: set[str] = set()
        self.inv_repeats = 0
        self.patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def _span(self, fn, name, hooks=None):
        stack, names, self_s, calls = self.stack, self.names, self.self_s, self.calls
        fixed = name

        def wrapper(*args, **kwargs):
            t_in = _now()
            span = fixed if fixed is not None else _series_level(args[0])
            if hooks is not None:
                args, kwargs = hooks.enter(args, kwargs, names[-1] if names else None)
            frame = [0.0]
            stack.append(frame)
            names.append(span)
            t0 = _now()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = _now()
                stack.pop()
                names.pop()
                self_s[span] += (t1 - t0) - frame[0]
                calls[span] += 1
                if hooks is not None:
                    hooks.leave(args, result)
                if stack:
                    stack[-1][0] += _now() - t_in

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, fn, name):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def job(self):
        """Context for one job: the root frame its top-level spans report to."""
        return _JobFrame(self)

    # -- installation ------------------------------------------------------

    def install(self):
        replacements: dict[int, object] = {}
        for mod_name in MODULES:
            mod = self.modules[mod_name]
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == mod.__name__:
                    if attr in _UNWRAPPED:
                        continue
                    new = self._wrap(mod_name, attr, value)
                    self._patch(mod, attr, value, new)
                    replacements[id(value)] = new
                elif inspect.isclass(value) and value.__module__ == mod.__name__:
                    self._install_class(mod_name, value)
        # re-exported bindings: `from .x import f` copies the function object
        package = self.modules["__init__"]
        for mod in [package] + [self.modules[m] for m in MODULES]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and id(value) in replacements:
                    if value.__module__ != mod.__name__:
                        self._patch(mod, attr, value, replacements[id(value)])

    def _install_class(self, mod_name, cls):
        coarse = mod_name in _COARSE_CLASS_MODULES
        seen: dict[int, object] = {}
        for attr, raw in list(vars(cls).items()):
            func = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
            if not inspect.isfunction(func):
                continue
            key = (mod_name, f"{cls.__name__}.{func.__name__}")
            if key in _SPANS or key in _COUNTS:
                new = seen.get(id(func)) or self._wrap(mod_name, key[1], func)
            elif coarse and not attr.startswith("_"):
                new = seen.get(id(func)) or self._span(func, self._layer(mod_name, attr))
            else:
                continue
            seen[id(func)] = new  # aliases such as __rmul__ = __mul__
            if isinstance(raw, staticmethod):
                new_raw = staticmethod(new)
            elif isinstance(raw, classmethod):
                new_raw = classmethod(new)
            else:
                new_raw = new
            self._patch(cls, attr, raw, new_raw)

    def _layer(self, mod_name, attr):
        if mod_name in _MODULE_LAYER:
            return _MODULE_LAYER[mod_name]
        if mod_name == "grammar":
            if attr.startswith("parse_"):
                return "grammar.parse"
            if attr.startswith("print_"):
                return "grammar.print"
        return f"{mod_name}.other"

    def _wrap(self, mod_name, qualname, func):
        key = (mod_name, qualname)
        if key in _COUNTS:
            return self._count(func, _COUNTS[key])
        name = _SPANS.get(key, self._layer(mod_name, qualname.split(".")[-1]))
        hooks = {
            "LaurentSeries.__mul__": _MulHooks,
            "LaurentSeries.inv": _SeriesInvHooks,
            "hensel_sqrt": _HenselHooks,
            "AlgebraElement.inv": _AlgebraInvHooks,
            "AlgebraElement.nrd": _NrdHooks,
            "hilbert90_decompose": _Hilbert90Hooks,
        }.get(qualname)
        return self._span(func, name, hooks(self) if hooks else None)

    def _patch(self, owner, attr, old, new):
        setattr(owner, attr, new)
        self.patches.append((owner, attr, old))

    def restore(self):
        while self.patches:
            owner, attr, old = self.patches.pop()
            setattr(owner, attr, old)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- report --------------------------------------------------------------

    def layer_metrics(self, jobs: int) -> dict[str, float]:
        """Per-job work counts and self times, plus the ratios."""
        per_job = 1.0 / max(1, jobs)
        calls, self_s = self.calls, self.self_s
        out = {}
        for name in LAYER_METRICS:
            base, _, kind = name.rpartition(".")
            if kind in ("calls", "attempts"):
                out[name] = calls.get(base if kind == "calls" else name, 0) * per_job
            elif kind == "self_ms":
                out[name] = self_s.get(base, 0.0) * 1000.0 * per_job
        out["laurent.mul.pair_useful_ratio"] = (
            self.pairs_useful / self.pairs_attempted if self.pairs_attempted else 0.0
        )
        hensel_calls = calls.get("laurent.hensel", 0)
        out["laurent.hensel.inv_per_call"] = (
            self.hensel_inv / hensel_calls if hensel_calls else 0.0
        )
        inversions = calls.get("symbol.inv", 0)
        out["symbol.inv.repeat_ratio"] = (
            self.inv_repeats / inversions if inversions else 0.0
        )
        return out

    def layer_shares(self) -> dict[str, float]:
        """Share of all traced self time per module."""
        totals: dict[str, float] = defaultdict(float)
        for name, seconds in self.self_s.items():
            totals[name.split(".")[0]] += seconds
        whole = sum(totals.values()) or 1.0
        return {k: v / whole for k, v in sorted(totals.items(), key=lambda kv: -kv[1])}

    def total_self_s(self) -> float:
        return sum(self.self_s.values())


class _JobFrame:
    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def __enter__(self):
        self.tracer.inverted.clear()
        self.frame = [0.0]
        self.tracer.stack.append(self.frame)
        self.tracer.names.append("job")
        return self

    def __exit__(self, *exc):
        self.tracer.stack.pop()
        self.tracer.names.pop()
        return False


class _Hooks:
    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def enter(self, args, kwargs, parent):
        return args, kwargs

    def leave(self, args, result):
        pass


class _MulHooks(_Hooks):
    """Coefficient pairs below the product's bound versus pairs visited."""

    def leave(self, args, result):
        a, b = args
        if result is None or a.is_zero() or b.is_zero():
            return
        attempted = len(a.coeffs) * len(b.coeffs)
        self.tracer.pairs_attempted += attempted
        bound = result.bound
        if bound is None:
            self.tracer.pairs_useful += attempted
            return
        exps = sorted(b.coeffs)
        self.tracer.pairs_useful += sum(bisect_left(exps, bound - e) for e in a.coeffs)


class _SeriesInvHooks(_Hooks):
    def enter(self, args, kwargs, parent):
        if self.tracer.hensel_depth:
            self.tracer.hensel_inv += 1
        return args, kwargs


class _HenselHooks(_Hooks):
    def enter(self, args, kwargs, parent):
        self.tracer.hensel_depth += 1
        return args, kwargs

    def leave(self, args, result):
        self.tracer.hensel_depth -= 1


class _AlgebraInvHooks(_Hooks):
    def enter(self, args, kwargs, parent):
        key = _value_key(args[0])
        if key in self.tracer.inverted:
            self.tracer.inv_repeats += 1
        else:
            self.tracer.inverted.add(key)
        return args, kwargs


class _NrdHooks(_Hooks):
    """A Skolem-Noether attempt that reaches a candidate computes its norm once."""

    def enter(self, args, kwargs, parent):
        if parent == "sk1.skolem_noether":
            self.tracer.calls["sk1.skolem_noether.attempts"] += 1
        return args, kwargs


class _Hilbert90Hooks(_Hooks):
    """Counts retries by wrapping the `sample` argument."""

    def enter(self, args, kwargs, parent):
        calls = self.tracer.calls

        def counted(sample):
            def draw(attempt):
                calls["sk1.hilbert90.attempts"] += 1
                return sample(attempt)

            return draw

        if "sample" in kwargs:
            kwargs = dict(kwargs, sample=counted(kwargs["sample"]))
        else:
            args = args[:3] + (counted(args[3]),) + args[4:]
        return args, kwargs
