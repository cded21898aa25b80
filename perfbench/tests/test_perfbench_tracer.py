"""The outside-in tracer: restoration, unchanged results, coverage of the layer table."""

import inspect
import itertools

import pytest

from perfbench import tracer as tracing
from perfbench.run import run_jobs
from perfbench.workloads import WORKLOADS, fresh_import

# Layer metrics that must be nonzero on the workload that should move them.
SHOULD_MOVE = {
    "witness_tower": [
        "laurent.mul.L1.calls", "laurent.mul.L1.self_ms", "laurent.mul.L2.calls",
        "laurent.mul.L2.self_ms", "laurent.mul.pair_useful_ratio", "fields.mul.calls",
        "fields.field_eq.calls", "symbol.inv.repeat_ratio", "sk1.hilbert90.attempts",
        "sk1.witness_verify.self_ms",
    ],
    "series_precision": [
        "laurent.inv.calls", "laurent.inv.self_ms", "laurent.hensel.calls",
        "laurent.hensel.self_ms", "laurent.hensel.inv_per_call", "laurent.twisted.self_ms",
        "fields.inv.calls",
    ],
    "norms_degree": [
        "symbol.prd.calls", "symbol.prd.self_ms", "symbol.nrd.calls", "symbol.nrd.self_ms",
        "symbol.mul.self_ms", "sk1.skolem_noether.self_ms", "sk1.skolem_noether.attempts",
    ],
    "cli_requests": [
        "fields.roots.calls", "fields.roots.self_ms", "fields.sqrt.self_ms",
        "fields.extension.self_ms", "grammar.parse.self_ms", "grammar.print.self_ms",
        "ordered.lattice.self_ms", "profiles.cd.self_ms", "cli.self_ms", "sk1.verdict.self_ms",
    ],
}

# A cheap job list per workload that still reaches every layer in SHOULD_MOVE.
SMOKE = {
    "witness_tower": [("n3-bxy-p10", 0), ("n3-axy-p8", 1)],
    "series_precision": [
        ("inv-F7-64", 0), ("inv-E-64", 0), ("sqrt-F7-64", 0), ("nonsq-F7-64", 0),
        ("twisted-F9-64", 0),
    ],
    "norms_degree": [("nrd-n4-F5", 0), ("nrd-n5-F11", 0), ("sn-n4-F5", 0)],
    "cli_requests": list(itertools.islice(WORKLOADS["cli_requests"].plan(0), 57)),
}


def bindings(lib):
    """Every module- and class-level binding of the library, by identity."""
    out = {}
    for mod_name, mod in lib.items():
        for attr, value in vars(mod).items():
            out[(mod_name, attr)] = value
            if inspect.isclass(value) and value.__module__.startswith("valdiv"):
                for cattr, cvalue in vars(value).items():
                    out[(mod_name, attr, cattr)] = cvalue
    return out


@pytest.fixture(scope="module")
def traced():
    """Each smoke list run traced, then untraced on the same jobs."""
    out = {}
    for name, jobs in SMOKE.items():
        wl = WORKLOADS[name]
        lib = fresh_import()
        ctx = wl.setup(lib)
        tracer = tracing.Tracer(lib)
        with tracer:
            records, _, _ = run_jobs(wl, ctx, jobs, tracer=tracer)
        plain, _, _ = run_jobs(wl, ctx, jobs)
        out[name] = (tracer, records, plain)
    return out


def test_every_wrapped_binding_is_restored():
    lib = fresh_import()
    before = bindings(lib)
    tracer = tracing.Tracer(lib)
    with tracer:
        for mod, attr in [
            ("pipeline", "decompose_norm_one"),
            ("symbol", "unit_is_square"),
            ("cli", "sk1_witness_batch"),
            ("__init__", "sk1_witness_batch"),
        ]:
            assert hasattr(getattr(lib[mod], attr), "__wrapped__"), (mod, attr)
        assert hasattr(vars(lib["fields"].FieldElement)["__rmul__"], "__wrapped__")
        assert isinstance(vars(lib["ordered"].Lattice)["from_generators"], staticmethod)
        assert len(tracer.patches) > 100
        wl = WORKLOADS["witness_tower"]
        run_jobs(wl, wl.setup(lib), [("n3-bxy-p10", 0)], tracer=tracer)
    after = bindings(lib)
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert changed == []


def test_traced_run_gives_untraced_digests(traced):
    for name, (_, records, plain) in traced.items():
        assert [r[:1] + r[2:4] for r in records] == [r[:1] + r[2:4] for r in plain], name


def test_layer_metrics_move_on_their_workload(traced):
    for name, metric_names in SHOULD_MOVE.items():
        tracer, records, _ = traced[name]
        metrics = tracer.layer_metrics(len(records))
        assert set(metrics) == set(tracing.LAYER_METRICS) - {"trace.overhead_ratio"}
        zero = [m for m in metric_names if not metrics[m] > 0]
        assert zero == [], name


def test_self_times_are_nonnegative_and_within_job_wall_time(traced):
    for name, (tracer, records, _) in traced.items():
        assert all(v >= 0 for v in tracer.self_s.values()), name
        for key, seconds, status, _value, self_s in records:
            if status == "ok":
                assert 0 <= self_s <= seconds, (name, key)
