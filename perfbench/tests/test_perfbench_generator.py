"""The seeded generator, and agreement of BENCHMARK.json with what the runner reports."""

import hashlib
import itertools
import json
import os

import pytest

from perfbench import tracer as tracing
from perfbench.run import END_TO_END, ROOT
from perfbench.workloads import WORKLOADS, fresh_import, load_reference


@pytest.fixture(scope="module")
def contexts():
    lib = fresh_import()
    return {name: wl.setup(lib) for name, wl in WORKLOADS.items()}


def input_digest(wl, ctx, seed, jobs=40):
    h = hashlib.sha256()
    for cls, param in itertools.islice(wl.plan(seed), jobs):
        h.update(wl.describe_input(ctx, cls, param).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(contexts, name):
    wl, ctx = WORKLOADS[name], contexts[name]
    assert input_digest(wl, ctx, 7) == input_digest(wl, ctx, 7)
    assert input_digest(wl, ctx, 7) != input_digest(wl, ctx, 8)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_no_workload_identity_reaches_the_library(contexts, name):
    wl, ctx = WORKLOADS[name], contexts[name]
    for cls, param in itertools.islice(wl.plan(3), 40):
        text = wl.describe_input(ctx, cls, param)
        assert all(other not in text for other in WORKLOADS)
        # the input is a function of the job name alone, not of the run seed
        assert text == wl.describe_input(ctx, cls, param)


def test_every_catalog_job_has_a_frozen_reference():
    reference = load_reference()
    for name, wl in WORKLOADS.items():
        assert {f"{c}/{p}" for c, p in wl.catalog()} == set(reference[name]["digests"]), name


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == (
        tracing.LAYER_METRICS
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_plans_leave_out_the_jobs_that_fail_at_the_freezing_commit(name):
    wl = WORKLOADS[name]
    known = wl.known_failures()
    for seed in range(5):
        drawn = {f"{cls}/{param}" for cls, param in itertools.islice(wl.plan(seed), 400)}
        assert not drawn & known
