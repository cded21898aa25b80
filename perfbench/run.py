#!/usr/bin/env python3
"""Run one benchmark workload against the valdiv sources of this checkout.

    python3 perfbench/run.py --workload witness_tower --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 20          # every workload, untraced

One client runs jobs closed-loop in this process for `--seconds` of job
time at nominal machine speed (see `Speedometer`).  With
`--trace 0` the last line of stdout is a JSON object with the end-to-end
metrics; with `--trace 1` it carries the per-layer metrics of a traced pass
and `trace.overhead_ratio`.  The line before it is the run record: machine,
Python, commit, seed and the unit and direction of every metric.
"""

from __future__ import annotations

import argparse
import bisect
import collections
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, ROOT]

from perfbench import tracer as tracing  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    JobFailure,
    digest,
    fresh_import,
    load_reference,
)

SETUP_RUNS = 7
SETUP_PROBES = 20
TAIL_PERCENTILE = 90
PROBE_SHARE = 0.03
PROBE_NOMINAL_S = 0.001
PROBE_STEPS = 7000
WALL_CAP = 1.3
PROBE_WINDOW = 40

END_TO_END = {
    "setup_s": ("s", "lower"),
    "job_p50_ms": ("ms", "lower"),
    "job_tail_ms": ("ms", "lower"),
    "jobs_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

_now = time.perf_counter


def execute(wl, ctx, cls, param, tracer=None):
    """One job: (seconds, status, digest or failure reason, traced self seconds)."""
    before = tracer.total_self_s() if tracer else 0.0
    t0 = _now()
    try:
        if tracer:
            with tracer.job():
                out = wl.run(ctx, cls, wl.make_input(ctx, cls, param))
        else:
            out = wl.run(ctx, cls, wl.make_input(ctx, cls, param))
    except JobFailure as exc:
        return _now() - t0, "fail", f"JobFailure: {exc.args[0]}", 0.0
    except Exception as exc:  # a raising job is a failed job, not a failed run
        return _now() - t0, "fail", type(exc).__name__, 0.0
    seconds = _now() - t0
    traced = tracer.total_self_s() - before if tracer else 0.0
    return seconds, "ok", digest(out), traced


def probe():
    """Seconds for a fixed piece of interpreter work, about 1 ms at nominal speed.

    The machine's speed drifts with the load of other tenants; the same
    work has been seen to take anywhere from 0.7x to 2x its usual time.  The
    library is pure Python, so its job times drift with the probe.  The probe
    walks a dict, as the library does, but allocates no tracked objects, so
    it never pays for a garbage collection that the jobs' garbage set off.
    """
    table = _PROBE_TABLE
    t0 = _now()
    x = 3
    for k in range(PROBE_STEPS):
        x = (table[(x + k) & 4095] * 31 + k) % 10007
    return _now() - t0


_PROBE_TABLE = {k: k * 7919 % 10007 for k in range(4096)}


class Speedometer:
    """Speed probes between the jobs, taking PROBE_SHARE of the elapsed time.

    `factor(at)` is how many times slower than nominal the machine ran near
    time `at`: the mean of the PROBE_WINDOW probes closest to it.
    """

    def __init__(self):
        self.start = _now()
        self.when: list[float] = []
        self.took: list[float] = []
        self.probed = 0.0
        for _ in range(PROBE_WINDOW):
            self._probe()

    def _probe(self):
        seconds = probe()
        self.when.append(_now())
        self.took.append(seconds)
        self.probed += seconds

    def between_jobs(self):
        while self.probed < PROBE_SHARE * (_now() - self.start):
            self._probe()

    def factor(self, at=None):
        at = self.when[-1] if at is None else at
        hi = min(len(self.took), max(PROBE_WINDOW, bisect.bisect(self.when, at) + PROBE_WINDOW // 2))
        return statistics.fmean(self.took[hi - PROBE_WINDOW:hi]) / PROBE_NOMINAL_S


def run_jobs(wl, ctx, jobs, seconds=None, tracer=None, meter=None):
    """Closed loop over `jobs` until they run out or `seconds` have passed.

    With a Speedometer, `seconds` counts job time at nominal speed, so that
    the same code runs about the same jobs however loaded the machine is; the
    wall time stays below WALL_CAP times `seconds`.  Returns the job records,
    the wall time, and each job's time at nominal speed (or as measured,
    without a Speedometer).
    """
    records, starts = [], []
    start = _now()
    busy = 0.0
    for cls, param in jobs:
        if meter:
            meter.between_jobs()
        starts.append(_now())
        records.append((f"{cls}/{param}",) + execute(wl, ctx, cls, param, tracer))
        elapsed = _now() - start
        if meter:
            busy += records[-1][1] / meter.factor()
            if busy >= seconds or elapsed >= WALL_CAP * seconds:
                break
        elif seconds is not None and elapsed >= seconds:
            break
    wall = _now() - start
    if meter:
        meter.between_jobs()
        nominal = [r[1] / meter.factor(t + r[1] / 2) for r, t in zip(records, starts)]
    else:
        nominal = [r[1] for r in records]
    return records, wall, nominal


def recheck_known_failures(wl, ctx, reference):
    """Run once, outside the timed loop, each job that failed at the freezing commit.

    Returns the jobs that still fail as frozen, fail otherwise, or now pass.
    """
    outcome = {"still_failing": [], "failing_otherwise": [], "now_passing": []}
    for key in sorted(wl.known_failures()):
        cls, param = key.rsplit("/", 1)
        _seconds, status, value, _ = execute(wl, ctx, cls, int(param))
        if status == "ok":
            outcome["now_passing"].append(key)
        elif reference[key] == f"fail:{value}":
            outcome["still_failing"].append(key)
        else:
            outcome["failing_otherwise"].append(f"{key}: {value}")
    return outcome


def tail(times, steps=10):
    """Harrell-Davis estimate of the TAIL_PERCENTILE-th percentile of job times.

    The estimate weighs every job time by the Beta((n+1)q, (n+1)(1-q))
    probability of its rank, integrated by the midpoint rule in `steps`
    pieces per rank.  With about 75 jobs in a run, as `witness_tower` has,
    that averages the few times around the percentile instead of
    interpolating between two of them; in a simulation of its plans with
    12% noise on each job time it spread about a quarter less.

    The percentile is fixed, not set by the number of jobs: a faster program
    runs more jobs in the same seconds and must be compared at the same
    percentile.
    """
    xs = sorted(times)
    n = len(xs)
    q = TAIL_PERCENTILE / 100.0
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    total = weighted = 0.0
    for i, x in enumerate(xs):
        w = 0.0
        for j in range(steps):
            u = (i + (j + 0.5) / steps) / n
            w += math.exp(log_norm + (a - 1) * math.log(u) + (b - 1) * math.log1p(-u))
        total += w
        weighted += w * x
    return weighted / total


def git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "valdiv")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(args):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "runs": 1,
        "setup_runs": SETUP_RUNS,
    }


def measure(args):
    wl = WORKLOADS[args.workload]
    setup_times, setup_factors = [], []
    for _ in range(SETUP_RUNS):
        gc.collect()  # the previous set-up's modules are garbage now
        before = [probe() for _ in range(SETUP_PROBES)]
        t0 = _now()
        lib = fresh_import()
        jobs = wl.plan(args.seed)
        ctx = wl.setup(lib)
        setup_times.append(_now() - t0)
        after = [probe() for _ in range(SETUP_PROBES)]
        setup_factors.append(statistics.fmean(before + after) / PROBE_NOMINAL_S)
    reference = load_reference()[wl.name]["digests"]

    if args.trace:
        tracer = tracing.Tracer(lib)
        with tracer:
            records, traced_wall, _ = run_jobs(wl, ctx, jobs, args.seconds / 2, tracer)
        replay = [tuple(r[0].rsplit("/", 1)) for r in records]
        replay = [(cls, int(param)) for cls, param in replay]
        plain, plain_wall, _ = run_jobs(wl, ctx, replay)
        metrics = tracer.layer_metrics(len(records))
        metrics["trace.overhead_ratio"] = 1.0 - plain_wall / traced_wall
        units = tracing.LAYER_METRICS
        same = [r[2:4] for r in records] == [r[2:4] for r in plain]
        extra = {"layer_shares": tracer.layer_shares(), "traced_digests_match": same}
    else:
        meter = Speedometer()
        records, wall, times = run_jobs(wl, ctx, jobs, args.seconds, meter=meter)
        slow = statistics.fmean(meter.took) / PROBE_NOMINAL_S
        metrics = {
            "setup_s": statistics.median(t / f for t, f in zip(setup_times, setup_factors)),
            "job_p50_ms": statistics.median(times) * 1000.0,
            "job_tail_ms": tail(times) * 1000.0,
            "jobs_per_s": len(records) / sum(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        same = True
        raw = [r[1] for r in records]
        extra = {
            "tail_percentile": TAIL_PERCENTILE,
            "speed_factor": slow,
            "probes": len(meter.took),
            "raw": {
                "setup_s": statistics.median(setup_times),
                "job_p50_ms": statistics.median(raw) * 1000.0,
                "job_tail_ms": tail(raw) * 1000.0,
                "jobs_per_s": len(records) / wall,
            },
        }

    extra["known_failures"] = recheck_known_failures(wl, ctx, reference)

    # Plans draw only jobs frozen as correct, so every failure here is new.
    failures = collections.Counter()
    for key, _seconds, status, value, _traced in records:
        if status == "fail":
            failures[f"{key}: {value}"] += 1
        elif reference[key] != f"ok:{value}":
            failures[f"{key}: digest mismatch"] += 1
    failed = sum(failures.values())
    failures = [f"{times}x {what}" for what, times in sorted(failures.items())]
    correct = same and not failed
    return wl, records, metrics, units, correct, failed, failures, extra


def report(args):
    wl, records, metrics, units, correct, failed, failures, extra = measure(args)
    attempted = len(records)
    print(
        f"workload {wl.name} seed {args.seed} trace {args.trace}: correct={correct}"
        f" attempted={attempted} failed={failed} fail_ratio={failed / attempted:.4f}"
    )
    for name, value in metrics.items():
        unit, better = units[name]
        print(f"  {name:34s} {value:14.6g} {unit:9s} ({better} is better)")
    for key, val in extra.items():
        print(f"  {key}: {json.dumps(val)}")
    for line in failures:
        print(f"  failed job {line}")
    record = environment(args)
    record.update(
        attempted=attempted,
        failed=failed,
        fail_ratio=failed / attempted,
        failed_jobs=failures,
        metrics={k: {"unit": units[k][0], "better": units[k][1]} for k in metrics},
        **extra,
    )
    print(json.dumps({"record": record}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in metrics.items()},
            }
        )
    )


def run_all(args):
    """Every workload in its own process, so peak memory is per workload."""
    for name in WORKLOADS:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-2]) if proc.returncode == 0 else proc.stderr)
        if proc.returncode:
            return proc.returncode
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    report(args)
    return 0


if __name__ == "__main__":
    if not os.path.isdir(os.path.join(SRC, "valdiv")):
        sys.stderr.write(f"no valdiv sources under {SRC}; run from a full checkout\n")
        sys.exit(2)
    sys.exit(main())
