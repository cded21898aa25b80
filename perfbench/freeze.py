#!/usr/bin/env python3
"""Freeze the reference digest of every job in the workload catalogs.

    python3 perfbench/freeze.py [--workload NAME ...]

Each job of each class and parameter runs once; its digest entry in
perfbench/reference.json is `ok:<digest>` or, if it fails at the frozen
commit, `fail:<reason>`.  The file also keeps each class's parameters in
order of their job time, which the plans use to balance cheap and dear jobs.
Re-freezing is only right when the library's intended output changes; a
speed change must reproduce every digest.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.run import execute  # noqa: E402
from perfbench.workloads import REFERENCE, WORKLOADS, fresh_import  # noqa: E402


def freeze(name):
    wl = WORKLOADS[name]
    ctx = wl.setup(fresh_import())
    entries, times = {}, defaultdict(list)
    for cls, param in wl.catalog():
        seconds, status, value, _ = execute(wl, ctx, cls, param)
        entries[f"{cls}/{param}"] = f"{status}:{value}"
        times[cls].append((seconds, param))
        if status == "fail":
            print(f"  {name} {cls}/{param} fails: {value}", flush=True)
    for cls, rows in times.items():
        ts = [t for t, _ in rows]
        print(f"{name:17s} {cls:18s} mean {statistics.mean(ts) * 1000:9.2f} ms"
              f"  median {statistics.median(ts) * 1000:9.2f} ms  max {max(ts) * 1000:9.2f} ms", flush=True)
    order = {cls: [p for _, p in sorted(rows)] for cls, rows in times.items()}
    return {"digests": entries, "cost_order": order}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    try:
        with open(REFERENCE) as fh:
            reference = json.load(fh)
    except FileNotFoundError:
        reference = {}
    for name in args.workload or list(WORKLOADS):
        reference[name] = freeze(name)
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
