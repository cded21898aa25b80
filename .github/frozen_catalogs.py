"""Run every frozen job of the named benchmark workloads and compare digests.

    python .github/frozen_catalogs.py witness_tower norms_degree

Each catalog job of each named workload runs once, in catalog order, and
its digest must equal perfbench/reference.json, which is read, never
written.  A job frozen as a failure is listed as still failing or now
passing, not compared.  Each workload's catalog wall seconds go to the
GitHub step summary when there is one, so that a run's page shows where
catalog time moved.  Exits 1 on any mismatch.  Needs only the standard
library.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.run import execute  # noqa: E402
from perfbench.workloads import WORKLOADS, fresh_import, load_reference  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="+", choices=sorted(WORKLOADS), metavar="workload")
    names = parser.parse_args(argv).workloads
    reference, mismatches, walls = load_reference(), [], []
    for name in names:
        wl = WORKLOADS[name]
        ctx, frozen = wl.setup(fresh_import()), reference[name]["digests"]
        outcome = {"ok": 0, "still_failing": [], "now_passing": []}
        started = time.perf_counter()
        for cls, param in wl.catalog():
            key = f"{cls}/{param}"
            _seconds, status, value, _ = execute(wl, ctx, cls, param)
            if frozen[key].startswith("fail:"):
                outcome["now_passing" if status == "ok" else "still_failing"].append(key)
            elif f"{status}:{value}" == frozen[key]:
                outcome["ok"] += 1
            else:
                mismatches.append(f"{name} {key}: {status}:{value}")
        walls.append(f"| `{name}` | {time.perf_counter() - started:.2f} |")
        print(name, outcome)
    print("mismatches:", mismatches)
    if os.environ.get("GITHUB_STEP_SUMMARY"):
        with open(os.environ["GITHUB_STEP_SUMMARY"], "a") as summary:
            print("| catalog | wall seconds |", "|---|---|", *walls, sep="\n", file=summary)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
