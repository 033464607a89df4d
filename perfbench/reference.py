"""Write quality_ref.json: the receiver quality of each workload at seeds
0-99, which run.py checks every study call against.

    python3 perfbench/reference.py

Runs one untraced study call per workload and seed and writes the receiver
quality of each to quality_ref.json. Re-run it only when a change to the
program is meant to change receiver quality, and say so where the change
is recorded.
"""

from __future__ import annotations

import json
import os
import sys

from run import HERE, OUT, QUALITY_REF, SRC, quality, run_study
from workloads import WORKLOADS

SEEDS = range(100)


def main() -> int:
    sys.path.insert(0, str(SRC))
    from plasmalink import bench

    work = OUT / "work" / f"reference-{os.getpid()}"
    measured = {}
    for workload in WORKLOADS:
        measured[workload] = {}
        for seed in SEEDS:
            call = run_study(bench, workload, seed, work / workload)
            if call.failures:
                print(f"{workload} seed {seed}: {call.failures}",
                      file=sys.stderr)
                return 1
            measured[workload][str(seed)] = quality(call)
            print(workload, seed, measured[workload][str(seed)], flush=True)
    QUALITY_REF.write_text(json.dumps(measured, indent=1, sort_keys=True)
                           + "\n")
    print(f"wrote {QUALITY_REF.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
