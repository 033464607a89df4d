"""Run every workload over seeds 1-10 and write BENCH_<label>.json.

    python3 perfbench/record.py --label baseline

For each workload, run.py runs once per seed with --trace 0 and then on
the first TRACE_SEEDS seeds with --trace 1, each for the run_seconds of
BENCHMARK.json. The output holds the environment, every run's metrics,
receiver quality and failures, and per workload and end-to-end metric the
median, the quartiles and the spread (q3 - q1) / median next to the
metric's bound. A metric is steady when its spread is below a third of its
bound. The record fails when a run is not correct or when the traced and
untraced runs of one seed report different receiver quality. Per-run
results files go to .perfbench_out/record-<label>/.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from micro import quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))
TRACE_SEEDS = 2          # the first seeds, which also run --trace 1


def run_once(spec, workload, seed, trace, results: Path) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
           "--trace", str(trace), "--results", str(results)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    sys.stderr.write(proc.stderr)
    if not results.is_file():
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited "
                           f"{proc.returncode} without a results file")
    report = json.loads(results.read_text())
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"workload": workload, "seed": seed, "trace": trace,
            "exit_code": proc.returncode, "correct": last["correct"],
            "attempted": last["attempted"], "failed": last["failed"],
            "metrics": {k: v["value"] for k, v in last["metrics"].items()},
            "quality": report["quality"], "failures": report["failures"],
            "environment": report["environment"]}


def spread_table(spec, runs) -> dict:
    table = {}
    for workload in sorted({r["workload"] for r in runs}):
        rows = [r for r in runs if r["workload"] == workload
                and r["trace"] == 0]
        table[workload] = {}
        for m in spec["end_to_end"]:
            values = sorted(r["metrics"][m["name"]] for r in rows)
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med
            table[workload][m["name"]] = {
                "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": spread, "bound": m["bound"],
                "steady": spread < m["bound"] / 3, "runs": len(values)}
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    scratch = ROOT / ".perfbench_out" / f"record-{args.label}"
    scratch.mkdir(parents=True, exist_ok=True)

    runs = []
    for workload in workloads:
        plan = [(s, 0) for s in SEEDS] + [(s, 1) for s in SEEDS[:TRACE_SEEDS]]
        for seed, trace in plan:
            results = scratch / f"{workload}-seed{seed}-trace{trace}.json"
            run = run_once(spec, workload, seed, trace, results)
            runs.append(run)
            print(f"{workload:13s} seed {seed:4d} trace {trace} "
                  f"correct={run['correct']} failed={run['failed']}/"
                  f"{run['attempted']} quality={run['quality']}",
                  flush=True)

    table = spread_table(spec, runs)
    for workload, metrics in table.items():
        for name, row in metrics.items():
            print(f"{workload:13s} {name:12s} median {row['median']:.5g} "
                  f"{row['unit']}  spread {row['spread']:.4f} "
                  f"(bound {row['bound']}) "
                  f"{'steady' if row['steady'] else 'NOT STEADY'}")
    quality = {}
    for run in runs:
        quality.setdefault((run["workload"], run["seed"]), []).append(
            run["quality"])
    mismatched = [key for key, seen in quality.items()
                  if any(q != seen[0] for q in seen)]
    for workload, seed in mismatched:
        print(f"{workload} seed {seed}: traced and untraced receiver "
              "quality differ")
    out = HERE / f"BENCH_{args.label}.json"
    environment = dict(runs[0]["environment"])
    environment.pop("seed")
    for run in runs:
        del run["environment"]
    out.write_text(json.dumps({
        "schema": "perfbench-bench v1", "label": args.label,
        "environment": environment, "seeds": SEEDS,
        "run_seconds": spec["run_seconds"], "summary": table,
        "quality_mismatches": mismatched, "runs": runs}, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if all(r["correct"] for r in runs) and not mismatched else 1


if __name__ == "__main__":
    sys.exit(main())
