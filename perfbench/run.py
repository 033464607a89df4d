"""plasmalink benchmark: one seeded workload, timed end to end or traced.

    python3 perfbench/run.py --workload fit-ref --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload sweep-mix --seed 1 --seconds 50 --trace 1
    python3 perfbench/run.py --workload fading-16psk --seed 1 --profile

Every run measures set-up, in batches before each study call and after
the last: fresh interpreters that import plasmalink, build the workload's
config and its channel. Then

  --trace 0  calls the workload's public study entry point
             (bench.run_ser_sweep or bench.run_fading_estimation)
             repeatedly for --seconds, untraced, and reports the
             end-to-end metrics of BENCHMARK.json;
  --trace 1  runs the per-layer microbenchmarks, then pairs of one
             untraced and one traced study call, and reports the
             per-layer metrics of BENCHMARK.json (the traced calls run
             with one worker, so every span stays in this process);
  --profile  runs one study call under cProfile (one worker) and prints
             the top functions by self and by cumulative time.

Every study call writes its CSV artifacts; their hashes must equal those
of the first call of the run. Every receiver-cell must end with status
`ok`, and the receiver quality of every call must match quality_ref.json.
All are counted in `attempted` and `failed`. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. A results file with the environment, quartiles,
receiver quality and the span breakdown goes to .perfbench_out/results/
(or --results). The program is imported from src/ of the checkout this
file sits in; without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import cProfile
import csv
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import platform
import pstats
import resource
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from micro import quartiles, run_micro
from spans import Tracer, useful_iter_ratio
from workloads import WORKLOADS, config_kwargs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 3        # timed set-ups before each study call (and one
                         # batch after the last), after one warm-up
MIN_STUDY_CALLS = 2      # untraced calls per --trace 0 run, at least
PROFILE_TOP = 30         # functions per --profile table
# Receiver quality is deterministic per seed. QUALITY_REF holds it for
# every workload at seeds 0-99 (written by reference.py); a study call at
# one of those seeds must match it to within QUALITY_TOLERANCE (absolute,
# in the metric's unit). At any other seed every quality metric must stay
# below CEILING_SHARE times the worst reference seed.
QUALITY_REF = HERE / "quality_ref.json"
QUALITY_TOLERANCE = 0.01
CEILING_SHARE = 1.1


@dataclass
class StudyCall:
    study: str
    wall_s: float
    result: object
    error: str | None
    hashes: dict
    config: object
    failures: list = field(default_factory=list)
    cells: int = 0


def median(values):
    return quartiles(values)[1]


def shown(path) -> str:
    path = Path(path).resolve()
    return str(path.relative_to(ROOT)) if path.is_relative_to(ROOT) \
        else str(path)


def environment(seed: int) -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in
                 ("name", "version", "openblas configuration")},
        "blas_threads": _openblas_threads(numpy),
        "thread_env": {v: os.environ.get(v) for v in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "system": platform.system(),
        "release": platform.release(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _openblas_threads(numpy):
    """Thread count of the OpenBLAS that NumPy loaded, or None."""
    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs"
                         / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure_setup(workload: str, seed: int, setup=None) -> dict:
    """Add SETUP_REPEATS fresh-interpreter set-ups to `setup`; the first
    batch (setup None) starts with an untimed warm-up, which fills
    __pycache__ and the file cache. Batches between the study calls spread
    the samples over the run, so their median does not hang on the
    machine's speed in its first seconds."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    if setup is None:
        setup = {"setup_s": [], "cli.import_s": [],
                 "physics.build_channel_ms": []}
        subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=120)
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        wall = perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        setup["setup_s"].append(wall)
        setup["cli.import_s"].append(probe["import_s"])
        setup["physics.build_channel_ms"].append(probe["build_channel_ms"])
    return setup


def hash_csvs(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.glob("*.csv"))}


def run_study(bench, workload, seed, out_dir: Path, serial=False,
              tracer=None) -> StudyCall:
    config = bench.ExperimentConfig(
        **config_kwargs(workload, seed, str(out_dir), serial))
    name = WORKLOADS[workload]["study"]
    study = getattr(bench, name)
    result = error = None
    t0 = perf_counter()
    try:
        if tracer is None:
            result = study(config)
        else:
            with tracer.span(f"bench.{name}"):
                result = study(config)
    except Exception as exc:  # counted as failed cells, reported below
        error = f"{type(exc).__name__}: {exc}"
    wall = perf_counter() - t0
    call = StudyCall(name, wall, result, error, hash_csvs(out_dir), config)
    check_call(call, out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    return call


def check_call(call: StudyCall, out_dir: Path) -> None:
    """Count receiver-cells and record every one that is not `ok`, and
    check that the written CSVs agree with what the study returned."""
    config = call.config
    sweep = call.study == "run_ser_sweep"
    call.cells = len(config.snr_db) * (
        len(config.pilot_intervals) * len(config.receivers) if sweep else 1)
    if call.error is not None:
        call.failures.append(f"study raised {call.error}")
        return
    if len(call.result) != call.cells:
        call.failures.append(f"{len(call.result)} result rows, "
                             f"expected {call.cells}")
    if sweep:
        rows = _read_csv(out_dir / "ser_sweep.csv")
        for rec, row in zip(call.result, rows):
            where = (f"{rec['receiver']} snr={rec['snr_db']:g} "
                     f"interval={rec['pilot_interval']}")
            if rec["status"] != "ok":
                call.failures.append(f"{where}: {rec['status']}")
                continue
            if (row["status"] != "ok"
                    or int(row["errors"]) != rec["errors"]
                    or float(row["ser"]) != rec["ser"]):
                call.failures.append(f"{where}: ser_sweep.csv row {row} "
                                     "disagrees with the returned record")
    else:
        rows = _read_csv(out_dir / "fading.csv")
        for rec in call.result:
            errs = [float(r["abs_error"]) for r in rows
                    if float(r["snr_db"]) == rec["snr_db"]]
            rmse = math.sqrt(sum(e * e for e in errs) / len(errs)) \
                if errs else float("nan")
            where = f"fading snr={rec['snr_db']:g}"
            if not math.isclose(rmse, rec["rmse"], rel_tol=1e-9):
                call.failures.append(f"{where}: rmse {rec['rmse']!r} but "
                                     f"fading.csv gives {rmse!r}")


def _read_csv(path: Path) -> list:
    with path.open(newline="") as fh:
        fh.readline()  # schema line
        return list(csv.DictReader(fh))


def quality(call: StudyCall) -> dict:
    """Receiver quality of one study call: SER per receiver aggregated over
    the workload's cells, or the mean per-SNR fading RMSE."""
    if call.result is None:
        return {}
    if call.study == "run_fading_estimation":
        rmses = [s["rmse"] for s in call.result]
        return {"fading_rmse": sum(rmses) / len(rmses)}
    totals = {}
    for rec in call.result:
        errors, symbols = totals.get(rec["receiver"], (0, 0))
        totals[rec["receiver"]] = (errors + rec["errors"],
                                   symbols + rec["payload_symbols"])
    return {f"ser.{r}": e / n for r, (e, n) in totals.items() if n}


def summary(values) -> dict:
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "samples": list(values)}


def check_quality(got: dict, workload: str, seed: int) -> list:
    """Failures of one call's receiver quality against QUALITY_REF."""
    table = json.loads(QUALITY_REF.read_text())[workload]
    if str(seed) in table:
        want = table[str(seed)]
        limits = {n: (v - QUALITY_TOLERANCE, v + QUALITY_TOLERANCE)
                  for n, v in want.items()}
        what = f"seed {seed} of {shown(QUALITY_REF)}"
    else:
        want = next(iter(table.values()))
        limits = {n: (0.0, CEILING_SHARE * max(r[n] for r in table.values()))
                  for n in want}
        what = f"{CEILING_SHARE} x the worst seed of {shown(QUALITY_REF)}"
    if set(got) != set(want):
        return [f"quality metrics {sorted(got)}, expected {sorted(want)}"]
    return [f"{n} {got[n]:.6g} outside [{lo:.6g}, {hi:.6g}] ({what})"
            for n, (lo, hi) in limits.items()
            if not lo <= got[n] <= hi]


def account(calls, label, workload, seed):
    """(attempted, failures) of study calls: their receiver-cells and their
    quality, plus each call after the first, compared with the first call's
    CSV hashes."""
    attempted, failures = 0, []
    first = calls[0].hashes
    for i, call in enumerate(calls):
        attempted += call.cells
        failures += [f"{label(i)}: {f}" for f in call.failures]
        if call.result is not None:
            attempted += 1
            failures += [f"{label(i)}: {f}" for f in
                         check_quality(quality(call), workload, seed)]
        if i:
            attempted += 1
            differ = sorted(n for n in set(first) | set(call.hashes)
                            if first.get(n) != call.hashes.get(n))
            if differ:
                failures.append(f"{label(i)}: CSV artifacts differ from the "
                                f"first call: {differ}")
    return attempted, failures


def end_to_end(args, bench, work: Path, report: dict):
    setup = measure_setup(args.workload, args.seed)
    calls = []
    start = perf_counter()
    while True:
        call = run_study(bench, args.workload, args.seed,
                         work / f"call{len(calls)}")
        calls.append(call)
        elapsed = perf_counter() - start
        if len(calls) >= MIN_STUDY_CALLS and elapsed + call.wall_s > \
                args.seconds:
            break
        setup = measure_setup(args.workload, args.seed, setup)
    setup = measure_setup(args.workload, args.seed, setup)
    attempted, failures = account(calls, lambda i: f"call {i}",
                                  args.workload, args.seed)
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    walls = [c.wall_s for c in calls]
    metrics = {
        "setup_s": summary(setup["setup_s"]),
        "wall_s": summary(walls),
        "peak_rss_mb": {"median": max(self_rss, child_rss) / 1024.0},
    }
    report["quality"] = quality(calls[0])
    report["study_calls"] = len(calls)
    return metrics, attempted, failures


def per_layer(args, bench, modules, work: Path, report: dict):
    setup = measure_setup(args.workload, args.seed)
    start = perf_counter()
    micro = run_micro(args.seed, work / "micro", modules)
    tracer = Tracer()
    untraced, traced = [], []
    while True:
        untraced.append(run_study(bench, args.workload, args.seed,
                                  work / f"untraced{len(untraced)}",
                                  serial=True))
        tracer.run_id = len(traced)
        with tracer.installed(modules):
            traced.append(run_study(bench, args.workload, args.seed,
                                    work / f"traced{len(traced)}",
                                    serial=True, tracer=tracer))
        pair = untraced[-1].wall_s + traced[-1].wall_s
        if perf_counter() - start + pair > args.seconds:
            break
        setup = measure_setup(args.workload, args.seed, setup)
    setup = measure_setup(args.workload, args.seed, setup)

    attempted, failures = account(
        untraced + traced,
        lambda i: f"{'traced' if i >= len(untraced) else 'untraced'} call {i}",
        args.workload, args.seed)
    attempted += len(micro)
    failures += [f"micro {name}: output differs across repeats"
                 for name, r in micro.items() if not r["identical"]]

    study = f"bench.{WORKLOADS[args.workload]['study']}"
    breakdowns = [tracer.breakdown(r) for r in range(len(traced))]
    counted = [{n: (b[n]["calls"], b[n]["rows"]) for n in b}
               for b in breakdowns]
    attempted += len(counted) - 1
    if any(c != counted[0] for c in counted[1:]):
        failures.append("span counts differ between traced calls")

    def span(name, key):
        return [b.get(name, {}).get(key, 0) for b in breakdowns]

    metrics = {
        "setup_s": summary(setup["setup_s"]),
        "cli.import_s": summary(setup["cli.import_s"]),
        "physics.build_channel_ms": summary(setup["physics.build_channel_ms"]),
    }
    for name, r in micro.items():
        metrics[name] = {"median": 1e3 * r["median_s"],
                         "iqr": 1e3 * r["iqr_s"], "repeats": r["repeats"]}
    for name in ("em.fit", "em.e_step", "em.elbo"):
        metrics[f"{name}.total_s"] = summary(span(name, "total_s"))
    for name in ("em.fit", "em.pretrain", "em.m_step"):
        metrics[f"{name}.self_s"] = summary(span(name, "self_s"))
    metrics["bench.study.self_s"] = summary(span(study, "self_s"))
    for name in ("net.loss_and_gradients", "net.project_all"):
        metrics[f"{name}.calls"] = {"median": span(name, "calls")[0]}
        metrics[f"{name}.rows"] = {"median": span(name, "rows")[0]}
    for name in ("net.adam_step", "em.e_step", "em.elbo"):
        metrics[f"{name}.calls"] = {"median": span(name, "calls")[0]}
    metrics["em.useful_iter_ratio"] = {
        "median": useful_iter_ratio(tracer.fit_results)}
    traced_wall = median([c.wall_s for c in traced])
    untraced_wall = median([c.wall_s for c in untraced])
    metrics["trace.overhead_s"] = {"median": traced_wall - untraced_wall}

    spans_path = Path(args.results).with_suffix(".spans.csv")
    tracer.dump(spans_path)
    report["spans"] = {"dump": shown(spans_path),
                       "breakdown": breakdowns[0],
                       "self_sum_s": sum(r["self_s"]
                                         for r in breakdowns[0].values()),
                       "traced_wall_s": traced_wall,
                       "untraced_wall_s": untraced_wall,
                       "traced_calls": len(traced),
                       "spans_per_call": len(tracer.spans) // len(traced),
                       "workers": 1}
    report["notes"] = [
        "traced and untraced calls of this run use workers=1, so every "
        "span stays in this process"]
    report["quality"] = quality(untraced[0])
    return metrics, attempted, failures


def profile(args, bench, work: Path) -> int:
    config = bench.ExperimentConfig(**config_kwargs(
        args.workload, args.seed, str(work / "profile"), serial=True))
    study = getattr(bench, WORKLOADS[args.workload]["study"])
    prof = cProfile.Profile()
    prof.runcall(study, config)
    stream = io.StringIO()
    stats = pstats.Stats(prof, stream=stream)
    for key in ("tottime", "cumulative"):
        stream.write(f"\n== {args.workload} seed {args.seed}, workers=1, "
                     f"top {PROFILE_TOP} by {key} ==\n")
        stats.sort_stats(key).print_stats(PROFILE_TOP)
    text = stream.getvalue()
    path = OUT / "profiles" / f"{args.workload}-seed{args.seed}.txt"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    print(text)
    print(f"profile written to {shown(path)}")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", action="store_true",
                        help="cProfile one study call instead of measuring")
    parser.add_argument("--results", help="results file to write")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.results is None:
        args.results = str(OUT / "results" / f"{args.workload}-seed"
                           f"{args.seed}-trace{args.trace}.json")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "plasmalink" / "__init__.py").is_file() \
            or not spec_path.is_file():
        print(f"perfbench: {SRC / 'plasmalink'} or {spec_path} is missing; "
              "run from a plasmalink checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))
    from plasmalink import baselines, bench, em, link, net
    modules = {"bench": bench, "em": em, "net": net, "link": link,
               "baselines": baselines}

    work = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    Path(args.results).parent.mkdir(parents=True, exist_ok=True)
    try:
        if args.profile:
            return profile(args, bench, work)
        report = {"schema": "perfbench-result v1",
                  "workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "seconds": args.seconds,
                  "environment": environment(args.seed)}
        if args.trace:
            wanted = spec["per_layer"]
            metrics, attempted, failures = per_layer(args, bench, modules,
                                                     work, report)
        else:
            wanted = spec["end_to_end"]
            metrics, attempted, failures = end_to_end(args, bench, work,
                                                      report)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    failures += [f"metric {name} was not measured" for name in missing]
    report.update(correct=not failures, attempted=attempted,
                  failed=len(failures), failures=failures, metrics=metrics)
    Path(args.results).write_text(json.dumps(report, indent=1) + "\n")

    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    for name, value in report["quality"].items():
        print(f"{name:40s} {value:.6g}  (receiver quality, deterministic "
              "per seed)")
    result = {}
    for m in wanted:
        if m["name"] in missing:
            continue
        value = metrics[m["name"]]["median"]
        result[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:40s} {value:.6g} {m['unit']}")
    print(f"{'failed_ratio':40s} {len(failures) / attempted:.6g} "
          f"({len(failures)} of {attempted})")
    print(f"results file: {shown(args.results)}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": result}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
