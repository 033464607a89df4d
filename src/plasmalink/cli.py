"""Command-line front end for the experiment studies.

Subcommands:

  ser-sweep         SER vs SNR table for the configured receivers
  snapshots         training-process curve snapshots at one operating point
  fading            per-sample fading-estimate traces and RMSE per SNR
  validate-physics  dispersion self-consistency oracle over 1000 densities
  selftest          fast end-to-end invariant battery

Exit status: 0 on success, 1 on a failed check, 2 on usage or config
errors, on an artifact that cannot be written, on a snapshot or fading
fit that overflows and on a size that cannot be allocated.
"""

from __future__ import annotations

import argparse
import sys

from .bench import (
    ExperimentConfig,
    load_config_values,
    parse_value,
    run_fading_estimation,
    run_learning_snapshots,
    run_ser_sweep,
)
from .exceptions import ConfigError

__all__ = ["main"]


# each run flag, the config key it overrides and its help; a flag's text is
# read exactly as that key's value in a config file
_RUN_FLAGS = (
    ("--seed", "seed", "override base seed"),
    ("--outdir", "out_dir", "override output directory"),
    ("--snr", "snr_db", "override SNR list, e.g. 0,4,8 (dB); a list that "
     "starts with a minus sign takes the = form, --snr=-4,0"),
    ("--intervals", "pilot_intervals", "override pilot intervals, e.g. 16,256"),
    ("--trials", "trials", "override trials per cell"),
    ("--receivers", "receivers", "override receiver list, comma-separated"),
    ("--workers", "workers", "override worker count"),
)


def _resolve_config(args) -> ExperimentConfig:
    """The --config file's values (or the defaults) with every run flag
    given on the command line put over them, checked once as a whole, so
    a flag can mend a file and break it; validate-physics has only
    --seed."""
    given = vars(args)
    path = given.get("config")
    values = load_config_values(path) if path else {}
    values.update((key, parse_value(key, text)) for flag, key, _ in _RUN_FLAGS
                  if (text := given.get(flag[2:])) is not None)
    return ExperimentConfig(**values)


def _cmd_ser_sweep(args) -> int:
    config = _resolve_config(args)
    records = run_ser_sweep(config)
    width = max(len(r["receiver"]) for r in records)
    for r in records:
        print(f"{r['receiver']:{width}s}  snr={r['snr_db']:5.1f} dB  "
              f"interval={r['pilot_interval']:4d}  ser={r['ser']:.5f}  "
              f"({r['errors']}/{r['payload_symbols']})"
              + ("" if r["status"] == "ok" else f"  [{r['status']}]"))
    print(f"wrote ser_sweep.csv to {config.resolve_out_dir()}")
    return 0


def _cmd_snapshots(args) -> int:
    config = _resolve_config(args)
    run_learning_snapshots(config)
    print(f"wrote snapshot files to {config.resolve_out_dir()}")
    return 0


def _cmd_fading(args) -> int:
    config = _resolve_config(args)
    summaries = run_fading_estimation(config)
    for s in summaries:
        print(f"snr={s['snr_db']:5.1f} dB  rmse={s['rmse']:.5f}  "
              f"({s['samples']} samples)")
    print(f"wrote fading files to {config.resolve_out_dir()}")
    return 0


def _cmd_validate_physics(args) -> int:
    """The dispersion check over 1000 random densities."""
    # imported here, like a sweep's process pool: start-up skips it
    from . import checks
    (lo, hi), worst = checks.dispersion_error(_resolve_config(args).seed)
    tolerance = checks.DISPERSION_TOLERANCE
    print(f"1000 densities in [{lo:.3g}, {hi:.3g}] per m^3: "
          f"max relative error {worst:.3e}")
    if worst < tolerance:
        print("validate-physics: pass")
        return 0
    print(f"validate-physics: FAIL (tolerance {tolerance:g})")
    return 1


def _cmd_selftest(args) -> int:
    from . import checks
    failures = 0
    for name, check in checks.CHECKS:
        try:
            check()
        except Exception as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    if failures:
        print(f"selftest: {failures} check(s) failed")
        return 1
    print("selftest: all checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plasmalink",
        description="plasma-sheath channel simulator and receiver benchmarks")
    subs = parser.add_subparsers(dest="command", required=True)

    for name, summary, func in (
            ("ser-sweep", "SER vs SNR study", _cmd_ser_sweep),
            ("snapshots", "training-process snapshots", _cmd_snapshots),
            ("fading", "fading-estimation study", _cmd_fading)):
        run = subs.add_parser(name, help=summary)
        run.add_argument("--config", help="config file (key = value lines)")
        for flag, _, text in _RUN_FLAGS:
            run.add_argument(flag, help=text)
        run.set_defaults(func=func)

    phys = subs.add_parser("validate-physics",
                           help="dispersion self-consistency oracle")
    phys.add_argument("--seed", help="density sampling seed")
    phys.set_defaults(func=_cmd_validate_physics)

    selftest = subs.add_parser("selftest", help="fast invariant battery")
    selftest.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:
        # a fit that overflows: ser-sweep records it in a cell's status,
        # snapshots and fading have no status to record it in
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # NumPy raises a private subclass; the line names the public class
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
