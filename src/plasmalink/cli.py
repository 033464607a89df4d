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
from dataclasses import replace

import numpy as np

from .baselines import genie_ml, qpsk_theory_ser
from .bench import (
    ExperimentConfig,
    build_channel,
    compute_ser,
    load_config,
    parse_value,
    run_fading_estimation,
    run_learning_snapshots,
    run_ser_sweep,
    simulate_cell,
)
from .em import demodulate, e_step, elbo, fit, pilot_weights
from .exceptions import ConfigError
from .link import build_constellation, build_frame, snr_to_noise_variance, transmit
from .net import init_model, loss_and_gradients
from .physics import (
    attenuation_phase_coefficients,
    propagation_vector,
    reference_channel_params,
)

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


def _add_run_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="config file (key = value lines)")
    for flag, _, text in _RUN_FLAGS:
        sub.add_argument(flag, help=text)


def _resolve_config(args) -> ExperimentConfig:
    """The --config file (or the defaults) with every run flag given on
    the command line applied; validate-physics has only --seed."""
    given = vars(args)
    path = given.get("config")
    config = load_config(path) if path else ExperimentConfig()
    overrides = {key: parse_value(key, text) for flag, key, _ in _RUN_FLAGS
                 if (text := given.get(flag[2:])) is not None}
    return replace(config, **overrides)


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


_DISPERSION_TOLERANCE = 1e-10  # the largest relative error that passes


def _dispersion_error(params, seed) -> float:
    """Dispersion self-consistency: the largest relative error with which
    the split coefficients rebuild the complex propagation constant of the
    square-root route (physics.propagation_vector), over 1000 densities
    drawn log-uniformly from params.density_range at seed."""
    lo, hi = params.density_range
    rng = np.random.default_rng(seed)
    density = 10.0 ** rng.uniform(np.log10(lo), np.log10(hi), 1000)
    alpha, beta = attenuation_phase_coefficients(density, params)
    reference = propagation_vector(density, params)
    rebuilt = beta - 1j * alpha
    return float(np.max(np.abs(rebuilt - reference) / np.abs(reference)))


def _cmd_validate_physics(args) -> int:
    """The dispersion check over 1000 random densities."""
    params = reference_channel_params()
    worst = _dispersion_error(params, _resolve_config(args).seed)
    lo, hi = params.density_range
    print(f"1000 densities in [{lo:.3g}, {hi:.3g}] per m^3: "
          f"max relative error {worst:.3e}")
    if worst < _DISPERSION_TOLERANCE:
        print("validate-physics: pass")
        return 0
    print(f"validate-physics: FAIL (tolerance {_DISPERSION_TOLERANCE:g})")
    return 1


def _selftest_checks():
    """Yield (name, callable) pairs; each callable raises on failure."""

    def physics_consistency():
        worst = _dispersion_error(reference_channel_params(), 0)
        assert worst < _DISPERSION_TOLERANCE, worst

    def constellation_energy():
        for bits in (1, 2, 3, 4):
            const = build_constellation(bits)
            np.testing.assert_allclose(np.abs(const.points), 1.0, atol=1e-12)

    def noise_calibration():
        const = build_constellation(2)
        frame = build_frame(4096, 256, rng_seed=7, order=const.order)
        var = snr_to_noise_variance(10.0)
        rx = transmit(frame, const, np.ones(4096, dtype=complex), var,
                      rng_seed=7)
        noise = rx.samples - const.points[frame.symbols]
        measured = np.mean(np.abs(noise) ** 2)
        se = var / np.sqrt(len(noise))
        assert abs(measured - var) < 5 * se, (measured, var)

    def gradient_check():
        const = build_constellation(2)
        model = init_model(const, rng_seed=3)
        rng = np.random.default_rng(3)
        y = rng.normal(size=(32, 2))
        w = rng.uniform(0.1, 1.0, size=(32, 4))
        w /= w.sum(axis=1, keepdims=True)
        _, grads = loss_and_gradients(model, y, w)
        params = model.params
        idx = rng.choice(grads.size, size=10, replace=False)
        h = 1e-5  # larger step: FD roundoff must stay below the 1e-6 floor
        for i in idx:
            def shifted(delta):
                moved = params.copy()
                moved[i] += delta
                loss, _ = loss_and_gradients(replace(model, params=moved),
                                             y, w)
                return loss
            fd = (shifted(h) - shifted(-h)) / (2 * h)
            denom = max(abs(fd), abs(grads[i]), 1e-6)
            assert abs(fd - grads[i]) / denom < 1e-4, (i, fd, grads[i])

    def em_soundness():
        const = build_constellation(2)
        frame = build_frame(256, 16, rng_seed=5, order=const.order)
        rx = transmit(frame, const, np.ones(256, dtype=complex),
                      snr_to_noise_variance(8.0), rng_seed=5)
        model = init_model(const, rng_seed=5)
        # from uniform payload rows, the E-step must not lower the bound
        start = np.full((len(frame), const.order), 1.0 / const.order)
        start[frame.pilot_positions] = pilot_weights(frame, const.order)
        before = elbo(model, rx, start)
        w = e_step(model, rx, frame)
        after = elbo(model, rx, w)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-9)
        assert after >= before - 1e-9, (before, after)

    def genie_noiseless():
        const = build_constellation(2)
        frame = build_frame(512, 16, rng_seed=9, order=const.order)
        rx = transmit(frame, const, np.full(512, 0.6 + 0.2j), 0.0,
                      rng_seed=9)
        decisions = genie_ml(rx, const).decisions
        assert np.array_equal(decisions, frame.symbols)

    def theory_curve():
        vals = [qpsk_theory_ser(x) for x in (0.0, 4.0, 8.0)]
        assert all(a > b for a, b in zip(vals, vals[1:])), vals

    def quick_fit():
        const = build_constellation(2)
        config = ExperimentConfig(frame_length=512, pilot_intervals=(16,),
                                  snr_db=(20.0,), pretrain_steps=500,
                                  em_iterations=5, mstep_steps=60,
                                  snr_reference="received",
                                  standard_drude_loss=True)
        _, gains = build_channel(config)
        seed, frame, rx = simulate_cell(config, gains, 20.0, 16, 0)
        result = fit(rx, frame, const, config.schedule(), rng_seed=seed)
        stats = compute_ser(demodulate(result.weights), frame.symbols,
                            frame.payload_positions)
        assert stats.ser < 0.35, stats

    return [
        ("physics-consistency", physics_consistency),
        ("constellation-energy", constellation_energy),
        ("noise-calibration", noise_calibration),
        ("gradient-check", gradient_check),
        ("em-soundness", em_soundness),
        ("genie-noiseless", genie_noiseless),
        ("theory-curve", theory_curve),
        ("quick-fit", quick_fit),
    ]


def _cmd_selftest(args) -> int:
    failures = 0
    for name, check in _selftest_checks():
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

    sweep = subs.add_parser("ser-sweep", help="SER vs SNR study")
    _add_run_flags(sweep)
    sweep.set_defaults(func=_cmd_ser_sweep)

    snaps = subs.add_parser("snapshots", help="training-process snapshots")
    _add_run_flags(snaps)
    snaps.set_defaults(func=_cmd_snapshots)

    fading = subs.add_parser("fading", help="fading-estimation study")
    _add_run_flags(fading)
    fading.set_defaults(func=_cmd_fading)

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
