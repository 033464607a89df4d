"""The invariant checks of `plasmalink selftest` and `validate-physics`.

CHECKS is selftest's ordered table of (name, check); a check raises on
failure, also under python -O, which strips bare asserts, so each test is
an np.testing call. Where package code already does a check's job, the
check runs it. tests/test_acceptance.py keeps its own references.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import islice

import numpy as np

from .baselines import genie_ml, qpsk_theory_ser
from .bench import ExperimentConfig, _run_group, build_channel
from .em import EmSchedule, fitting
from .link import (build_constellation, build_frame, snr_to_noise_variance,
                   transmit)
from .net import init_model, loss_and_gradients
from .physics import (attenuation_phase_coefficients, propagation_vector,
                      reference_channel_params)

__all__ = ["CHECKS", "DISPERSION_TOLERANCE", "dispersion_error"]

DISPERSION_TOLERANCE = 1e-10  # the largest relative error that passes


def dispersion_error(seed):
    """The largest relative error with which the split coefficients rebuild
    physics.propagation_vector over 1000 densities drawn log-uniformly from
    the reference density range at seed, the worse of the printed and the
    standard Drude loss form; returned after that range."""
    worst = 0.0
    for drude in (False, True):
        params = reference_channel_params(standard_drude_loss=drude)
        lo, hi = params.density_range
        rng = np.random.default_rng(seed)
        density = 10.0 ** rng.uniform(np.log10(lo), np.log10(hi), 1000)
        alpha, beta = attenuation_phase_coefficients(density, params)
        reference = propagation_vector(density, params)
        rel = np.abs(beta - 1j * alpha - reference) / np.abs(reference)
        worst = max(worst, float(rel.max()))
    return (lo, hi), worst


def physics_consistency():
    _, worst = dispersion_error(0)
    np.testing.assert_(worst < DISPERSION_TOLERANCE, worst)


def constellation_energy():
    for bits in (1, 2, 3, 4):
        const = build_constellation(bits)
        np.testing.assert_allclose(np.abs(const.points), 1.0, atol=1e-12)


def noise_calibration():
    const = build_constellation(2)
    frame = build_frame(4096, 256, rng_seed=7, order=const.order)
    var = snr_to_noise_variance(10.0)
    rx = transmit(frame, const, np.ones(4096, dtype=complex), var, rng_seed=7)
    noise = rx.samples - const.points[frame.symbols]
    measured = np.mean(np.abs(noise) ** 2)
    se = var / np.sqrt(len(noise))
    np.testing.assert_(abs(measured - var) < 5 * se, (measured, var))


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
            loss, _ = loss_and_gradients(replace(model, params=moved), y, w)
            return loss
        fd = (shifted(h) - shifted(-h)) / (2 * h)
        denom = max(abs(fd), abs(grads[i]), 1e-6)
        np.testing.assert_(abs(fd - grads[i]) / denom < 1e-4,
                           (i, fd, grads[i]))


def em_soundness():
    # fitting raises if a bound drops; its states must also say so
    const = build_constellation(2)
    frame = build_frame(256, 16, rng_seed=5, order=const.order)
    rx = transmit(frame, const, np.ones(256, dtype=complex),
                  snr_to_noise_variance(8.0), rng_seed=5)
    states = fitting((rx,), (frame,), const,
                     EmSchedule(pretrain_steps=100, mstep_steps=20), (5,))
    for (result,) in islice(states, 2):
        np.testing.assert_allclose(result.weights.sum(axis=1), 1.0, atol=1e-9)
    row = result.trace[1]
    np.testing.assert_(row.elbo_after_e >= row.elbo_before_e, row)


def genie_noiseless():
    const = build_constellation(2)
    frame = build_frame(512, 16, rng_seed=9, order=const.order)
    rx = transmit(frame, const, np.full(512, 0.6 + 0.2j), 0.0, rng_seed=9)
    decisions = genie_ml(rx, const).decisions
    np.testing.assert_(np.array_equal(decisions, frame.symbols))


def theory_curve():
    vals = [qpsk_theory_ser(x) for x in (0.0, 4.0, 8.0)]
    np.testing.assert_(all(a > b for a, b in zip(vals, vals[1:])), vals)


def quick_fit():
    # one sweep cell; a failed cell's status string is the failure
    config = ExperimentConfig(
        frame_length=512, pilot_intervals=(16,), snr_db=(20.0,),
        receivers=("smn",), pretrain_steps=500, em_iterations=5,
        mstep_steps=60, snr_reference="received", standard_drude_loss=True)
    _, gains = build_channel(config)
    stats = _run_group(config, gains, [(20.0, 16, 0)])[0]["smn"]
    np.testing.assert_(not isinstance(stats, str), stats)
    np.testing.assert_(stats.ser < 0.35, stats)


# a check's name is its function's, dashed, in selftest's order
CHECKS = tuple((check.__name__.replace("_", "-"), check) for check in (
    physics_consistency, constellation_energy, noise_calibration,
    gradient_check, em_soundness, genie_noiseless, theory_curve, quick_fit))
