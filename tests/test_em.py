"""Tests for the EM training loop: posteriors, bound, schedule, extraction."""

import logging
import tracemalloc

import numpy as np
import pytest

import plasmalink.em as em_module
import plasmalink.net as net_module
from plasmalink.em import (
    NOISE_VARIANCE_FLOOR,
    EmSchedule,
    TraceRecord,
    demodulate,
    e_step,
    elbo,
    extract_fading_curve,
    fit,
    m_step,
    pilot_weights,
    pretrain,
)
from plasmalink.exceptions import ConfigError
from plasmalink.link import (
    Constellation,
    Frame,
    ReceivedSequence,
    build_constellation,
    build_frame,
    snr_to_noise_variance,
    transmit,
)
from plasmalink.net import (
    collect_params,
    encode,
    init_model,
    project_all,
    weighted_loss,
    with_params,
)


def zero_model(constellation, noise_variance=1.0):
    """All-zero weights: every curve collapses to the point 0.5 * x_k."""
    model = init_model(constellation, rng_seed=0,
                       noise_variance=noise_variance)
    zeros = [np.zeros_like(p) for p in collect_params(model)]
    return with_params(model, zeros)


def received_from_iq(points):
    samples = np.asarray(points, dtype=complex)
    return ReceivedSequence(samples=samples,
                            true_gains=np.ones(len(samples), dtype=complex),
                            noise_variance=0.0)


def static_run(gain, m=128, interval=8, snr_db=None, seed=11, order=4):
    """Frame over a constant channel; noiseless when snr_db is None."""
    const = build_constellation(int(np.log2(order)))
    frame = build_frame(m, interval, rng_seed=seed, order=const.order)
    var = 0.0 if snr_db is None else snr_to_noise_variance(snr_db)
    rx = transmit(frame, const, np.full(m, gain, dtype=complex), var,
                  rng_seed=seed)
    return const, frame, rx


class TestEStep:
    def test_hand_softmax_row(self):
        # BPSK zero model projects to (+-0.5, 0); y below gives squared
        # distances (1, 3), so with sigma^2 = 2 the row is
        # softmax(-0.5, -1.5) = (sigmoid(1), 1 - sigmoid(1)).
        model = zero_model(build_constellation(1), noise_variance=2.0)
        rx = received_from_iq([1.0 + 1j * np.sqrt(0.75)])
        w = e_step(model, rx)
        np.testing.assert_allclose(
            w, [[0.7310585786300049, 0.2689414213699951]], rtol=1e-12)
        np.testing.assert_allclose(w, [[0.731, 0.269]], atol=1e-3)

    def test_equidistant_row_is_half_half(self):
        model = zero_model(build_constellation(1))
        w = e_step(model, received_from_iq([0.0 + 0.9j]))
        np.testing.assert_allclose(w, [[0.5, 0.5]], rtol=1e-14)

    def test_single_symbol_rows_are_one(self):
        const = Constellation(order=1, points=np.array([1.0 + 0.0j]))
        model = init_model(const, rng_seed=2)
        rx = received_from_iq([0.3 - 0.4j, 1.0 + 0.0j, -2.0 + 1.0j])
        w = e_step(model, rx)
        np.testing.assert_array_equal(w, np.ones((3, 1)))

    def test_rows_stochastic(self):
        const, frame, rx = static_run(0.8 + 0.1j, snr_db=6.0)
        model = init_model(const, rng_seed=3)
        w = e_step(model, rx)
        assert w.shape == (len(rx), const.order)
        assert np.all(w >= 0.0) and np.all(w <= 1.0)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-9)

    def test_pilot_rows_clamped_one_hot(self):
        const, frame, rx = static_run(0.7, snr_db=0.0)
        model = init_model(const, rng_seed=4)
        w = e_step(model, rx, frame)
        labels = frame.symbols[frame.pilot_positions]
        np.testing.assert_array_equal(
            w[frame.pilot_positions],
            np.eye(const.order)[labels])

    def test_variance_floor_warned_and_clamped(self, caplog):
        model = zero_model(build_constellation(1), noise_variance=1e-12)
        rx = received_from_iq([0.2 + 0.1j])
        with caplog.at_level(logging.WARNING, logger="plasmalink.em"):
            w = e_step(model, rx)
        assert any("clamped" in r.message for r in caplog.records)
        assert np.all(np.isfinite(w))
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)


class TestMStep:
    def test_zero_steps_recomputes_variance_only(self):
        const, frame, rx = static_run(0.9, snr_db=10.0)
        model = init_model(const, rng_seed=5)
        w = e_step(model, rx, frame)
        schedule = EmSchedule(mstep_steps=0)
        new_model, resid = m_step(model, rx, w, schedule)
        for p, q in zip(collect_params(model), collect_params(new_model)):
            np.testing.assert_array_equal(p, q)
        expect = weighted_loss(model, rx.iq(), w)
        assert resid == expect
        assert new_model.noise_variance == max(expect, NOISE_VARIANCE_FLOOR)

    def test_perfect_projections_clamp_variance(self):
        # Zero model puts curve points at 0.5 * x_k; feeding exactly those
        # points with one-hot W makes the residual 0, clamped to the floor.
        const = build_constellation(1)
        model = zero_model(const)
        pts = 0.5 * const.points
        rx = received_from_iq([pts[0], pts[1], pts[0]])
        w = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        new_model, resid = m_step(model, rx, w, EmSchedule(mstep_steps=0))
        assert resid == 0.0
        assert new_model.noise_variance == NOISE_VARIANCE_FLOOR

    def test_training_reduces_objective(self):
        const, frame, rx = static_run(0.8, snr_db=8.0, seed=21)
        model = init_model(const, rng_seed=21)
        w = e_step(model, rx, frame)
        before = weighted_loss(model, rx.iq(), w)
        new_model, after = m_step(model, rx, w, EmSchedule(mstep_steps=100))
        assert after < before
        np.testing.assert_allclose(
            after, weighted_loss(new_model, rx.iq(), w), rtol=1e-12)


class TestElbo:
    def brute_force(self, model, rx, w):
        y = rx.iq()
        proj = project_all(model, y)
        total = 0.0
        var = model.noise_variance
        for i in range(len(y)):
            for k in range(model.order):
                if w[i, k] == 0.0:
                    continue
                d2 = np.sum((y[i] - proj[i, k]) ** 2)
                log_joint = (-np.log(np.pi * var) - d2 / var
                             + np.log(1.0 / model.order))
                total += w[i, k] * (log_joint - np.log(w[i, k]))
        return total

    def test_matches_brute_force(self):
        const, frame, rx = static_run(0.6 + 0.3j, m=32, interval=4,
                                      snr_db=5.0, seed=30)
        model = init_model(const, rng_seed=30, noise_variance=0.7)
        w = e_step(model, rx, frame)
        np.testing.assert_allclose(elbo(model, rx, w),
                                   self.brute_force(model, rx, w),
                                   rtol=1e-12)

    def test_e_step_maximizes_bound_over_w(self):
        const, frame, rx = static_run(0.5 - 0.2j, m=64, interval=8,
                                      snr_db=4.0, seed=31)
        model = init_model(const, rng_seed=31, noise_variance=0.5)
        best = elbo(model, rx, e_step(model, rx))
        rng = np.random.default_rng(32)
        for _ in range(5):
            w = rng.uniform(0.01, 1.0, size=(len(rx), const.order))
            w /= w.sum(axis=1, keepdims=True)
            assert elbo(model, rx, w) <= best + 1e-12

    def test_trace_record_rejects_non_finite(self):
        with pytest.raises(FloatingPointError):
            TraceRecord(phase="em", iteration=1, elbo_before_e=np.nan,
                        elbo_after_e=0.0, loss_before_m=0.0,
                        loss_after_m=0.0, noise_variance=1.0)


class TestPretrain:
    def test_noiseless_static_low_pilot_loss(self):
        # 16 labeled pilots on a unit static channel: the curves must pass
        # near the four scaled constellation points by the end.
        const, frame, rx = static_run(1.0, m=64, interval=4, seed=101)
        model = init_model(const, rng_seed=101)
        model = pretrain(model, rx, frame, EmSchedule())
        loss = weighted_loss(model, rx.iq()[frame.pilot_positions],
                             pilot_weights(frame, const.order))
        assert loss < 1e-3

    def test_zero_steps_identity(self):
        const, frame, rx = static_run(0.9, seed=40)
        model = init_model(const, rng_seed=40)
        out = pretrain(model, rx, frame, EmSchedule(pretrain_steps=0))
        for p, q in zip(collect_params(model), collect_params(out)):
            np.testing.assert_array_equal(p, q)

    def test_missing_pilot_symbol_rejected(self):
        const = build_constellation(2)
        symbols = np.zeros(32, dtype=int)  # pilots never show symbols 1..3
        frame = Frame(symbols=symbols,
                      pilot_positions=np.arange(0, 32, 8),
                      pilot_interval=8)
        rx = transmit(frame, const, np.ones(32, dtype=complex), 0.0,
                      rng_seed=0)
        model = init_model(const, rng_seed=0)
        with pytest.raises(ConfigError, match=r"\[1, 2, 3\]"):
            pretrain(model, rx, frame, EmSchedule())


class TestFit:
    def test_zero_iterations_equals_pretrain(self):
        const, frame, rx = static_run(0.8, snr_db=12.0, seed=50)
        schedule = EmSchedule(pretrain_steps=300, em_iterations=0)
        result = fit(rx, frame, const, schedule, rng_seed=50)

        manual = init_model(const, 50, 4, 0.1)
        manual = pretrain(manual, rx, frame, schedule)
        for p, q in zip(collect_params(result.model),
                        collect_params(manual)):
            np.testing.assert_array_equal(p, q)
        assert len(result.trace) == 1
        assert result.trace[0].phase == "pretrain"

    def test_fit_leaves_no_buffers_behind(self):
        # the pass buffers belong to the fit's Batches and go with them;
        # the traced fit takes a width no other test fits, so no buffers
        # of the same shape made earlier can stand in for its own
        const, frame, rx = static_run(0.8, m=1024, interval=16,
                                      snr_db=12.0, seed=58)
        schedule = EmSchedule(pretrain_steps=20, em_iterations=2,
                              mstep_steps=10)
        fit(rx, frame, const, schedule, rng_seed=58)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = fit(rx, frame, const, schedule, rng_seed=58,
                         hidden_units=7)
            del result
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert after - before < 64 * 1024

    def test_bit_reproducible(self):
        const, frame, rx = static_run(0.7 + 0.2j, snr_db=8.0, seed=51)
        schedule = EmSchedule(pretrain_steps=200, em_iterations=3,
                              mstep_steps=30)
        a = fit(rx, frame, const, schedule, rng_seed=51)
        b = fit(rx, frame, const, schedule, rng_seed=51)
        np.testing.assert_array_equal(a.weights, b.weights)
        for p, q in zip(collect_params(a.model), collect_params(b.model)):
            np.testing.assert_array_equal(p, q)
        assert a.trace == b.trace

    def test_trace_bound_never_drops_across_e_step(self):
        const, frame, rx = static_run(0.75, snr_db=6.0, seed=52)
        schedule = EmSchedule(pretrain_steps=300, em_iterations=5,
                              mstep_steps=50)
        result = fit(rx, frame, const, schedule, rng_seed=52)
        assert len(result.trace) == 6
        for rec in result.trace[1:]:
            assert rec.elbo_after_e >= rec.elbo_before_e - 1e-9
            assert rec.loss_after_m <= rec.loss_before_m
            assert rec.noise_variance > 0.0

    def test_trace_losses_are_the_training_loss(self):
        # the last M-step's loss and sigma^2 are the training pass's loss
        # of the final model under the final posterior, bit for bit
        const, frame, rx = static_run(0.7 - 0.3j, snr_db=9.0, seed=53)
        result = fit(rx, frame, const, EmSchedule(pretrain_steps=50,
                                                  em_iterations=3,
                                                  mstep_steps=20),
                     rng_seed=53)
        loss = weighted_loss(result.model, rx.iq(), result.weights)
        assert result.trace[-1].loss_after_m == loss
        assert result.model.noise_variance == max(loss,
                                                  NOISE_VARIANCE_FLOOR)

    @pytest.mark.parametrize("iterations", [0, 1, 3])
    def test_distances_once_per_model_state(self, monkeypatch, iterations):
        # one distance matrix over the frame's rows after pretraining and
        # one per M-step; the bounds, the E-step and every loss reuse it.
        # The pilot rows and the frame rows are laid out once each, and
        # the fit never rotates onto the curves.
        const, frame, rx = static_run(0.75, snr_db=10.0, seed=54)
        distances, batch = em_module.distances, em_module.Batch
        rows, built, projected = [], [], []

        def counting(model, b):
            rows.append(len(b))
            return distances(model, b)

        def building(model, y, w=None):
            built.append(len(y))
            return batch(model, y, w)

        monkeypatch.setattr(em_module, "distances", counting)
        monkeypatch.setattr(em_module, "Batch", building)
        monkeypatch.setattr(em_module, "project_all",
                            lambda *args: projected.append(args))
        fit(rx, frame, const, EmSchedule(pretrain_steps=20,
                                         em_iterations=iterations,
                                         mstep_steps=5), rng_seed=54)
        assert rows == [len(rx)] * (1 + iterations)
        assert built == [len(frame.pilot_positions), len(rx)]
        assert projected == []

    def test_every_step_calls_loss_and_gradients_through_em(self,
                                                           monkeypatch):
        # the benchmark's tracer counts training steps by patching this
        # module attribute, so each Adam step must look it up there
        const, frame, rx = static_run(0.75, snr_db=10.0, seed=55)
        original = em_module.loss_and_gradients
        calls = []

        def counting(model, *args):
            calls.append(len(args[0]))
            return original(model, *args)

        monkeypatch.setattr(em_module, "loss_and_gradients", counting)
        schedule = EmSchedule(pretrain_steps=7, em_iterations=3,
                              mstep_steps=5)
        fit(rx, frame, const, schedule, rng_seed=55)
        pilots = len(frame.pilot_positions)
        assert calls == [pilots] * 7 + [len(rx)] * 15

    def test_noiseless_static_payload_posteriors_near_one_hot(self):
        const, frame, rx = static_run(0.8, seed=53)
        schedule = EmSchedule(pretrain_steps=1000, em_iterations=4,
                              mstep_steps=100)
        result = fit(rx, frame, const, schedule, rng_seed=53)
        payload = frame.payload_positions
        assert result.weights[payload].max(axis=1).mean() > 0.99
        decisions = demodulate(result.weights)
        np.testing.assert_array_equal(decisions, frame.symbols)


class TestDemodulate:
    def test_argmax_and_tie_break(self):
        w = np.array([[0.2, 0.5, 0.3],
                      [0.5, 0.5, 0.0],
                      [0.0, 0.0, 1.0]])
        np.testing.assert_array_equal(demodulate(w), [1, 0, 2])

    def test_one_hot_rows_recover_labels(self):
        labels = np.array([3, 0, 2, 1, 1])
        np.testing.assert_array_equal(demodulate(np.eye(4)[labels]), labels)


class TestExtractFadingCurve:
    def fitted(self, seed=60):
        const, frame, rx = static_run(0.6 + 0.2j, m=128, interval=8,
                                      seed=seed)
        schedule = EmSchedule(pretrain_steps=1000, em_iterations=4,
                              mstep_steps=100)
        result = fit(rx, frame, const, schedule, rng_seed=seed)
        return const, frame, rx, result

    def test_curves_are_rotated_copies(self):
        const, frame, rx, result = self.fitted()
        est = extract_fading_curve(result.model, rx, result.weights,
                                   frame=frame)
        angles = np.angle(const.points)
        base = est.curves[0]
        for k in range(1, const.order):
            theta = angles[k] - angles[0]
            rot = np.array([[np.cos(theta), -np.sin(theta)],
                            [np.sin(theta), np.cos(theta)]])
            np.testing.assert_allclose(est.curves[k], base @ rot.T,
                                       atol=1e-12)

    def test_grid_spans_payload_lambda(self):
        const, frame, rx, result = self.fitted()
        est = extract_fading_curve(result.model, rx, result.weights,
                                   frame=frame)
        y = rx.iq()
        payload = frame.payload_positions
        lam = encode(result.model, y)[payload, est.decisions[payload]]
        np.testing.assert_allclose(est.lam_grid[0], lam.min(), rtol=1e-12)
        np.testing.assert_allclose(est.lam_grid[-1], lam.max(), rtol=1e-12)

    def test_grid_size_one(self):
        const, frame, rx, result = self.fitted()
        est = extract_fading_curve(result.model, rx, result.weights,
                                   frame=frame, grid_size=1)
        assert est.lam_grid.shape == (1,)
        assert est.curves.shape == (const.order, 1, 2)

    def test_empty_payload_rejected(self):
        const, frame, rx, result = self.fitted()
        all_pilot = Frame(symbols=frame.symbols,
                          pilot_positions=np.arange(len(frame)),
                          pilot_interval=1)
        with pytest.raises(ValueError, match="payload"):
            extract_fading_curve(result.model, rx, result.weights,
                                 frame=all_pilot)

    def test_inference_path_builds_no_batch(self, monkeypatch):
        # a fitted model is read through encode and decode: neither the
        # fading estimate nor project_all lays out a training Batch, and
        # the estimate calls no projection onto the curves
        const, frame, rx, result = self.fitted()
        batch, project = net_module.Batch, net_module.project_all
        built, projected = [], []

        def building(*args, **kwargs):
            built.append(args)
            return batch(*args, **kwargs)

        def projecting(*args):
            projected.append(args)
            return project(*args)

        for module in (em_module, net_module):
            monkeypatch.setattr(module, "Batch", building)
            monkeypatch.setattr(module, "project_all", projecting)
        est = extract_fading_curve(result.model, rx, result.weights,
                                   frame=frame)
        proj = project(result.model, rx.iq())
        assert built == [] and projected == []
        # the decided projection is the symbol times the estimate
        picked = proj[np.arange(len(rx)), est.decisions]
        np.testing.assert_allclose(
            est.estimates * const.points[est.decisions],
            picked[:, 0] + 1j * picked[:, 1], rtol=0, atol=1e-15)

    def test_noiseless_estimates_recover_gain(self):
        const, frame, rx, result = self.fitted()
        est = extract_fading_curve(result.model, rx, result.weights,
                                   frame=frame)
        np.testing.assert_allclose(est.estimates,
                                   np.full(len(rx), 0.6 + 0.2j),
                                   atol=1e-3)
