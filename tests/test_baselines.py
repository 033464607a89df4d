"""Tests for the reference receivers and the closed-form error-rate curve."""

import numpy as np
import pytest

import plasmalink.baselines as baselines
from plasmalink.baselines import (
    DnnTrainConfig,
    genie_ml,
    pilot_interp_ml,
    qpsk_theory_ser,
    supervised_dnn,
)
from plasmalink.exceptions import ConfigError
from plasmalink.link import (
    Frame,
    build_constellation,
    build_frame,
    snr_to_noise_variance,
    transmit,
)


def static_run(gain, m=256, interval=16, snr_db=None, seed=7):
    const = build_constellation(2)
    frame = build_frame(m, interval, rng_seed=seed, order=const.order)
    var = 0.0 if snr_db is None else snr_to_noise_variance(snr_db)
    rx = transmit(frame, const, np.full(m, gain, dtype=complex), var,
                  rng_seed=seed)
    return const, frame, rx


class TestGenieMl:
    def test_noiseless_zero_errors(self):
        const, frame, rx = static_run(0.3 - 0.6j)
        result = genie_ml(rx, const)
        assert result.name == "genie_ml"
        np.testing.assert_array_equal(result.decisions, frame.symbols)

    def test_monte_carlo_matches_theory(self):
        # Unity static channel: simulated error rate must sit inside a
        # 3-standard-error band around the closed-form curve.
        const = build_constellation(2)
        m = 100_000
        frame = build_frame(m, m, rng_seed=70, order=const.order)
        gains = np.ones(m, dtype=complex)
        for snr_db in (0.0, 4.0, 8.0):
            rx = transmit(frame, const, gains,
                          snr_to_noise_variance(snr_db), rng_seed=70)
            decisions = genie_ml(rx, const).decisions
            payload = frame.payload_positions
            ser = np.mean(decisions[payload] != frame.symbols[payload])
            p = qpsk_theory_ser(snr_db)
            se = np.sqrt(p * (1 - p) / len(payload))
            assert abs(ser - p) < 3 * se, (snr_db, ser, p)

    def test_zero_gain_collapses_to_chance(self):
        # With the gain exactly 0 every hypothesis has equal distance, the
        # argmin tie-breaks to index 0, and the error rate is the fraction
        # of non-zero payload symbols: chance level for uniform symbols.
        const, frame, rx = static_run(0.0, m=4096, interval=256,
                                      snr_db=10.0)
        decisions = genie_ml(rx, const).decisions
        np.testing.assert_array_equal(decisions, np.zeros(4096, dtype=int))
        payload = frame.payload_positions
        ser = np.mean(decisions[payload] != frame.symbols[payload])
        assert abs(ser - 0.75) < 0.03


class TestPilotInterpMl:
    def test_static_noiseless_exact(self):
        const, frame, rx = static_run(0.4 + 0.8j)
        result = pilot_interp_ml(rx, frame, const)
        np.testing.assert_array_equal(result.decisions, frame.symbols)
        np.testing.assert_allclose(result.channel_estimate,
                                   np.full(len(rx), 0.4 + 0.8j),
                                   atol=1e-12)

    def test_constant_gain_estimate_constant(self):
        const, frame, rx = static_run(1.2 - 0.5j, m=64, interval=8)
        estimate = pilot_interp_ml(rx, frame, const).channel_estimate
        np.testing.assert_allclose(estimate, estimate[0], atol=1e-12)

    def test_edge_extrapolation_holds_last_pilot(self):
        # Linearly drifting gain, noiseless: beyond the last pilot the
        # estimate stays at that pilot's value instead of extrapolating.
        const = build_constellation(2)
        m, interval = 32, 8
        frame = build_frame(m, interval, rng_seed=9, order=const.order)
        gains = (1.0 - 0.02 * np.arange(m)) * np.exp(0.03j * np.arange(m))
        rx = transmit(frame, const, gains, 0.0, rng_seed=9)
        estimate = pilot_interp_ml(rx, frame, const).channel_estimate
        last = frame.pilot_positions[-1]
        np.testing.assert_allclose(estimate[last:],
                                   np.full(m - last, gains[last]),
                                   atol=1e-12)
        np.testing.assert_allclose(estimate[frame.pilot_positions],
                                   gains[frame.pilot_positions], atol=1e-12)

    def test_fewer_than_two_pilots_rejected(self):
        const = build_constellation(2)
        frame = Frame(symbols=np.zeros(16, dtype=int),
                      pilot_positions=np.array([0]),
                      pilot_interval=16)
        rx = transmit(frame, const, np.ones(16, dtype=complex), 0.0,
                      rng_seed=0)
        with pytest.raises(ConfigError, match="pilot"):
            pilot_interp_ml(rx, frame, const)

    def test_sparse_pilots_lose_to_genie_on_fast_fading(self):
        # Fast phase rotation between pilots starves the interpolator; the
        # genie tracks it exactly. Deterministic seeded comparison.
        const = build_constellation(2)
        m, interval = 2048, 256
        frame = build_frame(m, interval, rng_seed=71, order=const.order)
        n = np.arange(m)
        gains = 0.8 * np.exp(2j * np.pi * n * 3.7 / m)
        rx = transmit(frame, const, gains, snr_to_noise_variance(14.0),
                      rng_seed=71)
        payload = frame.payload_positions
        truth = frame.symbols[payload]
        ser_genie = np.mean(genie_ml(rx, const).decisions[payload] != truth)
        ser_interp = np.mean(
            pilot_interp_ml(rx, frame, const).decisions[payload] != truth)
        assert ser_genie < ser_interp
        assert ser_interp > 0.2


class TestSupervisedDnn:
    def test_memorizes_separable_pilots(self):
        # Static noiseless channel: the pilot set is four separated point
        # clusters, payload points coincide with them.
        const, frame, rx = static_run(0.9 + 0.1j, m=128, interval=4)
        result = supervised_dnn(rx, frame, const, rng_seed=42)
        assert result.name == "supervised_dnn"
        np.testing.assert_array_equal(result.decisions, frame.symbols)

    def test_deterministic_given_seed(self):
        const, frame, rx = static_run(0.8, m=256, interval=16, snr_db=8.0)
        a = supervised_dnn(rx, frame, const, rng_seed=5)
        b = supervised_dnn(rx, frame, const, rng_seed=5)
        np.testing.assert_array_equal(a.decisions, b.decisions)

    def test_config_controls_capacity(self):
        const, frame, rx = static_run(0.9, m=64, interval=4)
        tiny = DnnTrainConfig(dnn_hidden=2, dnn_steps=10)
        result = supervised_dnn(rx, frame, const, rng_seed=1, config=tiny)
        assert result.decisions.shape == (64,)
        assert result.decisions.dtype.kind == "i"

    def test_layer_views_built_once(self, monkeypatch):
        # the views are bound to the parameter and gradient buffers before
        # training, so their count does not grow with the step count
        const, frame, rx = static_run(0.9, m=64, interval=4)
        counts = []
        for steps in (1, 25):
            calls = []
            real = baselines.mlp_layers
            monkeypatch.setattr(baselines, "mlp_layers",
                                lambda *a: calls.append(1) or real(*a))
            supervised_dnn(rx, frame, const, rng_seed=1,
                           config=DnnTrainConfig(dnn_steps=steps))
            monkeypatch.undo()
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    @pytest.mark.parametrize("field, value", [
        ("dnn_steps", -1), ("dnn_hidden", 0), ("dnn_learning_rate", 0.0),
        ("dnn_learning_rate", float("nan")), ("init_std", -1.0),
        ("init_std", float("inf")),
    ])
    def test_config_rejects_bad_values(self, field, value):
        with pytest.raises(ConfigError) as caught:
            DnnTrainConfig(**{field: value})
        message = str(caught.value)
        assert message.startswith(f"{field} must be "), message
        assert message.endswith(f", got {value}"), message


class TestQpskTheory:
    def test_frozen_values(self):
        # Values from a normal-CDF evaluation of 2q - q^2, q = 1 - Phi(
        # sqrt(gamma)), independent of the erfc form used in the module.
        np.testing.assert_allclose(qpsk_theory_ser(0.0),
                                   0.29213901826285904, rtol=1e-12)
        np.testing.assert_allclose(qpsk_theory_ser(4.0),
                                   0.10979888437897194, rtol=1e-12)
        np.testing.assert_allclose(qpsk_theory_ser(8.0),
                                   0.011972720144284615, rtol=1e-12)

    def test_limits_and_monotonicity(self):
        assert qpsk_theory_ser(20.0) < 1e-20
        grid = np.linspace(-10, 20, 61)
        vals = [qpsk_theory_ser(x) for x in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert 0.0 < vals[0] < 1.0
