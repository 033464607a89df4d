"""Modulation, framing and channel-application tests.

Noise statistics are checked against Monte-Carlo estimates with tolerances
derived from the estimator's own standard error, so failures indicate a
wrong variance convention rather than sampling luck.
"""

import csv

import numpy as np
import pytest

from plasmalink.bench import save_sequence_csv
from plasmalink.exceptions import ConfigError
from plasmalink.link import (
    build_constellation,
    build_frame,
    snr_to_noise_variance,
    transmit,
)


class TestConstellation:
    def test_bpsk_points(self):
        c = build_constellation(1)
        np.testing.assert_allclose(c.points, [1.0, -1.0], atol=1e-15)

    def test_qpsk_points_are_diagonal(self):
        c = build_constellation(2)
        expected = {(1 + 1j), (-1 + 1j), (-1 - 1j), (1 - 1j)}
        got = set(np.round(c.points * np.sqrt(2), 9))
        assert got == {complex(np.round(p, 9)) for p in expected}

    def test_qpsk_gray_order(self):
        # index i sits at angle pi/4 + gray(i) * pi/2
        c = build_constellation(2)
        gray = np.array([0, 1, 3, 2])
        expected = np.exp(1j * (np.pi / 4 + gray * np.pi / 2))
        np.testing.assert_allclose(c.points, expected, atol=1e-15)

    @pytest.mark.parametrize("bits", [1, 2, 3, 4])
    def test_unit_energy(self, bits):
        c = build_constellation(bits)
        assert abs(np.mean(np.abs(c.points) ** 2) - 1.0) < 1e-12

    @pytest.mark.parametrize("bits", [1, 2, 3, 4])
    def test_gray_neighbors_differ_in_one_bit(self, bits):
        c = build_constellation(bits)
        angles = np.angle(c.points)
        ring = np.argsort(angles)
        for a, b in zip(ring, np.roll(ring, -1)):
            assert bin(a ^ b).count("1") == 1

    @pytest.mark.parametrize("bits", [0, 5, -1])
    def test_rejects_unsupported_order(self, bits):
        with pytest.raises(ConfigError):
            build_constellation(bits)


class TestFrame:
    def test_pilot_positions_and_count(self):
        frame = build_frame(4096, 256, rng_seed=0, order=4)
        np.testing.assert_array_equal(frame.pilot_positions,
                                      np.arange(0, 4096, 256))
        assert len(frame.pilot_positions) == 16

    def test_dense_pilots(self):
        frame = build_frame(4096, 16, rng_seed=0, order=4)
        assert len(frame.pilot_positions) == 256

    def test_pilot_values_cycle(self):
        frame = build_frame(64, 4, rng_seed=3, order=4)
        np.testing.assert_array_equal(frame.symbols[frame.pilot_positions],
                                      np.arange(16) % 4)

    def test_payload_positions_complement_pilots(self):
        frame = build_frame(64, 8, rng_seed=1, order=2)
        merged = np.sort(np.concatenate([frame.pilot_positions,
                                         frame.payload_positions]))
        np.testing.assert_array_equal(merged, np.arange(64))

    def test_payload_symbols_in_range_and_varied(self):
        frame = build_frame(4096, 256, rng_seed=5, order=4)
        payload = frame.symbols[frame.payload_positions]
        assert payload.min() >= 0 and payload.max() <= 3
        # all four symbols should appear in 4080 uniform draws
        assert len(np.unique(payload)) == 4

    def test_deterministic_for_seed(self):
        a = build_frame(512, 16, rng_seed=7, order=4)
        b = build_frame(512, 16, rng_seed=7, order=4)
        np.testing.assert_array_equal(a.symbols, b.symbols)
        c = build_frame(512, 16, rng_seed=8, order=4)
        assert not np.array_equal(a.symbols, c.symbols)

    def test_interval_validation(self):
        with pytest.raises(ConfigError):
            build_frame(16, 0, rng_seed=0, order=2)
        with pytest.raises(ConfigError):
            build_frame(16, 32, rng_seed=0, order=2)


class TestNoiseVariance:
    def test_zero_db_is_unity(self):
        assert snr_to_noise_variance(0.0) == 1.0

    def test_ten_db(self):
        assert abs(snr_to_noise_variance(10.0) - 0.1) < 1e-15

    def test_three_db_frozen(self):
        # 10 ** (-3.0103 / 10), computed independently
        assert abs(snr_to_noise_variance(3.0103) - 0.4999999950079739) < 1e-15

    def test_scales_with_symbol_energy(self):
        assert abs(snr_to_noise_variance(0.0, symbol_energy=2.0) - 2.0) < 1e-15


class TestTransmit:
    def _setup(self, m=4096, snr_db=10.0, seed=11, interval=256):
        const = build_constellation(2)
        frame = build_frame(m, interval, rng_seed=seed, order=const.order)
        gains = np.full(m, 0.8 * np.exp(1j * 0.3))
        var = snr_to_noise_variance(snr_db)
        return const, frame, gains, var

    def test_noiseless_is_exact(self):
        const, frame, gains, _ = self._setup()
        rx = transmit(frame, const, gains, 0.0, rng_seed=11)
        np.testing.assert_array_equal(rx.samples,
                                      gains * const.points[frame.symbols])

    def test_noise_power_matches_variance(self):
        # sample variance of n = y - s*x over 2^16 draws; tolerance is
        # ~4 standard errors of the variance estimate (se ~ var*sqrt(2/m))
        const, frame, gains, var = self._setup(m=65536)
        rx = transmit(frame, const, gains, var, rng_seed=21)
        noise = rx.samples - gains * const.points[frame.symbols]
        measured = np.mean(np.abs(noise) ** 2)
        assert abs(measured - var) < 4 * var * np.sqrt(2.0 / 65536)

    def test_per_quadrature_split(self):
        const, frame, gains, var = self._setup(m=65536)
        rx = transmit(frame, const, gains, var, rng_seed=22)
        noise = rx.samples - gains * const.points[frame.symbols]
        se = (var / 2) * np.sqrt(2.0 / 65536)
        assert abs(np.var(noise.real) - var / 2) < 4 * se
        assert abs(np.var(noise.imag) - var / 2) < 4 * se
        # quadratures uncorrelated
        corr = np.corrcoef(noise.real, noise.imag)[0, 1]
        assert abs(corr) < 0.02

    def test_gain_rotation_property(self):
        # multiplying the gain sequence by j rotates the noiseless output by j
        const, frame, gains, _ = self._setup()
        a = transmit(frame, const, gains, 0.0, rng_seed=3)
        b = transmit(frame, const, 1j * gains, 0.0, rng_seed=3)
        np.testing.assert_allclose(b.samples, 1j * a.samples, atol=1e-15)

    def test_deterministic_for_seed(self):
        const, frame, gains, var = self._setup()
        a = transmit(frame, const, gains, var, rng_seed=9)
        b = transmit(frame, const, gains, var, rng_seed=9)
        np.testing.assert_array_equal(a.samples, b.samples)
        c = transmit(frame, const, gains, var, rng_seed=10)
        assert not np.array_equal(a.samples, c.samples)

    def test_noise_independent_of_frame_stream(self):
        # frame and noise use separate substreams: same seed, different roles
        const = build_constellation(2)
        f1 = build_frame(256, 16, rng_seed=5, order=4)
        gains = np.ones(256, dtype=complex)
        r1 = transmit(f1, const, gains, 1.0, rng_seed=5)
        n1 = r1.samples - gains * const.points[f1.symbols]
        f2 = build_frame(256, 16, rng_seed=6, order=4)
        r2 = transmit(f2, const, gains, 1.0, rng_seed=5)
        n2 = r2.samples - gains * const.points[f2.symbols]
        # reconstructed by subtraction, so only equal to the last rounding bit
        np.testing.assert_allclose(n1, n2, rtol=0, atol=1e-14)

    def test_length_mismatch_rejected(self):
        const, frame, gains, var = self._setup()
        with pytest.raises(ValueError):
            transmit(frame, const, gains[:-1], var, rng_seed=0)

    def test_iq_view(self):
        const, frame, gains, var = self._setup(m=128, interval=16)
        rx = transmit(frame, const, gains, var, rng_seed=2)
        iq = rx.iq()
        assert iq.shape == (128, 2)
        np.testing.assert_array_equal(iq[:, 0], rx.samples.real)
        np.testing.assert_array_equal(iq[:, 1], rx.samples.imag)


class TestSequenceCsv:
    def test_round_trip(self, tmp_path):
        const = build_constellation(2)
        frame = build_frame(200, 16, rng_seed=4, order=const.order)
        gains = 0.5 * np.exp(1j * np.linspace(0, 1, 200))
        rx = transmit(frame, const, gains, 0.25, rng_seed=4)
        path = tmp_path / "seq.csv"
        save_sequence_csv(path, frame, rx)
        with path.open(newline="") as fh:
            assert fh.readline() == "# schema: received_sequence v1\n"
            rows = list(csv.DictReader(fh))

        def column(name, kind=float):
            return np.array([kind(r[name]) for r in rows])

        pilot = np.zeros(200, dtype=int)
        pilot[frame.pilot_positions] = 1
        np.testing.assert_array_equal(column("index", int), np.arange(200))
        np.testing.assert_array_equal(column("true_symbol", int),
                                      frame.symbols)
        np.testing.assert_array_equal(column("pilot_flag", int), pilot)
        np.testing.assert_array_equal(column("I") + 1j * column("Q"),
                                      rx.samples)
        np.testing.assert_array_equal(
            column("gain_I") + 1j * column("gain_Q"), rx.true_gains)
