"""Physics module tests.

The square-root oracle used here is written out locally (dielectric formula
plus principal complex sqrt) so the closed-form attenuation/phase
coefficients are checked against an independent route.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plasmalink.exceptions import ConfigError
from plasmalink.physics import (
    CODATA,
    ChannelParams,
    DensityTrajectory,
    attenuation_phase_coefficients,
    calibrate_sheath_thickness,
    channel_gain,
    density_trajectory,
    dielectric_coefficient,
    plasma_frequency,
    propagation_vector,
    reference_channel_params,
)

OMEGA = 2 * math.pi * 9e9
NU = 2 * math.pi * 20e9


@pytest.fixture(scope="module")
def params():
    return reference_channel_params()


def oracle_k(n_e, params):
    """Independent route: principal sqrt of the dielectric coefficient."""
    wp2 = n_e * CODATA.electron_charge**2 / (
        CODATA.vacuum_permittivity * CODATA.electron_mass)
    x = wp2 / (params.carrier_angular_freq**2 + params.collision_angular_freq**2)
    if params.standard_drude_loss:
        loss = params.collision_angular_freq / params.carrier_angular_freq
    else:
        loss = params.collision_angular_freq**2 / params.carrier_angular_freq
    eps = (1.0 - x) - 1j * loss * x
    return params.carrier_angular_freq / CODATA.light_speed * np.sqrt(
        np.asarray(eps, dtype=complex))


class TestPlasmaFrequency:
    def test_zero_density(self):
        assert plasma_frequency(0.0) == 0.0

    def test_reference_value(self):
        # frozen from a one-line evaluation with CODATA constants
        assert plasma_frequency(1e22) == pytest.approx(5641460231180.627, rel=1e-12)

    def test_sqrt_scaling(self):
        assert plasma_frequency(4e22) / plasma_frequency(1e22) == pytest.approx(2.0, abs=1e-14)

    def test_monotone(self):
        grid = np.logspace(20, 25, 200)
        wp = plasma_frequency(grid)
        assert np.all(np.diff(wp) >= 0)

    def test_negative_density_rejected(self):
        with pytest.raises(ValueError):
            plasma_frequency(-1.0)


class TestDielectricCoefficient:
    def test_vacuum(self, params):
        assert dielectric_coefficient(0.0, params) == 1.0 + 0.0j

    def test_reference_value(self, params):
        # frozen from direct scalar evaluation of the printed form
        eps = dielectric_coefficient(1e22, params)
        assert eps.real == pytest.approx(-1675.016341871172, rel=1e-12)
        assert eps.imag == pytest.approx(-468032055726125.5, rel=1e-12)

    def test_loss_sign(self, params):
        grid = np.logspace(20, 25, 100)
        eps = dielectric_coefficient(grid, params)
        assert np.all(eps.imag < 0)

    def test_standard_drude_switch(self, params):
        from dataclasses import replace
        drude = replace(params, standard_drude_loss=True)
        ep = dielectric_coefficient(1e22, params)
        ed = dielectric_coefficient(1e22, drude)
        assert ep.real == ed.real
        # printed loss is nu times larger than the standard Drude loss
        assert ep.imag / ed.imag == pytest.approx(NU, rel=1e-12)


class TestAttenuationPhase:
    def test_vacuum(self, params):
        alpha, beta = attenuation_phase_coefficients(0.0, params)
        assert alpha == 0.0
        assert beta == pytest.approx(OMEGA / CODATA.light_speed, rel=1e-15)

    def test_deep_fade_value(self, params):
        # frozen oracle values at n_e = 6e23 (top of the density range)
        alpha, beta = attenuation_phase_coefficients(6e23, params)
        assert alpha == pytest.approx(22351161767.428047, rel=1e-10)
        assert beta == pytest.approx(22351161767.34801, rel=1e-10)

    def test_consistency_oracle(self, params):
        # acceptance-grade cross-check, 1000 log-uniform densities
        n_min, n_max = params.density_range
        grid = np.logspace(math.log10(n_min), math.log10(n_max), 1000)
        alpha, beta = attenuation_phase_coefficients(grid, params)
        k_ref = oracle_k(grid, params)
        rel = np.abs((beta - 1j * alpha) - k_ref) / np.abs(k_ref)
        assert rel.max() < 1e-10

    def test_consistency_oracle_drude_form(self):
        params = reference_channel_params(standard_drude_loss=True)
        grid = np.logspace(22, math.log10(6e23), 1000)
        alpha, beta = attenuation_phase_coefficients(grid, params)
        k_ref = oracle_k(grid, params)
        rel = np.abs((beta - 1j * alpha) - k_ref) / np.abs(k_ref)
        assert rel.max() < 1e-10

    def test_alpha_monotone_in_range(self, params):
        grid = np.logspace(22, math.log10(6e23), 1000)
        alpha, _ = attenuation_phase_coefficients(grid, params)
        assert np.all(np.diff(alpha) >= 0)

    def test_propagation_vector_matches(self, params):
        grid = np.logspace(22, math.log10(6e23), 50)
        alpha, beta = attenuation_phase_coefficients(grid, params)
        k = propagation_vector(grid, params)
        np.testing.assert_allclose(k.real, beta, rtol=1e-12)
        np.testing.assert_allclose(-k.imag, alpha, rtol=1e-12)


class TestChannelGain:
    def test_lossless_magnitude(self):
        params = ChannelParams(OMEGA, NU, sheath_thickness_m=123.0,
                               n_e_min=1e22, n_e_max=6e23,
                               frequencies_are_angular=True)
        assert abs(channel_gain(0.0, params)) == 1.0

    def test_deep_fade_near_zero(self, params):
        g = channel_gain(params.density_range[1], params)
        assert abs(g) == pytest.approx(0.05, rel=1e-9)

    def test_thickness_composition(self, params):
        from dataclasses import replace
        double = replace(params,
                         sheath_thickness_m=2 * params.sheath_thickness_m)
        g1 = channel_gain(3e22, params)
        g2 = channel_gain(3e22, double)
        assert g2 == pytest.approx(g1**2, rel=1e-12)

    def test_magnitude_nonincreasing(self, params):
        grid = np.logspace(22, math.log10(6e23), 1000)
        mags = np.abs(channel_gain(grid, params))
        assert np.all(np.diff(mags) <= 1e-15)
        assert np.all(mags <= 1.0)

    @settings(max_examples=200, deadline=None)
    @given(st.booleans(), st.floats(0.01, 0.99),
           st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6))
    def test_magnitude_nonincreasing_over_density_range(self, drude, floor,
                                                        fractions):
        params = reference_channel_params(standard_drude_loss=drude,
                                          gain_floor=floor)
        lo, hi = params.density_range
        densities = np.clip(lo + (hi - lo) * np.sort(fractions), lo, hi)
        mags = np.abs([channel_gain(float(n), params) for n in densities])
        assert np.all(np.diff(mags) <= 1e-15)

    def test_pure(self, params):
        grid = np.logspace(22, 23, 17)
        a = channel_gain(grid, params)
        b = channel_gain(grid, params)
        assert np.array_equal(a, b)


class TestDensityTrajectory:
    def test_constant(self, params):
        traj = DensityTrajectory(profile="constant", frame_length=4,
                                 constant_level=params.density_range[0])
        out = density_trajectory(traj, params)
        assert out.shape == (4,)
        assert np.all(out == params.density_range[0])

    def test_constant_default_midpoint(self, params):
        traj = DensityTrajectory(profile="constant", frame_length=2)
        out = density_trajectory(traj, params)
        assert out[0] == pytest.approx(0.5 * sum(params.density_range))

    def test_sinusoid_starts_at_midpoint(self, params):
        traj = DensityTrajectory(profile="sinusoid", phase_offset_rad=0.0,
                                 frame_length=100)
        out = density_trajectory(traj, params)
        assert out[0] == pytest.approx(0.5 * sum(params.density_range))

    def test_sinusoid_within_range_and_sweeps(self, params):
        # one full period: 1e6 / 20e3 = 50 samples
        traj = DensityTrajectory(profile="sinusoid", frame_length=4096)
        out = density_trajectory(traj, params)
        n_min, n_max = params.density_range
        span = n_max - n_min
        assert np.all(out >= n_min) and np.all(out <= n_max)
        assert out.max() > n_max - 0.01 * span
        assert out.min() < n_min + 0.01 * span

    def test_linear_sweep_endpoints(self, params):
        traj = DensityTrajectory(profile="linear_sweep", frame_length=64)
        out = density_trajectory(traj, params)
        assert out[0] == params.density_range[0]
        assert out[-1] == params.density_range[1]

    def test_bad_oscillation_freq(self, params):
        traj = DensityTrajectory(profile="sinusoid",
                                 oscillation_freq_hz=0.0, frame_length=8)
        with pytest.raises(ConfigError):
            density_trajectory(traj, params)

    def test_bad_profile(self):
        with pytest.raises(ConfigError):
            DensityTrajectory(profile="random_walk")


class TestCalibration:
    def test_floor_hit(self):
        params = reference_channel_params(gain_floor=0.1)
        g = channel_gain(params.density_range[1], params)
        assert abs(g) == pytest.approx(0.1, rel=1e-9)

    @pytest.mark.parametrize("drude", [False, True])
    @pytest.mark.parametrize("floor", [0.01, 0.05, 0.1, 0.5, 0.99])
    def test_closed_form_root(self, drude, floor):
        # exp(-alpha(n_max) z) = floor is solved exactly, not approximately
        params = reference_channel_params(standard_drude_loss=drude,
                                          gain_floor=floor)
        n_max = params.density_range[1]
        alpha, _ = attenuation_phase_coefficients(n_max, params)
        assert params.sheath_thickness_m == -math.log(floor) / alpha
        assert abs(channel_gain(n_max, params)) == pytest.approx(
            floor, rel=0, abs=1e-14)

    def test_explicit_thickness_respected(self):
        params = reference_channel_params(sheath_thickness_m=1e-9)
        assert params.sheath_thickness_m == 1e-9

    def test_angular_flag(self):
        p = reference_channel_params(frequencies_are_angular=True)
        assert p.carrier_angular_freq == 9e9
        q = reference_channel_params()
        assert q.carrier_angular_freq == pytest.approx(2 * math.pi * 9e9)


class TestValidation:
    """The physics is the one layer that checks the channel fields."""

    @pytest.mark.parametrize("kwargs", [
        dict(sheath_thickness_m=0.0),
        dict(sheath_thickness_m=math.inf),
        dict(carrier_freq_hz=math.nan),
        dict(collision_freq_hz=math.inf),
        dict(n_e_max=math.inf),
        dict(n_e_min=math.nan),
        dict(n_e_max=1.7e308),
        dict(gain_floor=1.5, sheath_thickness_m=1e-3),
        dict(gain_floor=math.nan, sheath_thickness_m=1e-3),
    ], ids=["zero-thickness", "inf-thickness", "nan-carrier",
            "inf-collision", "inf-density", "nan-density",
            "attenuation-overflows",
            "gain-floor-1.5-given-thickness",
            "gain-floor-nan-given-thickness"])
    def test_reference_params_reject(self, kwargs):
        with pytest.raises(ConfigError), np.errstate(all="ignore"):
            reference_channel_params(**kwargs)

    @pytest.mark.parametrize("field", ["symbol_rate_hz",
                                       "oscillation_freq_hz",
                                       "phase_offset_rad"],
                             ids=["symbol_rate", "oscillation_freq",
                                  "phase_offset"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_trajectory_rejects_non_finite(self, field, value):
        with pytest.raises(ConfigError):
            DensityTrajectory(**{field: value})

    def test_trajectory_length_names_its_value(self):
        with pytest.raises(ConfigError,
                           match="^frame_length must be >= 1, got 0$"):
            DensityTrajectory(frame_length=0)

