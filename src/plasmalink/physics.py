"""Closed-form plasma-sheath propagation math.

Maps electron density to the complex channel gain of a single-layer,
collisional plasma slab: electron density -> plasma frequency -> complex
dielectric coefficient -> attenuation / phase-shift coefficients -> gain
``exp(-alpha*z) * exp(-j*beta*z)``.

Unit conventions
----------------
Everything internal is SI: densities in m^-3, angular frequencies in rad/s,
lengths in m. The reference operating point uses a 9 GHz carrier and a
20 GHz electron-neutral collision rate, both read as ordinary frequencies
and converted to angular ones (``frequencies_are_angular`` reads them as
rad/s). Densities quoted per cm^3 must be converted by the caller (config
layer accepts an explicit per-cm^3 suffix). The fields and parameters of
ChannelParams, DensityTrajectory and reference_channel_params are named by
the config keys that set them.

Two forms of the dielectric loss term are supported. The default
("printed") uses a ``nu**2 / omega`` loss numerator; ``standard_drude_loss``
switches to the textbook Drude ``nu / omega`` form. The attenuation /
phase closed forms and the square-root route are kept consistent with
whichever form is selected, so the cross-check between them is valid under
both. All functions are pure and accept scalars or numpy arrays; a scalar
density gives a NumPy scalar. They read the physical constants from the
module constant CODATA and take no others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import ConfigError, check_fields

__all__ = [
    "CODATA",
    "PhysicalConstants",
    "ChannelParams",
    "DensityTrajectory",
    "plasma_frequency",
    "dielectric_coefficient",
    "attenuation_phase_coefficients",
    "propagation_vector",
    "channel_gain",
    "density_trajectory",
    "calibrate_sheath_thickness",
    "reference_channel_params",
]


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA constants, read by every propagation formula through the
    module constant CODATA. Not configurable: no formula takes others."""

    electron_charge: float = 1.602176634e-19     # C (exact)
    vacuum_permittivity: float = 8.8541878128e-12  # F/m
    electron_mass: float = 9.1093837015e-31      # kg
    light_speed: float = 299792458.0             # m/s (exact)


CODATA = PhysicalConstants()


@dataclass(frozen=True)
class ChannelParams:
    """Plasma-sheath channel configuration, each field named by its config
    key; a bad value raises ConfigError naming it.

    Parameters
    ----------
    carrier_freq_hz, collision_freq_hz : float
        Carrier and electron-neutral collision frequencies in Hz, or in
        rad/s if ``frequencies_are_angular``. The formulas read them as
        the properties ``carrier_angular_freq`` (finite, > 0) and
        ``collision_angular_freq`` (finite, >= 0), in rad/s.
    sheath_thickness_m : float
        Slab thickness z in meters. Finite and strictly positive.
    n_e_min, n_e_max : float
        Inclusive electron-density range in m^-3 (the property
        ``density_range``) with 0 < n_e_min <= n_e_max < inf.
    standard_drude_loss : bool
        Use the standard Drude loss numerator instead of the printed form.
    """

    carrier_freq_hz: float
    collision_freq_hz: float
    sheath_thickness_m: float
    n_e_min: float
    n_e_max: float
    standard_drude_loss: bool = False
    frequencies_are_angular: bool = False

    def __post_init__(self):
        if not 0 < self.carrier_angular_freq < math.inf:
            raise ConfigError("carrier_freq_hz must be finite and > 0")
        if not 0 <= self.collision_angular_freq < math.inf:
            raise ConfigError("collision_freq_hz must be finite and >= 0")
        check_fields(self, positive=("sheath_thickness_m",))
        if not 0 < self.n_e_min <= self.n_e_max < math.inf:
            raise ConfigError(
                "n_e_min and n_e_max must satisfy 0 < n_min <= n_max < inf")

    @property
    def carrier_angular_freq(self) -> float:
        return self._radians_per_cycle * self.carrier_freq_hz

    @property
    def collision_angular_freq(self) -> float:
        return self._radians_per_cycle * self.collision_freq_hz

    @property
    def _radians_per_cycle(self) -> float:
        return 1.0 if self.frequencies_are_angular else 2.0 * math.pi

    @property
    def density_range(self) -> tuple[float, float]:
        return self.n_e_min, self.n_e_max


@dataclass(frozen=True)
class DensityTrajectory:
    """Deterministic electron-density time series specification.

    ``constant_level`` applies only to the constant profile and defaults to
    the midpoint of the channel's density range. A bad field raises
    ConfigError naming it, here or (if the check depends on the profile) in
    density_trajectory.
    """

    profile: str = "sinusoid"          # sinusoid | linear_sweep | constant
    oscillation_freq_hz: float = 20e3  # sinusoid only
    phase_offset_rad: float = 0.0      # sinusoid only
    frame_length: int = 4096
    symbol_rate_hz: float = 1e6
    constant_level: float | None = None

    def __post_init__(self):
        if self.profile not in ("sinusoid", "linear_sweep", "constant"):
            raise ConfigError(f"unknown density profile {self.profile!r}")
        check_fields(self, at_least=(("frame_length", 1),),
                     positive=("symbol_rate_hz",))
        if not np.all(np.isfinite([self.oscillation_freq_hz,
                                   self.phase_offset_rad])):
            raise ConfigError(
                "oscillation_freq_hz and phase_offset_rad must be finite")


def plasma_frequency(n_e):
    """Electron plasma frequency sqrt(n_e e^2 / (eps0 m_e)) in rad/s."""
    n_e = np.asarray(n_e, dtype=float)
    if np.any(n_e < 0):
        raise ValueError("electron density must be >= 0")
    out = np.sqrt(n_e * CODATA.electron_charge**2
                  / (CODATA.vacuum_permittivity * CODATA.electron_mass))
    return out[()]


def _loss_factor(params: ChannelParams) -> float:
    # Printed form carries nu^2/omega; the standard Drude form nu/omega.
    nu = params.collision_angular_freq
    omega = params.carrier_angular_freq
    return (nu / omega) if params.standard_drude_loss else (nu**2 / omega)


def dielectric_coefficient(n_e, params: ChannelParams):
    """Complex relative dielectric coefficient of the collisional plasma.

    Real part ``1 - wp^2/(w^2 + nu^2)``; imaginary part is the negative
    loss term (zero loss only at zero density or zero collision rate).
    """
    wp2 = plasma_frequency(n_e) ** 2
    x = wp2 / (params.carrier_angular_freq**2 + params.collision_angular_freq**2)
    return (1.0 - x) - 1j * _loss_factor(params) * x


def attenuation_phase_coefficients(n_e, params: ChannelParams):
    """Attenuation alpha (Np/m) and phase-shift beta (rad/m) closed forms.

    Derived from ``k = (w/c) sqrt(eps_r) = beta - j alpha`` with the branch
    that keeps alpha >= 0:

        alpha = w/(sqrt(2) c) * sqrt(-re + sqrt(re^2 + im^2))
        beta  = w/(sqrt(2) c) * sqrt(+re + sqrt(re^2 + im^2))

    where ``re`` and ``im`` are the real part and (magnitude of the)
    imaginary part of the dielectric coefficient.
    """
    eps = dielectric_coefficient(n_e, params)
    re, im = eps.real, -eps.imag
    mag = np.hypot(re, im)
    scale = params.carrier_angular_freq / (math.sqrt(2.0) * CODATA.light_speed)
    # Clip: mag - re and mag + re are >= 0 analytically; rounding can dip below.
    alpha = scale * np.sqrt(np.maximum(mag - re, 0.0))
    beta = scale * np.sqrt(np.maximum(mag + re, 0.0))
    return alpha, beta


def propagation_vector(n_e, params: ChannelParams):
    """Complex propagation vector ``k = (w/c) sqrt(eps_r)``, square-root route.

    Uses the principal complex square root, flipped where necessary so that
    ``k = beta - j alpha`` always has alpha >= 0 (the decaying branch under
    the ``exp(-j k z)`` convention). Cross-checks the closed forms above.
    """
    root = np.sqrt(dielectric_coefficient(n_e, params))
    root = np.where(root.imag > 0, -root, root)
    return (params.carrier_angular_freq / CODATA.light_speed * root)[()]


def channel_gain(n_e, params: ChannelParams):
    """Complex baseband channel gain ``exp(-alpha z) exp(-j beta z)``."""
    alpha, beta = attenuation_phase_coefficients(n_e, params)
    z = params.sheath_thickness_m
    return np.exp(-alpha * z) * np.exp(-1j * beta * z)


def density_trajectory(traj: DensityTrajectory, params: ChannelParams):
    """Electron-density sequence (m^-3) of length ``traj.frame_length``.

    sinusoid      midpoint + half-span * sin(2 pi f t + phase); sweeps the
                  full density range once per oscillation period.
    linear_sweep  n_min at the first sample, n_max at the last.
    constant      constant_level (midpoint of the range when unset).
    """
    n_min, n_max = params.density_range
    m = traj.frame_length
    if traj.profile == "constant":
        level = traj.constant_level
        if level is None:
            level = 0.5 * (n_min + n_max)
        if not (n_min <= level <= n_max):
            raise ConfigError(
                f"constant_level {level:g} outside density range "
                f"[{n_min:g}, {n_max:g}]")
        return np.full(m, float(level))
    if traj.profile == "linear_sweep":
        return np.linspace(n_min, n_max, m)
    # sinusoid
    if traj.oscillation_freq_hz <= 0:
        raise ConfigError(
            "oscillation_freq_hz must be > 0 for the sinusoid profile")
    t = np.arange(m) / traj.symbol_rate_hz
    mid = 0.5 * (n_min + n_max)
    half = 0.5 * (n_max - n_min)
    n_e = mid + half * np.sin(2.0 * math.pi * traj.oscillation_freq_hz * t
                              + traj.phase_offset_rad)
    # sin is bounded but rounding may overshoot the range by ~1 ulp
    return np.clip(n_e, n_min, n_max)


def _check_gain_floor(gain_floor: float) -> None:
    if not 0 < gain_floor < 1:
        raise ConfigError(f"gain_floor must lie in (0, 1), got {gain_floor:g}")


def calibrate_sheath_thickness(params: ChannelParams,
                               gain_floor: float) -> ChannelParams:
    """Slab thickness at which min |gain| over the density range = gain_floor.

    |gain| is monotone nonincreasing in density at the reference operating
    point, so the minimum sits at n_max, and ``exp(-alpha(n_max) z) =
    gain_floor`` has the closed-form root ``z = -ln(gain_floor) /
    alpha(n_max)``. Returns a copy of ``params`` with that thickness.
    """
    _check_gain_floor(gain_floor)
    alpha_max, _ = attenuation_phase_coefficients(params.n_e_max, params)
    if not 0 < alpha_max < math.inf:
        raise ConfigError(f"cannot calibrate z: alpha(n_max) = {alpha_max:g}")
    return replace(params,
                   sheath_thickness_m=float(-math.log(gain_floor) / alpha_max))


def reference_channel_params(carrier_freq_hz: float = 9e9,
                             collision_freq_hz: float = 20e9,
                             n_e_min: float = 1e22,
                             n_e_max: float = 6e23,
                             sheath_thickness_m: float | None = None,
                             frequencies_are_angular: bool = False,
                             standard_drude_loss: bool = False,
                             gain_floor: float = 0.05) -> ChannelParams:
    """Channel parameters at the reference operating point. Each argument
    is the config key of its name, and its default is that key's default.

    The frequencies are in Hz unless ``frequencies_are_angular`` (rad/s);
    densities are m^-3. When ``sheath_thickness_m`` is None the thickness
    is calibrated so the deepest fade has magnitude ``gain_floor``, which
    must lie in (0, 1).
    """
    _check_gain_floor(gain_floor)
    params = ChannelParams(
        carrier_freq_hz, collision_freq_hz,
        1.0 if sheath_thickness_m is None else sheath_thickness_m,
        n_e_min, n_e_max, standard_drude_loss, frequencies_are_angular)
    if sheath_thickness_m is None:
        params = calibrate_sheath_thickness(params, gain_floor)
    return params
