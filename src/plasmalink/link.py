"""M-ary IQ modulation, pilot framing, channel application and AWGN.

Builds the received baseband sequence ``y_i = s_i * x_i + n_i`` from a
symbol frame, a per-symbol complex gain sequence and a total complex noise
variance. Pilot symbols follow a fixed cyclic pattern 0, 1, ..., K-1 so
every constellation symbol owns labeled anchors even with very few pilots.

SNR is Es/N0 of the unit-energy transmitted constellation, measured before
fading; sigma_n^2 is the TOTAL complex noise variance, drawn as two
independent Gaussians of variance sigma_n^2 / 2 per quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigError
from .seeding import role_rng

__all__ = [
    "Constellation",
    "Frame",
    "ReceivedSequence",
    "build_constellation",
    "build_frame",
    "pilot_positions",
    "pilot_weights",
    "snr_to_noise_variance",
    "transmit",
]

# phase of the index-0 point, per constellation order
_PSK_OFFSETS = {2: 0.0, 4: np.pi / 4, 8: 0.0, 16: 0.0}


@dataclass(frozen=True)
class Constellation:
    """Unit-average-energy symbol set; ``points[i]`` is the point for index i."""

    order: int
    points: np.ndarray  # complex, shape (order,)

    def __post_init__(self):
        if len(self.points) != self.order:
            raise ValueError("points length must equal order")
        energy = np.mean(np.abs(self.points) ** 2)
        if abs(energy - 1.0) > 1e-12:
            raise ValueError(f"constellation average energy {energy} != 1")
        if len(set(np.round(self.points, 12).tolist())) != self.order:
            raise ValueError("constellation points must be pairwise distinct")


@dataclass(frozen=True)
class Frame:
    """Transmitted symbol indices with pilot positions marked.

    Pilot positions are pilot_positions(m, interval); pilot values cycle
    through 0..K-1 in position order, payload values are uniform draws.
    """

    symbols: np.ndarray          # int, shape (m,)
    pilot_positions: np.ndarray  # sorted int indices
    payload_positions: np.ndarray = field(init=False)

    def __post_init__(self):
        mask = np.ones(len(self.symbols), dtype=bool)
        mask[self.pilot_positions] = False
        object.__setattr__(self, "payload_positions", np.nonzero(mask)[0])

    def __len__(self):
        return len(self.symbols)

    @property
    def pilot_labels(self) -> np.ndarray:
        """The symbols at the pilot positions, the frame's only labels."""
        return self.symbols[self.pilot_positions]


@dataclass(frozen=True)
class ReceivedSequence:
    """Received complex samples plus evaluation-only ground truth."""

    samples: np.ndarray      # complex, shape (m,)
    true_gains: np.ndarray   # complex, shape (m,)
    noise_variance: float

    def __post_init__(self):
        if len(self.samples) != len(self.true_gains):
            raise ValueError("samples and true_gains length mismatch")

    def __len__(self):
        return len(self.samples)

    def iq(self) -> np.ndarray:
        """Samples as a real (m, 2) array of I/Q pairs."""
        return np.column_stack([self.samples.real, self.samples.imag])


def build_constellation(bits_per_symbol: int) -> Constellation:
    """Gray-labeled PSK constellation for 1..4 bits per symbol.

    BPSK is {+1, -1}; QPSK is {(+-1 +- 1j)/sqrt(2)}. The Gray labeling maps
    index i to the circle position ``i ^ (i >> 1)`` so adjacent points
    differ in exactly one bit.
    """
    if bits_per_symbol not in (1, 2, 3, 4):
        raise ConfigError(f"unsupported bits_per_symbol {bits_per_symbol}; "
                          "expected 1..4")
    order = 2 ** bits_per_symbol
    slot = np.arange(order)
    gray = slot ^ (slot >> 1)
    # label gray(i) occupies circle slot i, so circle neighbors carry labels
    # differing in exactly one bit
    points = np.empty(order, dtype=complex)
    points[gray] = np.exp(1j * (2 * np.pi * slot / order + _PSK_OFFSETS[order]))
    return Constellation(order=order, points=points)


def pilot_positions(m: int, interval: int) -> np.ndarray:
    """The pilot positions of an m-symbol frame: 0, interval, 2*interval, ..."""
    if interval < 1:
        raise ConfigError("pilot interval must be >= 1")
    if interval > m:
        raise ConfigError(f"pilot interval {interval} exceeds frame length {m}")
    return np.arange(0, m, interval)


def pilot_weights(frame: Frame, order: int) -> np.ndarray:
    """One-hot posterior rows for the pilot subsequence, (n_pilots, K)."""
    labels = frame.pilot_labels
    w = np.zeros((len(labels), order))
    w[np.arange(len(labels)), labels] = 1.0
    return w


def build_frame(m: int, interval: int, rng_seed: int, order: int) -> Frame:
    """Frame of m symbol indices with pilots every ``interval`` positions."""
    pilots = pilot_positions(m, interval)
    rng = role_rng(rng_seed, "frame")
    symbols = rng.integers(0, order, size=m)
    symbols[pilots] = np.arange(len(pilots)) % order
    return Frame(symbols=symbols, pilot_positions=pilots)


def snr_to_noise_variance(snr_db: float, symbol_energy: float = 1.0) -> float:
    """Total complex noise variance for a given Es/N0 in dB."""
    if symbol_energy <= 0:
        raise ValueError("symbol_energy must be > 0")
    return symbol_energy / 10.0 ** (snr_db / 10.0)


def transmit(frame: Frame, constellation: Constellation, gains: np.ndarray,
             noise_variance: float, rng_seed: int) -> ReceivedSequence:
    """Apply per-symbol gains and circular complex AWGN to the frame."""
    gains = np.asarray(gains, dtype=complex)
    if len(gains) != len(frame):
        raise ValueError(f"gains length {len(gains)} != frame length {len(frame)}")
    if noise_variance < 0:
        raise ValueError("noise_variance must be >= 0")
    tx = constellation.points[frame.symbols]
    rng = role_rng(rng_seed, "noise")
    scale = np.sqrt(noise_variance / 2.0)
    noise = scale * (rng.standard_normal(len(frame))
                     + 1j * rng.standard_normal(len(frame)))
    return ReceivedSequence(samples=gains * tx + noise, true_gains=gains,
                            noise_variance=float(noise_variance))
