"""Reference receivers to compare the curve model against.

genie_ml gets the true per-sample gain and lower-bounds the achievable SER;
pilot_interp_ml is the classical estimate-then-slice receiver; the
supervised classifier learns a decision boundary from pilot pairs alone and
shows what labeled data by itself buys. qpsk_theory_ser closes the loop as
an independent sanity check of the noise calibration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .em import EmSchedule, pilot_weights
from .exceptions import ConfigError, check_fields
from .link import Constellation, Frame, ReceivedSequence
from .net import (
    adam_step,
    init_adam,
    mlp_activations,
    mlp_backward,
    mlp_forward,
    mlp_input,
    mlp_layers,
    mlp_order,
    param_count,
)
from .seeding import role_rng

__all__ = [
    "BaselineResult",
    "DnnTrainConfig",
    "genie_ml",
    "pilot_interp_ml",
    "supervised_dnn",
    "qpsk_theory_ser",
]


@dataclass(frozen=True)
class BaselineResult:
    name: str
    decisions: np.ndarray                  # (m,) symbol indices
    channel_estimate: np.ndarray | None = None  # (m,) complex, if produced


def _ml_decide(samples: np.ndarray, gains: np.ndarray,
               constellation: Constellation) -> np.ndarray:
    """argmin_k |y_i - h_i x_k|^2 per sample."""
    d = np.abs(samples[:, None] - gains[:, None]
               * constellation.points[None, :]) ** 2
    return np.argmin(d, axis=1)


def genie_ml(received: ReceivedSequence,
             constellation: Constellation) -> BaselineResult:
    """ML decisions with the true channel gain handed over."""
    decisions = _ml_decide(received.samples, received.true_gains,
                           constellation)
    return BaselineResult(name="genie_ml", decisions=decisions,
                          channel_estimate=received.true_gains.copy())


def pilot_interp_ml(received: ReceivedSequence, frame: Frame,
                    constellation: Constellation) -> BaselineResult:
    """Channel from pilots (h = y/x), linear I/Q interpolation, then ML.

    Interpolation is per quadrature; outside the pilot span the estimate
    holds the edge value (numpy interp's constant extrapolation).
    """
    pilots = frame.pilot_positions
    if len(pilots) < 2:
        raise ConfigError("pilot interpolation needs at least 2 pilots")
    h_pilot = received.samples[pilots] / constellation.points[
        frame.symbols[pilots]]
    idx = np.arange(len(received))
    h = (np.interp(idx, pilots, h_pilot.real)
         + 1j * np.interp(idx, pilots, h_pilot.imag))
    decisions = _ml_decide(received.samples, h, constellation)
    return BaselineResult(name="pilot_interp_ml", decisions=decisions,
                          channel_estimate=h)


@dataclass(frozen=True)
class DnnTrainConfig:
    """Training settings of supervised_dnn, each named by its config key."""

    dnn_hidden: int = 16
    dnn_steps: int = 2000
    dnn_learning_rate: float = 1e-3
    init_std: float = EmSchedule.init_std  # one config key seeds both nets

    def __post_init__(self):
        check_fields(self, at_least=(("dnn_steps", 0), ("dnn_hidden", 1)),
                     positive=("dnn_learning_rate", "init_std"))


def _softmax(z):
    """Softmax over the class axis of feature-major logits (..., K, n)."""
    z = z - z.max(axis=-2, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-2, keepdims=True)


@np.errstate(over="raise", invalid="raise")
def supervised_dnn(received, frame, constellation: Constellation, rng_seed,
                   config: DnnTrainConfig = DnnTrainConfig()):
    """Pilot-trained softmax classifier (2 -> hidden -> hidden -> K).

    tanh hidden layers, cross-entropy loss, full-batch Adam over the pilot
    (sample, label) pairs only; the payload is never seen in training.

    Takes a group of cells with the same pilot count (sequences of
    received sequences, frames and seeds) and returns a tuple of
    BaselineResults; one cell (a ReceivedSequence, its Frame and an int
    seed) is trained as a group of one and gets its BaselineResult. A
    group's C networks train in lockstep as one stack, each with the
    numbers it would have alone.
    """
    if isinstance(received, ReceivedSequence):
        return supervised_dnn((received,), (frame,), constellation,
                              (rng_seed,), config)[0]
    k = constellation.order
    widths = (2, config.dnn_hidden, config.dnn_hidden, k)
    # drawn in flat order and laid out in the kernel's, as init_model does
    params = mlp_order(widths, config.init_std * np.stack(
        [role_rng(seed, "dnn").standard_normal(param_count(widths))
         for seed in rng_seed]))

    # feature-major: one column per sample, one stack entry per cell
    x_train = mlp_input(np.stack([rx.iq()[f.pilot_positions].T
                                  for rx, f in zip(received, frame)]))
    n = x_train.shape[-1]
    onehot = np.stack([pilot_weights(f, k).T for f in frame])

    state = init_adam(params)
    grads = np.empty_like(params)
    # layer views, activation and gradient buffers bound once; each Adam
    # result is copied into params
    layers = mlp_layers(widths, params)
    grad_layers = mlp_layers(widths, grads)
    acts = mlp_activations(layers, x_train)
    # the two hidden layers' input gradients; the input's is not needed
    g_ins = [None] + [np.empty((len(params), config.dnn_hidden, n))
                      for _ in range(2)]
    for _ in range(config.dnn_steps):
        logits, cache = mlp_forward(layers, x_train, acts)
        # mean cross-entropy gradient
        g_logits = (_softmax(logits) - onehot) / n
        mlp_backward(layers, cache, g_logits, grad_layers, g_ins)
        new_params, state = adam_step(params, grads, state,
                                      learning_rate=config.dnn_learning_rate)
        np.copyto(params, new_params)

    # the frame's logits a cell at a time, which bounds the peak memory
    results = []
    for c, rx in enumerate(received):
        logits, _ = mlp_forward(mlp_layers(widths, params[c:c + 1]),
                                mlp_input(rx.iq().T))
        results.append(BaselineResult(name="supervised_dnn",
                                      decisions=np.argmax(logits[0], axis=0)))
    return tuple(results)


def qpsk_theory_ser(es_n0_db: float) -> float:
    """Coherent Gray-QPSK symbol error rate over AWGN, 2Q(sqrt(g)) - Q^2."""
    gamma = 10.0 ** (es_n0_db / 10.0)
    q = 0.5 * math.erfc(math.sqrt(gamma / 2.0))
    return 2.0 * q - q * q
