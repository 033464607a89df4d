"""Semi-supervised EM training of the curve model.

The received samples are modeled as a K-component mixture: component k emits
y = (point on curve k) + circular complex Gaussian noise of total variance
sigma_n^2. Training alternates

  E-step  soft symbol posteriors W_ik from projection distances
          (pilot rows are clamped one-hot, which is what makes the
          procedure semi-supervised),
  M-step  a fresh Adam run minimizing the W-weighted projection error,
          then the exact noise-variance update sigma_n^2 = weighted MSE.

The evidence lower bound

  L = sum_i sum_k W_ik [ ln(1/(pi sigma^2) e^{-d_ik^2/sigma^2})
                         + ln(1/K) - ln W_ik ]

must never decrease across an E-step (the E-step zeroes the KL gap), which
fit() checks on every iteration; a violation means the posterior or the
likelihood is wrong and raises immediately.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import ConfigError
from .link import Constellation, Frame, ReceivedSequence
from .net import (
    SmnModel,
    adam_step,
    collect_params,
    decode_curve,
    encode,
    init_adam,
    init_model,
    loss_and_gradients,
    project,
    project_all,
    weighted_loss,
    with_params,
)

__all__ = [
    "NOISE_VARIANCE_FLOOR",
    "EmSchedule",
    "TraceRecord",
    "FitResult",
    "FadingEstimate",
    "pilot_weights",
    "pretrain",
    "e_step",
    "m_step",
    "elbo",
    "fit",
    "demodulate",
    "extract_fading_curve",
]

logger = logging.getLogger(__name__)

# lower clamp for sigma_n^2: a perfect fit would otherwise make the E-step
# softmax and the ELBO degenerate
NOISE_VARIANCE_FLOOR = 1e-6


@dataclass(frozen=True)
class EmSchedule:
    """Training step counts and optimizer settings."""

    pretrain_steps: int = 2000
    em_iterations: int = 10
    mstep_steps: int = 100
    learning_rate: float = 1e-3

    def __post_init__(self):
        if min(self.pretrain_steps, self.em_iterations, self.mstep_steps) < 0:
            raise ConfigError("schedule step counts must be >= 0")
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError("learning_rate must be finite and > 0")


@dataclass(frozen=True)
class TraceRecord:
    """Lower-bound and loss bookkeeping for one training phase."""

    phase: str            # "pretrain" or "em"
    iteration: int        # 0 for pretrain, 1-based for EM
    elbo_before_e: float
    elbo_after_e: float
    loss_before_m: float  # weighted MSE with this iteration's W, pre M-step
    loss_after_m: float   # same objective after the M-step's Adam run
    noise_variance: float

    def __post_init__(self):
        for name in ("elbo_before_e", "elbo_after_e",
                     "loss_before_m", "loss_after_m", "noise_variance"):
            if not np.isfinite(getattr(self, name)):
                raise FloatingPointError(f"non-finite trace field {name}")


@dataclass(frozen=True)
class FitResult:
    model: SmnModel
    weights: np.ndarray            # final posterior matrix, (m, K)
    trace: tuple                   # TraceRecord per phase


@dataclass(frozen=True)
class FadingEstimate:
    """Learned curves on a coordinate grid plus per-sample gain estimates."""

    lam_grid: np.ndarray   # (G,)
    curves: np.ndarray     # (K, G, 2)
    decisions: np.ndarray  # (m,) symbol indices
    estimates: np.ndarray  # (m,) complex gain estimates


def pilot_weights(frame: Frame, order: int) -> np.ndarray:
    """One-hot posterior rows for the pilot subsequence, (n_pilots, K)."""
    labels = frame.symbols[frame.pilot_positions]
    w = np.zeros((len(labels), order))
    w[np.arange(len(labels)), labels] = 1.0
    return w


def _train(model: SmnModel, y: np.ndarray, w: np.ndarray, steps: int,
           learning_rate: float, step_hook=None) -> SmnModel:
    """Fresh-Adam full-batch run on the weighted projection error."""
    params = collect_params(model)
    state = init_adam(params)
    for step in range(steps):
        _, grads = loss_and_gradients(model, y, w)
        params, state = adam_step(params, grads, state,
                                  learning_rate=learning_rate)
        model = with_params(model, params)
        if step_hook is not None:
            step_hook(step + 1, model)
    return model


def pretrain(model: SmnModel, received: ReceivedSequence, frame: Frame,
             schedule: EmSchedule, step_hook=None) -> SmnModel:
    """Fit the curves to the pilot samples alone, labels known.

    Every constellation symbol needs at least one pilot, otherwise its
    curve (and encoder) is unidentifiable.
    """
    labels = frame.symbols[frame.pilot_positions]
    missing = sorted(set(range(model.order)) - set(labels.tolist()))
    if missing:
        raise ConfigError(f"symbols {missing} have no pilots; "
                          "their curves are unidentifiable")
    y = received.iq()[frame.pilot_positions]
    w = pilot_weights(frame, model.order)
    return _train(model, y, w, schedule.pretrain_steps,
                  schedule.learning_rate, step_hook)


def _distances(model: SmnModel, y: np.ndarray) -> np.ndarray:
    """Squared projection distances d_ik^2 = ||y_i - proj_k(y_i)||^2, (m, K).

    They depend on the curves only, so one matrix serves every posterior,
    bound and loss of a model state.
    """
    proj = project_all(model, y)
    return np.sum((y[:, None, :] - proj) ** 2, axis=2)


def _posterior(model: SmnModel, d2: np.ndarray,
               frame: Frame | None) -> np.ndarray:
    """E-step posterior from the distance matrix (see e_step)."""
    var = model.noise_variance
    if var < NOISE_VARIANCE_FLOOR:
        logger.warning("noise variance %.3g below floor, clamped to %.1g",
                       var, NOISE_VARIANCE_FLOOR)
        var = NOISE_VARIANCE_FLOOR
    logits = -d2 / var
    logits -= logits.max(axis=1, keepdims=True)
    w = np.exp(logits)
    w /= w.sum(axis=1, keepdims=True)
    if frame is not None:
        labels = frame.symbols[frame.pilot_positions]
        w[frame.pilot_positions] = 0.0
        w[frame.pilot_positions, labels] = 1.0
    return w


def _bound(model: SmnModel, d2: np.ndarray, w: np.ndarray) -> float:
    """Evidence lower bound from the distance matrix (see elbo)."""
    var = model.noise_variance
    log_lik = -np.log(np.pi * var) - d2 / var
    prior = np.log(1.0 / model.order)
    entropy = np.where(w > 0, w * np.log(np.where(w > 0, w, 1.0)), 0.0)
    return float(np.sum(w * (log_lik + prior)) - np.sum(entropy))


def _weighted_mean(d2: np.ndarray, w: np.ndarray) -> float:
    """(1/m) sum_i sum_k w_ik d_ik^2, the M-step objective."""
    return float(np.mean(np.sum(w * d2, axis=1)))


def e_step(model: SmnModel, received: ReceivedSequence,
           frame: Frame | None = None) -> np.ndarray:
    """Posterior symbol probabilities W, shape (m, K).

    W_ik = softmax over k of -||y_i - proj_k(y_i)||^2 / sigma_n^2, computed
    with max subtraction. When a frame is given, pilot rows are overridden
    with exact one-hot labels.
    """
    return _posterior(model, _distances(model, received.iq()), frame)


def _m_step(model: SmnModel, y: np.ndarray, w: np.ndarray,
            schedule: EmSchedule):
    """m_step on IQ rows; also returns the new model's distance matrix."""
    model = _train(model, y, w, schedule.mstep_steps, schedule.learning_rate)
    d2 = _distances(model, y)
    resid = _weighted_mean(d2, w)
    if resid < NOISE_VARIANCE_FLOOR:
        logger.warning("noise variance estimate %.3g clamped to %.1g",
                       resid, NOISE_VARIANCE_FLOOR)
    model = replace(model, noise_variance=max(resid, NOISE_VARIANCE_FLOOR))
    return model, resid, d2


def m_step(model: SmnModel, received: ReceivedSequence, w: np.ndarray,
           schedule: EmSchedule):
    """Re-fit curve parameters and the noise variance under fixed W.

    The optimizer starts from zeroed moments every call. Afterwards
    sigma_n^2 is set to the weighted mean squared projection error, the
    exact maximizer of the lower bound for a Gaussian of total variance
    sigma_n^2 (clamped at the floor). Returns (model, loss_after).
    """
    model, resid, _ = _m_step(model, received.iq(), w, schedule)
    return model, resid


def elbo(model: SmnModel, received: ReceivedSequence, w: np.ndarray) -> float:
    """Evidence lower bound under the current model and posterior.

    Includes the Gaussian normalizer and the uniform symbol prior so that
    noise-variance updates move the bound honestly; entropy terms treat
    0 * ln 0 as 0.
    """
    return _bound(model, _distances(model, received.iq()), w)


def fit(received: ReceivedSequence, frame: Frame,
        constellation: Constellation, schedule: EmSchedule = EmSchedule(),
        rng_seed: int = 0, hidden_units: int = 4, init_std: float = 0.1,
        model: SmnModel | None = None, pretrain_hook=None,
        em_hook=None) -> FitResult:
    """Full training run: pilot pretraining, then EM over the whole frame.

    The initial noise variance is the pilot residual after pretraining (the
    only data-driven estimate available before the first E-step). The frame
    is projected once per curve state: every posterior, bound and loss of
    that state shares one distance matrix. Raises RuntimeError if the lower
    bound ever drops across an E-step beyond a 1e-9 tolerance; that
    invariant holds analytically, so a violation is a bug, not a tuning
    issue.
    """
    if model is None:
        model = init_model(constellation, rng_seed, hidden_units, init_std)
    model = pretrain(model, received, frame, schedule, step_hook=pretrain_hook)

    pilot_resid = weighted_loss(model, received.iq()[frame.pilot_positions],
                                pilot_weights(frame, model.order))
    model = replace(model, noise_variance=max(pilot_resid,
                                              NOISE_VARIANCE_FLOOR))

    y = received.iq()
    d2 = _distances(model, y)
    w = _posterior(model, d2, frame)
    start = _bound(model, d2, w)
    records = [TraceRecord(phase="pretrain", iteration=0,
                           elbo_before_e=start, elbo_after_e=start,
                           loss_before_m=pilot_resid, loss_after_m=pilot_resid,
                           noise_variance=model.noise_variance)]

    for it in range(1, schedule.em_iterations + 1):
        before = _bound(model, d2, w)
        w = _posterior(model, d2, frame)
        after = _bound(model, d2, w)
        if after < before - 1e-9:
            raise RuntimeError(
                f"lower bound decreased across E-step {it}: "
                f"{before:.12g} -> {after:.12g}")
        loss_before = _weighted_mean(d2, w)
        model, loss_after, d2 = _m_step(model, y, w, schedule)
        records.append(TraceRecord(
            phase="em", iteration=it, elbo_before_e=before,
            elbo_after_e=after, loss_before_m=loss_before,
            loss_after_m=loss_after, noise_variance=model.noise_variance))
        if em_hook is not None:
            em_hook(it, model, w)

    return FitResult(model=model, weights=w, trace=tuple(records))


def demodulate(w: np.ndarray) -> np.ndarray:
    """Hard decisions: per-row argmax, ties resolved to the lowest index."""
    return np.argmax(w, axis=1)


def extract_fading_curve(model: SmnModel, received: ReceivedSequence,
                         w: np.ndarray, constellation: Constellation,
                         frame: Frame | None = None,
                         lam_grid: np.ndarray | None = None,
                         grid_size: int = 201) -> FadingEstimate:
    """Learned fading curves plus the per-sample channel-gain estimate.

    Each sample is projected onto its decided symbol's curve; dividing the
    projection by the symbol recovers the gain estimate s_hat = proj / x_k.
    The default coordinate grid spans the payload samples' observed encoder
    outputs (pilots excluded so a short pilot set cannot shrink the span).
    """
    decisions = demodulate(w)
    y = received.iq()
    m = len(decisions)
    lam = np.empty(m)
    proj = np.empty((m, 2))
    for k in range(model.order):
        sel = decisions == k
        if not np.any(sel):
            continue
        lam[sel] = encode(model, k, y[sel])
        proj[sel] = project(model, k, y[sel])
    estimates = (proj[:, 0] + 1j * proj[:, 1]) / constellation.points[decisions]

    payload = np.arange(m) if frame is None else frame.payload_positions
    if len(payload) == 0:
        raise ValueError("no payload samples to span the curve coordinate")
    if lam_grid is None:
        lam_grid = np.linspace(lam[payload].min(), lam[payload].max(),
                               grid_size)
    curves = decode_curve(model, lam_grid)
    return FadingEstimate(lam_grid=np.asarray(lam_grid, dtype=float),
                          curves=curves, decisions=decisions,
                          estimates=estimates)
