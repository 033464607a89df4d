"""Semi-supervised EM training of the curve model.

The received samples are modeled as a K-component mixture: component k emits
y = (point on curve k) + circular complex Gaussian noise of total variance
sigma_n^2. Training alternates

  E-step  soft symbol posteriors W_ik from projection distances
          (pilot rows are clamped one-hot, which is what makes the
          procedure semi-supervised),
  M-step  a fresh Adam run minimizing the W-weighted projection error,
          then the exact noise-variance update sigma_n^2 = weighted MSE,
          the training pass's own loss (net.distances weighted by
          Batch.loss), bit for bit.

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
# collect_params, with_params and project_all are no longer called here;
# they stay importable from this module because the benchmark's tracer
# (perfbench/spans.py) patches them as attributes of it.
from .net import (  # noqa: F401
    Batch,
    SmnModel,
    adam_step,
    collect_params,
    decode,
    decode_curve,
    distances,
    encode,
    init_adam,
    init_model,
    loss_and_gradients,
    project_all,
    weighted_loss,
    with_params,
)

__all__ = [
    "NOISE_VARIANCE_FLOOR",
    "EmSchedule",
    "TraceRecord",
    "FitResult",
    "GroupFit",
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


_SUMMED = ("elbo_before_e", "elbo_after_e", "loss_before_m", "loss_after_m",
           "noise_variance")


class GroupFit(tuple):
    """The FitResult of every cell of a lockstep group, in cell order.

    The group is one EM run of the product of its cells' models, whose
    bound is the sum of theirs. trace is that run's trace: per phase, each
    field summed over the cells. It lets a group stand where one fit's
    bound is read (the benchmark's tracer reads em.fit results so).
    """

    @property
    def trace(self) -> tuple:
        return tuple(
            TraceRecord(phase=recs[0].phase, iteration=recs[0].iteration,
                        **{name: math.fsum(getattr(r, name) for r in recs)
                           for name in _SUMMED})
            for recs in zip(*(cell.trace for cell in self)))


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


# ---------------------------------------------------------------------------
# groups: C cells of one shape, trained in lockstep. The model of a group
# holds (C, P) parameters and C noise variances; IQ rows are rows-first,
# (m, C, 2), and the E-step's arrays cell-major like a Batch's, (C, K, m),
# so that every sum over one cell runs over contiguous memory in the order
# it runs for a lone cell, and a cell's numbers do not depend on its group.


def _cells(received, frame):
    """Lists of the received sequences and frames of one cell or of a
    group, and whether it was one cell."""
    if isinstance(received, ReceivedSequence):
        return [received], [frame], True
    return list(received), list(frame), False


def _shared_pilots(frames):
    """Pilot positions and labels, which the cells of a group share."""
    positions = frames[0].pilot_positions
    labels = frames[0].symbols[positions]
    for frame in frames[1:]:
        if (len(frame) != len(frames[0])
                or not np.array_equal(frame.pilot_positions, positions)
                or not np.array_equal(frame.symbols[positions], labels)):
            raise ValueError("the cells of a group must share frame length, "
                             "pilot positions and pilot labels")
    return positions, labels


def _iq(received) -> np.ndarray:
    """Rows-first IQ of the cells, (m, C, 2)."""
    return np.stack([rx.iq() for rx in received], axis=1)


def _pilot_batch(model: SmnModel, y: np.ndarray, frames) -> Batch:
    """The Batch of the pilot rows of a group's IQ y, (m, C, 2), with
    their one-hot weights."""
    batch = Batch(model, y[frames[0].pilot_positions])
    batch.reweigh(pilot_weights(frames[0], model.order).T)
    return batch


def _group_model(model: SmnModel) -> SmnModel:
    """A private group form of a model: (C, P) parameters, C noise
    variances; one cell's model becomes a group of one."""
    params = model.params
    return replace(model, params=params.reshape(-1, params.shape[-1]).copy(),
                   noise_variance=np.reshape(model.noise_variance,
                                             -1).astype(float))


def _cell_model(model: SmnModel, cell: int) -> SmnModel:
    """One cell's model out of a group's."""
    return replace(model, params=model.params[cell].copy(),
                   noise_variance=float(model.noise_variance[cell]))


def _train(model: SmnModel, batch: Batch, steps: int, learning_rate: float,
           step_hook=None) -> SmnModel:
    """Fresh-Adam full-batch run on the weighted projection error of a
    group over a Batch; the parameters of the (private) model are updated
    in place."""
    params = model.params
    state = init_adam(params)
    for step in range(steps):
        _, grads = loss_and_gradients(model, batch)
        new_params, state = adam_step(params, grads, state,
                                      learning_rate=learning_rate)
        np.copyto(params, new_params)
        if step_hook is not None:
            step_hook(step + 1, replace(model, params=params.copy()))
    return model


def pretrain(model: SmnModel, received, frame, schedule: EmSchedule,
             step_hook=None, pilots: Batch | None = None) -> SmnModel:
    """Fit the curves to the pilot samples alone, labels known.

    Takes one cell (a model, a ReceivedSequence and its Frame) or a group
    (a group model and sequences of received sequences and frames), and
    returns the trained model in the same form; pilots, when given, is
    the Batch of the pilot rows (see fit). Every constellation symbol needs
    at least one pilot, otherwise its curve (and encoder) is
    unidentifiable.
    """
    received, frames, single = _cells(received, frame)
    _, labels = _shared_pilots(frames)
    missing = sorted(set(range(model.order)) - set(labels.tolist()))
    if missing:
        raise ConfigError(f"symbols {missing} have no pilots; "
                          "their curves are unidentifiable")
    group = _group_model(model)
    if pilots is None:
        pilots = _pilot_batch(group, _iq(received), frames)
    hook = step_hook
    if single and step_hook is not None:
        def hook(step, m):
            step_hook(step, _cell_model(m, 0))
    group = _train(group, pilots, schedule.pretrain_steps,
                   schedule.learning_rate, hook)
    return _cell_model(group, 0) if single else group


def _clamped(variances, message: str):
    """Noise variances raised to the floor, each raise logged."""
    for var in variances[variances < NOISE_VARIANCE_FLOOR]:
        logger.warning(message, var, NOISE_VARIANCE_FLOOR)
    return np.maximum(variances, NOISE_VARIANCE_FLOOR)


def _posterior(model: SmnModel, d2: np.ndarray, pilots) -> np.ndarray:
    """E-step posterior from the distances (see e_step), (C, K, m); pilots
    is None or the (positions, labels) to clamp one-hot."""
    var = _clamped(model.noise_variance,
                   "noise variance %.3g below floor, clamped to %.1g")
    # one (C, K, m) buffer: -d2 / var, less its row maximum, exponentiated
    w = np.divide(d2, var[:, None, None])
    np.negative(w, out=w)
    w -= w.max(axis=1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=1, keepdims=True)
    if pilots is not None:
        positions, labels = pilots
        w[:, :, positions] = 0.0
        w[:, labels, positions] = 1.0
    return w


def _bound(model: SmnModel, d2: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Evidence lower bound per cell from the distances (see elbo)."""
    var = model.noise_variance[:, None, None]
    # one (C, K, m) buffer: w (log-likelihood + log prior), then the
    # entropy terms w ln w, with 0 ln 0 taken as 0; each summed per cell
    t = np.divide(d2, var)
    np.subtract(-np.log(np.pi * var), t, out=t)
    t += np.log(1.0 / model.order)
    t *= w
    joint = t.reshape(len(t), -1).sum(axis=1)
    zero = ~(w > 0)
    np.copyto(t, w)
    t[zero] = 1.0
    np.log(t, out=t)
    t *= w
    t[zero] = 0.0
    return joint - t.reshape(len(t), -1).sum(axis=1)


def _m_step(model: SmnModel, batch: Batch, schedule: EmSchedule):
    """m_step on a group's Batch; also returns the new distances."""
    model = _train(replace(model, params=model.params.copy()), batch,
                   schedule.mstep_steps, schedule.learning_rate)
    d2 = distances(model, batch)
    resid = batch.loss(d2)
    model = replace(model, noise_variance=_clamped(
        resid, "noise variance estimate %.3g clamped to %.1g"))
    return model, resid, d2


def e_step(model: SmnModel, received: ReceivedSequence,
           frame: Frame | None = None) -> np.ndarray:
    """Posterior symbol probabilities W, shape (m, K).

    W_ik = softmax over k of -||y_i - proj_k(y_i)||^2 / sigma_n^2, computed
    with max subtraction. When a frame is given, pilot rows are overridden
    with exact one-hot labels.
    """
    model = _group_model(model)
    pilots = None if frame is None else _shared_pilots([frame])
    d2 = distances(model, Batch(model, _iq([received])))
    return _posterior(model, d2, pilots)[0].T.copy()


def m_step(model: SmnModel, received: ReceivedSequence, w: np.ndarray,
           schedule: EmSchedule):
    """Re-fit curve parameters and the noise variance under fixed W.

    The optimizer starts from zeroed moments every call. Afterwards
    sigma_n^2 is set to the weighted mean squared projection error, the
    exact maximizer of the lower bound for a Gaussian of total variance
    sigma_n^2 (clamped at the floor). Returns (model, loss_after).
    """
    batch = Batch(model, received.iq(), w)
    model, resid, _ = _m_step(_group_model(model), batch, schedule)
    return _cell_model(model, 0), float(resid[0])


def elbo(model: SmnModel, received: ReceivedSequence, w: np.ndarray) -> float:
    """Evidence lower bound under the current model and posterior.

    Includes the Gaussian normalizer and the uniform symbol prior so that
    noise-variance updates move the bound honestly; entropy terms treat
    0 * ln 0 as 0.
    """
    model = _group_model(model)
    d2 = distances(model, Batch(model, _iq([received])))
    return float(_bound(model, d2, np.asarray(w, dtype=float).T[None])[0])


def fit(received, frame, constellation: Constellation,
        schedule: EmSchedule = EmSchedule(), rng_seed=0,
        hidden_units: int = 4, init_std: float = 0.1, pretrain_hook=None,
        em_hook=None):
    """Full training run: pilot pretraining, then EM over the whole frame.

    Takes one cell (a ReceivedSequence, its Frame and an int seed) and
    returns a FitResult, or a group of cells that share frame length and
    pilots (sequences of received sequences, frames and seeds) and returns
    a GroupFit. A group trains in lockstep: its C x K encoders run as one
    stack and its C decoders as another, and each cell's numbers are those
    of fitting it alone. The models the hooks see are in the same form
    (for a group, (C, P) parameters); em_hook also gets the posterior,
    (m, K) or for a group cell-major (C, m, K).

    The initial noise variance is the pilot residual after pretraining (the
    only data-driven estimate available before the first E-step). Two
    Batches serve the fit: the pilot rows (pretraining and that residual)
    and the frame rows, whose weights each E-step replaces; every
    posterior, bound and loss of a curve state reads one distances call.
    Raises RuntimeError if the lower bound of any cell ever drops across an
    E-step beyond a 1e-9 tolerance; that invariant holds analytically, so a
    violation is a bug, not a tuning issue.
    """
    cells, frames, single = _cells(received, frame)
    pilots = _shared_pilots(frames)
    models = [init_model(constellation, seed, hidden_units, init_std)
              for seed in ([rng_seed] if single else rng_seed)]
    model = replace(models[0], params=np.stack([m.params for m in models]),
                    noise_variance=np.ones(len(models)))
    y = _iq(cells)
    pilot_batch = _pilot_batch(model, y, frames)
    model = _group_model(pretrain(models[0] if single else model, received,
                                  frame, schedule, step_hook=pretrain_hook,
                                  pilots=pilot_batch))
    pilot_resid = weighted_loss(model, pilot_batch)
    model = replace(model, noise_variance=np.maximum(pilot_resid,
                                                     NOISE_VARIANCE_FLOOR))

    traces = [[] for _ in cells]

    def record(phase, iteration, *values):
        """Append each cell's TraceRecord; values are per-cell arrays."""
        for c, trace in enumerate(traces):
            trace.append(TraceRecord(phase, iteration,
                                     *(float(v[c]) for v in values)))

    batch = Batch(model, y)
    d2 = distances(model, batch)
    w = _posterior(model, d2, pilots)
    start = _bound(model, d2, w)
    record("pretrain", 0, start, start, pilot_resid, pilot_resid,
           model.noise_variance)
    for it in range(1, schedule.em_iterations + 1):
        before = _bound(model, d2, w)
        w = _posterior(model, d2, pilots)
        after = _bound(model, d2, w)
        dropped = np.flatnonzero(after < before - 1e-9)
        if len(dropped):
            c = dropped[0]
            raise RuntimeError(
                f"lower bound decreased across E-step {it}: "
                f"{before[c]:.12g} -> {after[c]:.12g}"
                + ("" if single else f" (cell {c} of the group)"))
        batch.reweigh(w)
        loss_before = batch.loss(d2)
        # spent: freed before the M-step makes the next
        del d2
        model, loss_after, d2 = _m_step(model, batch, schedule)
        record("em", it, before, after, loss_before, loss_after,
               model.noise_variance)
        if em_hook is not None and single:
            em_hook(it, _cell_model(model, 0), w[0].T)
        elif em_hook is not None:
            em_hook(it, model, w.transpose(0, 2, 1))

    fits = GroupFit(FitResult(model=_cell_model(model, c),
                              weights=w[c].T.copy(), trace=tuple(trace))
                    for c, trace in enumerate(traces))
    return fits[0] if single else fits


def demodulate(w: np.ndarray) -> np.ndarray:
    """Hard decisions: per-row argmax, ties resolved to the lowest index."""
    return np.argmax(w, axis=1)


def extract_fading_curve(model: SmnModel, received: ReceivedSequence,
                         w: np.ndarray, frame: Frame | None = None,
                         lam_grid: np.ndarray | None = None,
                         grid_size: int = 201) -> FadingEstimate:
    """Learned fading curves plus the per-sample channel-gain estimate.

    Curve k is x_k times the canonical curve, which is the fading
    trajectory itself, so a sample's gain estimate is the canonical point
    (encode, then decode) at its coordinate on its decided symbol's curve.
    The default coordinate grid spans the payload samples' observed encoder
    outputs (pilots excluded so a short pilot set cannot shrink the span).
    """
    decisions = demodulate(w)
    rows = np.arange(len(decisions))
    lam = encode(model, received.iq())[rows, decisions]
    canonical = decode(model, lam)
    estimates = canonical[:, 0] + 1j * canonical[:, 1]

    payload = rows if frame is None else frame.payload_positions
    if len(payload) == 0:
        raise ValueError("no payload samples to span the curve coordinate")
    if lam_grid is None:
        lam_grid = np.linspace(lam[payload].min(), lam[payload].max(),
                               grid_size)
    curves = decode_curve(model, lam_grid)
    return FadingEstimate(lam_grid=np.asarray(lam_grid, dtype=float),
                          curves=curves, decisions=decisions,
                          estimates=estimates)
