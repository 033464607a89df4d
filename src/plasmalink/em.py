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
fitting() checks before it yields each state of a run; a violation means
the posterior or the likelihood is wrong and raises immediately. fitting()
says how its states pair models and posteriors; fit(), where it stops.
"""

from __future__ import annotations

import inspect
import logging
import math
from dataclasses import dataclass, replace
from itertools import count, islice

import numpy as np

from .exceptions import ConfigError, check_fields
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
    "CURVE_GRID_POINTS",
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
    "fitting",
    "fit",
    "demodulate",
    "extract_fading_curve",
]

logger = logging.getLogger(__name__)

# lower clamp for sigma_n^2: a perfect fit would otherwise make the E-step
# softmax and the ELBO degenerate
NOISE_VARIANCE_FLOOR = 1e-6

# points of the coordinate grid every learned-curve output is drawn on
CURVE_GRID_POINTS = 201

# the width and init scale defaults are net.init_model's
_INIT = inspect.signature(init_model).parameters


@dataclass(frozen=True)
class EmSchedule:
    """The SMN's settings: step counts, learning rate, net.init_model's width
    and init scale. An error names the field (its config key) and value."""

    pretrain_steps: int = 2000
    em_iterations: int = 10
    mstep_steps: int = 100
    learning_rate: float = 1e-3
    hidden_units: int = _INIT["hidden_units"].default
    init_std: float = _INIT["init_std"].default

    def __post_init__(self):
        check_fields(self, at_least=(
            ("pretrain_steps", 0), ("em_iterations", 0), ("mstep_steps", 0),
            ("hidden_units", 1)), positive=("learning_rate", "init_std"))


# TraceRecord's float fields: each is checked finite, and summed in a group
_SUMMED = ("elbo_before_e", "elbo_after_e", "loss_before_m", "loss_after_m",
           "noise_variance")


@dataclass(frozen=True)
class TraceRecord:
    """Lower-bound and loss bookkeeping for one training phase."""

    phase: str            # "pretrain" or "em"
    iteration: int        # 0 for pretrain, 1-based for EM
    elbo_before_e: float  # E-step of this iteration's model: bound before
    elbo_after_e: float   # and after it
    loss_before_m: float  # weighted MSE with the previous W, pre M-step
    loss_after_m: float   # same objective after the M-step's Adam run
    noise_variance: float

    def __post_init__(self):
        for name in _SUMMED:
            if not np.isfinite(getattr(self, name)):
                raise FloatingPointError(f"non-finite trace field {name}")


@dataclass(frozen=True)
class FitResult:
    model: SmnModel
    weights: np.ndarray            # final posterior matrix, (m, K)
    trace: tuple                   # TraceRecord per phase


class GroupFit(tuple):
    """A state of fitting: each cell's FitResult, in cell order.

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
    """One cell's model as a group of one: a (1, P) view of its
    parameters and one noise variance."""
    return replace(model, params=model.params[None],
                   noise_variance=np.array([float(model.noise_variance)]))


def _cell_model(model: SmnModel, cell: int) -> SmnModel:
    """One cell's model out of a group's."""
    return replace(model, params=model.params[cell].copy(),
                   noise_variance=float(model.noise_variance[cell]))


def _train(model: SmnModel, batch: Batch, steps: int,
           learning_rate: float) -> SmnModel:
    """Fresh-Adam full-batch run on the weighted projection error of a
    group over a Batch; the parameters of the (private) model are updated
    in place."""
    params = model.params
    state = init_adam(params)
    for _ in range(steps):
        _, grads = loss_and_gradients(model, batch)
        new_params, state = adam_step(params, grads, state,
                                      learning_rate=learning_rate)
        np.copyto(params, new_params)
    return model


def pretrain(model: SmnModel, received, frames, schedule: EmSchedule,
             pilots: Batch | None = None) -> SmnModel:
    """Fit the curves of a group to its pilot samples alone, labels known.

    Takes a group model ((C, P) parameters) and the sequences of the
    cells' received sequences and frames, and returns the trained group
    model. pilots, when given, is the Batch of the pilot rows (see
    fitting). Every constellation symbol needs at least one pilot,
    otherwise its curve (and encoder) is unidentifiable.
    """
    _, labels = _shared_pilots(frames)
    missing = sorted(set(range(model.order)) - set(labels.tolist()))
    if missing:
        raise ConfigError(f"symbols {missing} have no pilots; "
                          "their curves are unidentifiable")
    model = replace(model, params=model.params.copy())
    if pilots is None:
        pilots = _pilot_batch(model, _iq(received), frames)
    return _train(model, pilots, schedule.pretrain_steps,
                  schedule.learning_rate)


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


def fitting(received, frames, constellation: Constellation,
            schedule: EmSchedule, rng_seed):
    """Pilot pretraining, then EM over the whole frame, a state at a time.

    Takes a group of cells that share frame length and pilots (sequences
    of received sequences, frames and seeds) and yields a GroupFit after
    pretraining (iteration 0) and after every EM iteration, each FitResult
    with its own copy of its cell's model and posterior, (m, K), and its
    trace so far, until its caller stops, which is sound at any state: every
    E- and M-step raises the bound (Neal & Hinton, 1998). A group trains in
    lockstep: its C x K encoders run as one stack and its C decoders as
    another, and each cell's numbers are those of fitting it alone.

    State i pairs model i (the pretrained model at i = 0, the model after
    M-step i after that) with its own posterior, the E-step of model i.
    The M-step that makes model i + 1 runs only when the caller asks for
    state i + 1. Trace row i >= 1 holds M-step i's losses (loss_before_m
    under state i - 1's posterior) and sigma^2, then the bounds before
    and after the E-step of model i; row 0 holds the pilot residual and
    the bound of state 0.

    The initial noise variance is the pilot residual after pretraining (the
    only data-driven estimate before the first E-step), raised to the floor
    with a warning like every later one. Two Batches serve the fit: the
    pilot rows (pretraining and that residual) and the frame rows, whose
    weights each E-step replaces; every posterior, bound and loss of a
    curve state reads one distances call. The work between states, never
    the caller's, raises FloatingPointError on a NumPy overflow or invalid
    value. Raises RuntimeError if the lower bound of any cell ever drops
    across an E-step beyond a 1e-9 tolerance; that invariant holds
    analytically, so a violation is a bug, not a tuning issue.
    """
    # an errstate cannot be entered twice, so each stretch opens its own
    with np.errstate(over="raise", invalid="raise"):
        pilots = _shared_pilots(frames)
        models = [init_model(constellation, seed, schedule.hidden_units,
                             schedule.init_std) for seed in rng_seed]
        model = replace(models[0],
                        params=np.stack([m.params for m in models]),
                        noise_variance=np.ones(len(models)))
        y = _iq(received)
        pilot_batch = _pilot_batch(model, y, frames)
        model = pretrain(model, received, frames, schedule,
                         pilots=pilot_batch)
        pilot_resid = weighted_loss(model, pilot_batch)
        model = replace(model, noise_variance=_clamped(
            pilot_resid, "pilot residual %.3g clamped to %.1g"))
        batch = Batch(model, y)
        d2 = distances(model, batch)
        w = _posterior(model, d2, pilots)
        start = _bound(model, d2, w)
        phase, values = "pretrain", (start, start, pilot_resid, pilot_resid,
                                     model.noise_variance)

    traces = [[] for _ in received]
    for it in count():
        for c, trace in enumerate(traces):
            trace.append(TraceRecord(phase, it,
                                     *(float(v[c]) for v in values)))
        yield GroupFit(FitResult(model=_cell_model(model, c),
                                 weights=w[c].T.copy(), trace=tuple(trace))
                       for c, trace in enumerate(traces))
        with np.errstate(over="raise", invalid="raise"):
            batch.reweigh(w)
            loss_before = batch.loss(d2)
            # spent: freed before the M-step makes the next
            del d2
            model, loss_after, d2 = _m_step(model, batch, schedule)
            before = _bound(model, d2, w)
            w = _posterior(model, d2, pilots)
            after = _bound(model, d2, w)
            dropped = np.flatnonzero(after < before - 1e-9)
            if len(dropped):
                c = dropped[0]
                raise RuntimeError(
                    f"lower bound decreased across E-step {it + 1}: "
                    f"{before[c]:.12g} -> {after[c]:.12g} "
                    f"(cell {c} of the group)")
        phase, values = "em", (before, after, loss_before, loss_after,
                               model.noise_variance)


def fit(received, frame, constellation: Constellation,
        schedule: EmSchedule = EmSchedule(), rng_seed=0):
    """State max(E - 1, 0) of fitting, E = schedule.em_iterations: a
    GroupFit, or for one cell (a ReceivedSequence, its Frame and an int
    seed) its FitResult. E EM iterations end at the E-th E-step, counting
    pretraining's, so they run max(E - 1, 0) M-steps; an M-step after the
    last E-step would change no decision. A caller that reads states on
    the way drives fitting."""
    if isinstance(received, ReceivedSequence):
        return fit((received,), (frame,), constellation, schedule,
                   (rng_seed,))[0]
    return next(islice(fitting(received, frame, constellation, schedule,
                               rng_seed),
                       max(schedule.em_iterations - 1, 0), None))


def demodulate(w: np.ndarray) -> np.ndarray:
    """Hard decisions: per-row argmax, ties resolved to the lowest index."""
    return np.argmax(w, axis=1)


def extract_fading_curve(model: SmnModel, received: ReceivedSequence,
                         w: np.ndarray, frame: Frame) -> FadingEstimate:
    """Learned fading curves plus the per-sample channel-gain estimate.

    Curve k is x_k times the canonical curve, which is the fading
    trajectory itself, so a sample's gain estimate is the canonical point
    (encode, then decode) at its coordinate on its decided symbol's curve.
    The curves are drawn on CURVE_GRID_POINTS coordinates spanning the
    payload samples' encoder outputs (pilots excluded so a short pilot set
    cannot shrink the span).
    """
    payload = frame.payload_positions
    if len(payload) == 0:
        raise ValueError("no payload samples to span the curve coordinate")
    decisions = demodulate(w)
    rows = np.arange(len(decisions))
    lam = encode(model, received.iq())[rows, decisions]
    canonical = decode(model, lam)
    estimates = canonical[:, 0] + 1j * canonical[:, 1]
    lam_grid = np.linspace(lam[payload].min(), lam[payload].max(),
                           CURVE_GRID_POINTS)
    return FadingEstimate(lam_grid=lam_grid,
                          curves=decode_curve(model, lam_grid),
                          decisions=decisions, estimates=estimates)
