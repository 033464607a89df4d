"""Symmetry-constrained autoencoder for joint demodulation and fading tracking.

Received samples that carry constellation symbol x_k lie near a 1-D curve
(the fading trajectory scaled/rotated by x_k). The model learns that curve
with one encoder per symbol, mapping an IQ pair to a scalar curve coordinate,
and a single decoder shared by all symbols mapping the coordinate back to IQ.

Sharing works because the per-symbol curves are rigid copies of one another:
the decoder emits a canonical curve point in polar form (radius squashed by a
sigmoid so it stays in (0, 1), angle unconstrained) and a fixed per-symbol
matrix T_k lifts it onto symbol k's curve. For x_k = re + j*im,

    T_k = [[re, -im],
           [im,  re]]

which is multiplication by x_k in IQ coordinates. The transforms encode the
constellation symmetry exactly and are never trained.

The polar point becomes IQ through the half-angle form: with
t = tan(theta / 2) and q = rho / (1 + t^2),

    rho cos(theta) = q (1 - t^2),    rho sin(theta) = 2 q t

NumPy evaluates float64 tan as a vectorised loop but sin and cos through
scalar libm calls, so one tan costs a fraction of a sin and a cos. Because
T_k is a complex multiplication, the backward pass needs neither T_k^T nor
the angle: with proj = x_k rho e^{i theta} and g = dL/d(proj),

    dL/d(radius logit) = (1 - rho) <proj, g>
    dL/d(theta)        = proj x g          (the 2-D cross product)

Everything here is plain numpy with hand-written backprop. All trainable
parameters live in one flat float64 vector: encoder 0, ..., encoder K-1,
then the decoder; within each MLP, layer by layer, the (fan_out, fan_in)
weight matrix in row-major order followed by the bias. Model and optimizer
updates are functional (new objects out, inputs untouched).

The MLP kernel runs S networks of one shape at once: their flat blocks are
the rows of an (S, P) array, every layer's weights an (S, fan_out, fan_in)
view (mlp_layers), and batches are feature-major, (S, features, rows). The
K encoder blocks are contiguous, so all K encoders run as one stack, and
their K coordinate rows, side by side, take one pass of the shared decoder.

A lockstep group of C cells of one shape holds its parameters as (C, P)
rows, one flat vector per cell, and takes rows-first batches, (m, C, 2).
Its C x K encoders run as one stack and its C decoders as a stack over
K x m coordinates each; no number of one cell depends on the others, so
each cell gets exactly what it gets alone (one cell's (P,) vector is the
group of one). A pass holds at most PASS_COLUMNS cells x curves x rows,
so a group's pilot batches share one pass and its frame batches take a
pass per cell or few.

The SMN passes write every temporary into preallocated buffers, one set
per (cells, K, widths, rows) shape, kept in a small per-thread cache, so a
training step reuses the same memory instead of paging in fresh arrays.
Each set also owns a parameter buffer laid out like the parameters of its
stack, with the layer views of it and of its gradient built once; a pass
starts by copying the model's parameters in. Every buffer is written
before it is read, so earlier calls never change a result, and what a
public function returns is always a fresh array.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from itertools import zip_longest
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import NonFiniteError
from .link import Constellation
from .seeding import role_rng

__all__ = [
    "SmnModel",
    "AdamState",
    "symbol_transforms",
    "param_count",
    "init_model",
    "mlp_layers",
    "mlp_forward",
    "mlp_backward",
    "project",
    "project_all",
    "encode",
    "decode_curve",
    "weighted_loss",
    "loss_and_gradients",
    "collect_params",
    "with_params",
    "init_adam",
    "adam_step",
]


def param_count(widths) -> int:
    """Length of the flat parameter block of an MLP with these widths."""
    return sum((fan_in + 1) * fan_out
               for fan_in, fan_out in zip(widths[:-1], widths[1:]))


@dataclass(frozen=True)
class SmnModel:
    """K encoders (IQ -> curve coordinate), one shared polar decoder."""

    params: np.ndarray      # every encoder by symbol, then the decoder:
                            # (P,) for one cell, (C, P) for a group
    encoder_widths: tuple   # (2, hidden, 1)
    decoder_widths: tuple   # (1, hidden, 2)
    transforms: np.ndarray  # (K, 2, 2), fixed, never trained
    noise_variance: float   # an array of C for a group

    @property
    def order(self) -> int:
        return self.transforms.shape[0]

    def encoder_slice(self, k: int) -> slice:
        """Where symbol k's encoder sits in the flat parameter vector."""
        n = param_count(self.encoder_widths)
        return slice(k * n, (k + 1) * n)

    @property
    def decoder_slice(self) -> slice:
        """Where the shared decoder sits in the flat parameter vector."""
        return slice(self.order * param_count(self.encoder_widths), None)


def symbol_transforms(constellation: Constellation) -> np.ndarray:
    """Stack of per-symbol IQ multiplication matrices, shape (K, 2, 2)."""
    re = constellation.points.real
    im = constellation.points.imag
    t = np.empty((constellation.order, 2, 2))
    t[:, 0, 0] = re
    t[:, 0, 1] = -im
    t[:, 1, 0] = im
    t[:, 1, 1] = re
    return t


def init_model(constellation: Constellation, rng_seed: int,
               hidden_units: int = 4, init_std: float = 0.1,
               noise_variance: float = 1.0) -> SmnModel:
    """Fresh model with all weights and biases drawn from N(0, init_std^2)."""
    rng = role_rng(rng_seed, "init")
    enc, dec = (2, hidden_units, 1), (1, hidden_units, 2)
    size = constellation.order * param_count(enc) + param_count(dec)
    return SmnModel(params=init_std * rng.standard_normal(size),
                    encoder_widths=enc, decoder_widths=dec,
                    transforms=symbol_transforms(constellation),
                    noise_variance=float(noise_variance))


def mlp_layers(widths, blocks):
    """(weights, bias) views of every layer of stacked flat blocks
    (..., P): weights (..., fan_out, fan_in), bias (..., fan_out, 1)."""
    layers, pos = [], 0
    lead = blocks.shape[:-1]
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        end = pos + fan_out * fan_in
        # copy=False raises rather than copy: gradients are written here
        layers.append((blocks[..., pos:end].reshape(*lead, fan_out, fan_in,
                                                    copy=False),
                       blocks[..., end:end + fan_out, None]))
        pos = end + fan_out
    return layers


def mlp_forward(layers, x: np.ndarray, acts=None):
    """A stack of fully connected networks at once; tanh after every layer
    except the last.

    layers are the mlp_layers views of the stack's parameters, with any
    leading stack dimensions, and x the feature-major input,
    (..., fan_in, n), broadcast against the stack. Layer outputs are
    written into acts, one (..., fan_out, n) buffer per layer, when given,
    else into fresh arrays. Returns (output, cache); output is
    (..., fan_out, n) and cache holds x and every layer's output.
    """
    if acts is None:
        acts = [np.empty(np.broadcast_shapes(weights.shape[:-2],
                                             x.shape[:-2])
                         + (weights.shape[-2], x.shape[-1]))
                for weights, _ in layers]
    a, cache = x, [x]
    last = len(layers) - 1
    for idx, ((weights, bias), z) in enumerate(zip(layers, acts)):
        # a fan-in-1 layer is an outer product: broadcast, not matmul
        if weights.shape[-1] == 1:
            np.multiply(weights, a, out=z)
        else:
            np.matmul(weights, a, out=z)
        z += bias
        if idx != last:
            np.tanh(z, out=z)
        a = z
        cache.append(a)
    return a, cache


def mlp_backward(layers, cache, g_out, grads, g_ins=None, input_grad=True):
    """Backprop dL/d(output), shape (..., fan_out, n), through the stack.

    Writes dL/dW and dL/db into grads, the mlp_layers views of a gradient
    laid out like the parameters, and returns dL/d(input), shape
    (..., fan_in, n), or None without input_grad, which skips the first
    layer's input gradient. g_ins, when given, holds per layer the
    (..., fan_in, n) buffer its input gradient goes to. The tanh derivative
    1 - a^2 is formed in place of the cached hidden activations, so the
    cache is spent afterwards.
    """
    g = g_out
    for idx in range(len(layers) - 1, -1, -1):
        a = cache[idx]
        g_weights, g_bias = grads[idx]
        np.matmul(g, a.mT, out=g_weights)
        np.add.reduce(g, axis=-1, keepdims=True, out=g_bias)
        if idx == 0 and not input_grad:
            return None
        weights = layers[idx][0]
        g_in = (np.empty(g.shape[:-2] + (weights.shape[-1], g.shape[-1]))
                if g_ins is None else g_ins[idx])
        if weights.shape[-2] == 1:
            np.multiply(weights.mT, g, out=g_in)
        else:
            np.matmul(weights.mT, g, out=g_in)
        if idx:  # a is a hidden tanh output
            np.multiply(a, a, out=a)
            np.subtract(1.0, a, out=a)
            g_in *= a
        g = g_in
    return g


def _sigmoid(x, out, e, mask):
    """Logistic function of x into out (which may be x); e and mask are
    scratch shaped like x. 1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below, so
    the exp never overflows."""
    np.greater_equal(x, 0.0, out=mask)
    np.abs(x, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.add(1.0, e, out=out)
    np.copyto(e, 1.0, where=mask)
    return np.divide(e, out, out=out)


def _polar(rho, angle, out0, out1):
    """rho cos(angle) into out0 and rho sin(angle) into out1 by the
    half-angle form (see module doc); angle is left holding tan(angle/2).
    rho must share no memory with out0 or out1."""
    t = np.multiply(angle, 0.5, out=angle)
    np.tan(t, out=t)
    np.multiply(t, t, out=out0)
    np.add(out0, 1.0, out=out1)
    np.divide(rho, out1, out=out1)  # q
    np.subtract(1.0, out0, out=out0)
    out0 *= out1
    np.multiply(out1, t, out=out1)
    out1 += out1


class _Workspace:
    """Every buffer an SMN pass over C cells, S curves each, and m rows
    writes into."""

    def __init__(self, cells, curves, encoder_widths, decoder_widths, rows):
        c, s, m, n = cells, curves, rows, curves * rows
        # per cell the S encoders, then the decoder, laid out like
        # SmnModel.params; the layer views of the parameters and the
        # gradient are built once
        enc_size = param_count(encoder_widths)
        split = s * enc_size
        size = split + param_count(decoder_widths)
        params, self.grad = np.empty((c, size)), np.empty((c, size))
        self.enc_params = params[:, :split].reshape(c, s, enc_size)
        self.dec_params = params[:, split:]
        self.enc_layers = mlp_layers(encoder_widths, self.enc_params)
        self.dec_layers = mlp_layers(decoder_widths, self.dec_params)
        self.enc_grads = mlp_layers(
            encoder_widths, self.grad[:, :split].reshape(c, s, enc_size))
        self.dec_grads = mlp_layers(decoder_widths, self.grad[:, split:])
        self.finite = np.empty(self.grad.shape, dtype=bool)
        self.yt = np.empty((c, 1, 2, m))  # one cell's rows for all curves
        self.wt = np.empty((c, s, m))
        self.enc_acts = [np.empty((c, s, w, m)) for w in encoder_widths[1:]]
        # a cell's coordinates side by side
        self.lam = self.enc_acts[-1].reshape(c, 1, n)
        self.dec_acts = [np.empty((c, w, n)) for w in decoder_widths[1:]]
        # decoder outputs per curve: radius logit, then radius, then the
        # gradient at the logit; angle, then scratch, then the gradient at
        # the angle
        self.rho = self.dec_acts[-1][:, 0].reshape(c, s, m)
        self.angle = self.dec_acts[-1][:, 1].reshape(c, s, m)
        self.proj = np.empty((c, s, 2, m))
        self.tmp = np.empty((c, s, m))
        self.tmp2 = np.empty((c, s, m))
        self.mask = np.empty((c, s, m), dtype=bool)
        # input gradients: the decoder's goes to tmp. Its backward pass
        # ends before the encoders' starts, so at each hidden depth the two
        # share one buffer of c * n * (the wider of the two layers) floats.
        # The first also holds proj - y, then dL/d(proj), which are spent
        # before the backward pass starts.
        hidden = (encoder_widths[1:-1], decoder_widths[1:-1])
        widest = [max(pair) for pair in zip_longest(*hidden, fillvalue=0)]
        widest[0] = max(widest[0], 2)
        shared = [np.empty(c * n * w) for w in widest]
        self.resid = shared[0][:c * n * 2].reshape(c, s, 2, m)
        self.enc_g_ins = [None] + [buf[:c * n * w].reshape(c, s, w, m)
                                   for buf, w in zip(shared, hidden[0])]
        self.dec_g_ins = [self.tmp.reshape(c, 1, n)] + [
            buf[:c * n * w].reshape(c, w, n)
            for buf, w in zip(shared, hidden[1])]


# Most columns (cells x curves x rows) one SMN pass holds. The cells of a
# group share a pass up to this size, so pilot-sized batches of many cells
# take one pass, while frame-sized ones take a pass per cell or few: there
# stacking saves nothing and its buffers would outgrow the cache and the
# memory one cell needs.
PASS_COLUMNS = 4096

# The most recently used workspaces of this thread; a fit needs two (pilot
# rows and frame rows), and a third when a group's last pass is short.
_WORKSPACES = threading.local()
_WORKSPACE_LIMIT = 4


def _workspace(model: SmnModel, cells: int, curves: int,
               rows: int) -> _Workspace:
    cache = getattr(_WORKSPACES, "cache", None)
    if cache is None:
        cache = _WORKSPACES.cache = OrderedDict()
    key = (cells, curves, model.encoder_widths, model.decoder_widths, rows)
    ws = cache.pop(key, None)
    if ws is None:
        ws = _Workspace(*key)
    cache[key] = ws  # most recently used last
    if len(cache) > _WORKSPACE_LIMIT:
        cache.popitem(last=False)
    return ws


def _cell_params(model: SmnModel) -> np.ndarray:
    """The parameters as (C, P) rows, one per cell; one cell's (P,) vector
    is a group of one."""
    return model.params.reshape(-1, model.params.shape[-1])


def _passes(cells: int, curves: int, rows: int):
    """Cell slices of the passes over a group: as many cells per pass as
    PASS_COLUMNS allows, and at least one."""
    per = max(1, PASS_COLUMNS // (curves * rows))
    return [slice(i, min(i + per, cells)) for i in range(0, cells, per)]


def _forward(model: SmnModel, params: np.ndarray, ws: _Workspace,
             curves: slice):
    """Projections of the rows in ws.yt onto the given curves of the cells
    whose (cells, P) parameters are given, into ws.proj. Returns the MLP
    caches of the encoders and of the decoder."""
    split = model.decoder_slice.start
    np.copyto(ws.enc_params,
              params[:, :split].reshape(len(params), model.order, -1)[
                  :, curves])
    np.copyto(ws.dec_params, params[:, split:])
    _, enc_cache = mlp_forward(ws.enc_layers, ws.yt, ws.enc_acts)
    _, dec_cache = mlp_forward(ws.dec_layers, ws.lam, ws.dec_acts)
    rho, cart0, cart1 = ws.rho, ws.tmp, ws.tmp2
    _sigmoid(rho, rho, cart1, ws.mask)
    _polar(rho, ws.angle, cart0, cart1)
    # proj = x_k * cart in complex form
    re = model.transforms[curves, 0, :1]
    im = model.transforms[curves, 1, :1]
    p0, p1, tmp = ws.proj[:, :, 0], ws.proj[:, :, 1], ws.angle
    np.multiply(re, cart0, out=p0)
    np.multiply(im, cart1, out=tmp)
    p0 -= tmp
    np.multiply(im, cart0, out=p1)
    np.multiply(re, cart1, out=tmp)
    p1 += tmp
    return enc_cache, dec_cache


def _cells_view(model: SmnModel, y: np.ndarray, w=None):
    """Rows-first batch (m, C, ...) of a group's cells; one cell's (m, ...)
    batch is a group of one."""
    if model.params.ndim == 1:
        y = y[:, None]
        w = None if w is None else w[:, None]
    return y, w


def project(model: SmnModel, k: int, y: np.ndarray) -> np.ndarray:
    """Project IQ points onto symbol k's learned curve (one cell's model).

    Accepts a single (2,) point or an (m, 2) batch and mirrors the shape.
    """
    y = np.asarray(y, dtype=float)
    rows = y[None] if y.ndim == 1 else y
    ws = _workspace(model, 1, 1, rows.shape[0])
    np.copyto(ws.yt[0, 0], rows.T)
    _forward(model, model.params[None], ws, slice(k, k + 1))
    proj = ws.proj[0, 0].T.copy()
    return proj[0] if y.ndim == 1 else proj


def project_all(model: SmnModel, y: np.ndarray) -> np.ndarray:
    """Projections onto every curve: (m, K, 2) for one cell's (m, 2) rows,
    (m, C, K, 2) for a group's (m, C, 2) rows."""
    y, _ = _cells_view(model, np.asarray(y, dtype=float))
    m, c = y.shape[:2]
    params = _cell_params(model)
    proj = np.empty((m, c, model.order, 2))
    for part in _passes(c, model.order, m):
        ws = _workspace(model, part.stop - part.start, model.order, m)
        np.copyto(ws.yt[:, 0], y[:, part].transpose(1, 2, 0))
        _forward(model, params[part], ws, slice(None))
        np.copyto(proj[:, part], ws.proj.transpose(3, 0, 1, 2))
    return proj[:, 0] if model.params.ndim == 1 else proj


def encode(model: SmnModel, k: int, y: np.ndarray) -> np.ndarray:
    """Curve coordinates of IQ rows under symbol k's encoder, shape (m,)."""
    layers = mlp_layers(model.encoder_widths,
                        model.params[None, model.encoder_slice(k)])
    lam, _ = mlp_forward(layers,
                         np.ascontiguousarray(np.asarray(y, dtype=float).T))
    return lam[0, 0]


def decode_curve(model: SmnModel, lam_grid: np.ndarray) -> np.ndarray:
    """Sample every symbol curve at the given coordinates.

    Returns (K, len(lam_grid), 2); row k is T_k applied to the canonical
    curve, so the K polylines are rigid copies of one another.
    """
    lam = np.asarray(lam_grid, dtype=float).reshape(1, 1, -1)
    layers = mlp_layers(model.decoder_widths,
                        model.params[None, model.decoder_slice])
    u, _ = mlp_forward(layers, lam)
    rho, angle = u[0]
    cart = np.empty((2, rho.size))
    _sigmoid(rho, rho, cart[0], np.empty(rho.shape, dtype=bool))
    _polar(rho, angle, cart[0], cart[1])
    return (model.transforms @ cart).transpose(0, 2, 1)


def _check_batch(model, y, w):
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    cells = model.params.shape[:-1]
    if y.ndim != 2 + len(cells) or y.shape[1:] != cells + (2,):
        raise ValueError(f"y must be (m, {', '.join(map(str, cells + (2,)))})"
                         f", got {y.shape}")
    if w.shape != y.shape[:-1] + (model.order,):
        raise ValueError(f"w must be {y.shape[:-1] + (model.order,)}, "
                         f"got {w.shape}")
    return y, w


def weighted_loss(model: SmnModel, y: np.ndarray, w: np.ndarray):
    """(1/m) sum_i sum_k w_ik ||y_i - proj_k(y_i)||^2; for a group, an
    array with one such loss per cell."""
    y, w = _check_batch(model, y, w)
    proj = project_all(model, y)
    d2 = np.sum((y[..., None, :] - proj) ** 2, axis=-1)
    # each cell's rows contiguous, so a cell's mean sums like one cell's
    per_row = np.ascontiguousarray(np.sum(w * d2, axis=-1).T)
    loss = np.mean(per_row, axis=-1)
    return float(loss) if model.params.ndim == 1 else loss


def collect_params(model: SmnModel) -> np.ndarray:
    """The flat trainable parameter vector (encoders by symbol, then decoder)."""
    return model.params


def with_params(model: SmnModel, params) -> SmnModel:
    """New model with the flat parameter vector swapped in."""
    params = np.asarray(params, dtype=float)
    if params.shape != model.params.shape:
        raise ValueError(f"params must have shape {model.params.shape}, "
                         f"got {params.shape}")
    return replace(model, params=params)


def loss_and_gradients(model: SmnModel, y: np.ndarray, w: np.ndarray):
    """Weighted reconstruction loss and its gradient, laid out like the
    parameters.

    For one cell's model, y is (m, 2) and w (m, K), and the result a float
    and a flat vector. For a group, whose parameters are (C, P), y is
    (m, C, 2) and w (m, C, K), and the result one loss per cell, (C,), and
    one gradient row per cell, (C, P). The shared decoder's gradient sums
    the contributions of every symbol curve; the fixed transforms get none.
    Raises NonFiniteError if anything overflows to NaN/Inf.
    """
    y, w = _cells_view(model, *_check_batch(model, y, w))
    m, c = y.shape[:2]
    params = _cell_params(model)
    loss, grad = np.empty(c), np.empty(params.shape)
    for part in _passes(c, model.order, m):
        ws = _workspace(model, part.stop - part.start, model.order, m)
        np.copyto(ws.yt[:, 0], y[:, part].transpose(1, 2, 0))
        np.copyto(ws.wt, w[:, part].transpose(1, 2, 0))
        loss[part] = _loss_pass(model, params[part], ws)
        if not (np.isfinite(loss[part]).all()
                and np.isfinite(ws.grad, out=ws.finite).all()):
            raise NonFiniteError("loss or gradient overflowed to NaN/Inf")
        grad[part] = ws.grad
    if model.params.ndim == 1:
        return float(loss[0]), grad[0]
    return loss, grad


def _loss_pass(model: SmnModel, params: np.ndarray, ws: _Workspace):
    """One pass of loss_and_gradients over the cells whose parameters are
    given; writes their gradient into ws.grad and returns their losses."""
    c, _, m = ws.wt.shape
    enc_cache, dec_cache = _forward(model, params, ws, slice(None))

    g, tmp, tmp2 = ws.resid, ws.tmp, ws.tmp2
    np.subtract(ws.proj, ws.yt, out=g)
    np.multiply(g[:, :, 0], g[:, :, 0], out=tmp)
    np.multiply(g[:, :, 1], g[:, :, 1], out=tmp2)
    tmp += tmp2
    tmp *= ws.wt
    loss = tmp.reshape(c, -1).sum(axis=1) / m

    np.multiply(ws.wt, 2.0 / m, out=tmp)
    np.multiply(g, tmp[:, :, None, :], out=g)
    p0, p1 = ws.proj[:, :, 0], ws.proj[:, :, 1]
    g0, g1 = g[:, :, 0], g[:, :, 1]
    # the decoder output gradient overwrites its output (see module doc)
    g_angle, g_rho = ws.angle, ws.rho
    np.multiply(p0, g1, out=g_angle)
    np.multiply(p1, g0, out=tmp)
    g_angle -= tmp
    np.multiply(p0, g0, out=tmp)
    np.multiply(p1, g1, out=tmp2)
    tmp += tmp2
    np.subtract(1.0, g_rho, out=tmp2)
    np.multiply(tmp, tmp2, out=g_rho)

    g_lam = mlp_backward(ws.dec_layers, dec_cache, ws.dec_acts[-1],
                         ws.dec_grads, ws.dec_g_ins)
    mlp_backward(ws.enc_layers, enc_cache,
                 g_lam.reshape(c, model.order, 1, m), ws.enc_grads,
                 ws.enc_g_ins, input_grad=False)
    return loss


@dataclass(frozen=True)
class AdamState:
    step: int
    first_moment: np.ndarray
    second_moment: np.ndarray


def init_adam(params) -> AdamState:
    zeros = np.zeros(np.shape(params))
    return AdamState(step=0, first_moment=zeros, second_moment=zeros.copy())


def adam_step(params, grads, state: AdamState, learning_rate: float = 1e-3,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """One Adam update of a parameter vector; returns (new_params, new_state)."""
    t = state.step + 1
    m1 = beta1 * state.first_moment + (1.0 - beta1) * grads
    v = beta2 * state.second_moment + (1.0 - beta2) * grads * grads
    mhat = m1 / (1.0 - beta1 ** t)
    vhat = v / (1.0 - beta2 ** t)
    new_params = params - learning_rate * mhat / (np.sqrt(vhat) + eps)
    return new_params, AdamState(step=t, first_moment=m1, second_moment=v)
