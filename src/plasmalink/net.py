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
scalar libm calls, so one tan costs a fraction of a sin and a cos.

Training works in the canonical frame. For a unit-modulus (PSK) symbol,
T_k is a rotation, so ||y - x_k p|| = ||conj(x_k) y - p|| for the
canonical point p = rho e^{i theta}: the loss compares p with the
derotated rows u_k = conj(x_k) y, which a Batch forms once per Adam run,
and a training step never rotates p. Every distance of a row to a curve
is ||u_k - p||^2 (distances), and every loss their weighted sum
(Batch.loss). Rotation does not change <p, g> or the 2-D cross product
p x g, so with g = dL/dp the backward pass needs neither T_k nor the angle:

    dL/d(radius logit) = (1 - rho) <p, g>
    dL/d(theta)        = p x g

That is the training path: a Batch, its buffers and _distance_pass. A
fitted cell is read through the inference path, encode and then decode
(the canonical points, which are the fading estimate), with no Batch;
decode_curve and project_all rotate those points by T_k onto the curves.

Everything here is plain numpy with hand-written backprop. All trainable
parameters live in one float64 vector: encoder 0, ..., encoder K-1, then
the decoder; within each MLP, layer by layer, one (fan_out, fan_in + 1)
matrix [W | b] in row-major order (the augmented order, mlp_layers), the
order the kernel reads and Adam updates. init_model draws its values in
flat order, each layer's weights then its bias, and lays them out once
(mlp_order). Model and optimizer updates are functional (new objects out,
inputs untouched). Every layer input carries a constant ones row below its
features (mlp_input), so a layer is one matmul with its bias folded in,
and its bias gradient the last column of the weight-gradient matmul.

The MLP kernel runs S networks of one shape at once: their augmented
blocks are the rows of an (S, P) array, every layer an
(S, fan_out, fan_in + 1) view (mlp_layers), and batches are
feature-major, (S, features + 1, rows). The K encoder blocks are
contiguous, so all K encoders run as one stack, and their K coordinate
rows, side by side, take one pass of the shared decoder. There is one
such pass: every distance, projection, loss and gradient covers all K
curves, and a caller that wants one symbol's curve per row gathers it from
encode's (rows, K) coordinates.

A lockstep group of C cells of one shape holds its parameters as (C, P)
rows, one parameter vector per cell, and takes rows-first batches,
(m, C, 2). Its C x K encoders run as one stack and its C decoders as a
stack over K x m coordinates each; no number of one cell depends on the
others, so each cell gets exactly what it gets alone (one cell's (P,)
vector is the group of one). A pass holds at most PASS_COLUMNS cells x
curves x rows, so a group's pilot batches share one pass and its frame
batches take a pass per cell or few.

The SMN passes write every temporary into preallocated buffers that the
Batch of their rows owns, one set per pass size, so every training step
over one Batch reuses the same memory instead of paging in fresh arrays;
the buffers go when the Batch goes, and a call given arrays builds its
own Batch. Each set also owns a parameter and a gradient buffer, with
the layer views of both built once; a pass starts by copying the model's
parameters in and ends by copying the gradient out. Every buffer is
written before it is read, except the ones rows, which are written when
the buffer is made and never again, so earlier calls never change a
result, and what a public function returns is always a fresh array.
mlp_backward, too, writes only into buffers its caller built.
"""

from __future__ import annotations

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
    "mlp_order",
    "mlp_layers",
    "mlp_input",
    "mlp_activations",
    "mlp_forward",
    "mlp_backward",
    "project_all",
    "encode",
    "decode",
    "decode_curve",
    "Batch",
    "distances",
    "weighted_loss",
    "loss_and_gradients",
    "collect_params",
    "with_params",
    "init_adam",
    "adam_step",
]


def param_count(widths) -> int:
    """Length of the parameter block of an MLP with these widths."""
    return sum((fan_in + 1) * fan_out
               for fan_in, fan_out in zip(widths[:-1], widths[1:]))


@dataclass(frozen=True)
class SmnModel:
    """K encoders (IQ -> curve coordinate), one shared polar decoder."""

    params: np.ndarray      # every encoder by symbol, then the decoder,
                            # each in augmented order (mlp_layers):
                            # (P,) for one cell, (C, P) for a group
    encoder_widths: tuple   # (2, hidden, 1)
    decoder_widths: tuple   # (1, hidden, 2)
    transforms: np.ndarray  # (K, 2, 2), fixed, never trained
    noise_variance: float   # an array of C for a group

    @property
    def order(self) -> int:
        return self.transforms.shape[0]

    @property
    def decoder_slice(self) -> slice:
        """Where the shared decoder sits in the parameter vector."""
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
               hidden_units: int = 4, init_std: float = 0.1) -> SmnModel:
    """Fresh model: weights and biases from N(0, init_std^2), sigma^2 = 1,
    drawn in flat order and laid out in augmented order."""
    k = constellation.order
    enc, dec = (2, hidden_units, 1), (1, hidden_units, 2)
    split = k * param_count(enc)
    flat = init_std * role_rng(rng_seed, "init").standard_normal(
        split + param_count(dec))
    params = np.concatenate([
        mlp_order(enc, flat[:split].reshape(k, -1)).ravel(),
        mlp_order(dec, flat[split:])])
    return SmnModel(params=params, encoder_widths=enc, decoder_widths=dec,
                    transforms=symbol_transforms(constellation),
                    noise_variance=1.0)


def mlp_order(widths, flat: np.ndarray) -> np.ndarray:
    """Stacked MLP blocks (..., P) drawn in flat order (layer by layer, the
    (fan_out, fan_in) weights row-major, then the bias), laid out in
    augmented order, which mlp_layers views: layer by layer, the
    (fan_out, fan_in + 1) matrix [W | b] row-major."""
    parts, pos = [], 0
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        bias = pos + fan_out * fan_in
        parts.append(np.hstack([
            np.arange(pos, bias).reshape(fan_out, fan_in),
            np.arange(bias, bias + fan_out)[:, None]]).ravel())
        pos = bias + fan_out
    return flat.take(np.concatenate(parts), axis=-1)


def mlp_layers(widths, blocks):
    """[W | b] views of every layer of stacked blocks (..., P) in augmented
    order: (..., fan_out, fan_in + 1) each."""
    layers, pos = [], 0
    lead = blocks.shape[:-1]
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        end = pos + fan_out * (fan_in + 1)
        # copy=False raises rather than copy: gradients are written here
        layers.append(blocks[..., pos:end].reshape(*lead, fan_out,
                                                   fan_in + 1, copy=False))
        pos = end
    return layers


def _ones_row(shape) -> np.ndarray:
    """A buffer of this (..., features + 1, n) shape whose last feature row
    is ones and the rest unwritten."""
    a = np.empty(shape)
    a[..., -1, :] = 1.0
    return a


def mlp_input(x: np.ndarray) -> np.ndarray:
    """Feature-major rows (..., features, n) with the ones row appended,
    as every layer input carries it."""
    a = _ones_row(x.shape[:-2] + (x.shape[-2] + 1, x.shape[-1]))
    a[..., :-1, :] = x
    return a


def mlp_activations(layers, x: np.ndarray):
    """Fresh output buffers of every layer for the input x (see
    mlp_forward); the hidden ones carry their ones row."""
    lead = np.broadcast_shapes(layers[0].shape[:-2], x.shape[:-2])
    n = x.shape[-1]
    return ([_ones_row(lead + (layer.shape[-2] + 1, n))
             for layer in layers[:-1]]
            + [np.empty(lead + (layers[-1].shape[-2], n))])


def mlp_forward(layers, x: np.ndarray, acts=None):
    """A stack of fully connected networks at once; tanh after every layer
    except the last.

    layers are the mlp_layers views of the stack's parameters, with any
    leading stack dimensions, and x the feature-major input with its ones
    row (mlp_input), (..., fan_in + 1, n), broadcast against the stack.
    Each layer is one matmul, its bias folded in. Layer outputs are written
    into acts (mlp_activations), else into fresh buffers; a hidden layer's
    output keeps its ones row below, as the next layer's input. Returns
    (output, cache); output is (..., fan_out, n) and cache holds x and
    every layer's output.
    """
    if acts is None:
        acts = mlp_activations(layers, x)
    a, cache = x, [x]
    last = len(layers) - 1
    for idx, (layer, z) in enumerate(zip(layers, acts)):
        if idx == last:
            np.matmul(layer, a, out=z)
        else:
            out = z[..., :-1, :]
            np.matmul(layer, a, out=out)
            np.tanh(out, out=out)
        a = z
        cache.append(a)
    return a, cache


def mlp_backward(layers, cache, g_out, grads, g_ins):
    """Backprop dL/d(output), shape (..., fan_out, n), through the stack.

    Writes dL/d[W | b] into grads, the mlp_layers views of a gradient laid
    out like the parameters (the ones row makes the bias gradient the last
    column of one matmul), and each layer's input gradient into its
    (..., fan_in, n) buffer in g_ins; returns the first layer's, dL/d(input),
    or None if g_ins[0] is None, which skips it. The tanh derivative 1 - a^2
    is formed in place of the cached hidden activations, above their ones
    rows, so the cache is spent afterwards.
    """
    g = g_out
    for idx in range(len(layers) - 1, -1, -1):
        a = cache[idx]
        np.matmul(g, a.mT, out=grads[idx])
        g_in = g_ins[idx]
        if g_in is None:
            return None
        weights = layers[idx][..., :-1]
        # a fan-out-1 layer's input gradient is an outer product
        if weights.shape[-2] == 1:
            np.multiply(weights.mT, g, out=g_in)
        else:
            np.matmul(weights.mT, g, out=g_in)
        if idx:  # a is a hidden tanh output above its ones row
            h = a[..., :-1, :]
            np.multiply(h, h, out=h)
            np.subtract(1.0, h, out=h)
            g_in *= h
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


def encode(model: SmnModel, y: np.ndarray) -> np.ndarray:
    """Curve coordinates of one cell's (m, 2) IQ rows under every symbol's
    encoder, (m, K): the K encoders as one stack."""
    blocks = model.params[:model.decoder_slice.start].reshape(model.order, -1)
    lam, _ = mlp_forward(mlp_layers(model.encoder_widths, blocks),
                         mlp_input(np.asarray(y, dtype=float).T))
    return lam[:, 0].T


def decode(model: SmnModel, lam) -> np.ndarray:
    """Canonical curve points at the given coordinates, (len(lam), 2): one
    pass of the shared decoder, before any symbol's T_k."""
    u, _ = mlp_forward(
        mlp_layers(model.decoder_widths, model.params[model.decoder_slice]),
        mlp_input(np.asarray(lam, dtype=float)[None]))
    rho, angle = u
    cart = np.empty((2, rho.size))
    _sigmoid(rho, rho, cart[0], np.empty(rho.shape, dtype=bool))
    _polar(rho, angle, cart[0], cart[1])
    return cart.T


def decode_curve(model: SmnModel, lam_grid: np.ndarray) -> np.ndarray:
    """Sample every symbol curve at the given coordinates.

    Returns (K, len(lam_grid), 2); row k is T_k applied to the canonical
    curve, so the K polylines are rigid copies of one another.
    """
    return (model.transforms @ decode(model, lam_grid).T).transpose(0, 2, 1)


def project_all(model: SmnModel, y: np.ndarray) -> np.ndarray:
    """Projections of one cell's (m, 2) rows onto every curve, (m, K, 2):
    each row's canonical point at its coordinate on curve k, T_k applied."""
    lam = encode(model, y)
    p = decode(model, lam.T.ravel()).reshape(model.order, len(lam), 2)
    return (p @ model.transforms.mT).transpose(1, 0, 2)


class _Workspace:
    """Every buffer an SMN pass over C cells of S = K curves each and m
    rows writes into, for encoders (2, h_enc, 1) and a decoder
    (1, h_dec, 2): one hidden layer each, as init_model builds them."""

    def __init__(self, cells, curves, encoder_widths, decoder_widths, rows):
        c, s, m, n = cells, curves, rows, curves * rows
        (_, h_enc, _), (_, h_dec, _) = encoder_widths, decoder_widths
        # per cell the K encoders, then the decoder, laid out as the
        # model's parameters; the layer views are built once
        enc = param_count(encoder_widths)
        split = s * enc
        size = split + param_count(decoder_widths)
        self.params, self.grad = np.empty((c, size)), np.empty((c, size))
        self.enc_layers = mlp_layers(
            encoder_widths, self.params[:, :split].reshape(c, s, enc))
        self.dec_layers = mlp_layers(decoder_widths, self.params[:, split:])
        self.enc_grads = mlp_layers(
            encoder_widths, self.grad[:, :split].reshape(c, s, enc))
        self.dec_grads = mlp_layers(decoder_widths, self.grad[:, split:])
        self.finite = np.empty(self.grad.shape, dtype=bool)
        # the decoder input: a cell's coordinates side by side, which the
        # encoders' last layer writes, over the ones row
        self.lam = _ones_row((c, 2, n))
        self.enc_acts = [_ones_row((c, s, h_enc + 1, m)),
                         self.lam[:, :1].reshape(c, s, 1, m, copy=False)]
        self.dec_acts = [_ones_row((c, h_dec + 1, n)), np.empty((c, 2, n))]
        # decoder outputs per curve: radius logit, then radius, then the
        # gradient at the logit; angle, then scratch, then the gradient at
        # the angle
        self.rho = self.dec_acts[-1][:, 0].reshape(c, s, m)
        self.angle = self.dec_acts[-1][:, 1].reshape(c, s, m)
        self.mask = np.empty((c, s, m), dtype=bool)
        # input gradients: the decoder's goes to the radius row of its
        # output, spent by then, and the encoders' first layer needs none.
        # The decoder's backward pass ends before the encoders' starts, so
        # their hidden layers share one buffer of c * n * (the wider of the
        # two) floats. It also holds five (c, s, m) arrays, spent before
        # the backward pass starts: the canonical curve point (tmp, tmp2),
        # then three scratch arrays of the distances (residuals, then their
        # gradients).
        shared = np.empty(c * n * max(h_enc, h_dec, 5))
        self.tmp, self.tmp2, *self.scratch = shared[:5 * c * n].reshape(
            5, c, s, m)
        self.enc_g_ins = [None, shared[:c * n * h_enc].reshape(c, s, h_enc, m)]
        self.dec_g_ins = [self.dec_acts[-1][:, :1],
                          shared[:c * n * h_dec].reshape(c, h_dec, n)]


# Most columns (cells x curves x rows) one SMN pass holds. The cells of a
# group share a pass up to this size, so pilot-sized batches of many cells
# take one pass, while frame-sized ones take a pass per cell or few: there
# stacking saves nothing and its buffers would outgrow the cache and the
# memory one cell needs.
PASS_COLUMNS = 4096


class Batch:
    """The rows of one cell or of a group, laid out once for every SMN pass
    of a fit over them.

    Built from (model, y, w) as loss_and_gradients takes them; without w
    the weights are zero until reweigh sets them. Holds its own copies,
    cell-major:

      x  the rows, feature-major with the ones row, (C, 1, 3, m)
      u  each curve's derotated rows conj(x_k) y, (2, C, K, m)
      w  the weights times 2/m, (C, K, m)

    The pass compares the decoder's canonical point p with u_k: for a
    unit-modulus symbol ||y - x_k p|| = ||conj(x_k) y - p||, so a model
    whose transforms are not rotations is refused. len() is the row count.

    A Batch also owns the buffers of its passes, for its model's widths:
    passes lists each pass's slice of the cells, as many cells as
    PASS_COLUMNS allows and at least one, with a workspace per distinct
    pass size. Every pass writes into them, so a Batch serves one thread
    at a time.
    """

    __slots__ = ("x", "u", "w", "widths", "passes")

    def __init__(self, model: SmnModel, y, w=None):
        y = np.asarray(y, dtype=float)
        want = model.params.shape[:-1] + (2,)
        if y.shape[1:] != want:
            raise ValueError(f"y must be (m, {', '.join(map(str, want))}), "
                             f"got {y.shape}")
        w = None if w is None else np.asarray(w, dtype=float)
        if w is not None and w.shape != y.shape[:-1] + (model.order,):
            raise ValueError(f"w must be {y.shape[:-1] + (model.order,)}, "
                             f"got {w.shape}")
        t = model.transforms
        if not np.abs(np.hypot(t[:, 0, 0], t[:, 1, 0]) - 1.0).max() <= 1e-12:
            raise ValueError("the symbol transforms must be unit-modulus "
                             "to 1e-12")
        # rows-first (m, C, 2); one cell's rows are a group of one
        m = len(y)
        yt = y.reshape(m, -1, 2).transpose(1, 2, 0)[:, None]
        c = len(yt)
        self.x = mlp_input(yt)
        # T_k^T is multiplication by conj(x_k); each IQ component of u is
        # one contiguous (C, K, m) block
        self.u = np.empty((2, c, model.order, m))
        np.matmul(t.mT, yt, out=self.u.transpose(1, 2, 0, 3))
        self.w = np.zeros((c, model.order, m))
        if w is not None:
            self.reweigh(w.reshape(m, c, -1).transpose(1, 2, 0))
        self.widths = (model.encoder_widths, model.decoder_widths)
        per = max(1, PASS_COLUMNS // (model.order * m))
        spaces, self.passes = {}, []
        for i in range(0, c, per):
            size = min(per, c - i)
            if size not in spaces:
                spaces[size] = _Workspace(size, model.order, *self.widths, m)
            self.passes.append((slice(i, i + size), spaces[size]))

    def __len__(self) -> int:
        return self.x.shape[-1]

    def reweigh(self, w) -> None:
        """Take new weights, cell-major, broadcast to (C, K, m); the rows
        stay."""
        np.multiply(w, 2.0 / len(self), out=self.w)

    def loss(self, d2: np.ndarray, cells=slice(None), out=None):
        """The training loss (1/m) sum_i sum_k w_ik d2_ik per cell, (c,), of
        the distances d2, (c, K, m), of the batch's cells in cells; the
        weighted terms go to out, which may be d2."""
        t = np.multiply(d2, self.w[cells], out=out)
        return t.reshape(len(t), -1).sum(axis=1) * 0.5


def _cell_passes(model: SmnModel, batch: Batch):
    """Per pass of a Batch built for the model: its slice of the cells,
    their (cells, P) parameters and the pass's workspace."""
    params = model.params.reshape(-1, model.params.shape[-1])
    got = batch.w.shape[:2], batch.widths
    want = ((len(params), model.order),
            (model.encoder_widths, model.decoder_widths))
    if got != want:
        raise ValueError(f"batch of {got[0]} cells x curves and widths "
                         f"{got[1]} for a model of {want[0]} and {want[1]}")
    for part, ws in batch.passes:
        yield part, params[part], ws


def _distance_pass(params: np.ndarray, batch: Batch, part: slice,
                   ws: _Workspace, d2: np.ndarray):
    """The canonical curve points p on every curve of the cells of a batch
    in part, whose (cells, P) parameters are given, into ws.tmp and
    ws.tmp2, their residuals p - u_k into ws.scratch and the squared
    distances, the residuals' squared norms, into d2, (c, K, m); returns
    the MLP caches of the encoders and of the decoder, and the
    residuals."""
    np.copyto(ws.params, params)
    _, enc_cache = mlp_forward(ws.enc_layers, batch.x[part], ws.enc_acts)
    _, dec_cache = mlp_forward(ws.dec_layers, ws.lam, ws.dec_acts)
    p0, p1 = ws.tmp, ws.tmp2
    _sigmoid(ws.rho, ws.rho, p1, ws.mask)
    _polar(ws.rho, ws.angle, p0, p1)
    d0, d1, _ = ws.scratch
    np.subtract(p0, batch.u[0, part], out=d0)
    np.subtract(p1, batch.u[1, part], out=d1)
    # angle holds tan(theta/2), spent: scratch until the angle gradient
    np.multiply(d0, d0, out=d2)
    np.multiply(d1, d1, out=ws.angle)
    d2 += ws.angle
    return (enc_cache, dec_cache), d0, d1


def distances(model: SmnModel, batch: Batch) -> np.ndarray:
    """Squared distances ||u_k - p||^2 of every cell, curve and row of a
    Batch built for the model, (C, K, m): each row's squared distance to
    its projection x_k p onto curve k, as the training pass forms it."""
    d2 = np.empty(batch.w.shape)
    for part, params, ws in _cell_passes(model, batch):
        _distance_pass(params, batch, part, ws, d2[part])
    return d2


def weighted_loss(model: SmnModel, y, w=None):
    """(1/m) sum_i sum_k w_ik ||y_i - proj_k(y_i)||^2, the loss of the
    training pass, of a Batch or of arrays y and w as loss_and_gradients
    takes them: Batch.loss of the distances. For a group, an array with
    one such loss per cell."""
    batch = y if isinstance(y, Batch) else Batch(model, y, w)
    d2 = distances(model, batch)
    loss = batch.loss(d2, out=d2)
    return float(loss[0]) if model.params.ndim == 1 else loss


def collect_params(model: SmnModel) -> np.ndarray:
    """The trainable parameter vector (encoders by symbol, then decoder)."""
    return model.params


def with_params(model: SmnModel, params) -> SmnModel:
    """New model with the parameter vector swapped in."""
    params = np.asarray(params, dtype=float)
    if params.shape != model.params.shape:
        raise ValueError(f"params must have shape {model.params.shape}, "
                         f"got {params.shape}")
    return replace(model, params=params)


def loss_and_gradients(model: SmnModel, y, w=None):
    """Weighted reconstruction loss and its gradient, laid out like the
    parameters.

    Takes a Batch built for the model, or the arrays it is built from: for
    one cell's model, y is (m, 2) and w (m, K), and the result a float and
    a (P,) vector. For a group, whose parameters are (C, P), y is (m, C, 2)
    and w (m, C, K), and the result one loss per cell, (C,), and one
    gradient row per cell, (C, P). The shared decoder's gradient sums the
    contributions of every symbol curve; the fixed transforms get none.
    Raises NonFiniteError if anything overflows to NaN/Inf.
    """
    batch = y if isinstance(y, Batch) else Batch(model, y, w)
    loss = np.empty(len(batch.w))
    grad = np.empty((len(batch.w), model.params.shape[-1]))
    for part, params, ws in _cell_passes(model, batch):
        loss[part] = _loss_pass(params, batch, part, ws)
        if not (np.isfinite(loss[part]).all()
                and np.isfinite(ws.grad, out=ws.finite).all()):
            raise NonFiniteError("loss or gradient overflowed to NaN/Inf")
        np.copyto(grad[part], ws.grad)
    if model.params.ndim == 1:
        return float(loss[0]), grad[0]
    return loss, grad


def _loss_pass(params: np.ndarray, batch: Batch, part: slice,
               ws: _Workspace):
    """One pass over the cells of a batch in part, whose parameters are
    given: returns their losses and writes their gradient into ws.grad.
    Works in the canonical frame, on the residual p - u_k (see Batch)."""
    p0, p1, rho, angle = ws.tmp, ws.tmp2, ws.rho, ws.angle
    tmp = ws.scratch[2]
    (enc_cache, dec_cache), d0, d1 = _distance_pass(params, batch, part, ws,
                                                    tmp)
    loss = batch.loss(tmp, part, out=tmp)

    # g = dL/dp, in place of the residual; the decoder output gradient
    # overwrites its output (see module doc)
    w = batch.w[part]
    g0, g1 = np.multiply(d0, w, out=d0), np.multiply(d1, w, out=d1)
    np.multiply(p0, g1, out=angle)
    np.multiply(p1, g0, out=tmp)
    angle -= tmp
    g0 *= p0
    g1 *= p1
    g0 += g1
    np.subtract(1.0, rho, out=rho)
    rho *= g0

    g_lam = mlp_backward(ws.dec_layers, dec_cache, ws.dec_acts[-1],
                         ws.dec_grads, ws.dec_g_ins)
    mlp_backward(ws.enc_layers, enc_cache,
                 g_lam.reshape(w.shape[:2] + (1, -1)), ws.enc_grads,
                 ws.enc_g_ins)
    return loss


@dataclass(frozen=True)
class AdamState:
    step: int
    first_moment: np.ndarray
    second_moment: np.ndarray


def init_adam(params) -> AdamState:
    zeros = np.zeros(np.shape(params))
    return AdamState(step=0, first_moment=zeros, second_moment=zeros.copy())


# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adam_step(params, grads, state: AdamState, learning_rate: float = 1e-3):
    """One Adam update of a parameter vector; returns (new_params, new_state)."""
    t = state.step + 1
    m1 = ADAM_BETA1 * state.first_moment + (1.0 - ADAM_BETA1) * grads
    v = ADAM_BETA2 * state.second_moment + (1.0 - ADAM_BETA2) * grads * grads
    mhat = m1 / (1.0 - ADAM_BETA1 ** t)
    vhat = v / (1.0 - ADAM_BETA2 ** t)
    new_params = params - learning_rate * mhat / (np.sqrt(vhat) + ADAM_EPS)
    return new_params, AdamState(step=t, first_moment=m1, second_moment=v)
