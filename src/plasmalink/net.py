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

Everything here is plain numpy with hand-written backprop. All trainable
parameters live in one flat float64 vector: encoder 0, ..., encoder K-1,
then the decoder; within each MLP, layer by layer, the (fan_out, fan_in)
weight matrix in row-major order followed by the bias. Model and optimizer
updates are functional (new objects out, inputs untouched).

Batches run feature-major: an MLP maps (fan_in, rows) to (fan_out, rows),
and the public functions transpose their (rows, 2) IQ input once. The
shared decoder runs once per group of curves whose coordinates are
stacked side by side (see GROUP_ELEMENTS).
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

    params: np.ndarray      # flat, every encoder by symbol, then the decoder
    encoder_widths: tuple   # (2, hidden, 1)
    decoder_widths: tuple   # (1, hidden, 2)
    transforms: np.ndarray  # (K, 2, 2), fixed, never trained
    noise_variance: float

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


# A group of curves shares one decoder pass over its stacked coordinates.
# Groups are sized so that one stacked row holds about this many elements:
# larger temporaries cost more in page faults than the saved passes gain.
GROUP_ELEMENTS = 4096


def _groups(order: int, rows: int):
    """(start, stop) ranges of the curves that share one decoder pass."""
    size = max(1, GROUP_ELEMENTS // max(rows, 1))
    return [(k, min(k + size, order)) for k in range(0, order, size)]


def _layers(widths, block):
    """(weights, bias) views of every layer of a flat parameter block."""
    layers, pos = [], 0
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        end = pos + fan_out * fan_in
        layers.append((block[pos:end].reshape(fan_out, fan_in),
                       block[end:end + fan_out]))
        pos = end + fan_out
    return layers


def mlp_forward(widths, block: np.ndarray, x: np.ndarray):
    """Fully connected stack on feature-major input x, shape (fan_in, n);
    tanh after every layer except the last.

    Returns (output, cache); output is (fan_out, n) and cache holds the
    per-layer activations.
    """
    a = x
    cache = [a]
    layers = _layers(widths, block)
    last = len(layers) - 1
    for idx, (weights, bias) in enumerate(layers):
        # a fan-in-1 layer is an outer product: broadcast, not matmul
        z = weights * a if weights.shape[1] == 1 else weights @ a
        z += bias[:, None]
        if idx != last:
            np.tanh(z, out=z)
        a = z
        cache.append(a)
    return a, cache


def mlp_backward(widths, block: np.ndarray, cache, g_out,
                 grad_block: np.ndarray):
    """Backprop dL/d(output), shape (fan_out, n), through the stack.

    Adds dL/dW and dL/db into grad_block (laid out like block) and returns
    dL/d(input), shape (fan_in, n). The tanh derivative is recovered from
    the cached activation as 1 - a^2.
    """
    layers = _layers(widths, block)
    grads = _layers(widths, grad_block)
    last = len(layers) - 1
    g = g_out
    for idx in range(last, -1, -1):
        if idx != last:
            a = cache[idx + 1]
            g *= 1.0 - a * a  # g is this call's own temporary here
        g_weights, g_bias = grads[idx]
        g_weights += g @ cache[idx].T
        g_bias += g.sum(axis=1)
        weights = layers[idx][0]
        g = weights.T * g if weights.shape[0] == 1 else weights.T @ g
    return g


def _sigmoid(x):
    # 1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below, so the exp never overflows
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _feature_major(y) -> np.ndarray:
    """IQ rows (m, 2) as a contiguous (2, m) array."""
    return np.ascontiguousarray(np.asarray(y, dtype=float).T)


def _decode(model: SmnModel, lam: np.ndarray):
    """Shared decoder on coordinates lam (1, n): the canonical curve point
    in polar form (radius rho, cos and sin of the angle, each (n,)) plus
    the decoder cache."""
    u, cache = mlp_forward(model.decoder_widths,
                           model.params[model.decoder_slice], lam)
    return _sigmoid(u[0]), np.cos(u[1]), np.sin(u[1]), cache


def _group_forward(model: SmnModel, start: int, stop: int, yt: np.ndarray):
    """Projections of feature-major rows yt (2, m) onto curves start..stop-1.

    The curves' encoder outputs are stacked side by side so the shared
    decoder runs once for the whole group. Returns proj, shape
    (stop - start, 2, m), and every cache backprop needs.
    """
    m = yt.shape[1]
    outs, enc_caches = [], []
    for k in range(start, stop):
        lam, cache = mlp_forward(model.encoder_widths,
                                 model.params[model.encoder_slice(k)], yt)
        outs.append(lam)
        enc_caches.append(cache)
    lam = outs[0] if len(outs) == 1 else np.concatenate(outs, axis=1)
    rho, cos, sin, dec_cache = _decode(model, lam)
    shape = (stop - start, m)
    rho, cos, sin = rho.reshape(shape), cos.reshape(shape), sin.reshape(shape)
    cart = np.stack([rho * cos, rho * sin], axis=1)
    proj = model.transforms[start:stop] @ cart
    return proj, (enc_caches, dec_cache, rho, cos, sin)


def project(model: SmnModel, k: int, y: np.ndarray) -> np.ndarray:
    """Project IQ points onto symbol k's learned curve.

    Accepts a single (2,) point or an (m, 2) batch and mirrors the shape.
    """
    y = np.asarray(y, dtype=float)
    single = y.ndim == 1
    proj, _ = _group_forward(model, k, k + 1,
                             _feature_major(y[None, :] if single else y))
    return proj[0, :, 0] if single else proj[0].T


def project_all(model: SmnModel, y: np.ndarray) -> np.ndarray:
    """Projections onto every curve, shape (m, K, 2)."""
    yt = _feature_major(y)
    out = np.empty((yt.shape[1], model.order, 2))
    for start, stop in _groups(model.order, yt.shape[1]):
        proj, _ = _group_forward(model, start, stop, yt)
        out[:, start:stop, :] = proj.transpose(2, 0, 1)
    return out


def encode(model: SmnModel, k: int, y: np.ndarray) -> np.ndarray:
    """Curve coordinates of IQ rows under symbol k's encoder, shape (m,)."""
    lam, _ = mlp_forward(model.encoder_widths,
                         model.params[model.encoder_slice(k)],
                         _feature_major(y))
    return lam[0]


def decode_curve(model: SmnModel, lam_grid: np.ndarray) -> np.ndarray:
    """Sample every symbol curve at the given coordinates.

    Returns (K, len(lam_grid), 2); row k is T_k applied to the canonical
    curve, so the K polylines are rigid copies of one another.
    """
    lam = np.asarray(lam_grid, dtype=float).reshape(1, -1)
    rho, cos, sin, _ = _decode(model, lam)
    cart = np.stack([rho * cos, rho * sin])
    return (model.transforms @ cart).transpose(0, 2, 1)


def _check_batch(model, y, w):
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    if y.ndim != 2 or y.shape[1] != 2:
        raise ValueError(f"y must be (m, 2), got {y.shape}")
    if w.shape != (y.shape[0], model.order):
        raise ValueError(f"w must be ({y.shape[0]}, {model.order}), "
                         f"got {w.shape}")
    return y, w


def weighted_loss(model: SmnModel, y: np.ndarray, w: np.ndarray) -> float:
    """(1/m) sum_i sum_k w_ik ||y_i - proj_k(y_i)||^2."""
    y, w = _check_batch(model, y, w)
    proj = project_all(model, y)
    d2 = np.sum((y[:, None, :] - proj) ** 2, axis=2)
    return float(np.mean(np.sum(w * d2, axis=1)))


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
    """Weighted reconstruction loss and its gradient, a flat vector laid out
    like collect_params.

    The shared decoder accumulates gradient contributions from every symbol
    curve; the fixed transforms get none. Raises NonFiniteError if anything
    overflows to NaN/Inf.
    """
    y, w = _check_batch(model, y, w)
    m = y.shape[0]
    yt, wt = _feature_major(y), np.ascontiguousarray(w.T)

    loss = 0.0
    grad = np.zeros_like(model.params)
    dec = model.decoder_slice
    for start, stop in _groups(model.order, m):
        proj, (enc_caches, dec_cache, rho, cos, sin) = _group_forward(
            model, start, stop, yt)
        resid = proj - yt
        w_group = wt[start:stop]
        loss += float(np.vdot(w_group, np.sum(resid ** 2, axis=1))) / m

        g_proj = (2.0 / m) * w_group[:, None, :] * resid
        g_cart = model.transforms[start:stop].transpose(0, 2, 1) @ g_proj
        g_u = np.empty((2, stop - start, m))
        g_u[0] = (g_cart[:, 0] * cos + g_cart[:, 1] * sin) * rho * (1.0 - rho)
        g_u[1] = rho * (-g_cart[:, 0] * sin + g_cart[:, 1] * cos)
        g_lam = mlp_backward(model.decoder_widths, model.params[dec],
                             dec_cache, g_u.reshape(2, -1), grad[dec])
        for j, k in enumerate(range(start, stop)):
            enc = model.encoder_slice(k)
            mlp_backward(model.encoder_widths, model.params[enc],
                         enc_caches[j], g_lam[:, j * m:(j + 1) * m],
                         grad[enc])

    if not np.isfinite(loss) or not np.all(np.isfinite(grad)):
        raise NonFiniteError("loss or gradient overflowed to NaN/Inf")
    return loss, grad


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
