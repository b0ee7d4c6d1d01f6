"""The generator's layers, each written once as a pair of numpy kernels.

A layer's math is a forward kernel ``*_fwd(x, params..., save) -> (out,
saved)`` and a backward kernel ``*_bwd(saved, g) -> (dx, dparams...)`` over
plain arrays, one gradient per array input (None for an absent bias).
``saved`` holds what the backward reads, and is None when ``save`` is False:
then nothing is kept, and a forward may overwrite the buffers it allocated
(``se_fwd`` also overwrites x, which its caller must own).

The Tensor-level ops ``batch_norm``, ``depthwise_conv1d``,
``separable_conv1d`` and ``se_gate`` each record one pair as one tape entry.
The residual cell (``dva.model``) chains the pairs, with swish
(``_swish_fwd``/``_swish_bwd``) between them, into a single entry, and runs
the backward kernels in reverse. Activations are channel-major (..., c,
batch, t); the only mutable state is the running mean/variance buffer
carried by batch norm.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .autodiff import (  # noqa: F401  (conv1d: perfbench/tracing.py wraps dva.layers.conv1d)
    Tensor,
    _lead,
    _record,
    _sigmoid,
    _unbroadcast,
    conv1d,
)
from .errors import ContractError

__all__ = [
    "BN_MOMENTUM",
    "BN_EPS",
    "BatchNormState",
    "batch_norm",
    "depthwise_conv1d",
    "se_gate",
    "separable_conv1d",
]

BN_MOMENTUM = 0.9  # weight of the old running statistics in each update
BN_EPS = 1e-5  # added to the variance before the square root


@dataclass
class BatchNormState:
    """Running per-channel statistics updated with momentum ``BN_MOMENTUM``
    during training; ``mean`` and ``var`` carry the same leading axes as
    gamma and beta."""

    mean: np.ndarray
    var: np.ndarray

    @classmethod
    def create(cls, channels: int) -> "BatchNormState":
        return cls(mean=np.zeros(channels), var=np.ones(channels))


def _needed(grads, need):
    """The gradients a tape entry returns: None where ``need`` is False."""
    return tuple(d if n else None for d, n in zip(grads, need))


# ---------------------------------------------------------------------------
# Batch norm
# ---------------------------------------------------------------------------


def batch_norm_fwd(x, gamma, beta, state: BatchNormState, training: bool, save: bool):
    """Per-channel normalisation of x (..., c, b, t) over its contiguous
    (b, t) rows, then the affine pair gamma, beta (..., c).

    Training mode uses the batch statistics and folds them into ``state``
    in place; inference mode reads ``state`` only, folded with the affine
    pair into one scale and shift per channel."""
    lead = x.shape[:-2]
    n = x.shape[-2] * x.shape[-1]
    rows = x.reshape(lead + (n,))
    g_c = gamma[..., None]
    if training:
        mu = np.add.reduce(rows, axis=-1, keepdims=True) / n
        xhat = rows - mu
        var = np.einsum("...n,...n->...", xhat, xhat) / n
        m = BN_MOMENTUM
        state.mean[...] = m * state.mean + (1.0 - m) * mu[..., 0]
        state.var[...] = m * state.var + (1.0 - m) * var
        std = np.sqrt(var + BN_EPS)[..., None]
        xhat /= std
        y = np.multiply(xhat, g_c, out=None if save else xhat)
        y += beta[..., None]
        saved = (True, xhat, std, g_c) if save else None
    else:
        mean = state.mean[..., None]
        std = np.sqrt(state.var[..., None] + BN_EPS)
        scale = g_c / std
        y = rows * scale
        y += beta[..., None] - mean * scale
        saved = (False, rows, mean, std, scale) if save else None
    return y.reshape(x.shape), saved


def batch_norm_bwd(saved, g):
    """(dx, d_gamma, d_beta). In training mode the batch statistics carry
    gradient (Ioffe & Szegedy 2015): dx = gamma / std * (g - mean(g) -
    xhat mean(g xhat)); in inference mode the buffers are constants."""
    shape = g.shape
    if saved[0]:
        _, xhat, std, g_c = saved
        g = g.reshape(xhat.shape)
        d_beta = np.einsum("...n->...", g)
        d_gamma = np.einsum("...n,...n->...", g, xhat)
        inv_n = 1.0 / xhat.shape[-1]
        dx = xhat * (d_gamma * inv_n)[..., None]
        np.subtract(g, dx, out=dx)
        dx -= (d_beta * inv_n)[..., None]
        dx *= g_c / std
    else:
        _, rows, mean, std, scale = saved
        g = g.reshape(rows.shape)
        d_beta = np.einsum("...n->...", g)
        d_gamma = np.einsum("...n,...n->...", g, rows - mean) / std[..., 0]
        dx = g * scale
    return dx.reshape(shape), d_gamma, d_beta


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    state: BatchNormState,
    training: bool,
) -> Tensor:
    """Batch norm as one taped op; see ``batch_norm_fwd``. gamma, beta and
    the running buffers are (..., c), one set per leading index, so each
    model of a stack is normalised by its own statistics."""
    if x.data.ndim < 3:
        raise ContractError("batch_norm needs x (..., c, b, t)")
    shape = x.data.shape[:-2]
    if gamma.data.shape != shape or beta.data.shape != shape:
        raise ContractError(f"gamma/beta must have shape {shape}")
    y, saved = batch_norm_fwd(x.data, gamma.data, beta.data, state, training, True)

    def back(g, need):
        return _needed(batch_norm_bwd(saved, g), need)

    return _record(Tensor(y), (x, gamma, beta), back)


# ---------------------------------------------------------------------------
# Depthwise and separable convolution
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _band(t: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """A k-tap filter over t steps as a (t, t) band matrix M, M[u, s] =
    taps[u - s + k // 2]: the (k, t*t) one-hot matrix that spreads the taps
    onto the band, and its (t*t, k) transpose that sums a band's entries
    back onto its taps."""
    j = np.arange(t)[:, None] - np.arange(t)[None, :] + k // 2
    gather = (j.reshape(-1, 1) == np.arange(k)).astype(np.float64)
    spread = np.ascontiguousarray(gather.T)
    gather.setflags(write=False)
    spread.setflags(write=False)
    return spread, gather


def depthwise_fwd(x, kernel):
    """Each channel of x (..., c, b, t) filtered alone by its taps in kernel
    (..., c, 1, k), zero padded: one batched matmul by the (..., c, t, t)
    band matrix. It takes no ``save``: what its backward reads is x and the
    small band, which a caller that keeps nothing simply drops."""
    t, k = x.shape[-1], kernel.shape[-1]
    spread, _ = _band(t, k)
    band = np.matmul(kernel[..., 0, :], spread).reshape(kernel.shape[:-2] + (t, t))
    return np.matmul(x, band), (x, band, kernel.shape)


def depthwise_bwd(saved, g):
    """(dx, d_kernel)."""
    x, band, kernel_shape = saved
    t = x.shape[-1]
    _, gather = _band(t, kernel_shape[-1])
    dx = _unbroadcast(np.matmul(g, band.swapaxes(-1, -2)), x.shape)
    d_band = np.matmul(x.swapaxes(-1, -2), g)
    dk = np.matmul(d_band.reshape(d_band.shape[:-2] + (t * t,)), gather)
    return dx, _unbroadcast(dk[..., None, :], kernel_shape)


def separable_fwd(x, depth, point, bias, save: bool):
    """A depthwise filter along time (``depthwise_fwd``), then a 1x1
    pointwise channel mix: one GEMM of point (..., c_out, c_in, 1) by the
    filtered (..., c_in, b*t), plus bias (..., c_out) when given."""
    u, dw = depthwise_fwd(x, depth)
    b, t = u.shape[-2:]
    w = point[..., 0]
    v = np.matmul(w, u.reshape(u.shape[:-2] + (b * t,)))
    if bias is not None:
        v += bias[..., None]
    saved = (dw, u, w, point.shape, bias is not None) if save else None
    return v.reshape(v.shape[:-1] + (b, t)), saved


def separable_bwd(saved, g):
    """(dx, d_depth, d_point, d_bias), d_bias None without a bias."""
    dw, u, w, point_shape, has_bias = saved
    b, t = u.shape[-2:]
    g2 = g.reshape(g.shape[:-2] + (b * t,))
    u2 = u.reshape(u.shape[:-2] + (b * t,))
    d_point = _unbroadcast(np.matmul(g2, u2.swapaxes(-1, -2))[..., None], point_shape)
    d_bias = (
        _unbroadcast(np.einsum("...n->...", g2), point_shape[:-2]) if has_bias else None
    )
    du = np.matmul(w.swapaxes(-1, -2), g2)
    dx, d_depth = depthwise_bwd(dw, du.reshape(du.shape[:-1] + (b, t)))
    return dx, d_depth, d_point, d_bias


def _check_depthwise(x: Tensor, kernel: Tensor) -> None:
    if kernel.data.ndim < 3 or kernel.data.shape[-2] != 1:
        raise ContractError("depthwise kernel must have shape (..., c, 1, k)")
    c, _, k = kernel.data.shape[-3:]
    if k % 2 == 0:
        raise ContractError(f"kernel width must be odd, got {k}")
    if x.data.ndim < 3 or x.data.shape[-3] != c:
        raise ContractError(
            f"channel mismatch: x has {x.data.shape[-3] if x.data.ndim >= 3 else '?'},"
            f" kernel expects {c}"
        )
    _lead(x, 3, kernel, 3, "depthwise_conv1d")


def depthwise_conv1d(x: Tensor, kernel: Tensor) -> Tensor:
    """Per-channel convolution as one taped op; see ``depthwise_fwd``."""
    _check_depthwise(x, kernel)
    y, saved = depthwise_fwd(x.data, kernel.data)

    def back(g, need):
        return _needed(depthwise_bwd(saved, g), need)

    return _record(Tensor(y), (x, kernel), back)


def separable_conv1d(
    x: Tensor,
    depth_kernel: Tensor,
    point_kernel: Tensor,
    bias: Tensor | None = None,
) -> Tensor:
    """Depthwise filter along time, then a 1x1 pointwise channel mix, as one
    taped op; see ``separable_fwd``."""
    _check_depthwise(x, depth_kernel)
    p = point_kernel.data
    if p.ndim < 3 or p.shape[-1] != 1 or p.shape[-2] != depth_kernel.data.shape[-3]:
        raise ContractError(f"point kernel must be (..., c_out, {depth_kernel.shape[-3]}, 1)")
    _lead(x, 3, point_kernel, 3, "separable_conv1d")
    _lead(depth_kernel, 3, point_kernel, 3, "separable_conv1d")
    if bias is not None and bias.data.shape != p.shape[:-2]:
        raise ContractError(f"bias shape {bias.shape} != {p.shape[:-2]}")
    y, saved = separable_fwd(
        x.data, depth_kernel.data, p, None if bias is None else bias.data, True
    )
    inputs = (x, depth_kernel, point_kernel) + ((bias,) if bias is not None else ())

    def back(g, need):
        return _needed(separable_bwd(saved, g), need)

    return _record(Tensor(y), inputs, back)


# ---------------------------------------------------------------------------
# Squeeze-and-excitation
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=16)
def _time_mean(t: int) -> np.ndarray:
    """The (t, 1) vector of 1/t: a time average as a matmul, since a
    reduction over a short last axis runs one inner loop of t steps per
    (channel, batch) row."""
    v = np.full((t, 1), 1.0 / t)
    v.setflags(write=False)
    return v


def se_fwd(x, w1, b1, w2, b2, save: bool):
    """Squeeze-and-excitation: rescale the channels of x (..., c, b, t) by a
    gate in (0, 1). Squeeze is a time average, excitation a two-layer
    bottleneck w1 (..., c_r, c), w2 (..., c, c_r) with optional biases,
    relu between and a sigmoid after, one gate per channel and batch row.
    Without ``save`` the gate multiplies x in place."""
    t = x.shape[-1]
    m = np.matmul(x, _time_mean(t))[..., 0]
    h = np.matmul(w1, m)
    if b1 is not None:
        h += b1[..., None]
    np.maximum(h, 0.0, out=h)
    z = np.matmul(w2, h)
    if b2 is not None:
        z += b2[..., None]
    gate = _sigmoid(z)
    y = np.multiply(x, gate[..., None], out=None if save else x)
    saved = (x, m, h, gate, w1, w2, b1 is not None, b2 is not None) if save else None
    return y, saved


def se_bwd(saved, g):
    """(dx, d_w1, d_b1, d_w2, d_b2), a bias gradient None without the bias."""
    x, m, h, gate, w1, w2, has_b1, has_b2 = saved
    t = x.shape[-1]
    dx = g * gate[..., None]
    dz = np.einsum("...t,...t->...", g, x)
    dz *= gate
    dz *= 1.0 - gate
    d_w2 = _unbroadcast(np.matmul(dz, h.swapaxes(-1, -2)), w2.shape)
    d_b2 = _unbroadcast(np.einsum("...b->...", dz), w2.shape[:-1]) if has_b2 else None
    dh = np.matmul(w2.swapaxes(-1, -2), dz)
    dh *= h > 0.0
    d_w1 = _unbroadcast(np.matmul(dh, m.swapaxes(-1, -2)), w1.shape)
    d_b1 = _unbroadcast(np.einsum("...b->...", dh), w1.shape[:-1]) if has_b1 else None
    dm = np.matmul(w1.swapaxes(-1, -2), dh)
    dx += (dm * (1.0 / t))[..., None]
    return _unbroadcast(dx, x.shape), d_w1, d_b1, d_w2, d_b2


def se_gate(
    x: Tensor,
    w1: Tensor,
    w2: Tensor,
    b1: Tensor | None = None,
    b2: Tensor | None = None,
) -> Tensor:
    """Squeeze-and-excitation as one taped op; see ``se_fwd``."""
    if x.data.ndim < 3:
        raise ContractError("se_gate needs x (..., c, b, t)")
    c = x.data.shape[-3]
    if w1.data.ndim < 2 or w1.data.shape[-1] != c or w2.data.shape[-2:] != w1.data.shape[-2:][::-1]:
        raise ContractError(f"se_gate needs w1 (..., c_r, {c}) and w2 (..., {c}, c_r)")
    y, saved = se_fwd(
        x.data, w1.data, None if b1 is None else b1.data,
        w2.data, None if b2 is None else b2.data, True,
    )
    biases = tuple(b for b in (b1, b2) if b is not None)
    inputs = (x, w1, w2) + biases

    def back(g, need):
        dx, d_w1, d_b1, d_w2, d_b2 = se_bwd(saved, g)
        grads = (dx, d_w1, d_w2) + tuple(d for d in (d_b1, d_b2) if d is not None)
        return _needed(grads, need)

    return _record(Tensor(y), inputs, back)
