"""The generator's layers, each written once as a pair of numpy kernels.

A layer's math is a forward kernel ``<layer>(x, params..., save) -> (out,
saved)`` and a backward kernel ``<layer>_bwd(saved, g) -> (dx,
dparams...)`` over plain arrays, one gradient per array input (None for an
absent bias). ``saved`` holds what the backward reads, and is None when
``save`` is False: then nothing is kept, and a forward may overwrite the
buffers it allocated (``se_gate`` also overwrites x, which its caller must
own). Three pairs return their output alone: the pointwise ``conv1d``,
whose backward takes the operands again, and ``downsample2`` and
``upsample2``, whose backward takes the input's length.

The blocks of ``dva.model`` chain the pairs into single tape entries (the
residual cell: batch norm, swish, separable convolution, twice, then the
squeeze-and-excitation gate) and run the backward kernels in reverse.
Activations are channel-major (..., c, batch, t), so a per-channel
operation sees one contiguous ``batch*t`` row per channel; the only
mutable state is the running mean/variance buffer carried by batch norm.
Leading axes in front of the usual shapes broadcast through ``np.matmul``:
a kernel ``(R, c_out, c_in, 1)`` applied to ``(R, c_in, n)`` runs R
independent convolutions in one call.

A backward kernel serves the step the tape records (``dva.autodiff``): a
training-mode forward whose x carries the model axes of the parameters, so
each gradient comes out in its input's shape as computed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ContractError

__all__ = [
    "BN_MOMENTUM",
    "BN_EPS",
    "BatchNormState",
    "sigmoid",
    "swish",
    "swish_bwd",
    "swish_prime",
    "swish_second",
    "conv1d",
    "conv1d_bwd",
    "downsample2",
    "downsample2_bwd",
    "upsample2",
    "upsample2_bwd",
    "batch_norm",
    "batch_norm_bwd",
    "depthwise_conv1d",
    "depthwise_conv1d_bwd",
    "se_gate",
    "se_gate_bwd",
    "separable_conv1d",
    "separable_conv1d_bwd",
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


# ---------------------------------------------------------------------------
# Nonlinearities
# ---------------------------------------------------------------------------


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) in one new buffer. exp overflows to inf below
    x = -709, where the result is then exactly 0, so the overflow is not
    reported."""
    s = np.negative(x, out=np.empty(x.shape))
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1.0
    np.divide(1.0, s, out=s)
    return s


def swish(x: np.ndarray, save: bool, out: np.ndarray | None = None):
    """swish(x) = x * sigmoid(x), written into ``out`` (which may be x
    itself), and what ``swish_bwd`` reads: (output, sigmoid) when ``save``,
    else None."""
    s = sigmoid(x)
    a = np.multiply(x, s, out=out)
    return a, ((a, s) if save else None)


def swish_prime(saved) -> np.ndarray:
    """swish'(x) = s + x s (1 - s) = s + a (1 - s), from the saved output a
    and sigmoid s, in one new buffer."""
    a, s = saved
    d = 1.0 - s
    d *= a
    d += s
    return d


def swish_bwd(saved, g: np.ndarray) -> np.ndarray:
    """g * swish'(x), in one new buffer."""
    d = swish_prime(saved)
    d *= g
    return d


def swish_second(x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """swish''(x) = s (1 - s) (2 + x (1 - 2 s)), from x and s = sigmoid(x)."""
    return s * (1.0 - s) * (2.0 + x * (1.0 - 2.0 * s))


# ---------------------------------------------------------------------------
# Pointwise convolution
# ---------------------------------------------------------------------------


def conv1d(xs: tuple[np.ndarray, ...], w: np.ndarray, b: np.ndarray | None) -> np.ndarray:
    """A 1x1 convolution by w (..., c_out, c_in, 1), plus b (..., c_out)
    when given, of the channel concatenation of the flat channel-major
    inputs xs, each (..., c_k, n), without forming it: one matmul per input,
    summed into one new buffer."""
    w, start, y = w[..., 0], 0, None
    for x in xs:
        part = np.matmul(w[..., start : start + x.shape[-2]], x)
        y = part if y is None else np.add(y, part, out=y)
        start += x.shape[-2]
    if b is not None:
        y += b[..., None]
    return y


def conv1d_bwd(xs: tuple[np.ndarray, ...], w: np.ndarray, g: np.ndarray):
    """([dx for x in xs], dw, db) of ``conv1d`` for the cotangent g
    (..., c_out, n)."""
    w, start, dxs = w[..., 0], 0, []
    dw = np.empty(g.shape[:-2] + w.shape[-2:] + (1,))
    for x in xs:
        stop = start + x.shape[-2]
        dxs.append(np.matmul(w[..., start:stop].swapaxes(-1, -2), g))
        np.matmul(g, x.swapaxes(-1, -2), out=dw[..., start:stop, 0])
        start = stop
    return dxs, dw, g.sum(axis=-1)


# ---------------------------------------------------------------------------
# Time resolution: pooling and stretching by two
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _stretch_index(length: int) -> np.ndarray:
    """The source step of each of ``length`` steps: j // 2."""
    idx = np.arange(length) // 2
    idx.setflags(write=False)
    return idx


def upsample2(x: np.ndarray, length: int) -> np.ndarray:
    """x (..., t) stretched to ``length`` steps, 2t - 1 or 2t, by repeating
    each step: output[j] = x[j // 2]."""
    return x[..., _stretch_index(length)]


def upsample2_bwd(g: np.ndarray, t: int) -> np.ndarray:
    """dx of ``upsample2`` for x of t steps: each source step sums its one
    or two copies, by strided adds (a sum over a length-2 axis would run an
    inner loop of two steps per pair)."""
    pairs = g.shape[-1] // 2
    dx = np.empty(g.shape[:-1] + (t,))
    np.add(g[..., 0 : 2 * pairs : 2], g[..., 1 : 2 * pairs : 2], out=dx[..., :pairs])
    if t > pairs:
        dx[..., -1] = g[..., -1]
    return dx


def downsample2(x: np.ndarray) -> np.ndarray:
    """Halve the time axis of x (..., t) by averaging adjacent pairs; an odd
    tail passes through. It is ``upsample2``'s adjoint with each pair's sum
    halved; (a + b) * 0.5 equals (a + b) / 2 exactly."""
    y = upsample2_bwd(x, (x.shape[-1] + 1) // 2)
    y[..., : x.shape[-1] // 2] *= 0.5
    return y


def downsample2_bwd(g: np.ndarray, t: int) -> np.ndarray:
    """dx of ``downsample2`` over x of t steps for the cotangent g."""
    dx = upsample2(g, t)
    dx[..., : t - t % 2] *= 0.5
    return dx


# ---------------------------------------------------------------------------
# Batch norm
# ---------------------------------------------------------------------------


def batch_norm(x, gamma, beta, state: BatchNormState, training: bool, save: bool):
    """Per-channel normalisation of x (..., c, b, t) over its contiguous
    (b, t) rows, then the affine pair gamma, beta (..., c).

    Training mode uses the batch statistics and folds them into ``state``
    in place; inference mode reads ``state`` only, folded with the affine
    pair into one scale and shift per channel, and saves nothing: only a
    training-mode step is taped."""
    if save and not training:
        raise ContractError("batch_norm saves for a backward in training mode only")
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
        saved = (xhat, std, g_c) if save else None
    else:
        mean = state.mean[..., None]
        std = np.sqrt(state.var[..., None] + BN_EPS)
        scale = g_c / std
        y = rows * scale
        y += beta[..., None] - mean * scale
        saved = None
    return y.reshape(x.shape), saved


def batch_norm_bwd(saved, g):
    """(dx, d_gamma, d_beta) of a training-mode forward, whose batch
    statistics carry gradient (Ioffe & Szegedy 2015): dx = gamma / std * (g
    - mean(g) - xhat mean(g xhat))."""
    xhat, std, g_c = saved
    shape = g.shape
    g = g.reshape(xhat.shape)
    d_beta = np.einsum("...n->...", g)
    d_gamma = np.einsum("...n,...n->...", g, xhat)
    inv_n = 1.0 / xhat.shape[-1]
    dx = xhat * (d_gamma * inv_n)[..., None]
    np.subtract(g, dx, out=dx)
    dx -= (d_beta * inv_n)[..., None]
    dx *= g_c / std
    return dx.reshape(shape), d_gamma, d_beta


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


def depthwise_conv1d(x, kernel):
    """Each channel of x (..., c, b, t) filtered alone by its taps in kernel
    (..., c, 1, k), zero padded: one batched matmul by the (..., c, t, t)
    band matrix. It takes no ``save``: what its backward reads is x, the
    small band and ``_band``'s cached gather matrix, which a caller that
    keeps nothing simply drops."""
    t = x.shape[-1]
    spread, gather = _band(t, kernel.shape[-1])
    band = np.matmul(kernel[..., 0, :], spread).reshape(kernel.shape[:-2] + (t, t))
    return np.matmul(x, band), (x, band, gather)


def depthwise_conv1d_bwd(saved, g):
    """(dx, d_kernel)."""
    x, band, gather = saved
    t = x.shape[-1]
    dx = np.matmul(g, band.swapaxes(-1, -2))
    d_band = np.matmul(x.swapaxes(-1, -2), g)
    dk = np.matmul(d_band.reshape(d_band.shape[:-2] + (t * t,)), gather)
    return dx, dk[..., None, :]


def separable_conv1d(x, depth, point, bias, save: bool):
    """A depthwise filter along time (``depthwise_conv1d``), then a 1x1
    pointwise channel mix: one GEMM of point (..., c_out, c_in, 1) by the
    filtered (..., c_in, b*t), plus bias (..., c_out) when given."""
    u, dw = depthwise_conv1d(x, depth)
    b, t = u.shape[-2:]
    w = point[..., 0]
    v = np.matmul(w, u.reshape(u.shape[:-2] + (b * t,)))
    if bias is not None:
        v += bias[..., None]
    saved = (dw, u, w, bias is not None) if save else None
    return v.reshape(v.shape[:-1] + (b, t)), saved


def separable_conv1d_bwd(saved, g):
    """(dx, d_depth, d_point, d_bias), d_bias None without a bias."""
    dw, u, w, has_bias = saved
    b, t = u.shape[-2:]
    g2 = g.reshape(g.shape[:-2] + (b * t,))
    u2 = u.reshape(u.shape[:-2] + (b * t,))
    d_point = np.matmul(g2, u2.swapaxes(-1, -2))[..., None]
    d_bias = np.einsum("...n->...", g2) if has_bias else None
    du = np.matmul(w.swapaxes(-1, -2), g2)
    dx, d_depth = depthwise_conv1d_bwd(dw, du.reshape(du.shape[:-1] + (b, t)))
    return dx, d_depth, d_point, d_bias


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


def se_gate(x, w1, b1, w2, b2, save: bool):
    """Squeeze-and-excitation: rescale the channels of x (..., c, b, t) by a
    gate in (0, 1). Squeeze is a time average, excitation a two-layer
    bottleneck w1 (..., c_r, c) plus b1 (..., c_r), w2 (..., c, c_r) plus
    b2 (..., c), relu between and a sigmoid after, one gate per channel and
    batch row. Without ``save`` the gate multiplies x in place."""
    t = x.shape[-1]
    m = np.matmul(x, _time_mean(t))[..., 0]
    h = np.matmul(w1, m)
    h += b1[..., None]
    np.maximum(h, 0.0, out=h)
    z = np.matmul(w2, h)
    z += b2[..., None]
    gate = sigmoid(z)
    y = np.multiply(x, gate[..., None], out=None if save else x)
    saved = (x, m, h, gate, w1, w2) if save else None
    return y, saved


def se_gate_bwd(saved, g):
    """(dx, d_w1, d_b1, d_w2, d_b2)."""
    x, m, h, gate, w1, w2 = saved
    t = x.shape[-1]
    dx = g * gate[..., None]
    dz = np.einsum("...t,...t->...", g, x)
    dz *= gate
    dz *= 1.0 - gate
    d_w2 = np.matmul(dz, h.swapaxes(-1, -2))
    d_b2 = np.einsum("...b->...", dz)
    dh = np.matmul(w2.swapaxes(-1, -2), dz)
    dh *= h > 0.0
    d_w1 = np.matmul(dh, m.swapaxes(-1, -2))
    d_b1 = np.einsum("...b->...", dh)
    dm = np.matmul(w1.swapaxes(-1, -2), dh)
    dx += (dm * (1.0 / t))[..., None]
    return dx, d_w1, d_b1, d_w2, d_b2
