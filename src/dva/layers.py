"""Composite layers built from autodiff primitives.

These are plain functions over explicit parameter tensors; the only mutable
state is the running mean/variance buffer carried by batch norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor,
    _record,
    as_tensor,
    conv1d,
    depthwise_conv1d,
    matmul,
    mul,
    relu,
    reshape,
    sigmoid,
)
from .errors import ContractError

__all__ = ["BN_MOMENTUM", "BN_EPS", "BatchNormState", "batch_norm", "se_gate", "separable_conv1d"]

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


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    state: BatchNormState,
    training: bool,
) -> Tensor:
    """Normalise per channel over (batch, time), then apply the affine pair.

    x is channel-major (..., c, batch, t), so each channel's statistics
    reduce one contiguous batch*time row; gamma, beta and the running
    buffers are (..., c), one set per leading index, so each model of a
    stack is normalised by its own statistics. Training mode uses batch
    statistics and folds them into the running buffers; inference mode
    reads the buffers and never writes them. One taped op: the backward is
    the closed form of Ioffe & Szegedy (2015), where batch statistics carry
    gradient in training mode and the running buffers are constants in
    inference mode.
    """
    if x.data.ndim < 3:
        raise ContractError("batch_norm needs x (..., c, b, t)")
    shape = x.data.shape[:-2]
    if gamma.data.shape != shape or beta.data.shape != shape:
        raise ContractError(f"gamma/beta must have shape {shape}")
    n = x.data.shape[-2] * x.data.shape[-1]
    rows = x.data.reshape(shape + (n,))
    g_c = gamma.data[..., None]
    if training:
        mu = rows.mean(axis=-1, keepdims=True)
        xhat = rows - mu
        var = (xhat * xhat).mean(axis=-1, keepdims=True)
        m = BN_MOMENTUM
        state.mean = m * state.mean + (1.0 - m) * mu[..., 0]
        state.var = m * state.var + (1.0 - m) * var[..., 0]
        std = np.sqrt(var + BN_EPS)
        xhat /= std
        y = xhat * g_c
        y += beta.data[..., None]
    else:
        # the buffers are constants: fold them and the affine pair into one
        # scale and shift per channel, two passes over x
        mean = state.mean[..., None]
        std = np.sqrt(state.var[..., None] + BN_EPS)
        scale = g_c / std
        y = rows * scale
        y += beta.data[..., None] - mean * scale
    out = Tensor(y.reshape(x.data.shape))

    def back(g, need):
        g = g.reshape(shape + (n,))
        dx = d_gamma = None
        if training:
            if need[0]:
                dxhat = g * g_c
                d_mean = np.einsum("...n->...", dxhat)[..., None] / n
                d_proj = np.einsum("...n,...n->...", dxhat, xhat)[..., None] / n
                dxhat -= d_mean
                dxhat -= xhat * d_proj
                dx = (dxhat / std).reshape(x.data.shape)
            if need[1]:
                d_gamma = np.einsum("...n,...n->...", g, xhat)
        else:
            if need[0]:
                dx = (g * scale).reshape(x.data.shape)
            if need[1]:
                d_gamma = np.einsum("...n,...n->...", g, rows - mean) / std[..., 0]
        return dx, d_gamma, np.einsum("...n->...", g) if need[2] else None

    return _record(out, (x, gamma, beta), back)


def se_gate(
    x: Tensor,
    w1: Tensor,
    w2: Tensor,
    b1: Tensor | None = None,
    b2: Tensor | None = None,
) -> Tensor:
    """Squeeze-and-excitation: rescale channels by a gate in (0, 1).

    Squeeze is a time average of channel-major x (..., c, batch, t),
    excitation a two-layer bottleneck (w1 (..., c_r, c), w2 (..., c, c_r))
    run as 1x1 convolutions over the squeezed (..., c, batch, 1), whose
    sigmoid output multiplies the input per channel and batch row.
    """
    if x.data.ndim < 3:
        raise ContractError("se_gate needs x (..., c, b, t)")
    t = x.data.shape[-1]
    # the time average as a matmul: a reduction over a short last axis
    # runs one inner loop of t steps per (channel, batch) row
    squeezed = matmul(x, as_tensor(np.full((t, 1), 1.0 / t)))
    hidden = relu(conv1d(squeezed, reshape(w1, w1.shape + (1,)), b1))
    gate = sigmoid(conv1d(hidden, reshape(w2, w2.shape + (1,)), b2))
    return mul(x, gate)


def separable_conv1d(
    x: Tensor,
    depth_kernel: Tensor,
    point_kernel: Tensor,
    bias: Tensor | None = None,
) -> Tensor:
    """Depthwise filter along time, then a 1x1 pointwise channel mix."""
    return conv1d(depthwise_conv1d(x, depth_kernel), point_kernel, bias)
