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
    conv1d,
    depthwise_conv1d,
    linear,
    mean_,
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

    x is (..., batch, c, t); gamma, beta and the running buffers are
    (..., c), one set per leading index, so each model of a stack is
    normalised by its own statistics. Training mode uses batch statistics
    and folds them into the running buffers; inference mode reads the
    buffers and never writes them. One taped op: the backward is the closed
    form of Ioffe & Szegedy (2015), where batch statistics carry gradient in
    training mode and the running buffers are constants in inference mode.
    """
    if x.data.ndim < 3:
        raise ContractError("batch_norm needs x (..., b, c, t)")
    shape = x.data.shape[:-3] + x.data.shape[-2:-1]
    if gamma.data.shape != shape or beta.data.shape != shape:
        raise ContractError(f"gamma/beta must have shape {shape}")
    if training:
        mu = x.data.mean(axis=(-3, -1), keepdims=True)
        centered = x.data - mu
        var = (centered * centered).mean(axis=(-3, -1), keepdims=True)
        m = BN_MOMENTUM
        state.mean = m * state.mean + (1.0 - m) * mu.reshape(shape)
        state.var = m * state.var + (1.0 - m) * var.reshape(shape)
    else:
        centered = x.data - state.mean[..., None, :, None]
        var = state.var[..., None, :, None]
    std = np.sqrt(var + BN_EPS)
    xhat = centered / std
    g_c = gamma.data[..., None, :, None]
    out = Tensor(xhat * g_c + beta.data[..., None, :, None])

    def back(g, need):
        dxhat = g * g_c
        if training:
            n = x.data.shape[-3] * x.data.shape[-1]
            d_mean = np.einsum("...bct->...c", dxhat)[..., None, :, None] / n
            d_proj = np.einsum("...bct,...bct->...c", dxhat, xhat)[..., None, :, None] / n
            dxhat = dxhat - d_mean - xhat * d_proj
        return (
            dxhat / std if need[0] else None,
            np.einsum("...bct,...bct->...c", g, xhat) if need[1] else None,
            np.einsum("...bct->...c", g) if need[2] else None,
        )

    return _record(out, (x, gamma, beta), back)


def se_gate(
    x: Tensor,
    w1: Tensor,
    w2: Tensor,
    b1: Tensor | None = None,
    b2: Tensor | None = None,
) -> Tensor:
    """Squeeze-and-excitation: rescale channels by a gate in (0, 1).

    Squeeze is a time average, excitation a two-layer bottleneck whose
    sigmoid output multiplies the input per channel.
    """
    if x.data.ndim < 3:
        raise ContractError("se_gate needs x (..., b, c, t)")
    squeezed = mean_(x, axis=-1)
    hidden = relu(linear(squeezed, w1, b1))
    gate = sigmoid(linear(hidden, w2, b2))
    return mul(x, reshape(gate, gate.shape + (1,)))


def separable_conv1d(
    x: Tensor,
    depth_kernel: Tensor,
    point_kernel: Tensor,
    bias: Tensor | None = None,
) -> Tensor:
    """Depthwise filter along time, then a 1x1 pointwise channel mix."""
    return conv1d(depthwise_conv1d(x, depth_kernel), point_kernel, bias)
