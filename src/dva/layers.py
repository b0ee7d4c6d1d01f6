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

__all__ = ["BatchNormState", "batch_norm", "se_gate", "separable_conv1d"]


@dataclass
class BatchNormState:
    """Running per-channel statistics updated with momentum during training."""

    mean: np.ndarray
    var: np.ndarray
    momentum: float = 0.9
    eps: float = 1e-5

    @classmethod
    def create(cls, channels: int, momentum: float = 0.9, eps: float = 1e-5):
        return cls(
            mean=np.zeros(channels),
            var=np.ones(channels),
            momentum=momentum,
            eps=eps,
        )


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    state: BatchNormState,
    training: bool,
) -> Tensor:
    """Normalise per channel over (batch, time), then apply the affine pair.

    Training mode uses batch statistics and folds them into the running
    buffers; inference mode reads the buffers and never writes them. One
    taped op: the backward is the closed form of Ioffe & Szegedy (2015),
    where batch statistics carry gradient in training mode and the running
    buffers are constants in inference mode.
    """
    if x.data.ndim != 3:
        raise ContractError("batch_norm needs x (b,c,t)")
    c = x.data.shape[1]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ContractError(f"gamma/beta must have shape ({c},)")
    if training:
        mu = x.data.mean(axis=(0, 2), keepdims=True)
        centered = x.data - mu
        var = (centered * centered).mean(axis=(0, 2), keepdims=True)
        m = state.momentum
        state.mean = m * state.mean + (1.0 - m) * mu.reshape(c)
        state.var = m * state.var + (1.0 - m) * var.reshape(c)
    else:
        centered = x.data - state.mean.reshape(1, c, 1)
        var = state.var.reshape(1, c, 1)
    std = np.sqrt(var + state.eps)
    xhat = centered / std
    g_c = gamma.data.reshape(1, c, 1)
    out = Tensor(xhat * g_c + beta.data.reshape(1, c, 1))

    def back(g):
        dxhat = g * g_c
        if training:
            n = x.data.size // c
            d_mean = np.einsum("bct->c", dxhat)[:, None] / n
            d_proj = np.einsum("bct,bct->c", dxhat, xhat)[:, None] / n
            dxhat = dxhat - d_mean - xhat * d_proj
        return (dxhat / std, np.einsum("bct,bct->c", g, xhat), np.einsum("bct->c", g))

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
    if x.data.ndim != 3:
        raise ContractError("se_gate needs x (b,c,t)")
    b, c, _ = x.data.shape
    squeezed = mean_(x, axis=2)
    hidden = relu(linear(squeezed, w1, b1))
    gate = sigmoid(linear(hidden, w2, b2))
    return mul(x, reshape(gate, (b, c, 1)))


def separable_conv1d(
    x: Tensor,
    depth_kernel: Tensor,
    point_kernel: Tensor,
    bias: Tensor | None = None,
) -> Tensor:
    """Depthwise filter along time, then a 1x1 pointwise channel mix."""
    return conv1d(depthwise_conv1d(x, depth_kernel), point_kernel, bias)
