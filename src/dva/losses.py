"""The training objective's terms and the denoising jump, each term one
taped op over plain arrays that keeps nothing when no tape records.

``mse_loss`` and ``output_kl`` score the generator's prediction y_hat
(..., batch, t_out) against fixed targets. ``dsm_loss`` trains the energy
head E(y) = 0.5*q*||y - c||^2 + MLP(y) of ``dva.model`` by denoising score
matching through its input gradient grad_E, written out in closed form
(``_grad_energy``); its backward differentiates grad_E with respect to the
head's seven tensors, and to y_hat unless the prediction is blocked, which
needs only swish's second derivative. ``denoise_jump`` applies the same
untaped grad_E at inference. Each term is one value per model of a stack;
n, the diffusion step, is one step or one per model.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, record, taping
from .diffusion import DiffusionSchedule
from .errors import ContractError
from .layers import swish, swish_bwd, swish_prime, swish_second
from .model import ModelParams

__all__ = ["mse_loss", "output_kl", "dsm_loss", "denoise_jump"]


def _target(y, y_hat: Tensor) -> np.ndarray:
    """y as float64, which must have y_hat's shape."""
    target = np.asarray(y, dtype=np.float64)
    if target.shape != y_hat.data.shape:
        raise ContractError(f"target shape {target.shape} != y_hat {y_hat.shape}")
    return target


def mse_loss(y_hat: Tensor, y: np.ndarray) -> Tensor:
    """Mean squared error of y_hat (..., batch, t_out) against the constant
    y over batch and horizon, one value per model, as one taped op."""
    d = y_hat.data - _target(y, y_hat)
    count = d.shape[-2] * d.shape[-1]
    out = Tensor((d * d).sum(axis=(-2, -1)) / count)

    def back(g):
        gd = (g / count)[..., None, None] * d
        return (gd + gd,)

    return record(out, (y_hat,), back)


def _per_model(value_at, n) -> np.ndarray:
    """A schedule constant at each model's diffusion step; shaped like n."""
    n = np.asarray(n)
    return np.array([value_at(int(k)) for k in n.flat]).reshape(n.shape)


def output_kl(
    y_hat: Tensor,
    s_out: float,
    y: np.ndarray,
    schedule: DiffusionSchedule,
    n,
) -> Tensor:
    """KL( N(y_hat, s_out^2 I) || N(sqrt(a'_n) y, (1 - a'_n) I) ), summed over
    the horizon and averaged over the batch, as one taped op; n is one step
    or one per model."""
    a = _per_model(schedule.target_alpha_bar_at, n)
    var_p = 1.0 - a
    diff = y_hat.data - _target(np.sqrt(a)[..., None, None] * np.asarray(y, dtype=np.float64), y_hat)
    t_out = y_hat.data.shape[-1]
    log_ratio = np.log(var_p) - 2.0 * np.log(s_out)
    const = 0.5 * t_out * (log_ratio + s_out**2 / var_p - 1.0)
    w = (0.5 / var_p)[..., None]
    nb = diff.shape[-2]
    out = Tensor((w * (diff * diff).sum(axis=-1)).sum(axis=-1) / nb + const)

    def back(g):
        gd = ((g[..., None] / nb) * w)[..., None] * diff
        return (gd + gd,)

    return record(out, (y_hat,), back)


# ---------------------------------------------------------------------------
# Energy head
# ---------------------------------------------------------------------------

# The energy head's tensors in the order of the score-matching op's inputs
# after y_hat.
_ENERGY_TENSORS = (
    "energy.q", "energy.c", "energy.w1", "energy.b1", "energy.w2", "energy.b2", "energy.w3",
)


def _grad_energy(params: ModelParams, y: np.ndarray, save: bool):
    """grad_E(y) for y (..., batch, t_out), untaped: the anchor's q (y - c)
    plus the MLP's input gradient W1^T [swish'(a1) * W2^T [swish'(a2) *
    w3]], with a1 = W1 y + b1 and a2 = W2 swish(a1) + b2. Returns (grad,
    saved), saved holding what ``_grad_energy_bwd`` reads when ``save``,
    else None."""
    if y.ndim < 2 or y.shape[-1] != params.config.t_out:
        raise ContractError(f"the energy head needs y (..., batch, {params.config.t_out})")
    q, c, w1, b1, w2, b2, w3 = (params[k].data for k in _ENERGY_TENSORS)
    a1 = np.matmul(y, w1.swapaxes(-1, -2))
    a1 += b1[..., None, :]
    h1, sw1 = swish(a1, True)
    a2 = np.matmul(h1, w2.swapaxes(-1, -2))
    a2 += b2[..., None, :]
    _, sw2 = swish(a2, True)
    sp2 = swish_prime(sw2)
    g2 = sp2 * w3  # w3 (..., 1, hidden) spans the batch
    sp1 = swish_prime(sw1)
    m = np.matmul(g2, w2)
    g1 = sp1 * m
    dc = y - c[..., None, :]
    q4 = q[..., None, None]
    grad = q4 * dc + np.matmul(g1, w1)
    saved = (y, a1, sw1, a2, sw2, sp1, sp2, g1, g2, m, dc, q4, w1, w2, w3) if save else None
    return grad, saved


def _grad_energy_bwd(saved, u: np.ndarray, need_y: bool):
    """The VJPs of grad_E at y for the cotangent u (..., batch, t_out): (dy,
    dq, dc, dw1, db1, dw2, db2, dw3), dy None unless ``need_y``. The weight
    gradients pass through swish' and so need swish''."""
    y, a1, sw1, a2, sw2, sp1, sp2, g1, g2, m, dc, q4, w1, w2, w3 = saved
    d_q = np.sum(u * dc, axis=(-2, -1))
    d_c = -np.sum(u * q4, axis=-2)
    dg1 = np.matmul(u, w1.swapaxes(-1, -2))
    d_w1 = np.matmul(g1.swapaxes(-1, -2), u)
    dm = dg1 * sp1
    da1 = dg1 * m
    da1 *= swish_second(a1, sw1[1])
    dg2 = np.matmul(dm, w2.swapaxes(-1, -2))
    d_w2 = np.matmul(g2.swapaxes(-1, -2), dm)
    d_w3 = np.sum(dg2 * sp2, axis=-2, keepdims=True)
    da2 = dg2 * w3
    da2 *= swish_second(a2, sw2[1])
    d_w2 += np.matmul(da2.swapaxes(-1, -2), sw1[0])
    da1 += swish_bwd(sw1, np.matmul(da2, w2))
    d_w1 += np.matmul(da1.swapaxes(-1, -2), y)
    d_y = u * q4 + np.matmul(da1, w1) if need_y else None
    return d_y, d_q, d_c, d_w1, da1.sum(axis=-2), d_w2, da2.sum(axis=-2), d_w3


def dsm_loss(
    params: ModelParams,
    y_hat_n: Tensor,
    y: np.ndarray,
    schedule: DiffusionSchedule,
    n,
    block_predictor: bool = True,
) -> Tensor:
    """Denoising score-matching penalty sigma_n ||y - y_hat + grad_E(y_hat)||^2
    summed over the horizon and averaged over the batch, as one taped op
    over y_hat and the energy head's seven tensors; n is one step or one per
    model.

    With block_predictor the prediction enters as data: its VJP is zero, so
    this term trains only the energy weights, and the generator never
    chases its own noise.
    """
    target = _target(y, y_hat_n)
    sigma = _per_model(schedule.sigma_at, n)
    grad, saved = _grad_energy(params, y_hat_n.data, taping())
    resid = (target - y_hat_n.data) + grad
    nb = resid.shape[-2]
    out = Tensor(sigma * ((resid * resid).sum(axis=-1).sum(axis=-1) / nb))
    inputs = (y_hat_n,) + tuple(params[k] for k in _ENERGY_TENSORS)

    def back(g):
        gr = ((g * sigma) / nb)[..., None, None] * resid
        u = gr + gr
        d_y, *d_energy = _grad_energy_bwd(saved, u, not block_predictor)
        if block_predictor:
            d_y = np.zeros(y_hat_n.data.shape)
        else:
            d_y -= u
        return (d_y, *d_energy)

    return record(out, inputs, back)


def denoise_jump(params: ModelParams, y_hat: Tensor) -> Tensor:
    """One explicit gradient step on the energy, y - grad_E(y), untaped: the
    jump is applied at inference only."""
    grad, _ = _grad_energy(params, y_hat.data, False)
    return Tensor(y_hat.data - grad)
