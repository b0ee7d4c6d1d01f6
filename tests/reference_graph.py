"""The Tensor-level graph that the fused ops of ``dva.model`` replaced.

Before each block of the model became one taped op, the program built its
step from small taped primitives: elementwise arithmetic, reductions, shape
ops, the latent heads with their clamps, the KL, the reparameterised
sample, the output head, the losses and the energy head's input gradient.
This module keeps that graph, as the program computed it, as the reference
the fused kernels are compared against, and keeps the primitives for tests
that write loss closures or check the reference itself.

``generate`` returns the reference decode as a tuple ``(y_hat, groups,
kl_groups, kl_latent)``; ``total_loss`` returns the reference scalar loss.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from dva import layers
from dva.autodiff import Tensor, record
from dva.errors import ContractError
from dva.losses import _per_model
from dva.model import N_GROUPS, _cell
from layer_ops import conv1d_op, downsample2_op


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient back down to ``shape`` after numpy broadcasting. The
    program's taped ops need no such step (their operands carry the model
    axes of their parameters); the primitives here broadcast freely."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data)

    def back(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return record(out, (a, b), back)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data - b.data)

    def back(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return record(out, (a, b), back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data)

    def back(g):
        return _unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)

    return record(out, (a, b), back)


def square(a: Tensor) -> Tensor:
    return mul(a, a)


def _kept_shape(shape: tuple[int, ...], axis) -> tuple[int, ...]:
    """The shape of a reduction over ``axis`` with the reduced axes kept as 1."""
    if axis is None:
        return (1,) * len(shape)
    axes = {ax % len(shape) for ax in (axis if isinstance(axis, tuple) else (axis,))}
    return tuple(1 if i in axes else n for i, n in enumerate(shape))


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))
    kept = _kept_shape(a.data.shape, axis)

    def back(g):
        return (np.broadcast_to(g.reshape(kept), a.data.shape).copy(),)

    return record(out, (a,), back)


def mean_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(a.data.mean(axis=axis, keepdims=keepdims))
    count = a.data.size / out.data.size
    kept = _kept_shape(a.data.shape, axis)

    def back(g):
        return (np.broadcast_to(g.reshape(kept), a.data.shape) / count,)

    return record(out, (a,), back)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = Tensor(a.data.reshape(shape))
    return record(out, (a,), lambda g: (g.reshape(a.data.shape),))


def swapaxes(a: Tensor, axis1: int, axis2: int) -> Tensor:
    out = Tensor(np.swapaxes(a.data, axis1, axis2))
    return record(out, (a,), lambda g: (np.swapaxes(g, axis1, axis2),))


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    ts = list(tensors)
    if not ts:
        raise ContractError("concat needs at least one tensor")
    out = Tensor(np.concatenate([t.data for t in ts], axis=axis))
    sizes = [t.data.shape[axis] for t in ts]
    offsets = np.cumsum(sizes)[:-1]
    return record(out, tuple(ts), lambda g: tuple(np.split(g, offsets, axis=axis)))


def swish(a: Tensor) -> Tensor:
    """x * sigmoid(x); smooth, non-monotone, ~x for large x, ~0 for small."""
    y, saved = layers.swish(a.data, True)
    return record(Tensor(y), (a,), lambda g: (layers.swish_bwd(saved, g),))


def swish_prime(a: Tensor) -> Tensor:
    """d swish / dx = s + x s (1 - s) with s = sigmoid(x), as one op whose
    backward is swish's second derivative s (1 - s) (2 + x (1 - 2 s))."""
    s = layers.sigmoid(a.data)
    out = Tensor(s + a.data * s * (1.0 - s))
    return record(
        out, (a,), lambda g: (g * s * (1.0 - s) * (2.0 + a.data * (1.0 - 2.0 * s)),)
    )


def exp_(a: Tensor) -> Tensor:
    e = np.exp(a.data)
    out = Tensor(e)
    return record(out, (a,), lambda g: (g * e,))


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    out = Tensor(np.clip(a.data, lo, hi))
    mask = (a.data >= lo) & (a.data <= hi)
    return record(out, (a,), lambda g: (g * mask,))


def detach(a: Tensor) -> Tensor:
    """Same values, no gradient path: a constant from the tape's viewpoint."""
    return Tensor(a.data)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """y = x @ w.T + b with x (..., batch, d_in), w (..., d_out, d_in),
    b (..., d_out); leading axes broadcast."""
    if x.data.ndim < 2 or w.data.ndim < 2 or x.data.shape[-1] != w.data.shape[-1]:
        raise ContractError(
            f"linear shapes incompatible: x {x.shape}, w {w.shape}"
        )
    y = np.matmul(x.data, w.data.swapaxes(-1, -2))
    if b is not None:
        if b.data.shape != w.data.shape[:-1]:
            raise ContractError(f"bias shape {b.shape} != {w.data.shape[:-1]}")
        y += b.data[..., None, :]
    out = Tensor(y)
    inputs = (x, w) + ((b,) if b is not None else ())

    def back(g):
        grads = (
            _unbroadcast(np.matmul(g, w.data), x.data.shape),
            _unbroadcast(np.matmul(g.swapaxes(-1, -2), x.data), w.data.shape),
        )
        if b is None:
            return grads
        return grads + (_unbroadcast(g.sum(axis=-2), b.data.shape),)

    return record(out, inputs, back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product a @ b of the last two axes; leading axes broadcast."""
    if a.data.ndim < 2 or b.data.ndim < 2 or a.data.shape[-1] != b.data.shape[-2]:
        raise ContractError(f"matmul shapes incompatible: {a.shape} @ {b.shape}")
    out = Tensor(np.matmul(a.data, b.data))

    def back(g):
        return (
            _unbroadcast(np.matmul(g, b.data.swapaxes(-1, -2)), a.data.shape),
            _unbroadcast(np.matmul(a.data.swapaxes(-1, -2), g), b.data.shape),
        )

    return record(out, (a, b), back)


def upsample_repeat(x: Tensor, length: int) -> Tensor:
    """Nearest-neighbour stretch to ``length``: output[i] = input[i // 2]."""
    if x.data.ndim < 3:
        raise ContractError("upsample_repeat needs x (..., c, b, t)")
    idx = np.arange(length) // 2
    if length and idx[-1] >= x.data.shape[-1]:
        raise ContractError(
            f"length {length} needs source index {idx[-1]}, have {x.data.shape[-1]}"
        )
    out = Tensor(x.data[..., idx])

    def back(g):
        dx = np.zeros_like(x.data)
        np.add.at(dx, (Ellipsis, idx), g)
        return (dx,)

    return record(out, (x,), back)


# ---------------------------------------------------------------------------
# The model graph
# ---------------------------------------------------------------------------


def encode(params: ModelParams, x: Tensor, training: bool = False) -> list[Tensor]:
    """Feature maps at the three resolutions, finest first: x (..., batch,
    in_channels, t_in) in, channel-major (..., channels, batch, t) out."""
    cfg = params.config
    if x.data.ndim < 3 or x.data.shape[-2] != cfg.in_channels:
        raise ContractError(
            f"encode needs x (..., batch, {cfg.in_channels}, t), got {x.shape}"
        )
    if x.data.shape[-1] != cfg.t_in:
        raise ContractError(f"time length {x.data.shape[-1]} != configured {cfg.t_in}")
    h = conv1d_op(swapaxes(x, -3, -2), params["stem.w"], params["stem.b"])
    e1 = _cell(params, "enc1", h, training)
    e2 = _cell(params, "enc2", downsample2_op(e1), training)
    e3 = _cell(params, "enc3", downsample2_op(e2), training)
    return [e1, e2, e3]


def _head(params: ModelParams, name: str, x: Tensor) -> Tensor:
    """A latent head's 1x1 convolution; log-variance heads are clamped."""
    out = conv1d_op(x, params[f"{name}.w"], params[f"{name}.b"])
    return clamp(out, -10.0, 10.0) if name.endswith(".lv") else out


def generate(
    params: ModelParams,
    stack: list[Tensor],
    *,
    eps: list[np.ndarray] | None = None,
    training: bool = False,
) -> tuple:
    """Top-down decode with the latents following the posterior heads over
    the encoder stack, as ``(y_hat, groups, kl_groups, kl_latent)``; each
    group is the Tensors ``(q_mean, q_logvar, p_mean, p_logvar, z)``. With
    ``eps`` (one standard-normal array per group, coarsest first, each
    (..., batch, latent, t)) the latents are reparameterized samples, and
    the prior heads and the KL are computed. Without it the latents are the
    posterior means: ``groups`` and ``kl_groups`` are empty and
    ``kl_latent`` is None."""
    cfg = params.config
    if len(stack) != N_GROUPS:
        raise ContractError(f"encoder stack must have {N_GROUPS} levels")

    batch = stack[0].data.shape[-2]
    lengths = cfg.level_lengths()  # fine, middle, coarse
    group_lengths = (lengths[2], lengths[1], lengths[0])
    h = params["h"]  # (..., 1, c, t): as (..., c, 1, t), broadcast over the batch
    s = reshape(h, h.shape[:-3] + (h.shape[-2], 1, h.shape[-1]))
    s = add(s, Tensor(np.zeros((batch, 1))))
    groups: list[tuple[Tensor, ...]] = []
    kl_groups: list[Tensor] = []
    for i in (1, 2, 3):
        s = _cell(params, f"dec{i}", s, training)
        enc_feat = stack[N_GROUPS - i]  # coarse group reads coarse features
        post_in = concat([s, enc_feat], axis=-3)
        mu = _head(params, f"post{i}.mu", post_in)
        if eps is None:
            z = mu
        else:
            noise = np.asarray(eps[i - 1], dtype=np.float64)
            want = mu.shape[:-3] + (batch, mu.shape[-3], mu.shape[-1])
            if noise.shape != want:
                raise ContractError(f"eps[{i - 1}] shape {noise.shape} != {want}")
            lv = _head(params, f"post{i}.lv", post_in)
            p_mu = _head(params, f"prior{i}.mu", s)
            p_lv = _head(params, f"prior{i}.lv", s)
            kl = mean_(sum_(
                kl_gaussian_elementwise(mu, lv, p_mu, p_lv), axis=(-3, -1)
            ), axis=-1)
            noise = Tensor(np.swapaxes(noise, -3, -2))
            z = add(mu, mul(exp_(mul(lv, Tensor(0.5))), noise))
            groups.append((mu, lv, p_mu, p_lv, z))
            kl_groups.append(kl)
        s = conv1d_op(concat([s, z], axis=-3), params[f"merge{i}.w"], params[f"merge{i}.b"])
        if i < 3:
            s = upsample_repeat(s, group_lengths[i])

    o = conv1d_op(s, params["out.conv.w"], params["out.conv.b"])  # (..., 1, b, t_in)
    flat = reshape(o, o.shape[:-3] + o.shape[-2:])
    y_hat = linear(flat, params["out.proj.w"], params["out.proj.b"])
    kl_latent = kl_groups[0] if kl_groups else None
    for kl in kl_groups[1:]:
        kl_latent = add(kl_latent, kl)
    return y_hat, groups, kl_groups, kl_latent


def kl_gaussian_elementwise(
    q_mean: Tensor, q_logvar: Tensor, p_mean: Tensor, p_logvar: Tensor
) -> Tensor:
    """KL(q || p) per coordinate for diagonal Gaussians, as one taped op:

        0.5 * (exp(lq - lp) + (mq - mp)^2 exp(-lp) + lp - lq - 1)
    """
    if q_mean.shape != p_mean.shape or q_logvar.shape != p_logvar.shape:
        raise ContractError("KL operand shapes must match")
    diff = q_mean.data - p_mean.data
    ratio = np.exp(q_logvar.data - p_logvar.data)
    inv_p = np.exp(-p_logvar.data)
    sq = diff * diff * inv_p
    out = Tensor(0.5 * ((ratio + sq) + (p_logvar.data - q_logvar.data - 1.0)))

    def back(g):
        d_mean = g * diff * inv_p
        return (
            _unbroadcast(d_mean, q_mean.shape),
            _unbroadcast(0.5 * g * (ratio - 1.0), q_logvar.shape),
            _unbroadcast(-d_mean, p_mean.shape),
            _unbroadcast(0.5 * g * (1.0 - ratio - sq), p_logvar.shape),
        )

    return record(out, (q_mean, q_logvar, p_mean, p_logvar), back)


def output_kl(
    y_hat: Tensor,
    s_out: float,
    y: np.ndarray,
    schedule: DiffusionSchedule,
    n,
) -> Tensor:
    """KL( N(y_hat, s_out^2 I) || N(sqrt(a'_n) y, (1 - a'_n) I) ), summed over
    the horizon and averaged over the batch; n is one step or one per model."""
    a = _per_model(schedule.target_alpha_bar_at, n)
    if np.any(a >= 1.0):
        raise ContractError("output_kl undefined at zero target noise (n=0)")
    var_p = 1.0 - a
    target = np.sqrt(a)[..., None, None] * np.asarray(y, dtype=np.float64)
    if target.shape != y_hat.data.shape:
        raise ContractError(f"target shape {target.shape} != y_hat {y_hat.shape}")
    t_out = y_hat.data.shape[-1]
    log_ratio = np.log(var_p) - 2.0 * np.log(s_out)
    const = 0.5 * t_out * (log_ratio + s_out**2 / var_p - 1.0)
    diff = sub(y_hat, Tensor(target))
    quad = mul(Tensor((0.5 / var_p)[..., None]), sum_(square(diff), axis=-1))
    return add(mean_(quad, axis=-1), Tensor(const))


def _energy_mlp_preacts(params: ModelParams, y: Tensor) -> tuple[Tensor, Tensor]:
    a1 = linear(y, params["energy.w1"], params["energy.b1"])
    a2 = linear(swish(a1), params["energy.w2"], params["energy.b2"])
    return a1, a2


def _energy_center(params: ModelParams) -> Tensor:
    """c as (..., 1, t_out): one center per model, broadcast over the batch."""
    c = params["energy.c"]
    return reshape(c, c.shape[:-1] + (1, c.shape[-1]))


def energy(params: ModelParams, y: Tensor) -> Tensor:
    """Scalar energy per sample: quadratic anchor plus a 2-layer Swish MLP."""
    if y.data.ndim < 2 or y.data.shape[-1] != params.config.t_out:
        raise ContractError(f"energy needs y (..., batch, {params.config.t_out})")
    q = params["energy.q"]
    d = sub(y, _energy_center(params))
    quad = mul(mul(Tensor(0.5), reshape(q, q.shape + (1,))), sum_(square(d), axis=-1))
    _, a2 = _energy_mlp_preacts(params, y)
    mlp = linear(swish(a2), params["energy.w3"])  # (..., batch, 1)
    return add(quad, reshape(mlp, mlp.shape[:-1]))


def grad_energy(params: ModelParams, y: Tensor) -> Tensor:
    """d energy / d y, written with taped primitives.

    Spelling the input gradient out keeps it first-order on the tape, so
    backward() differentiates it with respect to the energy weights (and,
    when the input is not detached, through y as well) without any
    second-order machinery.
    """
    if y.data.ndim < 2 or y.data.shape[-1] != params.config.t_out:
        raise ContractError(f"grad_energy needs y (..., batch, {params.config.t_out})")
    a1, a2 = _energy_mlp_preacts(params, y)
    g2 = mul(swish_prime(a2), params["energy.w3"])  # w3 (..., 1, hidden) spans the batch
    g1 = mul(swish_prime(a1), matmul(g2, params["energy.w2"]))
    g_mlp = matmul(g1, params["energy.w1"])
    q = params["energy.q"]
    g_quad = mul(reshape(q, q.shape + (1, 1)), sub(y, _energy_center(params)))
    return add(g_quad, g_mlp)


def dsm_loss(
    params: ModelParams,
    y_hat_n: Tensor,
    y: np.ndarray,
    schedule: DiffusionSchedule,
    n,
    block_predictor: bool = True,
) -> Tensor:
    """Denoising score-matching penalty sigma_n ||y - y_hat + grad_E(y_hat)||^2
    summed over the horizon and averaged over the batch; n is one step or
    one per model.

    With block_predictor the prediction enters as data, so this term trains
    only the energy weights; the generator never chases its own noise.
    """
    target = np.asarray(y, dtype=np.float64)
    if target.shape != y_hat_n.data.shape:
        raise ContractError(f"target shape {target.shape} != y_hat {y_hat_n.shape}")
    sigma = _per_model(schedule.sigma_at, n)
    base = detach(y_hat_n) if block_predictor else y_hat_n
    resid = add(sub(Tensor(target), base), grad_energy(params, base))
    return mul(Tensor(sigma), mean_(sum_(square(resid), axis=-1), axis=-1))


def total_loss(
    batch: TrainBatch,
    params: ModelParams,
    schedule: DiffusionSchedule,
    cfg: TrainConfig,
    *,
    eps: list[np.ndarray],
) -> Tensor:
    """The composite objective on one batch, summed over the models of a
    stack, as the scalar loss tensor: L_MSE + zeta * (latent KL + output
    KL) + eta * L_DSM, each term present as ``cfg`` enables it."""
    stack = encode(params, Tensor(batch.x_n), training=True)
    y_hat, _, _, kl_latent = generate(params, stack, eps=eps, training=True)

    y_mse = batch.y if cfg.mse_against_clean else batch.y_n
    m_t = mean_(square(sub(y_hat, Tensor(y_mse))), axis=(-2, -1))

    kl_t: Tensor | None = None
    if cfg.latent_kl:
        kl_t = kl_latent
    # the output KL is measured against the diffused-target distribution at
    # step n, so it only exists while targets are actually diffused
    if cfg.output_kl and cfg.diffuse_y:
        o_t = output_kl(y_hat, cfg.s_out, batch.y, schedule, batch.n)
        kl_t = o_t if kl_t is None else add(kl_t, o_t)

    d_t: Tensor | None = None
    if cfg.denoiser:
        d_t = dsm_loss(
            params, y_hat, batch.y, schedule, batch.n, block_predictor=cfg.dsm_block
        )

    loss_t = m_t
    if kl_t is not None:
        loss_t = add(loss_t, mul(Tensor(cfg.zeta), kl_t))
    if d_t is not None:
        loss_t = add(loss_t, mul(Tensor(cfg.eta), d_t))
    return sum_(loss_t)
