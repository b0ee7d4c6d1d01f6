"""Hierarchical variational generator with an energy-based denoising head.

The generator is a 3-group ladder: an encoder tower of residual cells at
time resolutions T, ceil(T/2), ceil(T/4), and a top-down decoder that starts
from a trainable hidden state at the coarsest resolution. At each group the
posterior head reads [decoder state, encoder features] while the prior head
reads the decoder state alone; the sampled latent is merged back into the
state before the next (finer) cell. A 1x1 conv plus a global projection map
the finest state to the T_out-step prediction.

The energy head is a small scalar network E(y) = 0.5*q*||y - c||^2 + MLP(y)
whose input gradient is written out in closed form with taped primitives, so
training it through grad_E never needs second-order autodiff.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .autodiff import (
    Tape,
    Tensor,
    _record,
    _unbroadcast,
    add,
    as_tensor,
    clamp,
    concat,
    conv1d,
    detach,
    exp_,
    linear,
    matmul,
    mean_,
    mul,
    reshape,
    sigmoid,
    square,
    sub,
    sum_,
    swish,
    upsample_repeat,
    downsample2,
)
from .diffusion import DiffusionSchedule
from .errors import ConfigError, ContractError
from .layers import BatchNormState, batch_norm, se_gate, separable_conv1d

__all__ = [
    "N_GROUPS",
    "ModelConfig",
    "ModelParams",
    "LatentGroup",
    "ForwardOutput",
    "encode",
    "generate",
    "kl_gaussian",
    "output_kl",
    "energy",
    "grad_energy",
    "dsm_loss",
    "denoise_jump",
    "save_params",
    "load_params",
]

N_GROUPS = 3
CHECKPOINT_VERSION = 1

# Both latent heads start at log-variance -4 (sigma ~ 0.14): small enough that
# the posterior mean is not drowned by reparameterization noise within a short
# optimisation budget, matched between posterior and prior so the initial KL
# stays ~0. The heads learn per-coordinate scales from there.
LOGVAR_INIT = -4.0


@dataclass(frozen=True)
class ModelConfig:
    """Architecture knobs; everything downstream of these is derived."""

    t_in: int
    t_out: int
    in_channels: int = 6
    channels: int = 16
    latent: int = 4
    kernel: int = 3
    se_reduction: int = 4
    energy_hidden: int = 32

    def validate(self) -> "ModelConfig":
        if self.t_in < 4:
            raise ConfigError(
                f"t_in={self.t_in} too short: three halvings need t_in >= 4"
            )
        if self.t_out < 1:
            raise ConfigError(f"t_out must be >= 1, got {self.t_out}")
        if min(self.channels, self.latent, self.energy_hidden) < 1:
            raise ConfigError("widths must be >= 1")
        if self.kernel % 2 == 0:
            raise ConfigError(f"kernel must be odd, got {self.kernel}")
        if not 1 <= self.se_reduction <= self.channels:
            raise ConfigError("se_reduction must lie in [1, channels]")
        return self

    def level_lengths(self) -> tuple[int, int, int]:
        """Time lengths at the fine, middle, and coarse levels."""
        l1 = self.t_in
        l2 = (l1 + 1) // 2
        l3 = (l2 + 1) // 2
        return l1, l2, l3

    def hash(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

_CELL_PREFIXES = tuple(f"enc{i}" for i in (1, 2, 3)) + tuple(f"dec{i}" for i in (1, 2, 3))


class ModelParams:
    """Named parameter tensors plus batch-norm running buffers."""

    def __init__(
        self,
        config: ModelConfig,
        tensors: dict[str, Tensor],
        bn_states: dict[str, BatchNormState],
    ):
        self.config = config
        self.tensors = tensors
        self.bn_states = bn_states

    # -- construction -------------------------------------------------------

    @classmethod
    def init(cls, config: ModelConfig, seed: int) -> "ModelParams":
        config.validate()
        rng = np.random.default_rng(seed)
        c, zc, k = config.channels, config.latent, config.kernel
        cr = config.se_reduction
        t = {}
        bn = {}

        def w(name, shape, fan_in):
            t[name] = Tensor(rng.normal(size=shape) / np.sqrt(fan_in), name=name)

        def zeros(name, shape):
            t[name] = Tensor(np.zeros(shape), name=name)

        w("stem.w", (c, config.in_channels, 1), config.in_channels)
        zeros("stem.b", (c,))

        for prefix in _CELL_PREFIXES:
            for j in (1, 2):
                t[f"{prefix}.bn{j}.gamma"] = Tensor(np.ones(c), name=f"{prefix}.bn{j}.gamma")
                zeros(f"{prefix}.bn{j}.beta", (c,))
                bn[f"{prefix}.bn{j}"] = BatchNormState.create(c)
                w(f"{prefix}.conv{j}.depth", (c, 1, k), k)
            w(f"{prefix}.conv1.point", (c, c, 1), c)
            # the closing pointwise conv starts at zero, so every residual
            # cell begins as the identity map and the whole network is a
            # shallow near-linear path at step 0; the branch switches on as
            # its own gradient grows the weight.  Deep randomly-initialised
            # branches otherwise spend most of a short optimisation budget
            # merely aligning themselves.
            zeros(f"{prefix}.conv2.point", (c, c, 1))
            # only the second conv gets a bias: the first feeds straight into
            # a batch norm, which cancels any per-channel shift exactly
            zeros(f"{prefix}.conv2.bias", (c,))
            w(f"{prefix}.se.w1", (cr, c), c)
            zeros(f"{prefix}.se.b1", (cr,))
            w(f"{prefix}.se.w2", (c, cr), cr)
            zeros(f"{prefix}.se.b2", (c,))

        lengths = config.level_lengths()
        t["h"] = Tensor(0.1 * rng.normal(size=(1, c, lengths[2])), name="h")

        for i in (1, 2, 3):
            # the posterior head starts as a copy of the prior head on the
            # shared decoder-state channels (initial KL ~ 0) plus a moderate
            # random readout of the encoder channels, so the input wire is
            # live from the first step instead of having to grow from zero
            for part in ("mu", "lv"):
                prior = 0.1 * rng.normal(size=(zc, c, 1)) / np.sqrt(c)
                bias = np.full(zc, LOGVAR_INIT) if part == "lv" else np.zeros(zc)
                t[f"prior{i}.{part}.w"] = Tensor(prior, name=f"prior{i}.{part}.w")
                t[f"prior{i}.{part}.b"] = Tensor(bias.copy(), name=f"prior{i}.{part}.b")
                post = np.concatenate(
                    [
                        prior,
                        (0.5 / np.sqrt(c)) * rng.normal(size=(zc, c, 1))
                        if part == "mu"
                        else np.zeros((zc, c, 1)),
                    ],
                    axis=1,
                )
                t[f"post{i}.{part}.w"] = Tensor(post, name=f"post{i}.{part}.w")
                t[f"post{i}.{part}.b"] = Tensor(bias.copy(), name=f"post{i}.{part}.b")
            w(f"merge{i}.w", (c, c + zc, 1), c + zc)
            zeros(f"merge{i}.b", (c,))

        w("out.conv.w", (1, c, 1), c)
        zeros("out.conv.b", (1,))
        # the final projection starts as a (possibly truncated) identity:
        # the default forecast is "repeat the summarised input pattern",
        # which is the strongest data-free prior for short-horizon series
        # and leaves only a residual correction for training to build
        t["out.proj.w"] = Tensor(np.eye(config.t_out, config.t_in), name="out.proj.w")
        zeros("out.proj.b", (config.t_out,))

        # The denoiser starts with an exactly-zero gradient field (jump =
        # identity): an immature energy head would otherwise drag fresh
        # predictions toward whatever its random surface happens to slope
        # to.  The small first-layer scale keeps its early learned pull
        # gentle; score matching grows it as evidence accumulates.
        hh = config.energy_hidden
        t["energy.q"] = Tensor(np.array(0.0), name="energy.q")
        zeros("energy.c", (config.t_out,))
        t["energy.w1"] = Tensor(
            0.3 * rng.normal(size=(hh, config.t_out)) / np.sqrt(config.t_out),
            name="energy.w1",
        )
        zeros("energy.b1", (hh,))
        t["energy.w2"] = Tensor(
            0.3 * rng.normal(size=(hh, hh)) / np.sqrt(hh), name="energy.w2"
        )
        zeros("energy.b2", (hh,))
        zeros("energy.w3", (1, hh))
        return cls(config, t, bn)

    # -- access -------------------------------------------------------------

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def parameters(self) -> list[Tensor]:
        return [self.tensors[k] for k in sorted(self.tensors)]

    def generator_parameters(self) -> list[Tensor]:
        return [self.tensors[k] for k in sorted(self.tensors) if not k.startswith("energy.")]

    def energy_parameters(self) -> list[Tensor]:
        return [self.tensors[k] for k in sorted(self.tensors) if k.startswith("energy.")]

    def clone(self) -> "ModelParams":
        t = {k: Tensor(v.data.copy(), name=v.name) for k, v in self.tensors.items()}
        bn = {
            k: BatchNormState(s.mean.copy(), s.var.copy(), s.momentum, s.eps)
            for k, s in self.bn_states.items()
        }
        return ModelParams(self.config, t, bn)

    def require_finite(self) -> "ModelParams":
        for k, v in self.tensors.items():
            v.require_finite(k)
        return self


def save_params(params: ModelParams, path) -> None:
    arrays = {f"tensor:{k}": v.data for k, v in params.tensors.items()}
    for k, s in params.bn_states.items():
        arrays[f"bn_mean:{k}"] = s.mean
        arrays[f"bn_var:{k}"] = s.var
    meta = {
        "version": CHECKPOINT_VERSION,
        "config": asdict(params.config),
        "config_hash": params.config.hash(),
    }
    arrays["__meta__"] = np.array(json.dumps(meta, sort_keys=True))
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_params(path, expected_hash: str | None = None) -> ModelParams:
    """Rebuild parameters from a checkpoint; a config-hash mismatch is fatal."""
    if not Path(path).exists():
        raise ConfigError(f"no such checkpoint: {path}")
    with np.load(path, allow_pickle=False) as f:
        meta = json.loads(str(f["__meta__"]))
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ConfigError(f"unsupported checkpoint version {meta.get('version')}")
        config = ModelConfig(**meta["config"])
        if config.hash() != meta["config_hash"]:
            raise ConfigError("checkpoint config hash does not match its config")
        if expected_hash is not None and meta["config_hash"] != expected_hash:
            raise ConfigError(
                f"checkpoint config hash {meta['config_hash']} does not match"
                f" expected {expected_hash}"
            )
        tensors = {}
        bn: dict[str, BatchNormState] = {}
        for key in f.files:
            kind, _, name = key.partition(":")
            if kind == "tensor":
                tensors[name] = Tensor(f[key].copy(), name=name)
            elif kind == "bn_mean":
                bn.setdefault(name, BatchNormState.create(f[key].size)).mean = f[key].copy()
            elif kind == "bn_var":
                bn[name].var = f[key].copy()
    return ModelParams(config, tensors, bn)


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------


def _cell(params: ModelParams, prefix: str, x: Tensor, training: bool) -> Tensor:
    """Residual cell: [BN -> Swish -> separable conv] x2 -> SE, plus skip."""
    t = params.tensors
    h = batch_norm(
        x, t[f"{prefix}.bn1.gamma"], t[f"{prefix}.bn1.beta"],
        params.bn_states[f"{prefix}.bn1"], training,
    )
    h = separable_conv1d(
        swish(h), t[f"{prefix}.conv1.depth"], t[f"{prefix}.conv1.point"]
    )
    h = batch_norm(
        h, t[f"{prefix}.bn2.gamma"], t[f"{prefix}.bn2.beta"],
        params.bn_states[f"{prefix}.bn2"], training,
    )
    h = separable_conv1d(
        swish(h), t[f"{prefix}.conv2.depth"], t[f"{prefix}.conv2.point"],
        t[f"{prefix}.conv2.bias"],
    )
    h = se_gate(h, t[f"{prefix}.se.w1"], t[f"{prefix}.se.w2"],
                t[f"{prefix}.se.b1"], t[f"{prefix}.se.b2"])
    return add(x, h)


def encode(params: ModelParams, x: Tensor, training: bool = False) -> list[Tensor]:
    """Feature maps at the three resolutions, finest first."""
    cfg = params.config
    if x.data.ndim != 3 or x.data.shape[1] != cfg.in_channels:
        raise ContractError(
            f"encode needs x (batch, {cfg.in_channels}, t), got {x.shape}"
        )
    if x.data.shape[2] != cfg.t_in:
        raise ContractError(f"time length {x.data.shape[2]} != configured {cfg.t_in}")
    h = conv1d(x, params["stem.w"], params["stem.b"])
    e1 = _cell(params, "enc1", h, training)
    e2 = _cell(params, "enc2", downsample2(e1), training)
    e3 = _cell(params, "enc3", downsample2(e2), training)
    return [e1, e2, e3]


@dataclass
class LatentGroup:
    """Per-group distribution stats and the latent actually used."""

    q_mean: Tensor | None
    q_logvar: Tensor | None
    p_mean: Tensor
    p_logvar: Tensor
    z: Tensor


@dataclass
class ForwardOutput:
    y_hat: Tensor  # (batch, t_out)
    groups: list[LatentGroup]
    kl_groups: list[Tensor]  # scalar per group, averaged over the batch
    kl_latent: Tensor  # sum of the group terms


def _head(params: ModelParams, name: str, x: Tensor) -> tuple[Tensor, Tensor]:
    mu = conv1d(x, params[f"{name}.mu.w"], params[f"{name}.mu.b"])
    lv = clamp(conv1d(x, params[f"{name}.lv.w"], params[f"{name}.lv.b"]), -10.0, 10.0)
    return mu, lv


def generate(
    params: ModelParams,
    stack: list[Tensor] | None,
    *,
    sample: bool,
    rng: np.random.Generator | None = None,
    eps: list[np.ndarray] | None = None,
    batch: int | None = None,
    training: bool = False,
) -> ForwardOutput:
    """Top-down decode. With an encoder stack the latents follow the
    posterior heads; without one they follow the priors (diagnostic mode,
    needs ``batch``). sample=False uses distribution means."""
    cfg = params.config
    if stack is not None:
        if len(stack) != N_GROUPS:
            raise ContractError(f"encoder stack must have {N_GROUPS} levels")
        batch = stack[0].data.shape[0]
    elif batch is None:
        raise ContractError("prior mode needs an explicit batch size")
    if sample and rng is None and eps is None:
        raise ContractError("sampling needs an rng or explicit eps")

    lengths = cfg.level_lengths()  # fine, middle, coarse
    group_lengths = (lengths[2], lengths[1], lengths[0])
    s = add(params["h"], as_tensor(np.zeros((batch, 1, 1))))  # broadcast over batch
    groups: list[LatentGroup] = []
    kl_groups: list[Tensor] = []
    for i in (1, 2, 3):
        s = _cell(params, f"dec{i}", s, training)
        p_mu, p_lv = _head(params, f"prior{i}", s)
        if stack is not None:
            enc_feat = stack[N_GROUPS - i]  # coarse group reads coarse features
            q_mu, q_lv = _head(params, f"post{i}", concat([s, enc_feat], axis=1))
            mu, lv = q_mu, q_lv
            kl = mean_(sum_(
                kl_gaussian_elementwise(q_mu, q_lv, p_mu, p_lv), axis=(1, 2)
            ))
        else:
            q_mu = q_lv = None
            mu, lv = p_mu, p_lv
            kl = as_tensor(0.0)
        if sample:
            if eps is not None:
                noise = np.asarray(eps[i - 1], dtype=np.float64)
                if noise.shape != mu.data.shape:
                    raise ContractError(
                        f"eps[{i - 1}] shape {noise.shape} != {mu.data.shape}"
                    )
            else:
                noise = rng.standard_normal(mu.data.shape)
            z = add(mu, mul(exp_(mul(lv, as_tensor(0.5))), as_tensor(noise)))
        else:
            z = mu
        groups.append(LatentGroup(q_mu, q_lv, p_mu, p_lv, z))
        kl_groups.append(kl)
        s = conv1d(concat([s, z], axis=1), params[f"merge{i}.w"], params[f"merge{i}.b"])
        if i < 3:
            s = upsample_repeat(s, group_lengths[i])

    o = conv1d(s, params["out.conv.w"], params["out.conv.b"])  # (b, 1, t_in)
    flat = reshape(o, (batch, cfg.t_in))
    y_hat = linear(flat, params["out.proj.w"], params["out.proj.b"])
    kl_latent = kl_groups[0]
    for kl in kl_groups[1:]:
        kl_latent = add(kl_latent, kl)
    return ForwardOutput(y_hat=y_hat, groups=groups, kl_groups=kl_groups, kl_latent=kl_latent)


# ---------------------------------------------------------------------------
# Divergences
# ---------------------------------------------------------------------------


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
        d_qlv = 0.5 * g * (ratio - 1.0)
        d_plv = 0.5 * g * (1.0 - ratio - sq)
        return (
            _unbroadcast(d_mean, q_mean.shape),
            _unbroadcast(d_qlv, q_logvar.shape),
            _unbroadcast(-d_mean, p_mean.shape),
            _unbroadcast(d_plv, p_logvar.shape),
        )

    return _record(out, (q_mean, q_logvar, p_mean, p_logvar), back)


def kl_gaussian(
    q_mean: Tensor, q_logvar: Tensor, p_mean: Tensor, p_logvar: Tensor
) -> Tensor:
    """Closed-form diagonal-Gaussian KL summed over every coordinate."""
    return sum_(kl_gaussian_elementwise(q_mean, q_logvar, p_mean, p_logvar))


def output_kl(
    y_hat: Tensor,
    s_out: float,
    y: np.ndarray,
    schedule: DiffusionSchedule,
    n: int,
) -> Tensor:
    """KL( N(y_hat, s_out^2 I) || N(sqrt(a'_n) y, (1 - a'_n) I) ), summed over
    the horizon and averaged over the batch."""
    a = schedule.target_alpha_bar_at(n)
    if a >= 1.0:
        raise ContractError("output_kl undefined at zero target noise (n=0)")
    var_p = 1.0 - a
    target = np.sqrt(a) * np.asarray(y, dtype=np.float64)
    if target.shape != y_hat.data.shape:
        raise ContractError(f"target shape {target.shape} != y_hat {y_hat.shape}")
    t_out = y_hat.data.shape[1]
    log_ratio = np.log(var_p) - 2.0 * np.log(s_out)
    const = 0.5 * t_out * (log_ratio + s_out**2 / var_p - 1.0)
    diff = sub(y_hat, as_tensor(target))
    quad = mul(as_tensor(0.5 / var_p), sum_(square(diff), axis=1))
    return add(mean_(quad), as_tensor(const))


# ---------------------------------------------------------------------------
# Energy head
# ---------------------------------------------------------------------------


def _energy_mlp_preacts(params: ModelParams, y: Tensor) -> tuple[Tensor, Tensor]:
    a1 = linear(y, params["energy.w1"], params["energy.b1"])
    a2 = linear(swish(a1), params["energy.w2"], params["energy.b2"])
    return a1, a2


def energy(params: ModelParams, y: Tensor) -> Tensor:
    """Scalar energy per sample: quadratic anchor plus a 2-layer Swish MLP."""
    if y.data.ndim != 2 or y.data.shape[1] != params.config.t_out:
        raise ContractError(f"energy needs y (batch, {params.config.t_out})")
    d = sub(y, params["energy.c"])
    quad = mul(mul(as_tensor(0.5), params["energy.q"]), sum_(square(d), axis=1))
    _, a2 = _energy_mlp_preacts(params, y)
    mlp = linear(swish(a2), params["energy.w3"])
    return add(quad, reshape(mlp, (y.data.shape[0],)))


def _swish_prime(a: Tensor) -> Tensor:
    s = sigmoid(a)
    return add(s, mul(mul(a, s), sub(as_tensor(1.0), s)))


def grad_energy(params: ModelParams, y: Tensor) -> Tensor:
    """d energy / d y, written with taped primitives.

    Spelling the input gradient out keeps it first-order on the tape, so
    backward() differentiates it with respect to the energy weights (and,
    when the input is not detached, through y as well) without any
    second-order machinery.
    """
    if y.data.ndim != 2 or y.data.shape[1] != params.config.t_out:
        raise ContractError(f"grad_energy needs y (batch, {params.config.t_out})")
    a1, a2 = _energy_mlp_preacts(params, y)
    g2 = mul(_swish_prime(a2), reshape(params["energy.w3"], (params.config.energy_hidden,)))
    g1 = mul(_swish_prime(a1), matmul(g2, params["energy.w2"]))
    g_mlp = matmul(g1, params["energy.w1"])
    g_quad = mul(params["energy.q"], sub(y, params["energy.c"]))
    return add(g_quad, g_mlp)


def dsm_loss(
    params: ModelParams,
    y_hat_n: Tensor,
    y: np.ndarray,
    schedule: DiffusionSchedule,
    n: int,
    block_predictor: bool = True,
) -> Tensor:
    """Denoising score-matching penalty sigma_n ||y - y_hat + grad_E(y_hat)||^2
    summed over the horizon and averaged over the batch.

    With block_predictor the prediction enters as data, so this term trains
    only the energy weights; the generator never chases its own noise.
    """
    target = np.asarray(y, dtype=np.float64)
    if target.shape != y_hat_n.data.shape:
        raise ContractError(f"target shape {target.shape} != y_hat {y_hat_n.shape}")
    sigma = schedule.sigma_at(n)
    base = detach(y_hat_n) if block_predictor else y_hat_n
    resid = add(sub(as_tensor(target), base), grad_energy(params, base))
    return mul(as_tensor(sigma), mean_(sum_(square(resid), axis=1)))


def denoise_jump(params: ModelParams, y_hat: Tensor) -> Tensor:
    """One explicit gradient step on the energy: y - grad_E(y)."""
    return sub(y_hat, grad_energy(params, y_hat))
