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

Generator activations are channel-major, (channels, batch, time): ``encode``
transposes its (batch, channels, time) input once, and ``generate`` takes
its latent noise as (batch, latent, time) and returns (batch, t_out).

``ModelParams.stack`` joins R models of one config into one whose tensors
and batch-norm buffers carry a leading model axis. Every function here runs
on either form: activations of a stack are (R, channels, batch, time), an
input without the model axis is shared by all R models, and each model's
outputs depend on its own parameters only.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import zipfile
from dataclasses import asdict, dataclass
from itertools import accumulate
from pathlib import Path
from types import MappingProxyType
from typing import Sequence

import numpy as np

from .atomic import atomic_open
from .autodiff import (
    Tensor,
    _record,
    _swish_bwd,
    _swish_fwd,
    _taping,
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
    square,
    sub,
    sum_,
    swapaxes,
    swish,
    swish_prime,
    upsample_repeat,
    downsample2,
)
from .diffusion import DiffusionSchedule
from .errors import ConfigError, ContractError, DataError
from .layers import (  # noqa: F401  (the ops: perfbench/tracing.py wraps dva.model.<op>)
    BatchNormState,
    _needed,
    batch_norm,
    batch_norm_bwd,
    batch_norm_fwd,
    se_bwd,
    se_fwd,
    se_gate,
    separable_bwd,
    separable_conv1d,
    separable_fwd,
)

__all__ = [
    "N_GROUPS",
    "ModelConfig",
    "ModelParams",
    "LatentGroup",
    "ForwardOutput",
    "encode",
    "generate",
    "kl_gaussian_elementwise",
    "output_kl",
    "energy",
    "grad_energy",
    "dsm_loss",
    "denoise_jump",
    "save_params",
    "load_params",
]

N_GROUPS = 3
CHECKPOINT_VERSION = 2

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
    """Named parameter tensors plus batch-norm running buffers, all views of
    one float64 array, ``values``: ``(N,)`` for a model, ``(R, N)`` with one
    row per model for a stack. A row is laid out as a checkpoint's
    ``values`` (``_checkpoint_shapes``): the buffers, then the tensors as
    ``flat``, which ``Adam`` updates in place. So a value that must outlive
    an update is a copy (``run(r)``, a checkpoint), and a tensor is changed
    by writing through it (``t.data[...] = ...``), never by rebinding it."""

    def __init__(self, config: ModelConfig, values: np.ndarray):
        self.config = config
        self.values = values
        self.tensors, self.bn_states, means = {}, {}, {}
        shapes = _checkpoint_shapes(config)
        offsets = [0, *accumulate(math.prod(shape) for shape in shapes.values())]
        for (key, shape), start, stop in zip(shapes.items(), offsets, offsets[1:]):
            kind, _, name = key.partition(":")
            view = values[..., start:stop].reshape(values.shape[:-1] + shape)
            if kind == "tensor":
                self.tensors[name] = Tensor(view, name=name)
            elif kind == "bn_mean":
                means[name] = view
            else:  # bn_var, which sorts after every mean
                self.bn_states[name] = BatchNormState(means[name], view)
        self.flat = values[..., offsets[2 * len(self.bn_states)] :]  # the tensors sort last

    # -- construction -------------------------------------------------------

    @classmethod
    def init(cls, config: ModelConfig, seed: int) -> "ModelParams":
        arrays = cls._build(config, np.random.default_rng(seed).normal)
        return cls(config, np.concatenate([np.ravel(arrays[k]) for k in sorted(arrays)]))

    @classmethod
    def _build(cls, config: ModelConfig, normal) -> dict[str, np.ndarray]:
        """Every array of a model of ``config``, keyed as in a checkpoint;
        ``normal(size=)`` supplies the random draws, in a fixed order."""
        config.validate()
        c, zc, k = config.channels, config.latent, config.kernel
        cr = config.se_reduction
        t = {}
        bn = {}

        def w(name, shape, fan_in):
            t[name] = normal(size=shape) / np.sqrt(fan_in)

        def zeros(name, shape):
            t[name] = np.zeros(shape)

        w("stem.w", (c, config.in_channels, 1), config.in_channels)
        zeros("stem.b", (c,))

        for prefix in _CELL_PREFIXES:
            for j in (1, 2):
                t[f"{prefix}.bn{j}.gamma"] = np.ones(c)
                zeros(f"{prefix}.bn{j}.beta", (c,))
                bn[f"bn_mean:{prefix}.bn{j}"] = np.zeros(c)
                bn[f"bn_var:{prefix}.bn{j}"] = np.ones(c)
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
        t["h"] = 0.1 * normal(size=(1, c, lengths[2]))

        for i in (1, 2, 3):
            # the posterior head starts as a copy of the prior head on the
            # shared decoder-state channels (initial KL ~ 0) plus a moderate
            # random readout of the encoder channels, so the input wire is
            # live from the first step instead of having to grow from zero
            for part in ("mu", "lv"):
                prior = 0.1 * normal(size=(zc, c, 1)) / np.sqrt(c)
                bias = np.full(zc, LOGVAR_INIT) if part == "lv" else np.zeros(zc)
                t[f"prior{i}.{part}.w"] = prior
                t[f"prior{i}.{part}.b"] = bias
                post = np.concatenate(
                    [
                        prior,
                        (0.5 / np.sqrt(c)) * normal(size=(zc, c, 1))
                        if part == "mu"
                        else np.zeros((zc, c, 1)),
                    ],
                    axis=1,
                )
                t[f"post{i}.{part}.w"] = post
                t[f"post{i}.{part}.b"] = bias
            w(f"merge{i}.w", (c, c + zc, 1), c + zc)
            zeros(f"merge{i}.b", (c,))

        w("out.conv.w", (1, c, 1), c)
        zeros("out.conv.b", (1,))
        # the final projection starts as a (possibly truncated) identity:
        # the default forecast is "repeat the summarised input pattern",
        # which is the strongest data-free prior for short-horizon series
        # and leaves only a residual correction for training to build
        t["out.proj.w"] = np.eye(config.t_out, config.t_in)
        zeros("out.proj.b", (config.t_out,))

        # The denoiser starts with an exactly-zero gradient field (jump =
        # identity): an immature energy head would otherwise drag fresh
        # predictions toward whatever its random surface happens to slope
        # to.  The small first-layer scale keeps its early learned pull
        # gentle; score matching grows it as evidence accumulates.
        hh = config.energy_hidden
        zeros("energy.q", ())
        zeros("energy.c", (config.t_out,))
        t["energy.w1"] = 0.3 * normal(size=(hh, config.t_out)) / np.sqrt(config.t_out)
        zeros("energy.b1", (hh,))
        t["energy.w2"] = 0.3 * normal(size=(hh, hh)) / np.sqrt(hh)
        zeros("energy.b2", (hh,))
        zeros("energy.w3", (1, hh))
        return bn | {f"tensor:{key}": v for key, v in t.items()}

    # -- access -------------------------------------------------------------

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def parameters(self) -> list[Tensor]:
        return list(self.tensors.values())

    @classmethod
    def stack(cls, models: Sequence["ModelParams"]) -> "ModelParams":
        """R single models of one config as one model whose ``values`` row r
        is model r's, so every tensor and batch-norm buffer gains a leading
        axis R."""
        config = models[0].config
        if any(m.config != config for m in models):
            raise ContractError("stacked models must share one config")
        for m in models:
            m._check_views()
        return cls(config, np.stack([m.values for m in models]))

    def run(self, r: int) -> "ModelParams":
        """A copy of model r of a stack, with a checkpoint's shapes."""
        return ModelParams(self.config, self.values[r].copy())

    def _check_views(self) -> None:
        """A tensor rebound rather than written through no longer views
        ``values``, which would silently keep its old value."""
        for t in self.tensors.values():
            if not np.may_share_memory(t.data, self.values):
                raise ContractError(f"tensor {t.name} was rebound: write through t.data[...]")


@functools.lru_cache(maxsize=8)
def _checkpoint_shapes(config: ModelConfig) -> MappingProxyType[str, tuple[int, ...]]:
    """``{key: shape}`` of every array of a model of ``config`` in sorted-key
    order: the batch-norm means, their variances, then the tensors; built
    once per config, read-only."""
    # zero-filled: drawing no random numbers keeps numpy.random unimported
    arrays = ModelParams._build(config, lambda size: np.zeros(size))
    return MappingProxyType({k: np.shape(arrays[k]) for k in sorted(arrays)})


def save_params(params: ModelParams, path) -> None:
    """Write one model (model r of a stack as ``params.run(r)``): its
    ``values`` vector, and ``__meta__``, whose ``layout`` lists the
    ``[key, shape]`` of each slice of ``values`` in order."""
    if params.values.ndim != 1:
        raise ContractError("save_params writes one model, not a stack")
    params._check_views()
    meta = {
        "version": CHECKPOINT_VERSION,
        "config": asdict(params.config),
        "config_hash": params.config.hash(),
        "layout": [[k, list(v)] for k, v in _checkpoint_shapes(params.config).items()],
    }
    with atomic_open(path) as fh:
        np.savez(fh, __meta__=np.array(json.dumps(meta, sort_keys=True)), values=params.values)


def _layout_shapes(layout) -> dict[str, tuple[int, ...]] | None:
    """``{key: shape}`` of a checkpoint layout in its order, or None if it is
    not a list of ``[key, shape]`` pairs with distinct keys."""
    if not isinstance(layout, list):
        return None
    shapes: dict[str, tuple[int, ...]] = {}
    for entry in layout:
        if not (
            isinstance(entry, list)
            and len(entry) == 2
            and isinstance(entry[0], str)
            and entry[0] not in shapes
            and isinstance(entry[1], list)
            and all(type(n) is int and n >= 0 for n in entry[1])
        ):
            return None
        shapes[entry[0]] = tuple(entry[1])
    return shapes


def _read_npz(path) -> tuple[str | None, np.ndarray | None]:
    """A checkpoint's ``__meta__`` text and ``values`` array, None where the
    archive lacks one; a file that is not a readable .npz archive (garbage
    bytes, a truncated archive) is a ``DataError``."""
    try:
        with np.load(path, allow_pickle=False) as f:
            meta = str(f["__meta__"]) if "__meta__" in f.files else None
            return meta, (f["values"] if "values" in f.files else None)
    except (EOFError, NotImplementedError, OSError, ValueError, zipfile.BadZipFile) as err:
        raise DataError(
            f"checkpoint {path}: not a readable .npz archive ({type(err).__name__})"
        ) from None


def load_params(path, expected_hash: str | None = None) -> ModelParams:
    """Rebuild parameters from a checkpoint; a config-hash mismatch is fatal,
    and so is any array missing, extra or misshapen against a fresh model of
    the stored config. The loaded model's ``values`` is the stored vector."""
    if not Path(path).exists():
        raise ConfigError(f"no such checkpoint: {path}")
    meta_text, values = _read_npz(path)
    if meta_text is None:
        raise DataError(f"checkpoint {path}: missing array __meta__")
    try:
        meta = json.loads(meta_text)
    except ValueError:
        meta = None
    if not isinstance(meta, dict):
        raise DataError(f"checkpoint {path}: __meta__ is not a JSON object")
    if meta.get("version") != CHECKPOINT_VERSION:
        raise ConfigError(f"unsupported checkpoint version {meta.get('version')}")
    try:
        config = ModelConfig(**meta["config"])
        stored_hash = meta["config_hash"]
    except KeyError as err:
        raise DataError(f"checkpoint {path}: metadata has no {err}") from None
    except TypeError as err:
        raise DataError(f"checkpoint {path}: bad model config in metadata: {err}") from None
    if config.hash() != stored_hash:
        raise ConfigError("checkpoint config hash does not match its config")
    if expected_hash is not None and stored_hash != expected_hash:
        raise ConfigError(
            f"checkpoint config hash {stored_hash} does not match"
            f" expected {expected_hash}"
        )
    if values is None:
        raise DataError(f"checkpoint {path}: missing array values")
    if values.ndim != 1 or values.dtype != np.float64:
        raise DataError(
            f"checkpoint {path}: values must be a float64 vector,"
            f" got {values.dtype} of shape {values.shape}"
        )
    stored = _layout_shapes(meta.get("layout"))
    if stored is None:
        raise DataError(f"checkpoint {path}: layout is not a list of [key, shape] pairs")
    sizes = [math.prod(shape) for shape in stored.values()]
    if sum(sizes) != values.size:
        raise DataError(
            f"checkpoint {path}: layout covers {sum(sizes)} values,"
            f" values holds {values.size}"
        )
    expected = _checkpoint_shapes(config)
    for key in sorted(expected.keys() | stored.keys()):
        if key not in stored:
            raise DataError(f"checkpoint {path}: missing array {key}")
        if key not in expected:
            raise DataError(f"checkpoint {path}: unexpected array {key}")
        if stored[key] != expected[key]:
            raise DataError(
                f"checkpoint {path}: array {key} has shape {stored[key]},"
                f" expected {expected[key]}"
            )
    if list(stored) != list(expected):
        raise DataError(f"checkpoint {path}: layout keys are not in sorted order")
    return ModelParams(config, values)


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------


# A cell's 13 tensors in the order of its tape entry's inputs after x.
_CELL_TENSORS = {
    prefix: tuple(
        f"{prefix}.{name}"
        for name in (
            "bn1.gamma", "bn1.beta", "conv1.depth", "conv1.point",
            "bn2.gamma", "bn2.beta", "conv2.depth", "conv2.point", "conv2.bias",
            "se.w1", "se.b1", "se.w2", "se.b2",
        )
    )
    for prefix in _CELL_PREFIXES
}


def _cell(params: ModelParams, prefix: str, x: Tensor, training: bool) -> Tensor:
    """Residual cell: [BN -> swish -> separable conv] x2 -> SE, plus skip.

    One taped op over x and the cell's 13 tensors: the forward chains the
    layer kernels of ``dva.layers``, the backward runs their backward
    kernels in reverse. With no tape recording, the forward keeps nothing
    and works in place, so each intermediate buffer is dropped as soon as
    the next one exists."""
    names = _CELL_TENSORS[prefix]
    t = params.tensors
    inputs = (x,) + tuple(t[k] for k in names)
    g1, b1, d1, p1, g2, b2, d2, p2, pb2, w1, sb1, w2, sb2 = (v.data for v in inputs[1:])
    save = _taping()
    h, bn1 = batch_norm_fwd(x.data, g1, b1, params.bn_states[f"{prefix}.bn1"], training, save)
    h, sw1 = _swish_fwd(h, save, out=h)
    h, sep1 = separable_fwd(h, d1, p1, None, save)
    h, bn2 = batch_norm_fwd(h, g2, b2, params.bn_states[f"{prefix}.bn2"], training, save)
    h, sw2 = _swish_fwd(h, save, out=h)
    h, sep2 = separable_fwd(h, d2, p2, pb2, save)
    h, se = se_fwd(h, w1, sb1, w2, sb2, save)
    h += x.data
    out = Tensor(h)
    if not save:
        return out

    def back(g, need):
        dh, d_w1, d_sb1, d_w2, d_sb2 = se_bwd(se, g)
        dh, d_d2, d_p2, d_pb2 = separable_bwd(sep2, dh)
        dh, d_g2, d_b2 = batch_norm_bwd(bn2, _swish_bwd(sw2, dh))
        dh, d_d1, d_p1, _ = separable_bwd(sep1, dh)
        dx, d_g1, d_b1 = batch_norm_bwd(bn1, _swish_bwd(sw1, dh))
        dx += g
        grads = (dx, d_g1, d_b1, d_d1, d_p1, d_g2, d_b2, d_d2, d_p2, d_pb2,
                 d_w1, d_sb1, d_w2, d_sb2)
        return _needed(grads, need)

    return _record(out, inputs, back)


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
    h = conv1d(swapaxes(x, -3, -2), params["stem.w"], params["stem.b"])
    e1 = _cell(params, "enc1", h, training)
    e2 = _cell(params, "enc2", downsample2(e1), training)
    e3 = _cell(params, "enc3", downsample2(e2), training)
    return [e1, e2, e3]


@dataclass
class LatentGroup:
    """Per-group distribution stats and the latent actually used, each
    channel-major (..., latent, batch, t)."""

    q_mean: Tensor
    q_logvar: Tensor
    p_mean: Tensor
    p_logvar: Tensor
    z: Tensor


@dataclass
class ForwardOutput:
    y_hat: Tensor  # (..., batch, t_out)
    groups: list[LatentGroup]  # empty for a posterior-mean decode
    kl_groups: list[Tensor]  # one value per model and group, averaged over the batch
    kl_latent: Tensor | None  # sum of the group terms; None for a posterior-mean decode


def _head(params: ModelParams, name: str, x: Tensor) -> Tensor:
    """A latent head's 1x1 convolution; log-variance heads are clamped."""
    out = conv1d(x, params[f"{name}.w"], params[f"{name}.b"])
    return clamp(out, -10.0, 10.0) if name.endswith(".lv") else out


def generate(
    params: ModelParams,
    stack: list[Tensor],
    *,
    eps: list[np.ndarray] | None = None,
    training: bool = False,
) -> ForwardOutput:
    """Top-down decode with the latents following the posterior heads over
    the encoder stack. With ``eps`` (one standard-normal array per group,
    coarsest first, each (..., batch, latent, t)) the latents are
    reparameterized samples, and the prior heads and the KL are computed.
    Without it the latents are the posterior means, and only what ``y_hat``
    reads is computed: ``groups`` and ``kl_groups`` are empty and
    ``kl_latent`` is None."""
    cfg = params.config
    if len(stack) != N_GROUPS:
        raise ContractError(f"encoder stack must have {N_GROUPS} levels")

    batch = stack[0].data.shape[-2]
    lengths = cfg.level_lengths()  # fine, middle, coarse
    group_lengths = (lengths[2], lengths[1], lengths[0])
    h = params["h"]  # (..., 1, c, t): as (..., c, 1, t), broadcast over the batch
    s = reshape(h, h.shape[:-3] + (h.shape[-2], 1, h.shape[-1]))
    s = add(s, as_tensor(np.zeros((batch, 1))))
    groups: list[LatentGroup] = []
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
            noise = as_tensor(np.swapaxes(noise, -3, -2))
            z = add(mu, mul(exp_(mul(lv, as_tensor(0.5))), noise))
            groups.append(LatentGroup(mu, lv, p_mu, p_lv, z))
            kl_groups.append(kl)
        s = conv1d(concat([s, z], axis=-3), params[f"merge{i}.w"], params[f"merge{i}.b"])
        if i < 3:
            s = upsample_repeat(s, group_lengths[i])

    o = conv1d(s, params["out.conv.w"], params["out.conv.b"])  # (..., 1, b, t_in)
    flat = reshape(o, o.shape[:-3] + o.shape[-2:])
    y_hat = linear(flat, params["out.proj.w"], params["out.proj.b"])
    kl_latent = kl_groups[0] if kl_groups else None
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

    def back(g, need):
        d_mean = g * diff * inv_p
        return (
            _unbroadcast(d_mean, q_mean.shape) if need[0] else None,
            _unbroadcast(0.5 * g * (ratio - 1.0), q_logvar.shape) if need[1] else None,
            _unbroadcast(-d_mean, p_mean.shape) if need[2] else None,
            _unbroadcast(0.5 * g * (1.0 - ratio - sq), p_logvar.shape) if need[3] else None,
        )

    return _record(out, (q_mean, q_logvar, p_mean, p_logvar), back)


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
    diff = sub(y_hat, as_tensor(target))
    quad = mul(as_tensor((0.5 / var_p)[..., None]), sum_(square(diff), axis=-1))
    return add(mean_(quad, axis=-1), as_tensor(const))


# ---------------------------------------------------------------------------
# Energy head
# ---------------------------------------------------------------------------


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
    quad = mul(mul(as_tensor(0.5), reshape(q, q.shape + (1,))), sum_(square(d), axis=-1))
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
    resid = add(sub(as_tensor(target), base), grad_energy(params, base))
    return mul(as_tensor(sigma), mean_(sum_(square(resid), axis=-1), axis=-1))


def denoise_jump(params: ModelParams, y_hat: Tensor) -> Tensor:
    """One explicit gradient step on the energy: y - grad_E(y)."""
    return sub(y_hat, grad_energy(params, y_hat))
