"""Hierarchical variational generator with an energy-based denoising head.

The generator is a 3-group ladder: an encoder tower of residual cells at
time resolutions T, ceil(T/2), ceil(T/4), and a top-down decoder that starts
from a trainable hidden state at the coarsest resolution. At each group the
posterior head reads [decoder state, encoder features] while the prior head
reads the decoder state alone; the sampled latent is merged back into the
state before the next (finer) cell. A 1x1 conv plus a global projection map
the finest state to the T_out-step prediction.

The energy head is a small scalar network E(y) = 0.5*q*||y - c||^2 + MLP(y)
whose input gradient is written out in closed form
(``dva.losses._grad_energy``), so training it through grad_E needs only
swish's second derivative, never second-order autodiff.

Each block is one taped op, a forward and a backward over plain arrays
that chain the kernel pairs of ``dva.layers``, in the pattern of the
residual cell (``_cell``): with no tape recording, the forward keeps
nothing. The blocks here are the stem, the two poolings, the cell, the
decoder's start, a latent group (two outputs: the next decoder state and
the group's KL) and the output head; every pointwise convolution among them
is a call of ``conv1d``. The losses and the energy head's kernels are in
``dva.losses``.

Generator activations are channel-major, (channels, batch, time): ``encode``
transposes its (batch, channels, time) input once, and ``generate`` takes
its latent noise as (batch, latent, time) and returns (batch, t_out).

``ModelParams.stack`` joins R models of one config into one whose tensors
and batch-norm buffers carry a leading model axis. Every function here runs
on either form: activations of a stack are (R, channels, batch, time), and
each model's outputs depend on its own parameters only. An input without
the model axis is shared by all R models in an untaped forward pass only:
a taped step is a training-mode step whose inputs all carry the model axis
(``dva.autodiff``).
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import asdict, dataclass
from itertools import accumulate
from pathlib import Path
from types import MappingProxyType
from typing import Sequence

import numpy as np

from .atomic import atomic_open, read_npz
from .autodiff import Tensor, record, taping
from .errors import ConfigError, ContractError, DataError
from .layers import (
    BatchNormState,
    batch_norm,
    batch_norm_bwd,
    conv1d,
    conv1d_bwd,
    downsample2,
    downsample2_bwd,
    se_gate,
    se_gate_bwd,
    separable_conv1d,
    separable_conv1d_bwd,
    swish,
    swish_bwd,
    upsample2,
    upsample2_bwd,
)

__all__ = [
    "N_GROUPS",
    "ModelConfig",
    "ModelParams",
    "ForwardOutput",
    "encode",
    "generate",
    "config_hash",
    "checkpoint_path",
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
LOGVAR_CLAMP = 10.0  # both heads' log-variances are clipped to [-this, this]


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
        return config_hash(asdict(self))


def config_hash(fields: dict) -> str:
    """The first 16 hex digits of the sha256 of a config's fields as
    key-sorted JSON: the name checkpoints and metrics record it by."""
    return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()[:16]


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


def checkpoint_path(directory, stock: str, run: int) -> Path:
    """The checkpoint of run ``run`` of ``stock`` in ``directory``,
    ``<stock>_run<run>.npz``."""
    return Path(directory) / f"{stock}_run{run}.npz"


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


def load_params(path, expected_hash: str | None = None) -> ModelParams:
    """Rebuild parameters from a checkpoint; a config-hash mismatch is fatal,
    and so is any array missing, extra or misshapen against a fresh model of
    the stored config. The loaded model's ``values`` is the stored vector."""
    arrays = read_npz(path, "checkpoint")
    if "__meta__" not in arrays:
        raise DataError(f"checkpoint {path}: missing array __meta__")
    try:
        meta = json.loads(str(arrays["__meta__"]))
    except ValueError:
        meta = None
    if not isinstance(meta, dict):
        raise DataError(f"checkpoint {path}: __meta__ is not a JSON object")
    if meta.get("version") != CHECKPOINT_VERSION:
        raise ConfigError(f"checkpoint {path}: unsupported version {meta.get('version')}")
    try:
        config = ModelConfig(**meta["config"])
        stored_hash = meta["config_hash"]
    except KeyError as err:
        raise DataError(f"checkpoint {path}: metadata has no {err}") from None
    except TypeError as err:
        raise DataError(f"checkpoint {path}: bad model config in metadata: {err}") from None
    if config.hash() != stored_hash:
        raise ConfigError(f"checkpoint {path}: config hash does not match its config")
    if expected_hash is not None and stored_hash != expected_hash:
        raise ConfigError(
            f"checkpoint {path}: config hash {stored_hash} does not match"
            f" expected {expected_hash}"
        )
    values = arrays.get("values")
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
    save = taping()
    h, bn1 = batch_norm(x.data, g1, b1, params.bn_states[f"{prefix}.bn1"], training, save)
    h, sw1 = swish(h, save, out=h)
    h, sep1 = separable_conv1d(h, d1, p1, None, save)
    h, bn2 = batch_norm(h, g2, b2, params.bn_states[f"{prefix}.bn2"], training, save)
    h, sw2 = swish(h, save, out=h)
    h, sep2 = separable_conv1d(h, d2, p2, pb2, save)
    h, se = se_gate(h, w1, sb1, w2, sb2, save)
    h += x.data
    out = Tensor(h)
    if not save:
        return out

    def back(g):
        dh, d_w1, d_sb1, d_w2, d_sb2 = se_gate_bwd(se, g)
        dh, d_d2, d_p2, d_pb2 = separable_conv1d_bwd(sep2, dh)
        dh, d_g2, d_b2 = batch_norm_bwd(bn2, swish_bwd(sw2, dh))
        dh, d_d1, d_p1, _ = separable_conv1d_bwd(sep1, dh)
        dx, d_g1, d_b1 = batch_norm_bwd(bn1, swish_bwd(sw1, dh))
        dx += g
        return (dx, d_g1, d_b1, d_d1, d_p1, d_g2, d_b2, d_d2, d_p2, d_pb2,
                d_w1, d_sb1, d_w2, d_sb2)

    return record(out, inputs, back)


def _stem(params: ModelParams, x: Tensor) -> Tensor:
    """The stem, ``stem.w`` and ``stem.b``, a 1x1 convolution of x (...,
    batch, in_channels, t) to the channel-major (..., channels, batch, t),
    as one taped op. While a tape records, x must carry the parameters'
    model axes: a shared x would get its gradient with theirs."""
    w, b = params["stem.w"], params["stem.b"]
    lead, (nb, c, nt) = x.data.shape[:-3], x.data.shape[-3:]
    if taping() and lead != w.data.shape[:-3]:
        raise ContractError("a taped stem needs x with the parameters' model axes")
    cols = np.swapaxes(x.data, -3, -2).reshape(lead + (c, nb * nt))
    y = conv1d((cols,), w.data, b.data)
    out = Tensor(y.reshape(y.shape[:-1] + (nb, nt)))

    def back(g):
        (dcols,), dw, db = conv1d_bwd((cols,), w.data, g.reshape(g.shape[:-2] + (nb * nt,)))
        return np.swapaxes(dcols.reshape(lead + (c, nb, nt)), -3, -2), dw, db

    return record(out, (x, w, b), back)


def _pool(x: Tensor) -> Tensor:
    """``downsample2`` of x (..., c, batch, t) as one taped op."""
    t = x.data.shape[-1]
    return record(Tensor(downsample2(x.data)), (x,), lambda g: (downsample2_bwd(g, t),))


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
    e1 = _cell(params, "enc1", _stem(params, x), training)
    e2 = _cell(params, "enc2", _pool(e1), training)
    e3 = _cell(params, "enc3", _pool(e2), training)
    return [e1, e2, e3]


@dataclass
class ForwardOutput:
    y_hat: Tensor  # (..., batch, t_out)
    kl_groups: list[Tensor]  # per model and group, batch-averaged; none at the posterior mean


def _decoder_start(h: Tensor, batch: int) -> Tensor:
    """The trainable state h (..., 1, c, t) broadcast over the batch as the
    channel-major (..., c, batch, t), as one taped op."""
    lead, (c, t) = h.data.shape[:-3], h.data.shape[-2:]
    s = np.empty(lead + (c, batch, t))
    s[...] = h.data.reshape(lead + (c, 1, t))
    return record(Tensor(s), (h,), lambda g: (g.sum(axis=-2).reshape(h.data.shape),))


# A group's tensors in the order of its tape entry's inputs after the
# decoder state and the encoder feature. A posterior-mean decode reads the
# first four only.
_GROUP_TENSORS = {
    i: tuple(
        f"{name}{i}.{part}"
        for name, part in (
            ("post", "mu.w"), ("post", "mu.b"), ("merge", "w"), ("merge", "b"),
            ("post", "lv.w"), ("post", "lv.b"), ("prior", "mu.w"), ("prior", "mu.b"),
            ("prior", "lv.w"), ("prior", "lv.b"),
        )
    )
    for i in range(1, N_GROUPS + 1)
}


def _clamp(x: np.ndarray) -> np.ndarray:
    """x clipped to [-LOGVAR_CLAMP, LOGVAR_CLAMP], in one new buffer."""
    y = np.maximum(x, -LOGVAR_CLAMP)
    np.minimum(y, LOGVAR_CLAMP, out=y)
    return y


def _latent_group(
    params: ModelParams,
    i: int,
    s: Tensor,
    enc: Tensor,
    noise: np.ndarray | None,
    length: int | None,
):
    """Latent group i over the decoder state s and the encoder feature enc,
    both (..., c, batch, t), as one taped op. The merge convolution reads
    [s, z], and its output is stretched to ``length`` steps (``upsample2``)
    when given.

    With ``noise`` (standard normal, channel-major (..., latent, batch, t),
    a constant) z is the reparameterised sample mu + exp(lv / 2) * noise of
    the posterior head over [s, enc], the prior head reads s, both
    log-variances are clipped, and the op has two outputs: the next state
    and KL(q || p) summed over latent and time and averaged over the batch,
    one value per model. It returns (state, kl). Without noise z is the
    posterior mean, only it and the merge are computed, and it returns
    (state, None); that decode is never taped, and a tape recording it is a
    ContractError."""
    names = _GROUP_TENSORS[i]
    sampled = noise is not None
    if not sampled and taping():
        raise ContractError("a taped latent group needs noise: only the sampled decode is taped")
    mu_w, mu_b, m_w, m_b = (params[k].data for k in names[:4])
    c, nb, nt = s.data.shape[-3:]
    s2 = s.data.reshape(s.data.shape[:-3] + (c, nb * nt))
    post = (s2, enc.data.reshape(enc.data.shape[:-3] + (c, nb * nt)))  # [s, enc]
    mu = conv1d(post, mu_w, mu_b)
    kl = None
    if sampled:
        lv_w, lv_b, pm_w, pm_b, pl_w, pl_b = (params[k].data for k in names[4:])
        lv_raw = conv1d(post, lv_w, lv_b)
        lv = _clamp(lv_raw)
        p_mu = conv1d((s2,), pm_w, pm_b)
        p_lv_raw = conv1d((s2,), pl_w, pl_b)
        p_lv = _clamp(p_lv_raw)
        q_open, p_open = lv == lv_raw, p_lv == p_lv_raw  # where the clip passes gradient
        # KL(q || p) per coordinate for diagonal Gaussians:
        # 0.5 * (exp(lq - lp) + (mq - mp)^2 exp(-lp) + lp - lq - 1)
        diff = mu - p_mu
        ratio = np.exp(lv - p_lv)
        inv_p = np.exp(-p_lv)
        sq = diff * diff * inv_p
        kl_e = 0.5 * ((ratio + sq) + (p_lv - lv - 1.0))
        # summed over latent and time, then the batch mean as sum / count
        kl = Tensor(kl_e.reshape(kl_e.shape[:-1] + (nb, nt)).sum(axis=(-3, -1)).sum(axis=-1) / nb)
        eps = noise.reshape(noise.shape[:-2] + (nb * nt,))
        std = np.exp(lv * 0.5)
        z = mu + std * eps
    else:
        z = mu
    merged = conv1d((s2, z), m_w, m_b)
    merged = merged.reshape(merged.shape[:-1] + (nb, nt))
    if length is not None:
        merged = upsample2(merged, length)
    out = Tensor(merged)
    if not taping():
        return out, kl

    def back(g):
        g_s, g_kl = g
        if length is not None:
            g_s = upsample2_bwd(g_s, nt)
        (ds, dmu), d_mw, d_mb = conv1d_bwd((s2, z), m_w, g_s.reshape(g_s.shape[:-2] + (nb * nt,)))
        dlv = dmu * eps
        dlv *= std
        dlv *= 0.5
        gk = (g_kl / nb)[..., None, None]  # the batch mean, spread over latent and time
        d_mean = gk * diff * inv_p
        dmu += d_mean
        dlv += 0.5 * gk * (ratio - 1.0)
        dlv *= q_open
        d_plv = 0.5 * gk * (1.0 - ratio - sq)
        d_plv *= p_open
        (ds_plv,), d_plw, d_plb = conv1d_bwd((s2,), pl_w, d_plv)
        (ds_pmu,), d_pmw, d_pmb = conv1d_bwd((s2,), pm_w, -d_mean)
        (ds_lv, d_enc_lv), d_lvw, d_lvb = conv1d_bwd(post, lv_w, dlv)
        (ds_mu, d_enc), d_muw, d_mub = conv1d_bwd(post, mu_w, dmu)
        ds += ds_plv
        ds += ds_pmu
        ds += ds_lv
        ds += ds_mu
        d_enc += d_enc_lv
        return (
            ds.reshape(ds.shape[:-1] + (nb, nt)),
            d_enc.reshape(d_enc.shape[:-1] + (nb, nt)),
            d_muw, d_mub, d_mw, d_mb, d_lvw, d_lvb, d_pmw, d_pmb, d_plw, d_plb,
        )

    inputs = (s, enc) + tuple(params[k] for k in names)
    record((out, kl), inputs, back)
    return out, kl


_OUT_TENSORS = ("out.conv.w", "out.conv.b", "out.proj.w", "out.proj.b")


def _output_head(params: ModelParams, s: Tensor) -> Tensor:
    """The finest state s (..., c, batch, t_in) to y_hat (..., batch,
    t_out) as one taped op: ``out.conv``, a 1x1 convolution to one channel,
    then ``out.proj``, a linear map over time."""
    inputs = (s,) + tuple(params[k] for k in _OUT_TENSORS)
    cw, cb, pw, pb = (v.data for v in inputs[1:])
    c, nb, nt = s.data.shape[-3:]
    cols = s.data.reshape(s.data.shape[:-3] + (c, nb * nt))
    o = conv1d((cols,), cw, cb)  # (..., 1, batch * t_in)
    flat = o.reshape(o.shape[:-2] + (nb, nt))
    y = np.matmul(flat, pw.swapaxes(-1, -2))
    y += pb[..., None, :]
    out = Tensor(y)
    if not taping():
        return out

    def back(g):
        d_flat = np.matmul(g, pw)
        (d_cols,), d_cw, d_cb = conv1d_bwd((cols,), cw, d_flat.reshape(d_flat.shape[:-2] + (1, nb * nt)))
        return (
            d_cols.reshape(d_cols.shape[:-1] + (nb, nt)),
            d_cw,
            d_cb,
            np.matmul(g.swapaxes(-1, -2), flat),
            g.sum(axis=-2),
        )

    return record(out, inputs, back)


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
    reads is computed: ``kl_groups`` is empty."""
    cfg = params.config
    if len(stack) != N_GROUPS:
        raise ContractError(f"encoder stack must have {N_GROUPS} levels")

    batch = stack[0].data.shape[-2]
    lengths = cfg.level_lengths()  # fine, middle, coarse
    group_lengths = (lengths[2], lengths[1], lengths[0])
    s = _decoder_start(params["h"], batch)
    kl_groups: list[Tensor] = []
    for i in (1, 2, 3):
        s = _cell(params, f"dec{i}", s, training)
        noise = None
        if eps is not None:
            noise = np.asarray(eps[i - 1], dtype=np.float64)
            want = s.data.shape[:-3] + (batch, cfg.latent, s.data.shape[-1])
            if noise.shape != want:
                raise ContractError(f"eps[{i - 1}] shape {noise.shape} != {want}")
            noise = np.swapaxes(noise, -3, -2)
        length = group_lengths[i] if i < 3 else None
        s, kl = _latent_group(params, i, s, stack[N_GROUPS - i], noise, length)
        if kl is not None:
            kl_groups.append(kl)
    return ForwardOutput(y_hat=_output_head(params, s), kl_groups=kl_groups)
