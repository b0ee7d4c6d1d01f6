"""Reverse-mode automatic differentiation over float64 numpy arrays.

A ``Tape`` records every primitive operation executed inside its ``with``
block as ``(output, inputs, backward_fn)``. ``backward`` replays the records
in reverse, accumulating vector-Jacobian products into a gradient per
parameter. ``backward_fn(g, need)`` returns one gradient per input, or None
where ``need`` is False: inputs that no parameter reaches get no VJP.
Tensors are immutable by convention: no primitive writes to an input's
``data`` buffer, so a tape stays valid until it is dropped.

The linear-algebra primitives accept leading axes in front of their usual
shapes and broadcast over them through ``np.matmul``: a kernel
``(R, c_out, c_in, k)`` applied to ``(R, batch, c_in, t)`` runs R independent
convolutions in one call, and an input without the leading axis is shared
by all R of them.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError

__all__ = [
    "Tensor",
    "Tape",
    "backward",
    "as_tensor",
    "add",
    "sub",
    "mul",
    "sum_",
    "mean_",
    "reshape",
    "concat",
    "sigmoid",
    "swish",
    "relu",
    "exp_",
    "square",
    "clamp",
    "detach",
    "linear",
    "matmul",
    "conv1d",
    "depthwise_conv1d",
    "downsample2",
    "upsample_repeat",
]


class Tensor:
    """A float64 array plus identity; equality and hashing are by identity."""

    __slots__ = ("data", "name")

    def __init__(self, data, name: str = ""):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data)

    def require_finite(self, label: str = "tensor") -> "Tensor":
        if not np.all(np.isfinite(self.data)):
            raise ContractError(f"{label} contains NaN or Inf")
        return self

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"Tensor{tag}(shape={self.data.shape})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


_TAPE_STACK: list["Tape"] = []


class Tape:
    """Records primitive ops executed inside its context, in order."""

    __slots__ = ("entries",)

    def __init__(self):
        self.entries: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPE_STACK.pop()
        if popped is not self:
            raise ContractError("tape stack corrupted: exited out of order")

    def __len__(self) -> int:
        return len(self.entries)


def _record(out: Tensor, inputs: tuple[Tensor, ...], backfn: Callable) -> Tensor:
    if _TAPE_STACK:
        _TAPE_STACK[-1].entries.append((out, inputs, backfn))
    return out


def backward(
    tape: Tape, loss: Tensor, params: Sequence[Tensor] = ()
) -> dict[Tensor, np.ndarray]:
    """Accumulate d(loss)/d(p) for every tensor p in ``params``.

    Returns a map keyed by tensor identity. Every tensor in ``params`` is
    guaranteed a key; unreached parameters map to zeros. Only inputs that a
    parameter reaches get a vector-Jacobian product: constants such as data
    batches and scalar coefficients are skipped. The pass consumes the
    tape: each entry is dropped once visited, which frees its saved
    activations as the pass goes, so one tape supports one backward pass.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    live = set(params)
    needs = []
    for out, inputs, _ in tape.entries:
        need = tuple(map(live.__contains__, inputs))
        if True in need:
            live.add(out)
        needs.append(need)
    grads: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.data)} if loss in live else {}
    entries = tape.entries
    while entries:
        out, inputs, backfn = entries.pop()
        need = needs.pop()
        g = grads.pop(out, None)
        if g is None:
            continue
        for t, gi in zip(inputs, backfn(g, need)):
            if gi is None:
                continue
            acc = grads.get(t)
            grads[t] = gi if acc is None else acc + gi
    for p in params:
        if p not in grads:
            grads[p] = np.zeros_like(p.data)
    return grads


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient back down to ``shape`` after numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# Elementwise arithmetic
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data)

    def back(g, need):
        return (
            _unbroadcast(g, a.data.shape) if need[0] else None,
            _unbroadcast(g, b.data.shape) if need[1] else None,
        )

    return _record(out, (a, b), back)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data - b.data)

    def back(g, need):
        return (
            _unbroadcast(g, a.data.shape) if need[0] else None,
            _unbroadcast(-g, b.data.shape) if need[1] else None,
        )

    return _record(out, (a, b), back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data)

    def back(g, need):
        return (
            _unbroadcast(g * b.data, a.data.shape) if need[0] else None,
            _unbroadcast(g * a.data, b.data.shape) if need[1] else None,
        )

    return _record(out, (a, b), back)


def square(a: Tensor) -> Tensor:
    return mul(a, a)


# ---------------------------------------------------------------------------
# Reductions and shape ops
# ---------------------------------------------------------------------------


def _kept_shape(shape: tuple[int, ...], axis) -> tuple[int, ...]:
    """The shape of a reduction over ``axis`` with the reduced axes kept as 1."""
    if axis is None:
        return (1,) * len(shape)
    axes = {ax % len(shape) for ax in (axis if isinstance(axis, tuple) else (axis,))}
    return tuple(1 if i in axes else n for i, n in enumerate(shape))


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))
    kept = _kept_shape(a.data.shape, axis)

    def back(g, need):
        return (np.broadcast_to(g.reshape(kept), a.data.shape).copy(),)

    return _record(out, (a,), back)


def mean_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(a.data.mean(axis=axis, keepdims=keepdims))
    count = a.data.size / out.data.size
    kept = _kept_shape(a.data.shape, axis)

    def back(g, need):
        return (np.broadcast_to(g.reshape(kept), a.data.shape) / count,)

    return _record(out, (a,), back)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = Tensor(a.data.reshape(shape))
    return _record(out, (a,), lambda g, need: (g.reshape(a.data.shape),))


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    ts = list(tensors)
    if not ts:
        raise ContractError("concat needs at least one tensor")
    out = Tensor(np.concatenate([t.data for t in ts], axis=axis))
    sizes = [t.data.shape[axis] for t in ts]
    offsets = np.cumsum(sizes)[:-1]

    def back(g, need):
        parts = np.split(g, offsets, axis=axis)
        return tuple(p if n else None for p, n in zip(parts, need))

    return _record(out, tuple(ts), back)


# ---------------------------------------------------------------------------
# Nonlinearities
# ---------------------------------------------------------------------------


def sigmoid(a: Tensor) -> Tensor:
    # tanh form is overflow-free for large |x|
    s = 0.5 * (np.tanh(0.5 * a.data) + 1.0)
    out = Tensor(s)
    return _record(out, (a,), lambda g, need: (g * s * (1.0 - s),))


def swish(a: Tensor) -> Tensor:
    """x * sigmoid(x); smooth, non-monotone, ~x for large x, ~0 for small."""
    s = 0.5 * (np.tanh(0.5 * a.data) + 1.0)
    out = Tensor(a.data * s)
    return _record(out, (a,), lambda g, need: (g * s * (1.0 + a.data * (1.0 - s)),))


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0))
    return _record(out, (a,), lambda g, need: (g * (a.data > 0.0),))


def exp_(a: Tensor) -> Tensor:
    e = np.exp(a.data)
    out = Tensor(e)
    return _record(out, (a,), lambda g, need: (g * e,))


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    out = Tensor(np.clip(a.data, lo, hi))
    mask = (a.data >= lo) & (a.data <= hi)
    return _record(out, (a,), lambda g, need: (g * mask,))


def detach(a: Tensor) -> Tensor:
    """Same values, no gradient path: a constant from the tape's viewpoint."""
    return Tensor(a.data)


# ---------------------------------------------------------------------------
# Linear algebra / convolution
# ---------------------------------------------------------------------------


def _lead(a: Tensor, a_core: int, b: Tensor, b_core: int, what: str) -> None:
    """Require two operands to share their leading (model) axes, or one of
    them to have none, so that it is shared by every model."""
    lead_a = a.data.shape[: a.data.ndim - a_core]
    lead_b = b.data.shape[: b.data.ndim - b_core]
    if lead_a and lead_b and lead_a != lead_b:
        raise ContractError(f"{what}: leading axes of {a.shape} and {b.shape} differ")


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """y = x @ w.T + b with x (..., batch, d_in), w (..., d_out, d_in),
    b (..., d_out); leading axes broadcast."""
    if x.data.ndim < 2 or w.data.ndim < 2 or x.data.shape[-1] != w.data.shape[-1]:
        raise ContractError(
            f"linear shapes incompatible: x {x.shape}, w {w.shape}"
        )
    _lead(x, 2, w, 2, "linear")
    y = np.matmul(x.data, w.data.swapaxes(-1, -2))
    if b is not None:
        if b.data.shape != w.data.shape[:-1]:
            raise ContractError(f"bias shape {b.shape} != {w.data.shape[:-1]}")
        y += b.data[..., None, :]
    out = Tensor(y)
    inputs = (x, w) + ((b,) if b is not None else ())

    def back(g, need):
        grads = [
            _unbroadcast(np.matmul(g, w.data), x.data.shape) if need[0] else None,
            _unbroadcast(np.matmul(g.swapaxes(-1, -2), x.data), w.data.shape)
            if need[1]
            else None,
        ]
        if b is not None:
            grads.append(_unbroadcast(g.sum(axis=-2), b.data.shape) if need[2] else None)
        return tuple(grads)

    return _record(out, inputs, back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product a @ b of the last two axes; leading axes broadcast."""
    if a.data.ndim < 2 or b.data.ndim < 2 or a.data.shape[-1] != b.data.shape[-2]:
        raise ContractError(f"matmul shapes incompatible: {a.shape} @ {b.shape}")
    _lead(a, 2, b, 2, "matmul")
    out = Tensor(np.matmul(a.data, b.data))

    def back(g, need):
        return (
            _unbroadcast(np.matmul(g, b.data.swapaxes(-1, -2)), a.data.shape)
            if need[0]
            else None,
            _unbroadcast(np.matmul(a.data.swapaxes(-1, -2), g), b.data.shape)
            if need[1]
            else None,
        )

    return _record(out, (a, b), back)


def _shifted(t: int, d: int) -> tuple[slice, slice]:
    """Output and input time slices for tap offset d: out[s_out] += x[s_in].

    Zero padding is implicit: positions whose source falls outside the series
    are not touched. Both slices are empty when |d| >= t, and the empty
    products that follow add nothing.
    """
    if d >= 0:
        return slice(0, max(t - d, 0)), slice(d, t)
    return slice(min(-d, t), t), slice(0, max(t + d, 0))


def conv1d(x: Tensor, kernel: Tensor, bias: Tensor | None = None) -> Tensor:
    """Cross-correlation along time with zero padding and stride 1.

    x (..., batch, c_in, t), kernel (..., c_out, c_in, k) with k odd, bias
    (..., c_out); output keeps t and the broadcast leading axes. Each kernel
    tap is one matmul on a shifted time slice, so a 1x1 kernel is a single
    matmul.
    """
    if x.data.ndim < 3 or kernel.data.ndim < 3:
        raise ContractError("conv1d needs x (..., b, c, t) and kernel (..., c_out, c_in, k)")
    c_out, c_in, k = kernel.data.shape[-3:]
    if k % 2 == 0:
        raise ContractError(f"kernel width must be odd, got {k}")
    if x.data.shape[-2] != c_in:
        raise ContractError(
            f"channel mismatch: x has {x.data.shape[-2]}, kernel expects {c_in}"
        )
    _lead(x, 3, kernel, 3, "conv1d")
    if bias is not None and bias.data.shape != kernel.data.shape[:-2]:
        raise ContractError(f"bias shape {bias.shape} != {kernel.data.shape[:-2]}")
    t = x.data.shape[-1]
    pad = k // 2
    w = kernel.data[..., None, :, :, :]  # (..., 1, c_out, c_in, k): one kernel per batch
    y = np.matmul(w[..., pad], x.data)
    for kk in range(k):
        if kk != pad:
            so, si = _shifted(t, kk - pad)
            y[..., so] += np.matmul(w[..., kk], x.data[..., si])
    if bias is not None:
        y += bias.data[..., None, :, None]
    out = Tensor(y)

    def back(g, need):
        grads = [None, None]
        if need[0]:
            dx = np.matmul(w[..., pad].swapaxes(-1, -2), g)
            for kk in range(k):
                if kk != pad:
                    so, si = _shifted(t, kk - pad)
                    dx[..., si] += np.matmul(w[..., kk].swapaxes(-1, -2), g[..., so])
            grads[0] = _unbroadcast(dx, x.data.shape)
        if need[1]:
            dk = np.empty(g.shape[:-3] + (c_out, c_in, k))
            for kk in range(k):
                so, si = _shifted(t, kk - pad)
                xs = x.data[..., si].swapaxes(-1, -2)
                dk[..., kk] = np.matmul(g[..., so], xs).sum(axis=-3)
            grads[1] = _unbroadcast(dk, kernel.data.shape)
        if bias is not None:
            grads.append(
                _unbroadcast(np.einsum("...bot->...o", g), bias.data.shape) if need[2] else None
            )
        return tuple(grads)

    inputs = (x, kernel) + ((bias,) if bias is not None else ())
    return _record(out, inputs, back)


def depthwise_conv1d(x: Tensor, kernel: Tensor) -> Tensor:
    """Per-channel convolution: kernel (..., c, 1, k), each channel filtered
    alone over x (..., batch, c, t).

    Computed as k multiply-adds of shifted time slices, zero padded.
    """
    if kernel.data.ndim < 3 or kernel.data.shape[-2] != 1:
        raise ContractError("depthwise kernel must have shape (..., c, 1, k)")
    c, _, k = kernel.data.shape[-3:]
    if k % 2 == 0:
        raise ContractError(f"kernel width must be odd, got {k}")
    if x.data.ndim < 3 or x.data.shape[-2] != c:
        raise ContractError(
            f"channel mismatch: x has {x.data.shape[-2] if x.data.ndim >= 3 else '?'},"
            f" kernel expects {c}"
        )
    _lead(x, 3, kernel, 3, "depthwise_conv1d")
    t = x.data.shape[-1]
    pad = k // 2
    # (..., 1, c, k, 1): tap kk is taps[..., kk, :], one (c, 1) column per batch
    taps = kernel.data[..., None, :, 0, :, None]
    y = x.data * taps[..., pad, :]
    for kk in range(k):
        if kk != pad:
            so, si = _shifted(t, kk - pad)
            y[..., so] += x.data[..., si] * taps[..., kk, :]
    out = Tensor(y)

    def back(g, need):
        grads = [None, None]
        if need[0]:
            dx = g * taps[..., pad, :]
            for kk in range(k):
                if kk != pad:
                    so, si = _shifted(t, kk - pad)
                    dx[..., si] += g[..., so] * taps[..., kk, :]
            grads[0] = _unbroadcast(dx, x.data.shape)
        if need[1]:
            dk = np.empty(g.shape[:-3] + (c, 1, k))
            for kk in range(k):
                so, si = _shifted(t, kk - pad)
                dk[..., 0, kk] = np.einsum("...bct,...bct->...c", g[..., so], x.data[..., si])
            grads[1] = _unbroadcast(dk, kernel.data.shape)
        return tuple(grads)

    return _record(out, (x, kernel), back)


def downsample2(x: Tensor) -> Tensor:
    """Halve the time axis by averaging adjacent pairs; an odd tail passes through."""
    if x.data.ndim < 3:
        raise ContractError("downsample2 needs x (..., b, c, t)")
    t = x.data.shape[-1]
    n_pairs = t // 2
    odd = t % 2 == 1
    pairs = x.data[..., : 2 * n_pairs].reshape(x.data.shape[:-1] + (n_pairs, 2))
    y = pairs.mean(axis=-1)
    if odd:
        y = np.concatenate([y, x.data[..., -1:]], axis=-1)
    out = Tensor(y)

    def back(g, need):
        dx = np.empty_like(x.data)
        core = g[..., :n_pairs] if odd else g
        dx[..., : 2 * n_pairs] = np.repeat(core, 2, axis=-1) * 0.5
        if odd:
            dx[..., -1] = g[..., -1]
        return (dx,)

    return _record(out, (x,), back)


def upsample_repeat(x: Tensor, length: int) -> Tensor:
    """Nearest-neighbour stretch to ``length``: output[i] = input[i // 2]."""
    if x.data.ndim < 3:
        raise ContractError("upsample_repeat needs x (..., b, c, t)")
    idx = np.arange(length) // 2
    if length and idx[-1] >= x.data.shape[-1]:
        raise ContractError(
            f"length {length} needs source index {idx[-1]}, have {x.data.shape[-1]}"
        )
    out = Tensor(x.data[..., idx])

    def back(g, need):
        dx = np.zeros_like(x.data)
        np.add.at(dx, (Ellipsis, idx), g)
        return (dx,)

    return _record(out, (x,), back)
