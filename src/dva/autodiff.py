"""Reverse-mode automatic differentiation over float64 numpy arrays.

A ``Tape`` records every primitive operation executed inside its ``with``
block as ``(output, inputs, backward_fn)``. ``backward`` replays the records
in reverse, accumulating vector-Jacobian products into a gradient per leaf.
Tensors are immutable by convention: no primitive writes to an input's
``data`` buffer, so a tape stays valid until it is dropped.
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
    "div",
    "neg",
    "sum_",
    "mean_",
    "reshape",
    "concat",
    "sigmoid",
    "swish",
    "relu",
    "exp_",
    "log_",
    "sqrt_",
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

    # Operator sugar; scalars and ndarrays are promoted to constant tensors.
    def __add__(self, other):
        return add(self, as_tensor(other))

    def __radd__(self, other):
        return add(as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, as_tensor(other))

    def __rsub__(self, other):
        return sub(as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, as_tensor(other))

    def __rmul__(self, other):
        return mul(as_tensor(other), self)

    def __truediv__(self, other):
        return div(self, as_tensor(other))

    def __rtruediv__(self, other):
        return div(as_tensor(other), self)

    def __neg__(self):
        return neg(self)


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
    """Accumulate d(loss)/d(leaf) for every leaf reached from ``loss``.

    Returns a map keyed by tensor identity. Every tensor in ``params`` is
    guaranteed a key; unreached parameters map to zeros. Each tape entry is
    visited exactly once, so one tape supports one backward pass.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    grads: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.data)}
    for out, inputs, backfn in reversed(tape.entries):
        g = grads.pop(out, None)
        if g is None:
            continue
        in_grads = backfn(g)
        for t, gi in zip(inputs, in_grads):
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
    return _record(
        out,
        (a, b),
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)),
    )


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data - b.data)
    return _record(
        out,
        (a, b),
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)),
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data)
    return _record(
        out,
        (a, b),
        lambda g: (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        ),
    )


def div(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data / b.data)
    return _record(
        out,
        (a, b),
        lambda g: (
            _unbroadcast(g / b.data, a.data.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape),
        ),
    )


def neg(a: Tensor) -> Tensor:
    out = Tensor(-a.data)
    return _record(out, (a,), lambda g: (-g,))


def square(a: Tensor) -> Tensor:
    return mul(a, a)


# ---------------------------------------------------------------------------
# Reductions and shape ops
# ---------------------------------------------------------------------------


def _expand_reduced(g: np.ndarray, shape: tuple[int, ...], axis, keepdims: bool):
    if axis is None:
        return np.broadcast_to(g.reshape((1,) * len(shape)), shape)
    if not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape)


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def back(g):
        return (_expand_reduced(g, a.data.shape, axis, keepdims).copy(),)

    return _record(out, (a,), back)


def mean_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(a.data.mean(axis=axis, keepdims=keepdims))
    count = a.data.size / out.data.size

    def back(g):
        return (_expand_reduced(g, a.data.shape, axis, keepdims) / count,)

    return _record(out, (a,), back)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = Tensor(a.data.reshape(shape))
    return _record(out, (a,), lambda g: (g.reshape(a.data.shape),))


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    ts = list(tensors)
    if not ts:
        raise ContractError("concat needs at least one tensor")
    out = Tensor(np.concatenate([t.data for t in ts], axis=axis))
    sizes = [t.data.shape[axis] for t in ts]
    offsets = np.cumsum(sizes)[:-1]

    def back(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _record(out, tuple(ts), back)


# ---------------------------------------------------------------------------
# Nonlinearities
# ---------------------------------------------------------------------------


def sigmoid(a: Tensor) -> Tensor:
    # tanh form is overflow-free for large |x|
    s = 0.5 * (np.tanh(0.5 * a.data) + 1.0)
    out = Tensor(s)
    return _record(out, (a,), lambda g: (g * s * (1.0 - s),))


def swish(a: Tensor) -> Tensor:
    """x * sigmoid(x); smooth, non-monotone, ~x for large x, ~0 for small."""
    s = 0.5 * (np.tanh(0.5 * a.data) + 1.0)
    out = Tensor(a.data * s)
    return _record(out, (a,), lambda g: (g * s * (1.0 + a.data * (1.0 - s)),))


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0))
    return _record(out, (a,), lambda g: (g * (a.data > 0.0),))


def exp_(a: Tensor) -> Tensor:
    e = np.exp(a.data)
    out = Tensor(e)
    return _record(out, (a,), lambda g: (g * e,))


def log_(a: Tensor) -> Tensor:
    out = Tensor(np.log(a.data))
    return _record(out, (a,), lambda g: (g / a.data,))


def sqrt_(a: Tensor) -> Tensor:
    r = np.sqrt(a.data)
    out = Tensor(r)
    return _record(out, (a,), lambda g: (g * 0.5 / r,))


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    out = Tensor(np.clip(a.data, lo, hi))
    mask = (a.data >= lo) & (a.data <= hi)
    return _record(out, (a,), lambda g: (g * mask,))


def detach(a: Tensor) -> Tensor:
    """Same values, no gradient path: a constant from the tape's viewpoint."""
    return Tensor(a.data)


# ---------------------------------------------------------------------------
# Linear algebra / convolution
# ---------------------------------------------------------------------------


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """y = x @ w.T + b with x (batch, d_in), w (d_out, d_in), b (d_out,)."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[1]:
        raise ContractError(
            f"linear shapes incompatible: x {x.shape}, w {w.shape}"
        )
    y = x.data @ w.data.T
    if b is not None:
        if b.data.shape != (w.data.shape[0],):
            raise ContractError(f"bias shape {b.shape} != ({w.data.shape[0]},)")
        y = y + b.data
    out = Tensor(y)
    inputs = (x, w) + ((b,) if b is not None else ())

    def back(g):
        grads = [g @ w.data, g.T @ x.data]
        if b is not None:
            grads.append(g.sum(axis=0))
        return tuple(grads)

    return _record(out, inputs, back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Plain 2-D matrix product a @ b."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ContractError(f"matmul shapes incompatible: {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data)
    return _record(out, (a, b), lambda g: (g @ b.data.T, a.data.T @ g))


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

    x (batch, c_in, t), kernel (c_out, c_in, k) with k odd; output keeps t.
    Each kernel tap is one matmul on a shifted time slice, so a 1x1 kernel
    is a single matmul.
    """
    if x.data.ndim != 3 or kernel.data.ndim != 3:
        raise ContractError("conv1d needs x (b,c,t) and kernel (c_out,c_in,k)")
    c_out, c_in, k = kernel.data.shape
    if k % 2 == 0:
        raise ContractError(f"kernel width must be odd, got {k}")
    if x.data.shape[1] != c_in:
        raise ContractError(
            f"channel mismatch: x has {x.data.shape[1]}, kernel expects {c_in}"
        )
    if bias is not None and bias.data.shape != (c_out,):
        raise ContractError(f"bias shape {bias.shape} != ({c_out},)")
    t = x.data.shape[2]
    pad = k // 2
    w = kernel.data
    y = np.matmul(w[:, :, pad], x.data)
    for kk in range(k):
        if kk != pad:
            so, si = _shifted(t, kk - pad)
            y[:, :, so] += np.matmul(w[:, :, kk], x.data[:, :, si])
    if bias is not None:
        y = y + bias.data[None, :, None]
    out = Tensor(y)

    def back(g):
        dx = np.matmul(w[:, :, pad].T, g)
        dk = np.zeros_like(w)
        for kk in range(k):
            so, si = _shifted(t, kk - pad)
            gs, xs = g[:, :, so], x.data[:, :, si]
            dk[:, :, kk] = np.matmul(gs, xs.transpose(0, 2, 1)).sum(axis=0)
            if kk != pad:
                dx[:, :, si] += np.matmul(w[:, :, kk].T, gs)
        if bias is not None:
            return (dx, dk, np.einsum("bot->o", g))
        return (dx, dk)

    inputs = (x, kernel) + ((bias,) if bias is not None else ())
    return _record(out, inputs, back)


def depthwise_conv1d(x: Tensor, kernel: Tensor) -> Tensor:
    """Per-channel convolution: kernel (c, 1, k), each channel filtered alone.

    Computed as k multiply-adds of shifted time slices, zero padded.
    """
    if kernel.data.ndim != 3 or kernel.data.shape[1] != 1:
        raise ContractError("depthwise kernel must have shape (c, 1, k)")
    c, _, k = kernel.data.shape
    if k % 2 == 0:
        raise ContractError(f"kernel width must be odd, got {k}")
    if x.data.ndim != 3 or x.data.shape[1] != c:
        raise ContractError(
            f"channel mismatch: x has {x.data.shape[1] if x.data.ndim == 3 else '?'},"
            f" kernel expects {c}"
        )
    t = x.data.shape[2]
    pad = k // 2
    taps = kernel.data[None, :, 0, :, None]  # (1, c, k, 1): tap kk is taps[:, :, kk]
    y = x.data * taps[:, :, pad]
    for kk in range(k):
        if kk != pad:
            so, si = _shifted(t, kk - pad)
            y[:, :, so] += x.data[:, :, si] * taps[:, :, kk]
    out = Tensor(y)

    def back(g):
        dx = g * taps[:, :, pad]
        dk = np.zeros_like(kernel.data)
        for kk in range(k):
            so, si = _shifted(t, kk - pad)
            gs = g[:, :, so]
            dk[:, 0, kk] = np.einsum("bct,bct->c", gs, x.data[:, :, si])
            if kk != pad:
                dx[:, :, si] += gs * taps[:, :, kk]
        return (dx, dk)

    return _record(out, (x, kernel), back)


def downsample2(x: Tensor) -> Tensor:
    """Halve the time axis by averaging adjacent pairs; an odd tail passes through."""
    if x.data.ndim != 3:
        raise ContractError("downsample2 needs x (b,c,t)")
    t = x.data.shape[2]
    n_pairs = t // 2
    odd = t % 2 == 1
    pairs = x.data[:, :, : 2 * n_pairs].reshape(x.data.shape[0], x.data.shape[1], n_pairs, 2)
    y = pairs.mean(axis=3)
    if odd:
        y = np.concatenate([y, x.data[:, :, -1:]], axis=2)
    out = Tensor(y)

    def back(g):
        dx = np.empty_like(x.data)
        core = g[:, :, :n_pairs] if odd else g
        dx[:, :, : 2 * n_pairs] = np.repeat(core, 2, axis=2) * 0.5
        if odd:
            dx[:, :, -1] = g[:, :, -1]
        return (dx,)

    return _record(out, (x,), back)


def upsample_repeat(x: Tensor, length: int) -> Tensor:
    """Nearest-neighbour stretch to ``length``: output[i] = input[i // 2]."""
    if x.data.ndim != 3:
        raise ContractError("upsample_repeat needs x (b,c,t)")
    idx = np.arange(length) // 2
    if length and idx[-1] >= x.data.shape[2]:
        raise ContractError(
            f"length {length} needs source index {idx[-1]}, have {x.data.shape[2]}"
        )
    out = Tensor(x.data[:, :, idx])

    def back(g):
        dx = np.zeros_like(x.data)
        np.add.at(dx, (slice(None), slice(None), idx), g)
        return (dx,)

    return _record(out, (x,), back)
