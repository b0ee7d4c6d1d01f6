"""Reverse-mode automatic differentiation over float64 numpy arrays.

A ``Tape`` records every primitive operation executed inside its ``with``
block as ``(output, inputs, backward_fn)``. ``backward`` replays the records
in reverse, accumulating vector-Jacobian products into a gradient per
input. ``backward_fn(g)`` returns one VJP per input, constants included;
``detach`` is how a value is kept out of the gradient. No backward writes
into its ``g``, because ``add`` hands the same array to both inputs.
Tensors are immutable by convention: no primitive writes to an input's
``data`` buffer, so a tape stays valid until it is dropped.

The pointwise convolution takes channel-major activations ``(..., channels,
batch, time)``, so a per-channel operation sees one contiguous
``batch*time`` row per channel. The linear-algebra primitives accept leading
axes in front of their usual shapes and broadcast over them through
``np.matmul``: a kernel ``(R, c_out, c_in, 1)`` applied to ``(R, c_in,
batch, t)`` runs R independent convolutions in one call, and an input
without the leading axis is shared by all R of them.
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
    "swapaxes",
    "concat",
    "swish",
    "swish_prime",
    "exp_",
    "square",
    "clamp",
    "detach",
    "linear",
    "matmul",
    "conv1d",
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
        return self.data.item()

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


def _taping() -> bool:
    """Whether a tape is recording: a fused op saves what its backward
    reads only then."""
    return bool(_TAPE_STACK)


def _record(out: Tensor, inputs: tuple[Tensor, ...], backfn: Callable) -> Tensor:
    if _TAPE_STACK:
        _TAPE_STACK[-1].entries.append((out, inputs, backfn))
    return out


def backward(
    tape: Tape, loss: Tensor, params: Sequence[Tensor] = ()
) -> dict[Tensor, np.ndarray]:
    """Accumulate d(loss)/d(p) for every tensor p in ``params``.

    Returns a map keyed by tensor identity. Every tensor in ``params`` is
    guaranteed a key; unreached parameters map to zeros. Every input of an
    entry gets a vector-Jacobian product, constants included; ``detach``
    keeps a value out of the gradient. No backward writes into its ``g``,
    because ``add`` hands the same array to both inputs. The pass consumes
    the tape: each entry is dropped once visited, which frees its saved
    activations as the pass goes, so one tape supports one backward pass.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    grads: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.data)}
    entries = tape.entries
    while entries:
        out, inputs, backfn = entries.pop()
        g = grads.pop(out, None)
        if g is None:
            continue
        for t, gi in zip(inputs, backfn(g)):
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

    def back(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _record(out, (a, b), back)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data - b.data)

    def back(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _record(out, (a, b), back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data)

    def back(g):
        return _unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)

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

    def back(g):
        return (np.broadcast_to(g.reshape(kept), a.data.shape).copy(),)

    return _record(out, (a,), back)


def mean_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(a.data.mean(axis=axis, keepdims=keepdims))
    count = a.data.size / out.data.size
    kept = _kept_shape(a.data.shape, axis)

    def back(g):
        return (np.broadcast_to(g.reshape(kept), a.data.shape) / count,)

    return _record(out, (a,), back)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = Tensor(a.data.reshape(shape))
    return _record(out, (a,), lambda g: (g.reshape(a.data.shape),))


def swapaxes(a: Tensor, axis1: int, axis2: int) -> Tensor:
    out = Tensor(np.swapaxes(a.data, axis1, axis2))
    return _record(out, (a,), lambda g: (np.swapaxes(g, axis1, axis2),))


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    ts = list(tensors)
    if not ts:
        raise ContractError("concat needs at least one tensor")
    out = Tensor(np.concatenate([t.data for t in ts], axis=axis))
    sizes = [t.data.shape[axis] for t in ts]
    offsets = np.cumsum(sizes)[:-1]
    return _record(out, tuple(ts), lambda g: tuple(np.split(g, offsets, axis=axis)))


# ---------------------------------------------------------------------------
# Nonlinearities
# ---------------------------------------------------------------------------


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) in one new buffer. exp overflows to inf below
    x = -709, where the result is then exactly 0, so the overflow is not
    reported."""
    s = np.negative(x, out=np.empty(x.shape))
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1.0
    np.divide(1.0, s, out=s)
    return s


def _swish_fwd(x: np.ndarray, save: bool, out: np.ndarray | None = None):
    """swish(x) = x * sigmoid(x), written into ``out`` (which may be x
    itself), and what ``_swish_bwd`` reads: (output, sigmoid) when ``save``,
    else None."""
    s = _sigmoid(x)
    a = np.multiply(x, s, out=out)
    return a, ((a, s) if save else None)


def _swish_bwd(saved, g: np.ndarray) -> np.ndarray:
    """g * swish'(x) with swish'(x) = s + x s (1 - s) = s + a (1 - s), from
    the saved output a and sigmoid s, in one new buffer."""
    a, s = saved
    d = 1.0 - s
    d *= a
    d += s
    d *= g
    return d


def swish(a: Tensor) -> Tensor:
    """x * sigmoid(x); smooth, non-monotone, ~x for large x, ~0 for small."""
    y, saved = _swish_fwd(a.data, True)
    return _record(Tensor(y), (a,), lambda g: (_swish_bwd(saved, g),))


def swish_prime(a: Tensor) -> Tensor:
    """d swish / dx = s + x s (1 - s) with s = sigmoid(x), as one op whose
    backward is swish's second derivative s (1 - s) (2 + x (1 - 2 s))."""
    s = _sigmoid(a.data)
    out = Tensor(s + a.data * s * (1.0 - s))
    return _record(
        out, (a,), lambda g: (g * s * (1.0 - s) * (2.0 + a.data * (1.0 - 2.0 * s)),)
    )


def exp_(a: Tensor) -> Tensor:
    e = np.exp(a.data)
    out = Tensor(e)
    return _record(out, (a,), lambda g: (g * e,))


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

    def back(g):
        grads = (
            _unbroadcast(np.matmul(g, w.data), x.data.shape),
            _unbroadcast(np.matmul(g.swapaxes(-1, -2), x.data), w.data.shape),
        )
        if b is None:
            return grads
        return grads + (_unbroadcast(g.sum(axis=-2), b.data.shape),)

    return _record(out, inputs, back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product a @ b of the last two axes; leading axes broadcast."""
    if a.data.ndim < 2 or b.data.ndim < 2 or a.data.shape[-1] != b.data.shape[-2]:
        raise ContractError(f"matmul shapes incompatible: {a.shape} @ {b.shape}")
    _lead(a, 2, b, 2, "matmul")
    out = Tensor(np.matmul(a.data, b.data))

    def back(g):
        return (
            _unbroadcast(np.matmul(g, b.data.swapaxes(-1, -2)), a.data.shape),
            _unbroadcast(np.matmul(a.data.swapaxes(-1, -2), g), b.data.shape),
        )

    return _record(out, (a, b), back)


def conv1d(x: Tensor, kernel: Tensor, bias: Tensor | None = None) -> Tensor:
    """A pointwise (1x1) convolution: one GEMM of kernel (..., c_out, c_in,
    1) by x (..., c_in, batch*t), plus bias (..., c_out) when given.

    x (..., c_in, batch, t) is channel-major; the output (..., c_out, batch,
    t) keeps t and the broadcast leading axes. A kernel wider than one step
    is a ContractError: filters along time are the depthwise kernels of
    ``dva.layers``.
    """
    if x.data.ndim < 3 or kernel.data.ndim < 3:
        raise ContractError("conv1d needs x (..., c, b, t) and kernel (..., c_out, c_in, 1)")
    c_out, c_in, k = kernel.data.shape[-3:]
    if k != 1:
        raise ContractError(f"conv1d is pointwise: kernel width must be 1, got {k}")
    if x.data.shape[-3] != c_in:
        raise ContractError(
            f"channel mismatch: x has {x.data.shape[-3]}, kernel expects {c_in}"
        )
    _lead(x, 3, kernel, 3, "conv1d")
    if bias is not None and bias.data.shape != kernel.data.shape[:-2]:
        raise ContractError(f"bias shape {bias.shape} != {kernel.data.shape[:-2]}")
    b, t = x.data.shape[-2:]
    cols = x.data.reshape(x.data.shape[:-3] + (c_in, b * t))
    w = kernel.data.reshape(kernel.data.shape[:-2] + (c_in,))
    y = np.matmul(w, cols)
    if bias is not None:
        y += bias.data[..., None]
    out = Tensor(y.reshape(y.shape[:-1] + (b, t)))

    def back(g):
        g2 = g.reshape(g.shape[:-2] + (b * t,))
        dcols = np.matmul(w.swapaxes(-1, -2), g2)
        dw = np.matmul(g2, cols.swapaxes(-1, -2))
        grads = (
            _unbroadcast(dcols.reshape(dcols.shape[:-1] + (b, t)), x.data.shape),
            _unbroadcast(dw[..., None], kernel.data.shape),
        )
        if bias is None:
            return grads
        return grads + (_unbroadcast(g2.sum(axis=-1), bias.data.shape),)

    inputs = (x, kernel) + ((bias,) if bias is not None else ())
    return _record(out, inputs, back)


def downsample2(x: Tensor) -> Tensor:
    """Halve the time axis by averaging adjacent pairs; an odd tail passes through."""
    if x.data.ndim < 3:
        raise ContractError("downsample2 needs x (..., c, b, t)")
    t = x.data.shape[-1]
    n_pairs = t // 2
    odd = t % 2 == 1
    # strided adds, not a mean over a length-2 axis, whose inner loops
    # would each run two steps; (a + b) * 0.5 equals (a + b) / 2 exactly
    y = np.empty(x.data.shape[:-1] + (n_pairs + odd,))
    np.add(x.data[..., 0 : 2 * n_pairs : 2], x.data[..., 1 : 2 * n_pairs : 2], out=y[..., :n_pairs])
    y[..., :n_pairs] *= 0.5
    if odd:
        y[..., -1] = x.data[..., -1]
    out = Tensor(y)

    def back(g):
        dx = np.empty_like(x.data)
        half = g[..., :n_pairs] * 0.5
        dx[..., 0 : 2 * n_pairs : 2] = half
        dx[..., 1 : 2 * n_pairs : 2] = half
        if odd:
            dx[..., -1] = g[..., -1]
        return (dx,)

    return _record(out, (x,), back)


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

    return _record(out, (x,), back)
