"""Reverse-mode automatic differentiation over float64 numpy arrays.

A ``Tape`` records every taped operation executed inside its ``with`` block
as ``(output, inputs, backward_fn)``. ``backward`` replays the records in
reverse, accumulating vector-Jacobian products into a gradient per input.
``backward_fn(g)`` returns one VJP per input, constants included; a value
closed over by an op rather than passed as an input is a constant from the
tape's viewpoint. No backward writes into its ``g``, because an op may hand
the same array to more than one input. Tensors are immutable by
convention: no op writes to an input's ``data`` buffer, so a tape stays
valid until it is dropped.

An entry's output may be a tuple of Tensors (a latent group of
``dva.model`` yields its next decoder state and its KL). Its ``backward_fn``
then takes a tuple with one cotangent per output, zeros for an output that
nothing reached; an entry none of whose outputs was reached is skipped.

The program tapes a handful of ops, each one forward/backward pair of
plain-numpy kernels: here the stem's pointwise ``conv1d`` and the encoder's
``downsample2``; in ``dva.model`` the residual cell, the decoder's start,
the latent group and the output head; in ``dva.losses`` the MSE, the output
KL and the energy head's score-matching term; in ``dva.training`` the
weighted sum of the losses. A default training step records 18 entries.

The pointwise convolution takes channel-major activations ``(..., channels,
batch, time)``, so a per-channel operation sees one contiguous
``batch*time`` row per channel. Leading axes in front of the usual shapes
broadcast through ``np.matmul``: a kernel ``(R, c_out, c_in, 1)`` applied
to ``(R, c_in, batch, t)`` runs R independent convolutions in one call.

The tape serves the one configuration it records: a training-mode step in
which every taped operand carries the model axes of its op's parameters,
so each backward returns its VJPs in their inputs' shapes as computed. An
input shared by all R models is allowed in the forward pass only;
``conv1d`` refuses it while a tape records.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ContractError

__all__ = [
    "Tensor",
    "Tape",
    "backward",
    "as_tensor",
    "conv1d",
    "downsample2",
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


def _record(out, inputs: tuple[Tensor, ...], backfn: Callable):
    """Append an entry to the innermost recording tape; ``out`` is a Tensor
    or a tuple of Tensors, and is returned as given."""
    if _TAPE_STACK:
        _TAPE_STACK[-1].entries.append((out, inputs, backfn))
    return out


def backward(
    tape: Tape, loss: Tensor, params: Sequence[Tensor] = ()
) -> dict[Tensor, np.ndarray]:
    """Accumulate d(loss)/d(p) for every tensor p in ``params``.

    Returns a map keyed by tensor identity. Every tensor in ``params`` is
    guaranteed a key; unreached parameters map to zeros. Every input of an
    entry gets a vector-Jacobian product, constants included. An entry with
    a tuple of outputs gets a tuple of cotangents, zeros for each output
    that nothing reached. The pass consumes the tape: each entry is dropped
    once visited, which frees its saved activations as the pass goes, so one
    tape supports one backward pass.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    grads: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.data)}
    entries = tape.entries
    while entries:
        out, inputs, backfn = entries.pop()
        if type(out) is tuple:
            g = tuple(grads.pop(o, None) for o in out)
            if all(gi is None for gi in g):
                continue
            g = tuple(np.zeros_like(o.data) if gi is None else gi for o, gi in zip(out, g))
        else:
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


def _swish_prime(saved) -> np.ndarray:
    """swish'(x) = s + x s (1 - s) = s + a (1 - s), from the saved output a
    and sigmoid s, in one new buffer."""
    a, s = saved
    d = 1.0 - s
    d *= a
    d += s
    return d


def _swish_bwd(saved, g: np.ndarray) -> np.ndarray:
    """g * swish'(x), in one new buffer."""
    d = _swish_prime(saved)
    d *= g
    return d


def _swish_second(x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """swish''(x) = s (1 - s) (2 + x (1 - 2 s)), from x and s = sigmoid(x)."""
    return s * (1.0 - s) * (2.0 + x * (1.0 - 2.0 * s))


# ---------------------------------------------------------------------------
# Convolution and pooling
# ---------------------------------------------------------------------------


def _lead(a: Tensor, a_core: int, b: Tensor, b_core: int, what: str) -> None:
    """Require two operands to share their leading (model) axes, or one of
    them to have none, so that it is shared by every model."""
    lead_a = a.data.shape[: a.data.ndim - a_core]
    lead_b = b.data.shape[: b.data.ndim - b_core]
    if lead_a and lead_b and lead_a != lead_b:
        raise ContractError(f"{what}: leading axes of {a.shape} and {b.shape} differ")


def _pointwise(w: np.ndarray, xs: tuple[np.ndarray, ...], b: np.ndarray | None) -> np.ndarray:
    """A 1x1 convolution by w (..., c_out, c_in, 1), plus b (..., c_out)
    when given, of the channel concatenation of the flat channel-major
    inputs xs, each (..., c_k, n), without forming it: one matmul per input,
    summed into one new buffer."""
    w, start, y = w[..., 0], 0, None
    for x in xs:
        part = np.matmul(w[..., start : start + x.shape[-2]], x)
        y = part if y is None else np.add(y, part, out=y)
        start += x.shape[-2]
    if b is not None:
        y += b[..., None]
    return y


def _pointwise_bwd(w: np.ndarray, xs: tuple[np.ndarray, ...], g: np.ndarray):
    """([dx for x in xs], dw, db) of ``_pointwise`` for the cotangent g
    (..., c_out, n)."""
    w, start, dxs = w[..., 0], 0, []
    dw = np.empty(g.shape[:-2] + w.shape[-2:] + (1,))
    for x in xs:
        stop = start + x.shape[-2]
        dxs.append(np.matmul(w[..., start:stop].swapaxes(-1, -2), g))
        np.matmul(g, x.swapaxes(-1, -2), out=dw[..., start:stop, 0])
        start = stop
    return dxs, dw, g.sum(axis=-1)


def conv1d(x: Tensor, kernel: Tensor, bias: Tensor | None = None) -> Tensor:
    """A pointwise (1x1) convolution: one GEMM of kernel (..., c_out, c_in,
    1) by x (..., c_in, batch*t), plus bias (..., c_out) when given.

    x (..., c_in, batch, t) is channel-major; the output (..., c_out, batch,
    t) keeps t and the broadcast leading axes; while a tape records, x must
    carry exactly the kernel's leading axes. A kernel wider than one step
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
    if _TAPE_STACK and x.data.shape[:-3] != kernel.data.shape[:-3]:
        raise ContractError("conv1d under a tape needs x with the kernel's leading axes")
    if bias is not None and bias.data.shape != kernel.data.shape[:-2]:
        raise ContractError(f"bias shape {bias.shape} != {kernel.data.shape[:-2]}")
    b, t = x.data.shape[-2:]
    cols = x.data.reshape(x.data.shape[:-3] + (c_in, b * t))
    y = _pointwise(kernel.data, (cols,), None if bias is None else bias.data)
    out = Tensor(y.reshape(y.shape[:-1] + (b, t)))
    inputs = (x, kernel) + ((bias,) if bias is not None else ())

    def back(g):
        (dcols,), dw, db = _pointwise_bwd(kernel.data, (cols,), g.reshape(g.shape[:-2] + (b * t,)))
        return (dcols.reshape(dcols.shape[:-1] + (b, t)), dw, db)[: len(inputs)]

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
