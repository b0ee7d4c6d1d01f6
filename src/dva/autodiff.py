"""Reverse-mode automatic differentiation over float64 numpy arrays.

A ``Tape`` records every taped operation executed inside its ``with`` block
as ``(output, inputs, backward_fn)``: an op calls ``record``, which appends
the entry while a tape records and does nothing otherwise, and asks
``taping()`` whether to save what its backward reads. One tape records at
a time: opening a second inside the first is a ContractError. ``backward``
replays the records in reverse, accumulating vector-Jacobian products into
a gradient per input. ``backward_fn(g)`` returns one VJP per input,
constants included; a value closed over by an op rather than passed as an
input is a constant from the tape's viewpoint. No backward writes into its
``g``, because an op may hand the same array to more than one input.
Tensors are immutable by convention: no op writes to an input's ``data``
buffer, so a tape stays valid until it is dropped.

An entry's output may be a tuple of Tensors (a latent group of
``dva.model`` yields its next decoder state and its KL). Its ``backward_fn``
then takes a tuple with one cotangent per output, zeros for an output that
nothing reached; an entry none of whose outputs was reached is skipped.

The program tapes a handful of blocks, each built from the forward/backward
kernel pairs of ``dva.layers``: in ``dva.model`` the stem, the two
poolings, the residual cell, the decoder's start, the latent group and the
output head; in ``dva.losses`` the MSE, the output KL and the energy head's
score-matching term; in ``dva.training`` the weighted sum of the losses. A
default training step records 18 entries.

The tape serves the one configuration it records: a training-mode step in
which every taped operand carries the model axes of its op's parameters,
so each backward returns its VJPs in their inputs' shapes as computed.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ContractError

__all__ = ["Tensor", "Tape", "record", "taping", "backward"]


class Tensor:
    """A float64 array plus identity; equality and hashing are by identity."""

    __slots__ = ("data", "name")

    def __init__(self, data, name: str = ""):
        self.data = np.asarray(data, dtype=np.float64)
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape


_recording: "Tape | None" = None


class Tape:
    """Records the taped ops executed inside its context, in order."""

    __slots__ = ("entries",)

    def __init__(self):
        self.entries: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []

    def __enter__(self) -> "Tape":
        global _recording
        if _recording is not None:
            raise ContractError("a tape is already recording: tapes do not nest")
        _recording = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _recording
        _recording = None

    def __len__(self) -> int:
        return len(self.entries)


def taping() -> bool:
    """Whether a tape is recording: a taped op saves what its backward
    reads only then."""
    return _recording is not None


def record(out, inputs: tuple[Tensor, ...], backfn: Callable):
    """Append an entry to the recording tape, if any; ``out`` is a Tensor
    or a tuple of Tensors, and is returned as given."""
    if _recording is not None:
        _recording.entries.append((out, inputs, backfn))
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
