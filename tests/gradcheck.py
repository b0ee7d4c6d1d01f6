"""Central-difference verification of tape gradients."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from dva.autodiff import Tape, Tensor, backward

__all__ = ["max_rel_error", "finite_difference_check", "check_params"]


def max_rel_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-6) -> float:
    """Worst-case |a - b| / max(|a|, |b|, floor) over all coordinates."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def _numeric_grad(f: Callable[[], Tensor], x: Tensor, step: float) -> np.ndarray:
    """Central differences of a scalar-valued closure wrt one tensor."""
    # 0-d data may arrive as an immutable numpy scalar (arithmetic on 0-d
    # arrays degrades to one); rebind as a mutable array so the in-place
    # perturbation below actually reaches the closure.
    x.data = np.asarray(x.data, dtype=np.float64)
    num = np.zeros(x.data.shape)
    # in place: ``ravel`` of a strided view (a stacked parameter) is a copy
    for i in np.ndindex(x.data.shape):
        orig = x.data[i]
        x.data[i] = orig + step
        fp = f().data.item()
        x.data[i] = orig - step
        fm = f().data.item()
        x.data[i] = orig
        num[i] = (fp - fm) / (2.0 * step)
    return num


def finite_difference_check(
    f: Callable[[Tensor], Tensor],
    x: Tensor,
    step: float = 1e-5,
    floor: float = 1e-6,
) -> float:
    """Max relative error between the taped gradient of f at x and central
    differences with the given step. f must be a pure scalar function of x."""
    with Tape() as tape:
        loss = f(x)
    analytic = backward(tape, loss, params=(x,))[x]
    numeric = _numeric_grad(lambda: f(x), x, step)
    return max_rel_error(analytic, numeric, floor=floor)


def check_params(
    f: Callable[[], Tensor],
    params: Sequence[Tensor],
    step: float = 1e-5,
    floor: float = 1e-6,
) -> float:
    """Gradient check a closure against every tensor in ``params``.

    The closure must rebuild the computation from the current parameter
    values on each call (central differences perturb them in place).
    Returns the worst relative error across all parameters.
    """
    with Tape() as tape:
        loss = f()
    grads = backward(tape, loss, params=params)
    worst = 0.0
    for p in params:
        numeric = _numeric_grad(f, p, step)
        worst = max(worst, max_rel_error(grads[p], numeric, floor=floor))
    return worst
