"""Adam optimiser with bias-corrected moment estimates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .errors import ContractError

__all__ = ["AdamConfig", "Adam"]


@dataclass(frozen=True)
class AdamConfig:
    lr: float = 5e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


class Adam:
    """Tracks first/second moments of all parameters in two flat buffers.

    Each step gathers the parameters and their gradients into flat vectors,
    updates every coordinate in one elementwise pass, and assigns each
    ``param.data`` a fresh view of the new flat parameter vector rather than
    writing in place, so values captured earlier (detached copies, tape
    closures) are never disturbed.
    """

    def __init__(self, params: list[Tensor], config: AdamConfig = AdamConfig()):
        self.config = config
        self.params = list(params)
        self.step_count = 0
        self._shapes = [p.data.shape for p in self.params]
        bounds = np.cumsum([0] + [p.data.size for p in self.params]).tolist()
        self._spans = list(zip(bounds[:-1], bounds[1:]))
        self._m = np.zeros(bounds[-1])
        self._v = np.zeros(bounds[-1])

    def step(self, grads: dict[Tensor, np.ndarray]) -> None:
        c = self.config
        flat_g = []
        for p, shape in zip(self.params, self._shapes):
            g = grads.get(p)
            if g is None:
                raise ContractError(f"missing gradient for parameter {p!r}")
            if g.shape != shape:
                raise ContractError(f"gradient shape {g.shape} != {shape} for {p!r}")
            flat_g.append(g.reshape(-1))
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - c.beta1**t
        bc2 = 1.0 - c.beta2**t
        g = np.concatenate(flat_g)
        theta = np.concatenate([p.data.reshape(-1) for p in self.params])
        self._m = c.beta1 * self._m + (1.0 - c.beta1) * g
        self._v = c.beta2 * self._v + (1.0 - c.beta2) * (g * g)
        m_hat = self._m / bc1
        v_hat = self._v / bc2
        theta = theta - c.lr * m_hat / (np.sqrt(v_hat) + c.eps)
        for p, shape, (lo, hi) in zip(self.params, self._shapes, self._spans):
            p.data = theta[lo:hi].reshape(shape)
