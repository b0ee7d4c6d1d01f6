"""Adam optimiser with bias-corrected moment estimates."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .errors import ContractError

__all__ = ["ADAM_BETA1", "ADAM_BETA2", "ADAM_EPS", "Adam"]

ADAM_BETA1 = 0.9  # first-moment decay
ADAM_BETA2 = 0.999  # second-moment decay
ADAM_EPS = 1e-8  # added to the root of the second moment


class Adam:
    """Adam on one flat parameter array, updated in place: ``flat`` is
    ``ModelParams.flat``, a model's ``(P,)`` or a stack's ``(R, P)``, and
    ``params`` its ``parameters()``, whose ``data`` view each row end to end.
    Each step gathers the gradients row by row into one array shaped like
    ``flat`` and updates the two moments and ``flat`` in place, with that
    array and one scratch array for the intermediates. A value that must
    survive later steps is a copy (``ModelParams.run``, a checkpoint).
    """

    def __init__(self, flat: np.ndarray, params: list[Tensor], lr: float):
        self.lr = lr
        self.flat = flat
        self.params = list(params)
        self.step_count = 0
        self._m = np.zeros(flat.shape)
        self._v = np.zeros(flat.shape)
        self._scratch = np.empty(flat.shape)

    def step(self, grads: dict[Tensor, np.ndarray]) -> None:
        row = self.flat.shape[:-1] + (-1,)
        gathered = []
        for p in self.params:
            g = grads.get(p)
            if g is None:
                raise ContractError(f"missing gradient for parameter {p!r}")
            if g.shape != p.data.shape:
                raise ContractError(f"gradient shape {g.shape} != {p.data.shape} for {p!r}")
            gathered.append(g.reshape(row))
        g = np.concatenate(gathered, axis=-1)
        s, m, v = self._scratch, self._m, self._v
        self.step_count += 1
        t = self.step_count
        m *= ADAM_BETA1
        m += np.multiply(g, 1.0 - ADAM_BETA1, out=s)
        v *= ADAM_BETA2
        v += np.multiply(np.multiply(g, g, out=g), 1.0 - ADAM_BETA2, out=g)
        # g becomes sqrt(v_hat) + eps, and s the step lr * m_hat / g
        np.sqrt(np.divide(v, 1.0 - ADAM_BETA2**t, out=g), out=g)
        g += ADAM_EPS
        np.multiply(np.divide(m, 1.0 - ADAM_BETA1**t, out=s), self.lr, out=s)
        self.flat -= np.divide(s, g, out=s)
