"""Layer kernels as tape entries, for tests that differentiate one layer.

The program tapes its layers only inside the fused residual cell
(``dva.model._cell``). ``taped`` records any kernel pair of ``dva.layers``
as one tape entry of its own, so that a gradient check or a composite
reference can reach the pair through the tape.
"""

import numpy as np

from dva.autodiff import Tensor, _record
from dva.layers import BatchNormState


def taped(fwd, bwd, inputs, *args):
    """``fwd`` on the arrays of ``inputs`` followed by ``args``, recorded with
    ``bwd`` as one tape entry over the Tensors among ``inputs``. A None in
    ``inputs`` (an absent bias) reaches ``fwd`` as None and gets no
    gradient. A kernel that takes ``save`` needs it True in ``args``: its
    backward reads what it saved, and without it ``se_gate`` overwrites x."""
    y, saved = fwd(*(None if t is None else t.data for t in inputs), *args)

    def back(g):
        return tuple(d for d, t in zip(bwd(saved, g), inputs) if t is not None)

    return _record(Tensor(y), tuple(t for t in inputs if t is not None), back)


def fresh_state(shape) -> BatchNormState:
    """Running batch-norm buffers as a new model starts them: mean 0, var 1."""
    return BatchNormState(np.zeros(shape), np.ones(shape))
