"""Layer kernels as tape entries, for tests that differentiate one layer.

The program tapes its layers only inside its blocks (the residual cell
``dva.model._cell``, the stem, the latent groups, ...). ``taped`` records
any kernel pair of ``dva.layers`` as one tape entry of its own, so that a
gradient check or a composite reference can reach the pair through the
tape. ``conv1d_op`` and ``downsample2_op`` do so for the two pairs that
take no ``save``.
"""

import numpy as np

from dva.autodiff import Tensor, record
from dva.layers import BatchNormState, conv1d, conv1d_bwd, downsample2, downsample2_bwd


def taped(fwd, bwd, inputs, *args):
    """``fwd`` on the arrays of ``inputs`` followed by ``args``, recorded with
    ``bwd`` as one tape entry over the Tensors among ``inputs``. A None in
    ``inputs`` (an absent bias) reaches ``fwd`` as None and gets no
    gradient. A kernel that takes ``save`` needs it True in ``args``: its
    backward reads what it saved, and without it ``se_gate`` overwrites x."""
    y, saved = fwd(*(None if t is None else t.data for t in inputs), *args)

    def back(g):
        return tuple(d for d, t in zip(bwd(saved, g), inputs) if t is not None)

    return record(Tensor(y), tuple(t for t in inputs if t is not None), back)


def _conv1d_fwd(x, w, b):
    """``conv1d`` of x (..., c_in, batch, t), flattened to (..., c_in,
    batch*t) and back."""
    lead, (c, nb, nt) = x.shape[:-3], x.shape[-3:]
    cols = x.reshape(lead + (c, nb * nt))
    y = conv1d((cols,), w, b)
    return y.reshape(y.shape[:-1] + (nb, nt)), (cols, w, x.shape)


def _conv1d_bwd(saved, g):
    cols, w, shape = saved
    (dcols,), dw, db = conv1d_bwd((cols,), w, g.reshape(g.shape[:-2] + (-1,)))
    return dcols.reshape(shape), dw, db


def conv1d_op(x, w, b=None) -> Tensor:
    """The pointwise convolution of a channel-major x (..., c_in, batch, t)
    by w (..., c_out, c_in, 1), plus b (..., c_out) when given."""
    return taped(_conv1d_fwd, _conv1d_bwd, (x, w, b))


def downsample2_op(x) -> Tensor:
    """The time axis of x halved by averaging adjacent pairs."""
    return taped(
        lambda a: (downsample2(a), a.shape[-1]),
        lambda t, g: (downsample2_bwd(g, t),),
        (x,),
    )


def fresh_state(shape) -> BatchNormState:
    """Running batch-norm buffers as a new model starts them: mean 0, var 1."""
    return BatchNormState(np.zeros(shape), np.ones(shape))
