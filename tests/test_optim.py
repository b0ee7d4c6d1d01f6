"""Adam update rules: hand-computed first steps and scale invariance."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dva.autodiff import Tensor
from dva.errors import ContractError
from dva.model import ModelConfig, ModelParams, load_params, save_params
from dva.optim import Adam


def _adam(*values, lr=5e-4):
    """Adam over tensors that view one flat vector end to end, one per value
    in order, and the tensors."""
    flat = np.concatenate([np.ravel(v) for v in values]).astype(np.float64)
    ends = np.cumsum([np.size(v) for v in values])
    params = [
        Tensor(flat[end - np.size(v) : end].reshape(np.shape(v))) for v, end in zip(values, ends)
    ]
    return Adam(flat, params, lr), params


def test_zero_gradient_leaves_params_unchanged():
    opt, (p,) = _adam([1.0, -2.0, 3.0])
    before = p.data.copy()
    opt.step({p: np.zeros(3)})
    assert np.array_equal(p.data, before)


def test_first_step_magnitude_is_lr():
    # bias correction makes m_hat/sqrt(v_hat) = g/|g| on step one (eps aside)
    opt, (p,) = _adam(10.0)
    opt.step({p: np.array(1.0)})
    assert float(p.data) == pytest.approx(10.0 - 5e-4, abs=1e-9)


@settings(deadline=None, max_examples=30)
@given(g=st.floats(min_value=1e-6, max_value=1e6), sign=st.sampled_from([-1.0, 1.0]))
def test_first_step_opposes_gradient(g, sign):
    opt, (p,) = _adam(0.0)
    opt.step({p: np.array(sign * g)})
    assert np.sign(p.data) == -sign


@settings(deadline=None, max_examples=20)
@given(
    scale=st.floats(min_value=1e-3, max_value=1e3),
    seed=st.integers(0, 10_000),
)
def test_update_direction_invariant_to_gradient_scale(scale, seed):
    # with eps = 0 the bias-corrected ratio m_hat/sqrt(v_hat) is homogeneous
    # of degree zero in the gradient stream
    r = np.random.default_rng(seed)
    grads = [r.normal(size=(4,)) for _ in range(5)]
    opt_a, (p_a,) = _adam(np.zeros(4), lr=1e-2)
    opt_b, (p_b,) = _adam(np.zeros(4), lr=1e-2)
    with mock.patch("dva.optim.ADAM_EPS", 0.0):
        for g in grads:
            opt_a.step({p_a: g})
            opt_b.step({p_b: scale * g})
    assert np.allclose(p_a.data, p_b.data, rtol=1e-9, atol=1e-12)


def test_step_counter_increments():
    opt, (p,) = _adam(np.zeros(2))
    for expected in (1, 2, 3):
        opt.step({p: np.ones(2)})
        assert opt.step_count == expected


def test_missing_gradient_is_an_error():
    opt, _ = _adam(np.zeros(2))
    with pytest.raises(ContractError):
        opt.step({})


def test_snapshot_and_checkpoint_survive_later_steps(tmp_path):
    # steps write the stack's flat vector in place, so a best-epoch snapshot
    # and a written checkpoint must be copies that later steps leave alone
    cfg = ModelConfig(t_in=8, t_out=4, channels=4, latent=2, se_reduction=2, energy_hidden=6)
    params = ModelParams.stack([ModelParams.init(cfg, seed=s) for s in (0, 1)])
    opt = Adam(params.flat, params.parameters(), 1e-2)
    opt.step({p: np.ones(p.shape) for p in params.parameters()})
    snapshot = params.run(1)
    kept = snapshot.flat.copy()
    path = tmp_path / "ck.npz"
    save_params(snapshot, path)
    written = path.read_bytes()
    stem = params["stem.w"].data.copy()
    for _ in range(3):
        opt.step({p: np.ones(p.shape) for p in params.parameters()})
    assert np.all(params["stem.w"].data < stem)
    assert np.array_equal(snapshot.flat, kept)
    assert path.read_bytes() == written
    assert np.array_equal(load_params(path).flat, kept)


def _per_tensor_adam(values, grad_steps, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam as one update per tensor, the reference for the flat buffer."""
    values = [np.array(v, dtype=np.float64) for v in values]
    m = [np.zeros_like(v) for v in values]
    v2 = [np.zeros_like(v) for v in values]
    for t, grads in enumerate(grad_steps, start=1):
        bc1 = 1.0 - beta1**t
        bc2 = 1.0 - beta2**t
        for i, g in enumerate(grads):
            m[i] = beta1 * m[i] + (1.0 - beta1) * g
            v2[i] = beta2 * v2[i] + (1.0 - beta2) * (g * g)
            m_hat = m[i] / bc1
            v_hat = v2[i] / bc2
            values[i] = values[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
    return values


def test_flat_buffer_matches_per_tensor_update_bitwise():
    # mixed shapes, including a 0-d parameter like energy.q
    r = np.random.default_rng(3)
    shapes = [(), (4,), (3, 2), (2, 3, 1), (1, 4, 3)]
    init = [r.normal(size=s) for s in shapes]
    grad_steps = [[r.normal(size=s) for s in shapes] for _ in range(6)]
    opt, params = _adam(*init, lr=1e-2)
    for grads in grad_steps:
        opt.step(dict(zip(params, grads)))
    want = _per_tensor_adam(init, grad_steps, 1e-2)
    for p, w in zip(params, want):
        assert p.data.shape == w.shape
        assert np.array_equal(p.data, w)


def test_mis_shaped_gradient_is_an_error():
    opt, (p,) = _adam(np.zeros((2, 3)))
    with pytest.raises(ContractError):
        opt.step({p: np.ones(6)})
