"""Adam update rules: hand-computed first steps and scale invariance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dva.autodiff import Tensor
from dva.errors import ContractError
from dva.optim import Adam, AdamConfig


def test_zero_gradient_leaves_params_unchanged():
    p = Tensor(np.array([1.0, -2.0, 3.0]))
    opt = Adam([p])
    before = p.data.copy()
    opt.step({p: np.zeros(3)})
    assert np.array_equal(p.data, before)


def test_first_step_magnitude_is_lr():
    # bias correction makes m_hat/sqrt(v_hat) = g/|g| on step one (eps aside)
    p = Tensor(np.array(10.0))
    opt = Adam([p], AdamConfig(lr=5e-4))
    opt.step({p: np.array(1.0)})
    assert float(p.data) == pytest.approx(10.0 - 5e-4, abs=1e-9)


@settings(deadline=None, max_examples=30)
@given(g=st.floats(min_value=1e-6, max_value=1e6), sign=st.sampled_from([-1.0, 1.0]))
def test_first_step_opposes_gradient(g, sign):
    p = Tensor(np.array(0.0))
    opt = Adam([p])
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
    cfg = AdamConfig(lr=1e-2, eps=0.0)

    p_a = Tensor(np.zeros(4))
    p_b = Tensor(np.zeros(4))
    opt_a, opt_b = Adam([p_a], cfg), Adam([p_b], cfg)
    for g in grads:
        opt_a.step({p_a: g})
        opt_b.step({p_b: scale * g})
    assert np.allclose(p_a.data, p_b.data, rtol=1e-9, atol=1e-12)


def test_step_counter_increments():
    p = Tensor(np.zeros(2))
    opt = Adam([p])
    for expected in (1, 2, 3):
        opt.step({p: np.ones(2)})
        assert opt.step_count == expected


def test_missing_gradient_is_an_error():
    p = Tensor(np.zeros(2))
    opt = Adam([p])
    with pytest.raises(ContractError):
        opt.step({})


def test_update_assigns_fresh_array():
    # detached copies of the old value must not be disturbed by a step
    p = Tensor(np.array([1.0, 1.0]))
    snapshot = p.data
    Adam([p]).step({p: np.ones(2)})
    assert np.array_equal(snapshot, [1.0, 1.0])
    assert p.data is not snapshot


def _per_tensor_adam(values, grad_steps, cfg):
    """Adam as one update per tensor, the reference for the flat buffer."""
    values = [np.array(v, dtype=np.float64) for v in values]
    m = [np.zeros_like(v) for v in values]
    v2 = [np.zeros_like(v) for v in values]
    for t, grads in enumerate(grad_steps, start=1):
        bc1 = 1.0 - cfg.beta1**t
        bc2 = 1.0 - cfg.beta2**t
        for i, g in enumerate(grads):
            m[i] = cfg.beta1 * m[i] + (1.0 - cfg.beta1) * g
            v2[i] = cfg.beta2 * v2[i] + (1.0 - cfg.beta2) * (g * g)
            m_hat = m[i] / bc1
            v_hat = v2[i] / bc2
            values[i] = values[i] - cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.eps)
    return values


def test_flat_buffer_matches_per_tensor_update_bitwise():
    # mixed shapes, including a 0-d parameter like energy.q
    r = np.random.default_rng(3)
    shapes = [(), (4,), (3, 2), (2, 3, 1), (1, 4, 3)]
    init = [r.normal(size=s) for s in shapes]
    grad_steps = [[r.normal(size=s) for s in shapes] for _ in range(6)]
    cfg = AdamConfig(lr=1e-2)
    params = [Tensor(v.copy()) for v in init]
    opt = Adam(params, cfg)
    for grads in grad_steps:
        opt.step(dict(zip(params, grads)))
    want = _per_tensor_adam(init, grad_steps, cfg)
    for p, w in zip(params, want):
        assert p.data.shape == w.shape
        assert np.array_equal(p.data, w)


def test_mis_shaped_gradient_is_an_error():
    p = Tensor(np.zeros((2, 3)))
    with pytest.raises(ContractError):
        Adam([p]).step({p: np.ones(6)})
