"""Tensor primitives: forward oracles, gradient soundness, shape laws."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dva.autodiff import (
    Tape,
    Tensor,
    _sigmoid,
    add,
    backward,
    clamp,
    concat,
    conv1d,
    detach,
    downsample2,
    exp_,
    linear,
    mean_,
    mul,
    reshape,
    sub,
    sum_,
    swapaxes,
    swish,
    swish_prime,
    upsample_repeat,
)
from dva.errors import ContractError
from dva.gradcheck import check_params, finite_difference_check, max_rel_error
from dva.layers import (
    BatchNormState,
    batch_norm,
    depthwise_conv1d,
    se_gate,
    separable_conv1d,
)


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# Forward oracles
# ---------------------------------------------------------------------------


def test_swish_at_zero():
    assert swish(Tensor(0.0)).item() == 0.0


def test_swish_at_one():
    # 1 * sigmoid(1) = 1 / (1 + e^-1)
    assert swish(Tensor(1.0)).item() == pytest.approx(0.7310585786300049, abs=1e-12)


def test_swish_saturates():
    assert abs(swish(Tensor(20.0)).item() - 20.0) < 1e-6


def test_sigmoid_stable_at_extremes():
    # exp(-x) overflows below x = -709: the result is exactly 0 there, and
    # no RuntimeWarning escapes
    x = np.array([-1e3, -800.0, 0.0, 800.0, 1e3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _sigmoid(x)
    np.testing.assert_array_equal(out, [0.0, 0.0, 0.5, 1.0, 1.0])


def test_sigmoid_matches_tanh_form():
    # 1 / (1 + exp(-x)) against the overflow-free 0.5 (tanh(x / 2) + 1)
    x = np.concatenate([rng(3).normal(scale=4.0, size=5000), np.linspace(-40.0, 40.0, 801)])
    want = 0.5 * (np.tanh(0.5 * x) + 1.0)
    assert np.max(np.abs(_sigmoid(x) - want)) <= 1e-15


def test_conv1d_identity_kernel():
    x = Tensor(rng().normal(size=(1, 2, 7)))
    k = Tensor(np.ones((1, 1, 1)))
    assert np.array_equal(conv1d(x, k).data, x.data)


def test_conv1d_hand_example():
    x = Tensor(np.array([[[1.0, 2.0, 3.0]]]))
    k = Tensor(np.array([[[0.0, 1.0, 1.0]]]))
    out = conv1d(x, k)
    assert np.array_equal(out.data, [[[3.0, 5.0, 3.0]]])


def test_conv1d_zero_kernel():
    x = Tensor(rng().normal(size=(2, 3, 5)))
    k = Tensor(np.zeros((4, 2, 3)))
    assert np.all(conv1d(x, k).data == 0.0)


def test_conv1d_rejects_even_kernel():
    with pytest.raises(ContractError):
        conv1d(Tensor(np.zeros((1, 1, 4))), Tensor(np.zeros((1, 1, 2))))


def test_conv1d_rejects_channel_mismatch():
    with pytest.raises(ContractError):
        conv1d(Tensor(np.zeros((2, 1, 4))), Tensor(np.zeros((1, 3, 3))))


def test_separable_single_channel_collapses():
    x = Tensor(rng(1).normal(size=(1, 2, 6)))
    depth = Tensor(rng(2).normal(size=(1, 1, 3)))
    point = Tensor(np.ones((1, 1, 1)))
    got = separable_conv1d(x, depth, point)
    want = conv1d(x, depth)
    assert np.allclose(got.data, want.data)


def test_separable_identity_depth_mixes_channels():
    # depth kernels pass channels through; pointwise applies M
    x = Tensor(rng(3).normal(size=(2, 1, 3)))
    depth = Tensor(np.array([[[0.0, 1.0, 0.0]], [[0.0, 1.0, 0.0]]]))
    m = np.array([[2.0, -1.0], [0.5, 3.0]])
    point = Tensor(m[:, :, None])
    out = separable_conv1d(x, depth, point)
    want = np.einsum("ji,ibt->jbt", m, x.data)
    assert np.allclose(out.data, want)


def test_batch_norm_constant_input_is_zero():
    x = Tensor(np.full((2, 4, 5), 3.7))
    state = BatchNormState.create(2)
    out = batch_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), state, training=True)
    assert np.allclose(out.data, 0.0)


def test_batch_norm_two_point_batch():
    x = Tensor(np.array([1.0, 3.0]).reshape(1, 2, 1))
    state = BatchNormState.create(1)
    out = batch_norm(x, Tensor(np.ones(1)), Tensor(np.zeros(1)), state, training=True)
    assert np.allclose(out.data.ravel(), [-1.0, 1.0], atol=1e-4)


def test_batch_norm_infer_is_frozen():
    state = BatchNormState.create(2)
    x = Tensor(rng(4).normal(size=(2, 3, 4)))
    batch_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), state, training=True)
    mean_after, var_after = state.mean.copy(), state.var.copy()
    y = Tensor(rng(5).normal(size=(2, 3, 4)))
    a = batch_norm(y, Tensor(np.ones(2)), Tensor(np.zeros(2)), state, training=False)
    b = batch_norm(y, Tensor(np.ones(2)), Tensor(np.zeros(2)), state, training=False)
    assert np.array_equal(a.data, b.data)
    assert np.array_equal(state.mean, mean_after)
    assert np.array_equal(state.var, var_after)


def test_batch_norm_running_stats_momentum():
    state = BatchNormState.create(1)
    x = Tensor(np.array([1.0, 3.0]).reshape(1, 2, 1))
    batch_norm(x, Tensor(np.ones(1)), Tensor(np.zeros(1)), state, training=True)
    # fresh buffers are (mean 0, var 1); batch stats are (2, 1)
    assert state.mean[0] == pytest.approx(0.9 * 0.0 + 0.1 * 2.0)
    assert state.var[0] == pytest.approx(0.9 * 1.0 + 0.1 * 1.0)


def test_se_gate_zero_excite_halves_input():
    x = Tensor(rng(6).normal(size=(3, 2, 5)))
    w1 = Tensor(rng(7).normal(size=(2, 3)))
    w2 = Tensor(np.zeros((3, 2)))
    out = se_gate(x, w1, w2)
    assert np.allclose(out.data, x.data / 2.0)


def test_se_gate_preserves_shape_and_bounds():
    x = Tensor(rng(8).normal(size=(4, 2, 6)))
    w1 = Tensor(rng(9).normal(size=(2, 4)))
    w2 = Tensor(rng(10).normal(size=(4, 2)))
    out = se_gate(x, w1, w2)
    assert out.shape == x.shape
    gate = out.data / np.where(x.data == 0.0, 1.0, x.data)
    mask = x.data != 0.0
    assert np.all(gate[mask] > 0.0) and np.all(gate[mask] < 1.0)


def test_downsample2_pairs_and_odd_tail():
    x = Tensor(np.array([[[1.0, 2.0, 3.0, 4.0, 5.0]]]))
    assert np.array_equal(downsample2(x).data, [[[1.5, 3.5, 5.0]]])
    even = Tensor(np.array([[[1.0, 2.0, 3.0, 4.0]]]))
    assert np.array_equal(downsample2(even).data, [[[1.5, 3.5]]])


def test_upsample_repeat_index_rule():
    x = Tensor(np.array([[[10.0, 20.0, 30.0]]]))
    out = upsample_repeat(x, 5)
    assert np.array_equal(out.data, [[[10.0, 10.0, 20.0, 20.0, 30.0]]])


def test_upsample_repeat_rejects_overreach():
    with pytest.raises(ContractError):
        upsample_repeat(Tensor(np.zeros((1, 1, 2))), 5)


# ---------------------------------------------------------------------------
# backward() basics
# ---------------------------------------------------------------------------


def test_backward_constant_loss_gives_zeros():
    w = Tensor(rng(11).normal(size=(3,)))
    with Tape() as tape:
        loss = Tensor(5.0)
    grads = backward(tape, loss, params=(w,))
    assert np.array_equal(grads[w], np.zeros(3))


def test_backward_linear_in_weights():
    x = np.array([1.0, -2.0, 0.5])
    w = Tensor(rng(12).normal(size=(3,)))
    with Tape() as tape:
        loss = sum_(mul(w, Tensor(x)))
    grads = backward(tape, loss, params=(w,))
    assert np.allclose(grads[w], x)


def test_backward_rejects_nonscalar_loss():
    w = Tensor(np.zeros(2))
    with Tape() as tape:
        y = mul(w, w)
    with pytest.raises(ContractError):
        backward(tape, y)


def test_backward_accumulates_repeated_use():
    w = Tensor(np.array(3.0))
    with Tape() as tape:
        loss = mul(w, w)  # w appears twice in one entry
    grads = backward(tape, loss, params=(w,))
    assert grads[w] == pytest.approx(6.0)


def test_detach_blocks_gradient():
    w = Tensor(np.array(2.0))
    with Tape() as tape:
        loss = mul(detach(w), w)  # d/dw should be the detached value only
    grads = backward(tape, loss, params=(w,))
    assert grads[w] == pytest.approx(2.0)


def test_nested_tapes_record_to_innermost():
    w = Tensor(np.array(1.5))
    with Tape() as outer:
        with Tape() as inner:
            mul(w, w)
    assert len(inner) == 1
    assert len(outer) == 0


# ---------------------------------------------------------------------------
# Gradient soundness: every primitive vs central differences
# ---------------------------------------------------------------------------


def _away_from_zero(r, shape, low=0.2, high=1.5):
    mag = r.uniform(low, high, size=shape)
    sign = np.where(r.uniform(size=shape) < 0.5, -1.0, 1.0)
    return mag * sign


def test_gradcheck_quadratic_is_tight():
    x = Tensor(_away_from_zero(rng(13), (8,)))
    err = finite_difference_check(lambda t: mul(Tensor(0.5), sum_(mul(t, t))), x)
    assert err < 1e-8


def test_gradcheck_perturbs_a_strided_tensor_in_place():
    # a transpose is a strided view, whose ravel is a copy the closure
    # never reads; the check must perturb the tensor itself
    a = _away_from_zero(rng(15), (3, 4))
    err = finite_difference_check(lambda t: sum_(mul(t, t)), Tensor(a.T))
    assert err < 1e-8


def test_gradcheck_swish_sum():
    x = Tensor(_away_from_zero(rng(14), (10,)))
    err = finite_difference_check(lambda t: sum_(swish(t)), x)
    assert err < 1e-6


@pytest.mark.parametrize(
    "name,fn,make_x",
    [
        ("swish", lambda t: sum_(swish(t)), lambda r: r.normal(size=(6,))),
        ("exp", lambda t: sum_(exp_(t)), lambda r: r.normal(size=(6,))),
        (
            "clamp",
            lambda t: sum_(mul(clamp(t, -0.8, 0.8), clamp(t, -0.8, 0.8))),
            lambda r: np.concatenate([r.uniform(-0.6, 0.6, 3), r.uniform(1.2, 2.0, 3)]),
        ),
        ("mean", lambda t: mean_(mul(t, t)), lambda r: r.normal(size=(4, 3))),
        (
            "sum_axis",
            lambda t: sum_(mul(sum_(t, axis=1), sum_(t, axis=1))),
            lambda r: r.normal(size=(3, 4)),
        ),
        (
            "mean_keepdims",
            lambda t: sum_(mul(t, mean_(t, axis=(0, 2), keepdims=True))),
            lambda r: r.normal(size=(2, 3, 4)),
        ),
        (
            "reshape",
            lambda t: sum_(mul(reshape(t, (6,)), reshape(t, (6,)))),
            lambda r: r.normal(size=(2, 3)),
        ),
        (
            "sub_broadcast",
            lambda t: sum_(mul(sub(t, mean_(t, axis=0, keepdims=True)), t)),
            lambda r: r.normal(size=(4, 3)),
        ),
        (
            "downsample2_odd",
            lambda t: sum_(mul(downsample2(t), downsample2(t))),
            lambda r: r.normal(size=(2, 2, 5)),
        ),
        (
            "upsample",
            lambda t: sum_(mul(upsample_repeat(t, 6), upsample_repeat(t, 6))),
            lambda r: r.normal(size=(2, 2, 3)),
        ),
        ("swish_prime", lambda t: sum_(swish_prime(t)), lambda r: 3.0 * r.normal(size=(6,))),
        (
            "swapaxes",
            lambda t: sum_(mul(swapaxes(t, -3, -2), Tensor(np.arange(24.0).reshape(3, 2, 4) / 12.0))),
            lambda r: r.normal(size=(2, 3, 4)),
        ),
        (
            "concat",
            lambda t: sum_(mul(concat([t, mul(t, t)], axis=1), Tensor(np.arange(12.0).reshape(1, 12, 1) / 6.0))),
            lambda r: r.normal(size=(1, 6, 1)),
        ),
    ],
)
def test_gradcheck_elementwise_and_shape_ops(name, fn, make_x):
    x = Tensor(make_x(rng(hash(name) % 2**32)))
    assert finite_difference_check(fn, x) < 1e-4, name


def test_gradcheck_linear_all_parameters():
    r = rng(20)
    x = Tensor(r.normal(size=(3, 4)))
    w = Tensor(r.normal(size=(2, 4)))
    b = Tensor(r.normal(size=(2,)))
    target = r.normal(size=(3, 2))

    def loss():
        d = sub(linear(x, w, b), Tensor(target))
        return sum_(mul(d, d))

    assert check_params(loss, [x, w, b]) < 1e-4


def test_gradcheck_conv1d_all_parameters():
    r = rng(21)
    x = Tensor(r.normal(size=(3, 2, 6)))
    k = Tensor(r.normal(size=(4, 3, 3)))
    b = Tensor(r.normal(size=(4,)))

    def loss():
        y = conv1d(x, k, b)
        return sum_(mul(y, y))

    assert check_params(loss, [x, k, b]) < 1e-4


def test_gradcheck_depthwise_conv1d():
    r = rng(22)
    x = Tensor(r.normal(size=(3, 2, 5)))
    k = Tensor(r.normal(size=(3, 1, 3)))

    def loss():
        y = depthwise_conv1d(x, k)
        return sum_(mul(y, y))

    assert check_params(loss, [x, k]) < 1e-4


@pytest.mark.parametrize("k,t", [(1, 6), (5, 6), (5, 3), (5, 2)])
def test_gradcheck_conv1d_kernel_widths(k, t):
    # k = 3 is test_gradcheck_conv1d_all_parameters. (5, 3) and (5, 2) are
    # series shorter than the kernel: the outer taps read only zero padding
    # and the inner ones partial slices
    r = rng(40 + 10 * k + t)
    x = Tensor(r.normal(size=(3, 2, t)))
    kern = Tensor(r.normal(size=(4, 3, k)))
    b = Tensor(r.normal(size=(4,)))

    def loss():
        y = conv1d(x, kern, b)
        return sum_(mul(y, y))

    assert check_params(loss, [x, kern, b]) < 1e-4


@pytest.mark.parametrize("t", [7, 3])
def test_gradcheck_depthwise_conv1d_width5(t):
    r = rng(60 + t)
    x = Tensor(r.normal(size=(3, 2, t)))
    k = Tensor(r.normal(size=(3, 1, 5)))

    def loss():
        y = depthwise_conv1d(x, k)
        return sum_(mul(y, y))

    assert check_params(loss, [x, k]) < 1e-4


def test_conv1d_matches_direct_sum():
    # out[o, b, s] = sum_{i, j} w[o, i, j] * x[i, b, s + j - k//2], zero outside
    r = rng(70)
    for k, t in [(1, 5), (3, 5), (5, 5), (5, 2)]:
        x = r.normal(size=(3, 2, t))
        w = r.normal(size=(4, 3, k))
        want = np.zeros((4, 2, t))
        for s in range(t):
            for j in range(k):
                src = s + j - k // 2
                if 0 <= src < t:
                    want[:, :, s] += w[:, :, j] @ x[:, :, src]
        assert np.allclose(conv1d(Tensor(x), Tensor(w)).data, want, atol=1e-12)
        depth = w[:3, :1, :]
        want_dw = np.zeros((3, 2, t))
        for s in range(t):
            for j in range(k):
                src = s + j - k // 2
                if 0 <= src < t:
                    want_dw[:, :, s] += x[:, :, src] * depth[:, 0, j, None]
        got_dw = depthwise_conv1d(Tensor(x), Tensor(depth)).data
        assert np.allclose(got_dw, want_dw, atol=1e-12)


def test_gradcheck_batch_norm_train_mode():
    r = rng(23)
    x = Tensor(r.normal(size=(2, 3, 4)))
    gamma = Tensor(r.uniform(0.5, 1.5, size=(2,)))
    beta = Tensor(r.normal(size=(2,)))
    # standardization makes sum(y^2) nearly constant in x, so weight the
    # squares to keep the gradient well away from zero
    c1 = Tensor(r.normal(size=(2, 3, 4)))
    c2 = Tensor(r.normal(size=(2, 3, 4)))

    def loss():
        state = BatchNormState.create(2)  # fresh, so repeat calls are pure
        y = batch_norm(x, gamma, beta, state, training=True)
        return sum_(add(mul(c1, y), mul(c2, mul(y, y))))

    assert check_params(loss, [x, gamma, beta]) < 1e-4


def _batch_norm_reference(x, gamma, beta, mean, var, momentum, eps, training):
    """The composite formula batch_norm replaced, in plain numpy, on the
    batch-major layout (batch, c, t).

    Returns (output, new running mean, new running var).
    """
    c = x.shape[1]
    if training:
        mu = x.mean(axis=(0, 2), keepdims=True)
        centered = x - mu
        v = (centered * centered).mean(axis=(0, 2), keepdims=True)
        mean = momentum * mean + (1.0 - momentum) * mu.reshape(c)
        var = momentum * var + (1.0 - momentum) * v.reshape(c)
    else:
        centered = x - mean.reshape(1, c, 1)
        v = var.reshape(1, c, 1)
    xhat = centered / np.sqrt(v + eps)
    return xhat * gamma.reshape(1, c, 1) + beta.reshape(1, c, 1), mean, var


@pytest.mark.parametrize("training", [True, False])
def test_batch_norm_matches_composite_reference(training):
    r = rng(80)
    state = BatchNormState(mean=r.normal(size=3), var=r.uniform(0.5, 2.0, size=3))
    ref_mean, ref_var = state.mean, state.var
    gamma, beta = r.uniform(0.5, 1.5, size=3), r.normal(size=3)
    for _ in range(3):
        x = r.normal(loc=0.7, scale=2.0, size=(4, 3, 6))  # batch-major
        want, ref_mean, ref_var = _batch_norm_reference(
            x, gamma, beta, ref_mean, ref_var, 0.9, 1e-5, training
        )
        got = batch_norm(Tensor(x.transpose(1, 0, 2)), Tensor(gamma), Tensor(beta), state, training)
        assert np.max(np.abs(got.data.transpose(1, 0, 2) - want)) < 1e-12
        # the batch-major reference reduces (batch, t) in another order
        np.testing.assert_allclose(state.mean, ref_mean, rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(state.var, ref_var, rtol=1e-14)


def test_gradcheck_batch_norm_inference_mode():
    r = rng(81)
    x = Tensor(r.normal(size=(2, 3, 4)))
    gamma = Tensor(r.uniform(0.5, 1.5, size=(2,)))
    beta = Tensor(r.normal(size=(2,)))
    state = BatchNormState(mean=r.normal(size=2), var=r.uniform(0.5, 2.0, size=2))
    c1 = Tensor(r.normal(size=(2, 3, 4)))

    def loss():
        y = batch_norm(x, gamma, beta, state, training=False)
        return sum_(mul(c1, mul(y, y)))

    assert check_params(loss, [x, gamma, beta]) < 1e-4


def test_gradcheck_se_gate():
    r = rng(24)
    x = Tensor(r.normal(size=(3, 2, 4)))
    w1 = Tensor(r.normal(size=(2, 3)))
    b1 = Tensor(r.normal(size=(2,)))
    w2 = Tensor(r.normal(size=(3, 2)))
    b2 = Tensor(r.normal(size=(3,)))

    def loss():
        y = se_gate(x, w1, w2, b1, b2)
        return sum_(mul(y, y))

    assert check_params(loss, [x, w1, b1, w2, b2]) < 1e-4


def test_gradcheck_separable_conv():
    r = rng(25)
    x = Tensor(r.normal(size=(3, 2, 5)))
    depth = Tensor(r.normal(size=(3, 1, 3)))
    point = Tensor(r.normal(size=(4, 3, 1)))

    def loss():
        y = separable_conv1d(x, depth, point)
        return sum_(mul(y, y))

    assert check_params(loss, [x, depth, point]) < 1e-4


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**31 - 1))
def test_op_sequence_is_deterministic(seed):
    def run():
        r = np.random.default_rng(seed)
        x = Tensor(r.normal(size=(3, 2, 8)))
        k = Tensor(r.normal(size=(3, 3, 3)))
        y = swish(conv1d(x, k))
        return downsample2(y).data

    a, b = run(), run()
    assert np.array_equal(a, b)


@settings(deadline=None, max_examples=25)
@given(
    b=st.integers(1, 3),
    c=st.integers(1, 4),
    t=st.integers(1, 9),
    seed=st.integers(0, 10_000),
)
def test_shape_preservation(b, c, t, seed):
    r = np.random.default_rng(seed)
    x = Tensor(r.normal(size=(c, b, t)))
    k = Tensor(r.normal(size=(c, c, 3)))
    assert conv1d(x, k).shape == (c, b, t)
    assert depthwise_conv1d(x, Tensor(r.normal(size=(c, 1, 3)))).shape == (c, b, t)
    w1 = Tensor(r.normal(size=(max(c // 2, 1), c)))
    w2 = Tensor(r.normal(size=(c, max(c // 2, 1))))
    assert se_gate(x, w1, w2).shape == (c, b, t)
    state = BatchNormState.create(c)
    g, be = Tensor(np.ones(c)), Tensor(np.zeros(c))
    assert batch_norm(x, g, be, state, training=True).shape == (c, b, t)
    assert downsample2(x).shape == (c, b, (t + 1) // 2)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10_000))
def test_conv1d_is_linear_in_input(seed):
    r = np.random.default_rng(seed)
    x1 = Tensor(r.normal(size=(2, 1, 6)))
    x2 = Tensor(r.normal(size=(2, 1, 6)))
    k = Tensor(r.normal(size=(2, 2, 3)))
    lhs = conv1d(add(x1, x2), k).data
    rhs = conv1d(x1, k).data + conv1d(x2, k).data
    assert np.allclose(lhs, rhs, atol=1e-12)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10_000), t=st.integers(2, 12))
def test_downsample_halves_then_upsample_restores_length(seed, t):
    r = np.random.default_rng(seed)
    x = Tensor(r.normal(size=(1, 2, t)))
    down = downsample2(x)
    assert down.shape[2] == (t + 1) // 2
    if (down.shape[2] * 2 - 1) <= t <= down.shape[2] * 2:
        up = upsample_repeat(down, t)
        assert up.shape == x.shape


def test_gradient_flows_through_deep_composition():
    # stack of conv -> swish -> downsample -> upsample -> se_gate
    r = rng(30)
    x = Tensor(r.normal(size=(2, 2, 8)))
    k = Tensor(r.normal(size=(2, 2, 3)) * 0.5)
    w1 = Tensor(r.normal(size=(1, 2)))
    w2 = Tensor(r.normal(size=(2, 1)))

    def loss():
        h = swish(conv1d(x, k))
        h = upsample_repeat(downsample2(h), 8)
        h = se_gate(h, w1, w2)
        return mean_(mul(h, h))

    assert check_params(loss, [x, k, w1, w2]) < 1e-4


# ---------------------------------------------------------------------------
# A leading model axis: R = 2 models with distinct weights in one call
# ---------------------------------------------------------------------------


def _stacked_case(name, r, model=None):
    """(inputs, which inputs carry the model axis, op) for one primitive;
    ``model`` picks the running buffers a single model's batch norm reads."""
    n = r.normal
    if name.startswith("conv1d_k"):
        k = int(name[-1])
        ins = [n(size=(2, 3, 2, 6)), n(size=(2, 4, 3, k)), n(size=(2, 4))]
        return ins, (True, True, True), lambda x, w, b: conv1d(x, w, b)
    if name == "conv1d_shared_input":
        ins = [n(size=(3, 2, 6)), n(size=(2, 4, 3, 3)), n(size=(2, 4))]
        return ins, (False, True, True), lambda x, w, b: conv1d(x, w, b)
    if name == "depthwise_conv1d":
        ins = [n(size=(2, 3, 2, 5)), n(size=(2, 3, 1, 3))]
        return ins, (True, True), depthwise_conv1d
    if name == "linear":
        ins = [n(size=(2, 3, 4)), n(size=(2, 2, 4)), n(size=(2, 2))]
        return ins, (True, True, True), lambda x, w, b: linear(x, w, b)
    if name == "matmul":
        from dva.autodiff import matmul

        return [n(size=(2, 3, 4)), n(size=(2, 4, 2))], (True, True), matmul
    if name.startswith("batch_norm"):
        training = name.endswith("train")
        mean, var = n(size=(2, 2)), r.uniform(0.5, 2.0, size=(2, 2))
        ins = [n(size=(2, 2, 3, 4)), r.uniform(0.5, 1.5, size=(2, 2)), n(size=(2, 2))]

        def op(x, g, b):
            m = slice(None) if model is None else model
            state = BatchNormState(mean[m].copy(), var[m].copy())  # fresh, so calls are pure
            return batch_norm(x, g, b, state, training=training)

        return ins, (True, True, True), op
    if name == "se_gate":
        ins = [n(size=(2, 3, 2, 4)), n(size=(2, 2, 3)), n(size=(2, 2)), n(size=(2, 3, 2)), n(size=(2, 3))]
        return ins, (True,) * 5, lambda x, w1, b1, w2, b2: se_gate(x, w1, w2, b1, b2)
    raise KeyError(name)


STACKED = [
    "conv1d_k1",
    "conv1d_k3",
    "conv1d_k5",
    "conv1d_shared_input",
    "depthwise_conv1d",
    "linear",
    "matmul",
    "batch_norm_train",
    "batch_norm_infer",
    "se_gate",
]


def _per_model_loss(y, c1, c2):
    """One scalar per model: a weighted sum of y and y^2 over all but axis 0."""
    axes = tuple(range(1, y.data.ndim))
    return sum_(add(mul(c1, y), mul(c2, mul(y, y))), axis=axes)


@pytest.mark.parametrize("name", STACKED)
def test_gradcheck_stacked_primitives(name):
    r = rng(900 + STACKED.index(name))
    arrays, _, op = _stacked_case(name, r)
    ins = [Tensor(a) for a in arrays]
    shape = op(*ins).shape
    c1, c2 = Tensor(r.normal(size=shape)), Tensor(r.normal(size=shape))
    assert check_params(lambda: sum_(_per_model_loss(op(*ins), c1, c2)), ins) < 1e-4


@pytest.mark.parametrize("name", STACKED)
def test_stacked_primitive_matches_each_model_alone(name):
    # model m of the stack computes exactly what m's own weights compute alone
    arrays, stacked, op = _stacked_case(name, rng(950))
    y = op(*[Tensor(a) for a in arrays]).data
    for m in range(2):
        _, _, op = _stacked_case(name, rng(950), model=m)
        alone = op(*[Tensor(a[m] if s else a) for a, s in zip(arrays, stacked)]).data
        np.testing.assert_array_equal(y[m], alone)


@pytest.mark.parametrize("name", STACKED)
def test_stacked_gradients_do_not_leak_across_models(name):
    r = rng(970)
    arrays, stacked, op = _stacked_case(name, r)
    ins = [Tensor(a) for a in arrays]
    with Tape() as tape:
        y = op(*ins)
        c1, c2 = Tensor(r.normal(size=y.shape)), Tensor(r.normal(size=y.shape))
        loss0 = sum_(mul(_per_model_loss(y, c1, c2), Tensor(np.array([1.0, 0.0]))))
    grads = backward(tape, loss0, params=ins)
    for t, s in zip(ins, stacked):
        if s:
            assert np.all(grads[t][1] == 0.0)
            assert np.any(grads[t][0] != 0.0)


def test_stacked_batch_norm_updates_each_models_buffers():
    r = rng(990)
    x = r.normal(size=(2, 2, 3, 4))
    stacked = BatchNormState.create(2)
    stacked.mean, stacked.var = np.zeros((2, 2)), np.ones((2, 2))
    batch_norm(Tensor(x), Tensor(np.ones((2, 2))), Tensor(np.zeros((2, 2))), stacked, True)
    for m in range(2):
        alone = BatchNormState.create(2)
        batch_norm(Tensor(x[m]), Tensor(np.ones(2)), Tensor(np.zeros(2)), alone, True)
        np.testing.assert_array_equal(stacked.mean[m], alone.mean)
        np.testing.assert_array_equal(stacked.var[m], alone.var)


def test_stacked_shapes_must_agree():
    with pytest.raises(ContractError):
        conv1d(Tensor(np.zeros((3, 3, 2, 6))), Tensor(np.zeros((2, 4, 3, 1))))
    with pytest.raises(ContractError):
        batch_norm(
            Tensor(np.zeros((2, 2, 3, 4))), Tensor(np.ones(2)), Tensor(np.zeros(2)),
            BatchNormState.create(2), training=True,
        )


# ---------------------------------------------------------------------------
# The channel-major kernels against the batch-major formulation they replaced
# ---------------------------------------------------------------------------


def _shifted(t, d):
    """Output and input time slices for tap offset d: out[s_out] += x[s_in]."""
    if d >= 0:
        return slice(0, max(t - d, 0)), slice(d, t)
    return slice(min(-d, t), t), slice(0, max(t + d, 0))


def _conv1d_batch_major(x, w, b=None):
    """x (..., batch, c_in, t): one matmul per kernel tap on shifted slices."""
    k, t = w.shape[-1], x.shape[-1]
    pad = k // 2
    wb = w[..., None, :, :, :]
    y = np.matmul(wb[..., pad], x)
    for j in range(k):
        if j != pad:
            so, si = _shifted(t, j - pad)
            y[..., so] += np.matmul(wb[..., j], x[..., si])
    if b is not None:
        y += b[..., None, :, None]
    return y


def _depthwise_batch_major(x, w):
    """x (..., batch, c, t): k multiply-adds of shifted slices."""
    k, t = w.shape[-1], x.shape[-1]
    pad = k // 2
    taps = w[..., None, :, 0, :, None]
    y = x * taps[..., pad, :]
    for j in range(k):
        if j != pad:
            so, si = _shifted(t, j - pad)
            y[..., so] += x[..., si] * taps[..., j, :]
    return y


def _se_gate_batch_major(x, w1, w2, b1, b2):
    """x (..., batch, c, t): a time average, two dense layers, a sigmoid gate."""
    squeezed = x.mean(axis=-1)
    hidden = np.maximum(np.matmul(squeezed, w1.swapaxes(-1, -2)) + b1[..., None, :], 0.0)
    a = np.matmul(hidden, w2.swapaxes(-1, -2)) + b2[..., None, :]
    return x * (0.5 * (np.tanh(0.5 * a) + 1.0))[..., None]


def _to_batch_major(a):
    return np.swapaxes(a, -3, -2)


def _assert_rel(got, want, rel=1e-12):
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


@pytest.mark.parametrize("lead", [(), (2,)])
@pytest.mark.parametrize("k,t", [(1, 10), (3, 10), (3, 3), (5, 3), (5, 2)])
def test_conv_kernels_match_batch_major_formulation(lead, k, t):
    r = rng(1000 + 10 * k + t + len(lead))
    x = r.normal(size=lead + (16, 4, t))  # batch-major (..., batch, c, t)
    w = r.normal(size=lead + (5, 4, k))
    b = r.normal(size=lead + (5,))
    depth = r.normal(size=lead + (4, 1, k))
    xc = Tensor(_to_batch_major(x))
    _assert_rel(_to_batch_major(conv1d(xc, Tensor(w), Tensor(b)).data), _conv1d_batch_major(x, w, b))
    _assert_rel(_to_batch_major(depthwise_conv1d(xc, Tensor(depth)).data), _depthwise_batch_major(x, depth))
    point = r.normal(size=lead + (5, 4, 1))
    got = separable_conv1d(xc, Tensor(depth), Tensor(point), Tensor(b)).data
    _assert_rel(_to_batch_major(got), _conv1d_batch_major(_depthwise_batch_major(x, depth), point, b))


@pytest.mark.parametrize("lead", [(), (2,)])
def test_se_gate_matches_batch_major_formulation(lead):
    r = rng(1100 + len(lead))
    x = r.normal(size=lead + (16, 4, 10))
    w1, b1 = r.normal(size=lead + (2, 4)), r.normal(size=lead + (2,))
    w2, b2 = r.normal(size=lead + (4, 2)), r.normal(size=lead + (4,))
    got = se_gate(Tensor(_to_batch_major(x)), *map(Tensor, (w1, w2, b1, b2))).data
    _assert_rel(_to_batch_major(got), _se_gate_batch_major(x, w1, w2, b1, b2))


def test_stacked_batch_norm_matches_batch_major_formulation():
    r = rng(1200)
    x = r.normal(loc=0.3, scale=1.5, size=(2, 16, 4, 10))
    gamma, beta = r.uniform(0.5, 1.5, size=(2, 4)), r.normal(size=(2, 4))
    mean, var = r.normal(size=(2, 4)), r.uniform(0.5, 2.0, size=(2, 4))
    for training in (True, False):
        state = BatchNormState(mean.copy(), var.copy())
        got = batch_norm(Tensor(_to_batch_major(x)), Tensor(gamma), Tensor(beta), state, training)
        for m in range(2):
            want, want_mean, want_var = _batch_norm_reference(
                x[m], gamma[m], beta[m], mean[m], var[m], 0.9, 1e-5, training
            )
            _assert_rel(_to_batch_major(got.data[m]), want)
            _assert_rel(state.mean[m], want_mean)
            _assert_rel(state.var[m], want_var)


def test_band_matrix_holds_the_taps():
    # depthwise_conv1d multiplies by M[u, s] = taps[u - s + k//2], zero off the band
    x = Tensor(np.eye(4).reshape(1, 4, 4))  # one channel, rows are unit impulses
    taps = np.array([1.0, 2.0, 3.0])
    band = depthwise_conv1d(x, Tensor(taps.reshape(1, 1, 3))).data[0]
    want = np.array([[2, 1, 0, 0], [3, 2, 1, 0], [0, 3, 2, 1], [0, 0, 3, 2]], dtype=float)
    np.testing.assert_array_equal(band, want)
