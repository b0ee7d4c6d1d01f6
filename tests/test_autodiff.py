"""Tensor primitives: forward oracles, gradient soundness, shape laws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dva.autodiff import (
    Tape,
    Tensor,
    add,
    backward,
    clamp,
    concat,
    conv1d,
    depthwise_conv1d,
    detach,
    div,
    downsample2,
    exp_,
    linear,
    log_,
    mean_,
    mul,
    relu,
    reshape,
    sigmoid,
    sqrt_,
    sub,
    sum_,
    swish,
    upsample_repeat,
)
from dva.errors import ContractError
from dva.gradcheck import check_params, finite_difference_check, max_rel_error
from dva.layers import BatchNormState, batch_norm, se_gate, separable_conv1d


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
    out = sigmoid(Tensor([-800.0, 0.0, 800.0]))
    assert np.allclose(out.data, [0.0, 0.5, 1.0])
    assert np.all(np.isfinite(out.data))


def test_conv1d_identity_kernel():
    x = Tensor(rng().normal(size=(2, 1, 7)))
    k = Tensor(np.ones((1, 1, 1)))
    assert np.array_equal(conv1d(x, k).data, x.data)


def test_conv1d_hand_example():
    x = Tensor(np.array([[[1.0, 2.0, 3.0]]]))
    k = Tensor(np.array([[[0.0, 1.0, 1.0]]]))
    out = conv1d(x, k)
    assert np.array_equal(out.data, [[[3.0, 5.0, 3.0]]])


def test_conv1d_zero_kernel():
    x = Tensor(rng().normal(size=(3, 2, 5)))
    k = Tensor(np.zeros((4, 2, 3)))
    assert np.all(conv1d(x, k).data == 0.0)


def test_conv1d_rejects_even_kernel():
    with pytest.raises(ContractError):
        conv1d(Tensor(np.zeros((1, 1, 4))), Tensor(np.zeros((1, 1, 2))))


def test_conv1d_rejects_channel_mismatch():
    with pytest.raises(ContractError):
        conv1d(Tensor(np.zeros((1, 2, 4))), Tensor(np.zeros((1, 3, 3))))


def test_separable_single_channel_collapses():
    x = Tensor(rng(1).normal(size=(2, 1, 6)))
    depth = Tensor(rng(2).normal(size=(1, 1, 3)))
    point = Tensor(np.ones((1, 1, 1)))
    got = separable_conv1d(x, depth, point)
    want = conv1d(x, depth)
    assert np.allclose(got.data, want.data)


def test_separable_identity_depth_mixes_channels():
    # depth kernels pass channels through; pointwise applies M
    x = Tensor(rng(3).normal(size=(1, 2, 3)))
    depth = Tensor(np.array([[[0.0, 1.0, 0.0]], [[0.0, 1.0, 0.0]]]))
    m = np.array([[2.0, -1.0], [0.5, 3.0]])
    point = Tensor(m[:, :, None])
    out = separable_conv1d(x, depth, point)
    want = np.einsum("ji,bit->bjt", m, x.data)
    assert np.allclose(out.data, want)


def test_batch_norm_constant_input_is_zero():
    x = Tensor(np.full((4, 2, 5), 3.7))
    state = BatchNormState.create(2)
    out = batch_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), state, training=True)
    assert np.allclose(out.data, 0.0)


def test_batch_norm_two_point_batch():
    x = Tensor(np.array([1.0, 3.0]).reshape(2, 1, 1))
    state = BatchNormState.create(1)
    out = batch_norm(x, Tensor(np.ones(1)), Tensor(np.zeros(1)), state, training=True)
    assert np.allclose(out.data.ravel(), [-1.0, 1.0], atol=1e-4)


def test_batch_norm_infer_is_frozen():
    state = BatchNormState.create(2)
    x = Tensor(rng(4).normal(size=(3, 2, 4)))
    batch_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), state, training=True)
    mean_after, var_after = state.mean.copy(), state.var.copy()
    y = Tensor(rng(5).normal(size=(3, 2, 4)))
    a = batch_norm(y, Tensor(np.ones(2)), Tensor(np.zeros(2)), state, training=False)
    b = batch_norm(y, Tensor(np.ones(2)), Tensor(np.zeros(2)), state, training=False)
    assert np.array_equal(a.data, b.data)
    assert np.array_equal(state.mean, mean_after)
    assert np.array_equal(state.var, var_after)


def test_batch_norm_running_stats_momentum():
    state = BatchNormState.create(1, momentum=0.9)
    x = Tensor(np.array([1.0, 3.0]).reshape(2, 1, 1))
    batch_norm(x, Tensor(np.ones(1)), Tensor(np.zeros(1)), state, training=True)
    # fresh buffers are (mean 0, var 1); batch stats are (2, 1)
    assert state.mean[0] == pytest.approx(0.9 * 0.0 + 0.1 * 2.0)
    assert state.var[0] == pytest.approx(0.9 * 1.0 + 0.1 * 1.0)


def test_se_gate_zero_excite_halves_input():
    x = Tensor(rng(6).normal(size=(2, 3, 5)))
    w1 = Tensor(rng(7).normal(size=(2, 3)))
    w2 = Tensor(np.zeros((3, 2)))
    out = se_gate(x, w1, w2)
    assert np.allclose(out.data, x.data / 2.0)


def test_se_gate_preserves_shape_and_bounds():
    x = Tensor(rng(8).normal(size=(2, 4, 6)))
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


def test_require_finite_flags_nan():
    with pytest.raises(ContractError):
        Tensor(np.array([1.0, np.nan])).require_finite()


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


def test_gradcheck_swish_sum():
    x = Tensor(_away_from_zero(rng(14), (10,)))
    err = finite_difference_check(lambda t: sum_(swish(t)), x)
    assert err < 1e-6


@pytest.mark.parametrize(
    "name,fn,make_x",
    [
        ("sigmoid", lambda t: sum_(sigmoid(t)), lambda r: r.normal(size=(6,))),
        ("swish", lambda t: sum_(swish(t)), lambda r: r.normal(size=(6,))),
        ("relu", lambda t: sum_(relu(t)), lambda r: _away_from_zero(r, (6,))),
        ("exp", lambda t: sum_(exp_(t)), lambda r: r.normal(size=(6,))),
        ("log", lambda t: sum_(log_(t)), lambda r: r.uniform(0.5, 2.0, size=(6,))),
        ("sqrt", lambda t: sum_(sqrt_(t)), lambda r: r.uniform(0.5, 2.0, size=(6,))),
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
            "div",
            lambda t: sum_(div(Tensor(np.ones(5)), t)),
            lambda r: r.uniform(0.5, 2.0, size=(5,)),
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
    x = Tensor(r.normal(size=(2, 3, 6)))
    k = Tensor(r.normal(size=(4, 3, 3)))
    b = Tensor(r.normal(size=(4,)))

    def loss():
        y = conv1d(x, k, b)
        return sum_(mul(y, y))

    assert check_params(loss, [x, k, b]) < 1e-4


def test_gradcheck_depthwise_conv1d():
    r = rng(22)
    x = Tensor(r.normal(size=(2, 3, 5)))
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
    x = Tensor(r.normal(size=(2, 3, t)))
    kern = Tensor(r.normal(size=(4, 3, k)))
    b = Tensor(r.normal(size=(4,)))

    def loss():
        y = conv1d(x, kern, b)
        return sum_(mul(y, y))

    assert check_params(loss, [x, kern, b]) < 1e-4


@pytest.mark.parametrize("t", [7, 3])
def test_gradcheck_depthwise_conv1d_width5(t):
    r = rng(60 + t)
    x = Tensor(r.normal(size=(2, 3, t)))
    k = Tensor(r.normal(size=(3, 1, 5)))

    def loss():
        y = depthwise_conv1d(x, k)
        return sum_(mul(y, y))

    assert check_params(loss, [x, k]) < 1e-4


def test_conv1d_matches_direct_sum():
    # out[b, o, s] = sum_{i, j} w[o, i, j] * x[b, i, s + j - k//2], zero outside
    r = rng(70)
    for k, t in [(1, 5), (3, 5), (5, 5), (5, 2)]:
        x = r.normal(size=(2, 3, t))
        w = r.normal(size=(4, 3, k))
        want = np.zeros((2, 4, t))
        for s in range(t):
            for j in range(k):
                src = s + j - k // 2
                if 0 <= src < t:
                    want[:, :, s] += x[:, :, src] @ w[:, :, j].T
        assert np.allclose(conv1d(Tensor(x), Tensor(w)).data, want, atol=1e-12)
        depth = w[:3, :1, :]
        want_dw = np.zeros((2, 3, t))
        for s in range(t):
            for j in range(k):
                src = s + j - k // 2
                if 0 <= src < t:
                    want_dw[:, :, s] += x[:, :, src] * depth[:, 0, j]
        got_dw = depthwise_conv1d(Tensor(x), Tensor(depth)).data
        assert np.allclose(got_dw, want_dw, atol=1e-12)


def test_gradcheck_batch_norm_train_mode():
    r = rng(23)
    x = Tensor(r.normal(size=(3, 2, 4)))
    gamma = Tensor(r.uniform(0.5, 1.5, size=(2,)))
    beta = Tensor(r.normal(size=(2,)))
    # standardization makes sum(y^2) nearly constant in x, so weight the
    # squares to keep the gradient well away from zero
    c1 = Tensor(r.normal(size=(3, 2, 4)))
    c2 = Tensor(r.normal(size=(3, 2, 4)))

    def loss():
        state = BatchNormState.create(2)  # fresh, so repeat calls are pure
        y = batch_norm(x, gamma, beta, state, training=True)
        return sum_(add(mul(c1, y), mul(c2, mul(y, y))))

    assert check_params(loss, [x, gamma, beta]) < 1e-4


def _batch_norm_reference(x, gamma, beta, mean, var, momentum, eps, training):
    """The composite formula batch_norm replaced, in plain numpy.

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
    state = BatchNormState(
        mean=r.normal(size=3), var=r.uniform(0.5, 2.0, size=3), momentum=0.9, eps=1e-5
    )
    gamma, beta = r.uniform(0.5, 1.5, size=3), r.normal(size=3)
    for _ in range(3):
        x = r.normal(loc=0.7, scale=2.0, size=(4, 3, 6))
        want, want_mean, want_var = _batch_norm_reference(
            x, gamma, beta, state.mean, state.var, state.momentum, state.eps, training
        )
        got = batch_norm(Tensor(x), Tensor(gamma), Tensor(beta), state, training)
        assert np.max(np.abs(got.data - want)) < 1e-12
        assert np.array_equal(state.mean, want_mean)
        assert np.array_equal(state.var, want_var)


def test_gradcheck_batch_norm_inference_mode():
    r = rng(81)
    x = Tensor(r.normal(size=(3, 2, 4)))
    gamma = Tensor(r.uniform(0.5, 1.5, size=(2,)))
    beta = Tensor(r.normal(size=(2,)))
    state = BatchNormState(mean=r.normal(size=2), var=r.uniform(0.5, 2.0, size=2))
    c1 = Tensor(r.normal(size=(3, 2, 4)))

    def loss():
        y = batch_norm(x, gamma, beta, state, training=False)
        return sum_(mul(c1, mul(y, y)))

    assert check_params(loss, [x, gamma, beta]) < 1e-4


def test_gradcheck_se_gate():
    r = rng(24)
    x = Tensor(r.normal(size=(2, 3, 4)))
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
    x = Tensor(r.normal(size=(2, 3, 5)))
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
        x = Tensor(r.normal(size=(2, 3, 8)))
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
    x = Tensor(r.normal(size=(b, c, t)))
    k = Tensor(r.normal(size=(c, c, 3)))
    assert conv1d(x, k).shape == (b, c, t)
    assert depthwise_conv1d(x, Tensor(r.normal(size=(c, 1, 3)))).shape == (b, c, t)
    w1 = Tensor(r.normal(size=(max(c // 2, 1), c)))
    w2 = Tensor(r.normal(size=(c, max(c // 2, 1))))
    assert se_gate(x, w1, w2).shape == (b, c, t)
    state = BatchNormState.create(c)
    g, be = Tensor(np.ones(c)), Tensor(np.zeros(c))
    assert batch_norm(x, g, be, state, training=True).shape == (b, c, t)
    assert downsample2(x).shape == (b, c, (t + 1) // 2)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10_000))
def test_conv1d_is_linear_in_input(seed):
    r = np.random.default_rng(seed)
    x1 = Tensor(r.normal(size=(1, 2, 6)))
    x2 = Tensor(r.normal(size=(1, 2, 6)))
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
