"""Generator architecture, divergences, energy head, and checkpointing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dva.autodiff import Tape, Tensor, backward, sum_, square, sub, mul, as_tensor
from dva.diffusion import make_schedule
from dva.errors import ConfigError, ContractError
from dva.gradcheck import check_params, max_rel_error, _numeric_grad
from dva.model import (
    ForwardOutput,
    ModelConfig,
    ModelParams,
    N_GROUPS,
    denoise_jump,
    dsm_loss,
    encode,
    energy,
    generate,
    grad_energy,
    kl_gaussian,
    kl_gaussian_elementwise,
    load_params,
    output_kl,
    save_params,
)

TINY = ModelConfig(t_in=8, t_out=8, channels=4, latent=2, se_reduction=2, energy_hidden=6)


def tiny_params(seed=0):
    return ModelParams.init(TINY, seed=seed)


def make_quadratic_energy(params, center):
    """Force E(y) = 0.5 * ||y - center||^2 exactly."""
    params.tensors["energy.q"].data = np.array(1.0)
    params.tensors["energy.c"].data = np.asarray(center, dtype=np.float64)
    params.tensors["energy.w3"].data = np.zeros_like(params.tensors["energy.w3"].data)


def zero_energy(params):
    params.tensors["energy.q"].data = np.array(0.0)
    params.tensors["energy.w3"].data = np.zeros_like(params.tensors["energy.w3"].data)


# ---------------------------------------------------------------------------
# encode
# ---------------------------------------------------------------------------


def test_encode_level_lengths():
    for t_in in (8, 10, 11, 13):
        cfg = ModelConfig(t_in=t_in, t_out=4, channels=4, latent=2, se_reduction=2)
        params = ModelParams.init(cfg, seed=0)
        x = Tensor(np.random.default_rng(0).normal(size=(2, 6, t_in)))
        stack = encode(params, x)
        want = (t_in, (t_in + 1) // 2, ((t_in + 1) // 2 + 1) // 2)
        assert tuple(e.shape[2] for e in stack) == want
        assert all(e.shape[:2] == (2, 4) for e in stack)


def test_encode_zero_input_gives_zero_features():
    # fresh init has zero BN shifts and zero conv/stem biases, so an all-zero
    # batch stays exactly zero through every cell
    params = tiny_params()
    stack = encode(params, Tensor(np.zeros((3, 6, 8))), training=True)
    for e in stack:
        assert np.all(e.data == 0.0)


def test_encode_infer_mode_is_bitwise_deterministic():
    params = tiny_params()
    x = Tensor(np.random.default_rng(1).normal(size=(2, 6, 8)))
    a = encode(params, x, training=False)
    b = encode(params, x, training=False)
    for ea, eb in zip(a, b):
        assert np.array_equal(ea.data, eb.data)


def test_short_input_rejected_at_config():
    with pytest.raises(ConfigError, match="t_in"):
        ModelParams.init(ModelConfig(t_in=3, t_out=4), seed=0)


def test_encode_shape_mismatch_rejected():
    params = tiny_params()
    with pytest.raises(ContractError):
        encode(params, Tensor(np.zeros((2, 5, 8))))
    with pytest.raises(ContractError):
        encode(params, Tensor(np.zeros((2, 6, 9))))


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def test_generate_mean_mode_is_deterministic():
    params = tiny_params()
    x = Tensor(np.random.default_rng(2).normal(size=(2, 6, 8)))
    a = generate(params, encode(params, x), sample=False)
    b = generate(params, encode(params, x), sample=False)
    assert np.array_equal(a.y_hat.data, b.y_hat.data)


def test_generate_output_lengths_over_grid():
    for t_in in (10, 20, 40, 60):
        for t_out in (10, 20, 40, 60):
            cfg = ModelConfig(t_in=t_in, t_out=t_out, channels=4, latent=2, se_reduction=2)
            params = ModelParams.init(cfg, seed=0)
            x = Tensor(np.random.default_rng(3).normal(size=(1, 6, t_in)))
            out = generate(params, encode(params, x), sample=False)
            assert out.y_hat.shape == (1, t_out)


def test_generate_has_three_groups_with_nonnegative_kl():
    params = tiny_params()
    x = Tensor(np.random.default_rng(4).normal(size=(3, 6, 8)))
    out = generate(params, encode(params, x), sample=True, rng=np.random.default_rng(5))
    assert len(out.groups) == N_GROUPS
    assert all(float(k.data) >= 0.0 for k in out.kl_groups)
    assert float(out.kl_latent.data) == pytest.approx(
        sum(float(k.data) for k in out.kl_groups)
    )
    assert np.all(np.isfinite(out.y_hat.data))


def test_posterior_copied_onto_prior_zeroes_kl():
    params = tiny_params()
    x = Tensor(np.random.default_rng(6).normal(size=(2, 6, 8)))
    out = generate(params, encode(params, x), sample=False)
    for g in out.groups:
        copied = kl_gaussian(g.p_mean, g.p_logvar, g.p_mean, g.p_logvar)
        assert float(copied.data) == 0.0
    # and the actual posterior diverges from the prior on random input
    assert float(out.kl_latent.data) > 0.0


def test_prior_mode_needs_batch():
    params = tiny_params()
    with pytest.raises(ContractError):
        generate(params, None, sample=False)
    out = generate(params, None, sample=False, batch=2)
    assert out.y_hat.shape == (2, 8)
    assert float(out.kl_latent.data) == 0.0


def test_generate_rejects_malformed_stack():
    params = tiny_params()
    x = Tensor(np.random.default_rng(7).normal(size=(1, 6, 8)))
    stack = encode(params, x)
    with pytest.raises(ContractError):
        generate(params, stack[:2], sample=False)


def test_sampling_requires_noise_source():
    params = tiny_params()
    x = Tensor(np.random.default_rng(8).normal(size=(1, 6, 8)))
    with pytest.raises(ContractError):
        generate(params, encode(params, x), sample=True)


def test_every_latent_group_feeds_the_output():
    # perturbing any single group's noise must change the prediction
    params = tiny_params()
    x = Tensor(np.random.default_rng(9).normal(size=(2, 6, 8)))
    stack = encode(params, x)
    lengths = TINY.level_lengths()
    shapes = [(2, TINY.latent, lengths[2]), (2, TINY.latent, lengths[1]), (2, TINY.latent, lengths[0])]
    base_eps = [np.zeros(s) for s in shapes]
    base = generate(params, stack, sample=True, eps=base_eps).y_hat.data
    for i in range(N_GROUPS):
        eps = [e.copy() for e in base_eps]
        eps[i][0, 0, 0] = 3.0
        moved = generate(params, stack, sample=True, eps=eps).y_hat.data
        assert not np.array_equal(base, moved), f"group {i + 1} wire is dead"


def test_encoder_features_reach_posteriors():
    params = tiny_params()
    r = np.random.default_rng(10)
    x1 = Tensor(r.normal(size=(1, 6, 8)))
    x2 = Tensor(r.normal(size=(1, 6, 8)))
    a = generate(params, encode(params, x1), sample=False)
    b = generate(params, encode(params, x2), sample=False)
    assert not np.array_equal(a.y_hat.data, b.y_hat.data)
    for ga, gb in zip(a.groups, b.groups):
        assert not np.array_equal(ga.q_mean.data, gb.q_mean.data)


def test_logvar_heads_are_clamped():
    params = tiny_params()
    # exaggerate the logvar head weights to force saturation
    for i in (1, 2, 3):
        params.tensors[f"post{i}.lv.w"].data *= 1e6
        params.tensors[f"prior{i}.lv.w"].data *= 1e6
    x = Tensor(np.random.default_rng(11).normal(size=(2, 6, 8)))
    out = generate(params, encode(params, x), sample=False)
    for g in out.groups:
        assert np.all(g.q_logvar.data <= 10.0)
        assert np.all(g.q_logvar.data >= -10.0)
        assert np.all(np.isfinite(g.p_logvar.data))


def test_reparameterized_sampler_is_differentiable():
    params = tiny_params()
    r = np.random.default_rng(12)
    xv = r.normal(size=(2, 6, 8))
    lengths = TINY.level_lengths()
    eps = [
        r.standard_normal((2, TINY.latent, lengths[2])),
        r.standard_normal((2, TINY.latent, lengths[1])),
        r.standard_normal((2, TINY.latent, lengths[0])),
    ]
    target = r.normal(size=(2, 8))

    def loss():
        out = generate(params, encode(params, Tensor(xv), training=True),
                       sample=True, eps=eps, training=True)
        return sum_(square(sub(out.y_hat, as_tensor(target))))

    subset = [params[k] for k in ("h", "post1.lv.w", "post3.mu.w", "prior2.lv.b", "merge2.w", "out.proj.w")]
    assert check_params(loss, subset, step=1e-4) < 1e-4


# ---------------------------------------------------------------------------
# kl_gaussian / output_kl
# ---------------------------------------------------------------------------


def test_kl_identical_distributions_is_zero():
    r = np.random.default_rng(13)
    mu = Tensor(r.normal(size=(4,)))
    lv = Tensor(r.normal(size=(4,)))
    assert float(kl_gaussian(mu, lv, mu, lv).data) == 0.0


def test_kl_unit_variances_reduces_to_half_squared_mean():
    mu = Tensor(np.array([0.3, -1.2, 2.0]))
    z = Tensor(np.zeros(3))
    got = float(kl_gaussian(mu, z, z, z).data)
    assert got == pytest.approx(0.5 * float(np.sum(mu.data**2)), abs=1e-12)


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(0, 100_000))
def test_kl_nonnegative(seed):
    r = np.random.default_rng(seed)
    qm, ql = Tensor(r.normal(size=(5,))), Tensor(r.uniform(-3, 3, size=(5,)))
    pm, pl = Tensor(r.normal(size=(5,))), Tensor(r.uniform(-3, 3, size=(5,)))
    assert float(kl_gaussian(qm, ql, pm, pl).data) >= 0.0


def test_gradcheck_kl_elementwise_all_inputs():
    r = np.random.default_rng(15)
    qm, pm = Tensor(r.normal(size=(2, 3, 4))), Tensor(r.normal(size=(2, 3, 4)))
    ql = Tensor(r.uniform(-2, 2, size=(2, 3, 4)))
    pl = Tensor(r.uniform(-2, 2, size=(2, 3, 4)))
    w = Tensor(r.normal(size=(2, 3, 4)))

    def loss():
        return sum_(mul(w, kl_gaussian_elementwise(qm, ql, pm, pl)))

    assert check_params(loss, [qm, ql, pm, pl]) < 1e-6


def test_output_kl_zero_at_matched_moments():
    sched = make_schedule()
    n = 30
    a = sched.target_alpha_bar_at(n)
    y = np.random.default_rng(14).normal(size=(3, 8)) * 0.01 + 1.0
    y_hat = Tensor(np.sqrt(a) * y)
    got = float(output_kl(y_hat, np.sqrt(1.0 - a), y, sched, n).data)
    assert got == pytest.approx(0.0, abs=1e-12)


def test_output_kl_mean_term():
    sched = make_schedule()
    n = 30
    a = sched.target_alpha_bar_at(n)
    r = np.random.default_rng(15)
    y = r.normal(size=(2, 8)) * 0.01 + 1.0
    y_hat = Tensor(r.normal(size=(2, 8)))
    # with s_out matched to the target variance only the mean term remains
    got = float(output_kl(y_hat, np.sqrt(1.0 - a), y, sched, n).data)
    want = np.mean(np.sum((y_hat.data - np.sqrt(a) * y) ** 2, axis=1)) / (2 * (1 - a))
    assert got == pytest.approx(want, abs=1e-12)


def test_output_kl_pure_noise_limit():
    sched = make_schedule(n_steps=300, beta_min=1e-4, beta_max=0.999, gamma_scale=1.0)
    n = 300
    assert sched.target_alpha_bar_at(n) < 1e-12
    y = np.random.default_rng(16).normal(size=(1, 4))
    y_hat = Tensor(np.random.default_rng(17).normal(size=(1, 4)))
    s = 0.7
    got = float(output_kl(y_hat, s, y, sched, n).data)
    want = 0.5 * np.sum(s**2 - 1.0 - 2.0 * np.log(s) + y_hat.data**2)
    assert got == pytest.approx(want, rel=1e-9)


# ---------------------------------------------------------------------------
# energy head
# ---------------------------------------------------------------------------


def test_quadratic_energy_values_and_gradient():
    params = tiny_params()
    center = np.linspace(-1, 1, 8)
    make_quadratic_energy(params, center)
    r = np.random.default_rng(18)
    y = Tensor(r.normal(size=(3, 8)))
    e = energy(params, y)
    want = 0.5 * np.sum((y.data - center) ** 2, axis=1)
    assert np.allclose(e.data, want, atol=1e-12)
    g = grad_energy(params, y)
    assert np.allclose(g.data, y.data - center, atol=1e-12)
    jumped = denoise_jump(params, y)
    assert np.allclose(jumped.data, np.tile(center, (3, 1)), atol=1e-12)


def test_grad_energy_matches_finite_differences():
    params = tiny_params(seed=3)
    y = Tensor(np.random.default_rng(19).normal(size=(2, 8)))
    analytic = grad_energy(params, y).data

    def e_sum():
        return sum_(energy(params, y))

    numeric = _numeric_grad(e_sum, y, step=1e-5)
    assert max_rel_error(analytic, numeric) < 1e-5


def test_energy_is_pure():
    params = tiny_params(seed=4)
    y = Tensor(np.random.default_rng(20).normal(size=(2, 8)))
    assert np.array_equal(energy(params, y).data, energy(params, y).data)


def test_energy_weight_gradients_flow_through_grad_energy():
    params = tiny_params(seed=5)
    y = Tensor(np.random.default_rng(21).normal(size=(2, 8)))
    target = np.random.default_rng(22).normal(size=(2, 8))

    def loss():
        g = grad_energy(params, y)
        return sum_(square(sub(g, as_tensor(target))))

    assert check_params(loss, params.energy_parameters(), step=1e-4) < 1e-4


# ---------------------------------------------------------------------------
# dsm_loss / denoise_jump
# ---------------------------------------------------------------------------


def test_dsm_zero_when_gradient_cancels_residual():
    params = tiny_params()
    y = np.random.default_rng(23).normal(size=(1, 8))
    make_quadratic_energy(params, y[0])  # grad_E(v) = v - y
    y_hat = Tensor(np.random.default_rng(24).normal(size=(1, 8)))
    sched = make_schedule()
    assert float(dsm_loss(params, y_hat, y, sched, 10).data) == pytest.approx(0.0, abs=1e-12)


def test_dsm_hand_value_with_zero_energy():
    cfg = ModelConfig(t_in=8, t_out=2, channels=4, latent=2, se_reduction=2, energy_hidden=4)
    params = ModelParams.init(cfg, seed=0)
    zero_energy(params)
    sched = make_schedule()
    n = 25
    y_hat = Tensor(np.array([[1.0, 1.0]]))
    y = np.array([[1.1, 0.9]])  # y - y_hat = (0.1, -0.1)
    got = float(dsm_loss(params, y_hat, y, sched, n).data)
    assert got == pytest.approx(sched.sigma_at(n) * 0.02, abs=1e-15)


def test_dsm_scales_linearly_in_sigma():
    params = tiny_params()
    zero_energy(params)
    sched = make_schedule()
    y_hat = Tensor(np.random.default_rng(25).normal(size=(2, 8)))
    y = np.random.default_rng(26).normal(size=(2, 8))
    l1 = float(dsm_loss(params, y_hat, y, sched, 10).data)
    l2 = float(dsm_loss(params, y_hat, y, sched, 90).data)
    assert l2 / l1 == pytest.approx(sched.sigma_at(90) / sched.sigma_at(10), rel=1e-12)


def test_denoise_jump_identity_under_zero_energy():
    params = tiny_params()
    zero_energy(params)
    y = Tensor(np.random.default_rng(27).normal(size=(3, 8)))
    assert np.array_equal(denoise_jump(params, y).data, y.data)


def test_dsm_blocking_separates_the_towers():
    params = tiny_params(seed=6)
    r = np.random.default_rng(28)
    xv = r.normal(size=(2, 6, 8))
    y = r.normal(size=(2, 8)) * 0.02 + 1.0
    sched = make_schedule()

    def run(block):
        with Tape() as tape:
            out = generate(params, encode(params, Tensor(xv), training=True),
                           sample=False, training=True)
            loss = dsm_loss(params, out.y_hat, y, sched, 40, block_predictor=block)
        return backward(tape, loss, params=params.parameters())

    blocked = run(True)
    for p in params.generator_parameters():
        assert np.all(blocked[p] == 0.0), f"leak into {p.name}"
    assert any(np.any(blocked[p] != 0.0) for p in params.energy_parameters())

    open_grads = run(False)
    assert any(np.any(open_grads[p] != 0.0) for p in params.generator_parameters())


def test_energy_weights_never_move_the_prediction():
    params = tiny_params(seed=7)
    x = Tensor(np.random.default_rng(29).normal(size=(2, 6, 8)))
    before = generate(params, encode(params, x), sample=False).y_hat.data
    params.tensors["energy.w1"].data = params.tensors["energy.w1"].data * 2.0
    params.tensors["energy.q"].data = np.array(5.0)
    after = generate(params, encode(params, x), sample=False).y_hat.data
    assert np.array_equal(before, after)


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------


def test_checkpoint_roundtrip_is_bit_exact(tmp_path):
    params = tiny_params(seed=8)
    # nudge BN buffers away from defaults so they are covered too
    x = Tensor(np.random.default_rng(30).normal(size=(2, 6, 8)))
    encode(params, x, training=True)
    f = tmp_path / "ck.npz"
    save_params(params, f)
    loaded = load_params(f)
    assert loaded.config == params.config
    for k in params.tensors:
        assert np.array_equal(params.tensors[k].data, loaded.tensors[k].data), k
    for k in params.bn_states:
        assert np.array_equal(params.bn_states[k].mean, loaded.bn_states[k].mean)
        assert np.array_equal(params.bn_states[k].var, loaded.bn_states[k].var)


def test_checkpoint_rejects_hash_mismatch(tmp_path):
    params = tiny_params(seed=9)
    f = tmp_path / "ck.npz"
    save_params(params, f)
    other = ModelConfig(t_in=8, t_out=4, channels=4, latent=2, se_reduction=2)
    with pytest.raises(ConfigError, match="hash"):
        load_params(f, expected_hash=other.hash())
    assert load_params(f, expected_hash=params.config.hash()) is not None


def test_checkpoint_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_params(tmp_path / "nope.npz")


def test_config_hash_is_stable_and_sensitive():
    a = ModelConfig(t_in=8, t_out=8)
    b = ModelConfig(t_in=8, t_out=8)
    c = ModelConfig(t_in=8, t_out=9)
    assert a.hash() == b.hash()
    assert a.hash() != c.hash()
