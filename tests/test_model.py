"""Generator architecture, divergences, energy head, and checkpointing."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dva import model
from dva.autodiff import Tape, Tensor, backward
from dva.diffusion import make_schedule
from dva.errors import ConfigError, ContractError, DataError
from dva.layers import (
    batch_norm,
    batch_norm_bwd,
    se_gate,
    se_gate_bwd,
    separable_conv1d,
    separable_conv1d_bwd,
)
from dva.losses import denoise_jump, dsm_loss, output_kl
from dva.model import (
    ForwardOutput,
    ModelConfig,
    ModelParams,
    N_GROUPS,
    encode,
    generate,
    load_params,
    save_params,
)
import reference_graph
from gradcheck import check_params, max_rel_error, _numeric_grad
from layer_ops import taped
from reference_graph import (
    add,
    energy,
    grad_energy,
    kl_gaussian_elementwise,
    mul,
    square,
    sub,
    sum_,
    swish,
)

TINY = ModelConfig(t_in=8, t_out=8, channels=4, latent=2, se_reduction=2, energy_hidden=6)


def tiny_params(seed=0):
    return ModelParams.init(TINY, seed=seed)


def energy_params(params):
    return [params[k] for k in sorted(params.tensors) if k.startswith("energy.")]


def generator_params(params):
    return [params[k] for k in sorted(params.tensors) if not k.startswith("energy.")]


def kl_total(q_mean, q_logvar, p_mean, p_logvar):
    """Diagonal-Gaussian KL summed over every coordinate."""
    return sum_(kl_gaussian_elementwise(q_mean, q_logvar, p_mean, p_logvar))


def zero_eps(batch):
    """All-zero latent noise: z = mu + exp(lv / 2) * 0 = mu, the posterior
    mean, with the prior heads and the KL computed."""
    return [np.zeros((batch, TINY.latent, ln)) for ln in reversed(TINY.level_lengths())]


def make_quadratic_energy(params, center):
    """Force E(y) = 0.5 * ||y - center||^2 exactly."""
    params.tensors["energy.q"].data[...] = 1.0
    params.tensors["energy.c"].data[...] = center
    params.tensors["energy.w3"].data[...] = 0.0


def zero_energy(params):
    params.tensors["energy.q"].data[...] = 0.0
    params.tensors["energy.w3"].data[...] = 0.0


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
        assert all(e.shape[:2] == (4, 2) for e in stack)  # channel-major: (c, batch, t)


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
    a = generate(params, encode(params, x))
    b = generate(params, encode(params, x))
    assert np.array_equal(a.y_hat.data, b.y_hat.data)


def test_generate_output_lengths_over_grid():
    for t_in in (10, 20, 40, 60):
        for t_out in (10, 20, 40, 60):
            cfg = ModelConfig(t_in=t_in, t_out=t_out, channels=4, latent=2, se_reduction=2)
            params = ModelParams.init(cfg, seed=0)
            x = Tensor(np.random.default_rng(3).normal(size=(1, 6, t_in)))
            out = generate(params, encode(params, x))
            assert out.y_hat.shape == (1, t_out)


def test_generate_has_three_groups_with_nonnegative_kl():
    params = tiny_params()
    x = Tensor(np.random.default_rng(4).normal(size=(3, 6, 8)))
    out = generate(params, encode(params, x), eps=latent_eps(np.random.default_rng(5), (), 3))
    assert len(out.kl_groups) == N_GROUPS
    assert all(float(k.data) >= 0.0 for k in out.kl_groups)
    assert np.all(np.isfinite(out.y_hat.data))


def test_posterior_copied_onto_prior_zeroes_kl():
    params = tiny_params()
    x = Tensor(np.random.default_rng(6).normal(size=(2, 6, 8)))
    stack = encode(params, x)
    _, groups, _, _ = reference_graph.generate(params, stack, eps=zero_eps(2))
    assert len(groups) == N_GROUPS
    for _, _, p_mean, p_logvar, _ in groups:
        assert float(kl_total(p_mean, p_logvar, p_mean, p_logvar).data) == 0.0
    # and the actual posterior diverges from the prior on random input
    out = generate(params, stack, eps=zero_eps(2))
    assert sum(float(k.data) for k in out.kl_groups) > 0.0


def test_posterior_mean_decode_computes_only_what_y_hat_reads():
    # without eps, untaped: no KL, and the same y_hat as a decode whose
    # latents are mu + exp(lv / 2) * 0
    params = dense_tiny(12)
    x = Tensor(np.random.default_rng(13).normal(size=(3, 6, 8)))
    stack = encode(params, x)
    out = generate(params, stack, training=True)
    assert out.kl_groups == []
    sampled = generate(params, stack, eps=zero_eps(3), training=True)
    np.testing.assert_array_equal(out.y_hat.data, sampled.y_hat.data)


def test_a_taped_decode_needs_noise():
    # the tape records the sampled decode only: a posterior-mean decode is
    # never taped, so recording one is refused
    params = dense_tiny(12)
    stack = encode(params, Tensor(np.random.default_rng(13).normal(size=(3, 6, 8))))
    with Tape():
        with pytest.raises(ContractError, match="needs noise"):
            generate(params, stack, training=True)


def test_fused_decode_taped_and_untaped_are_bit_identical():
    # the untaped forward keeps nothing; it computes the same numbers in the
    # same order as the taped one
    params = dense_tiny(14)
    stack = encode(params, Tensor(np.random.default_rng(15).normal(size=(3, 6, 8))))
    eps = latent_eps(np.random.default_rng(16), (), 3)
    with Tape():
        taped_out = generate(params, stack, eps=eps, training=True)
    untaped_out = generate(params, stack, eps=eps, training=True)
    np.testing.assert_array_equal(taped_out.y_hat.data, untaped_out.y_hat.data)
    for kl_t, kl_u in zip(taped_out.kl_groups, untaped_out.kl_groups, strict=True):
        np.testing.assert_array_equal(kl_t.data, kl_u.data)


def test_generate_rejects_malformed_stack():
    params = tiny_params()
    x = Tensor(np.random.default_rng(7).normal(size=(1, 6, 8)))
    stack = encode(params, x)
    with pytest.raises(ContractError):
        generate(params, stack[:2])


def test_generate_rejects_misshaped_eps():
    params = tiny_params()
    stack = encode(params, Tensor(np.random.default_rng(8).normal(size=(2, 6, 8))))
    eps = latent_eps(np.random.default_rng(8), (), 2)
    eps[1] = eps[1][:1]
    with pytest.raises(ContractError, match=r"eps\[1\]"):
        generate(params, stack, eps=eps)


def test_every_latent_group_feeds_the_output():
    # perturbing any single group's noise must change the prediction
    params = tiny_params()
    x = Tensor(np.random.default_rng(9).normal(size=(2, 6, 8)))
    stack = encode(params, x)
    lengths = TINY.level_lengths()
    shapes = [(2, TINY.latent, lengths[2]), (2, TINY.latent, lengths[1]), (2, TINY.latent, lengths[0])]
    base_eps = [np.zeros(s) for s in shapes]
    base = generate(params, stack, eps=base_eps).y_hat.data
    for i in range(N_GROUPS):
        eps = [e.copy() for e in base_eps]
        eps[i][0, 0, 0] = 3.0
        moved = generate(params, stack, eps=eps).y_hat.data
        assert not np.array_equal(base, moved), f"group {i + 1} wire is dead"


def test_encoder_features_reach_posteriors():
    params = tiny_params()
    r = np.random.default_rng(10)
    x1 = Tensor(r.normal(size=(1, 6, 8)))
    x2 = Tensor(r.normal(size=(1, 6, 8)))
    a = generate(params, encode(params, x1), eps=zero_eps(1))
    b = generate(params, encode(params, x2), eps=zero_eps(1))
    assert not np.array_equal(a.y_hat.data, b.y_hat.data)
    # each group's posterior, and so its KL against the prior, moves with x
    assert len(a.kl_groups) == len(b.kl_groups) == N_GROUPS
    for ka, kb in zip(a.kl_groups, b.kl_groups):
        assert not np.array_equal(ka.data, kb.data)


def test_logvar_heads_are_clamped():
    params = tiny_params()
    # exaggerate the logvar head weights to force saturation
    for i in (1, 2, 3):
        params.tensors[f"post{i}.lv.w"].data *= 1e6
        params.tensors[f"prior{i}.lv.w"].data *= 1e6
    x = Tensor(np.random.default_rng(11).normal(size=(2, 6, 8)))
    stack = encode(params, x)
    out = generate(params, stack, eps=zero_eps(2))
    _, groups, ref_kls, _ = reference_graph.generate(params, stack, eps=zero_eps(2))
    for (_, q_logvar, _, p_logvar, _), kl, ref_kl in zip(groups, out.kl_groups, ref_kls):
        assert np.all(np.abs(q_logvar.data) <= 10.0)
        assert np.all(np.abs(p_logvar.data) <= 10.0)
        # the program's KL is finite and reads the same clipped heads
        assert np.isfinite(kl.data)
        np.testing.assert_allclose(kl.data, ref_kl.data, rtol=1e-12)


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
                       eps=eps, training=True)
        return sum_(square(sub(out.y_hat, Tensor(target))))

    subset = [params[k] for k in ("h", "post1.lv.w", "post3.mu.w", "prior2.lv.b", "merge2.w", "out.proj.w")]
    assert check_params(loss, subset, step=1e-4) < 1e-4


# ---------------------------------------------------------------------------
# latent KL / output_kl
# ---------------------------------------------------------------------------


def test_kl_identical_distributions_is_zero():
    r = np.random.default_rng(13)
    mu = Tensor(r.normal(size=(4,)))
    lv = Tensor(r.normal(size=(4,)))
    assert float(kl_total(mu, lv, mu, lv).data) == 0.0


def test_kl_unit_variances_reduces_to_half_squared_mean():
    mu = Tensor(np.array([0.3, -1.2, 2.0]))
    z = Tensor(np.zeros(3))
    got = float(kl_total(mu, z, z, z).data)
    assert got == pytest.approx(0.5 * float(np.sum(mu.data**2)), abs=1e-12)


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(0, 100_000))
def test_kl_nonnegative(seed):
    r = np.random.default_rng(seed)
    qm, ql = Tensor(r.normal(size=(5,))), Tensor(r.uniform(-3, 3, size=(5,)))
    pm, pl = Tensor(r.normal(size=(5,))), Tensor(r.uniform(-3, 3, size=(5,)))
    assert float(kl_total(qm, ql, pm, pl).data) >= 0.0


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


def test_output_kl_rejects_step_zero():
    # at n = 0 the target is not diffused, so there is no KL to take
    sched = make_schedule(n_steps=10)
    with pytest.raises(ContractError, match="step n=0"):
        output_kl(Tensor(np.zeros((2, 4))), 1.0, np.zeros((2, 4)), sched, np.array([3, 0]))


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
    # the reference graph's grad_E, and the program's untaped one as the
    # denoising jump applies it
    params = tiny_params(seed=3)
    y = Tensor(np.random.default_rng(19).normal(size=(2, 8)))
    analytic = grad_energy(params, y).data

    def e_sum():
        return sum_(energy(params, y))

    numeric = _numeric_grad(e_sum, y, step=1e-5)
    assert max_rel_error(analytic, numeric) < 1e-5
    assert max_rel_error(y.data - denoise_jump(params, y).data, numeric) < 1e-5


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
        return sum_(square(sub(g, Tensor(target))))

    assert check_params(loss, energy_params(params), step=1e-4) < 1e-4


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
        # a taped decode is a sampled one: zero noise samples the posterior mean
        with Tape() as tape:
            out = generate(params, encode(params, Tensor(xv), training=True),
                           eps=zero_eps(2), training=True)
            loss = dsm_loss(params, out.y_hat, y, sched, 40, block_predictor=block)
        return backward(tape, loss, params=params.parameters())

    blocked = run(True)
    for p in generator_params(params):
        assert np.all(blocked[p] == 0.0), f"leak into {p.name}"
    assert any(np.any(blocked[p] != 0.0) for p in energy_params(params))

    open_grads = run(False)
    assert any(np.any(open_grads[p] != 0.0) for p in generator_params(params))


def test_energy_weights_never_move_the_prediction():
    params = tiny_params(seed=7)
    x = Tensor(np.random.default_rng(29).normal(size=(2, 6, 8)))
    before = generate(params, encode(params, x)).y_hat.data
    params.tensors["energy.w1"].data *= 2.0
    params.tensors["energy.q"].data[...] = 5.0
    after = generate(params, encode(params, x)).y_hat.data
    assert np.array_equal(before, after)


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------


def test_load_builds_the_expected_shapes_once_per_config(tmp_path, monkeypatch):
    for seed in range(3):
        save_params(tiny_params(seed), tmp_path / f"ck{seed}.npz")
    model._checkpoint_shapes.cache_clear()
    calls = []
    build = ModelParams._build.__func__
    monkeypatch.setattr(
        ModelParams, "_build", classmethod(lambda cls, *a: calls.append(a) or build(cls, *a))
    )
    for seed in range(3):
        load_params(tmp_path / f"ck{seed}.npz")
    assert len(calls) == 1


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
    path = tmp_path / "nope.npz"
    with pytest.raises(DataError) as err:
        load_params(path)
    assert str(err.value) == f"checkpoint {path}: cannot read: No such file or directory"


def rewrite_members(path, edit):
    """Save a tiny model to ``path``, then rewrite its npz members through
    ``edit``; ``__meta__`` is passed as a decoded dict."""
    save_params(tiny_params(seed=10), path)
    with np.load(path) as f:
        members = {k: f[k] for k in f.files}
    members["__meta__"] = json.loads(str(members["__meta__"]))
    edit(members)
    if isinstance(members.get("__meta__"), dict):
        members["__meta__"] = np.array(json.dumps(members["__meta__"]))
    with open(path, "wb") as fh:
        np.savez(fh, **members)


def rewrite_checkpoint(path, edit):
    """Save a tiny model to ``path``, then rewrite its arrays through
    ``edit``: the arrays are cut out of ``values`` by ``layout``, edited by
    key, and joined back into a fresh ``layout`` and ``values``."""

    def repack(members):
        meta = members["__meta__"]
        arrays, offset = {}, 0
        for key, shape in meta["layout"]:
            size = int(np.prod(shape))
            arrays[key] = members["values"][offset:offset + size].reshape(shape)
            offset += size
        edit(arrays)
        meta["layout"] = [[k, list(a.shape)] for k, a in arrays.items()]
        members["values"] = np.concatenate([a.ravel() for a in arrays.values()])

    rewrite_members(path, repack)


def test_checkpoint_holds_meta_and_one_sorted_vector(tmp_path):
    params = tiny_params(seed=10)
    f = tmp_path / "ck.npz"
    save_params(params, f)
    with np.load(f) as z:
        assert sorted(z.files) == ["__meta__", "values"]
        meta = json.loads(str(z["__meta__"]))
        values = z["values"]
    arrays = {f"tensor:{k}": t.data for k, t in params.tensors.items()}
    for k, s in params.bn_states.items():
        arrays[f"bn_mean:{k}"] = s.mean
        arrays[f"bn_var:{k}"] = s.var
    assert meta["version"] == 2
    assert meta["layout"] == [[k, list(arrays[k].shape)] for k in sorted(arrays)]
    expected = np.concatenate([arrays[k].ravel() for k in sorted(arrays)])
    assert values.dtype == np.float64
    assert values.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "edit, key",
    [
        (lambda a: a.pop("tensor:out.proj.b"), "tensor:out.proj.b"),
        (lambda a: a.update({"tensor:extra.w": np.zeros(3)}), "tensor:extra.w"),
        (lambda a: a.update({"tensor:stem.w": np.zeros((4, 6, 3))}), "tensor:stem.w"),
        (lambda a: a.pop("bn_var:enc2.bn1"), "bn_var:enc2.bn1"),
    ],
    ids=["missing-tensor", "extra-tensor", "misshapen-tensor", "missing-bn-var"],
)
def test_checkpoint_schema_mismatch_names_key(tmp_path, edit, key):
    f = tmp_path / "ck.npz"
    rewrite_checkpoint(f, edit)
    with pytest.raises(DataError, match=key.replace(".", r"\.")):
        load_params(f)


def _edit_meta(edit):
    def rewrite(members):
        edit(members["__meta__"])

    return rewrite


def _swap_first_shape(meta):
    meta["layout"][0][1] = [1]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda a: a.pop("__meta__"), "missing array __meta__"),
        (lambda a: a.update(__meta__=np.array("{")), "__meta__ is not a JSON object"),
        (lambda a: a.update(__meta__=np.array("[1]")), "__meta__ is not a JSON object"),
        (_edit_meta(lambda m: m.pop("config_hash")), "metadata has no 'config_hash'"),
        (_edit_meta(lambda m: m["config"].update(width=3)), "bad model config"),
        (lambda a: a.pop("values"), "missing array values"),
        (lambda a: a.update(values=a["values"].reshape(1, -1)),
         "values must be a float64 vector"),
        (_edit_meta(lambda m: m.pop("layout")), "layout is not a list of [key, shape] pairs"),
        (_edit_meta(lambda m: m.update(layout={"tensor:h": [1]})),
         "layout is not a list of [key, shape] pairs"),
        (_edit_meta(lambda m: m["layout"].__setitem__(0, ["tensor:h"])),
         "layout is not a list of [key, shape] pairs"),
        (_edit_meta(lambda m: m["layout"][0].__setitem__(1, [-1, 2])),
         "layout is not a list of [key, shape] pairs"),
        (_edit_meta(lambda m: m["layout"].__setitem__(1, m["layout"][0])),
         "layout is not a list of [key, shape] pairs"),
        (_edit_meta(_swap_first_shape), "layout covers"),
        (lambda a: a.update(values=a["values"][:-1]), "layout covers"),
        (_edit_meta(lambda m: m["layout"].reverse()), "layout keys are not in sorted order"),
    ],
    ids=["missing-meta", "meta-not-json", "meta-not-object", "missing-config-hash",
         "unknown-config-key", "missing-values", "values-not-1d", "missing-layout",
         "layout-not-list", "layout-entry-not-pair", "layout-negative-dim",
         "layout-repeated-key", "layout-sum-too-small", "values-too-short",
         "layout-unsorted"],
)
def test_checkpoint_bad_metadata_is_a_data_error(tmp_path, edit, message):
    f = tmp_path / "ck.npz"
    rewrite_members(f, edit)
    with pytest.raises(DataError, match=re.escape(f"checkpoint {f}: {message}")):
        load_params(f)


def test_checkpoint_of_another_version_is_a_config_error(tmp_path):
    f = tmp_path / "ck.npz"
    rewrite_members(f, _edit_meta(lambda m: m.update(version=1)))
    with pytest.raises(ConfigError, match=re.escape(f"checkpoint {f}: unsupported version 1")):
        load_params(f)


def test_checkpoint_schema_reports_first_key_in_order(tmp_path):
    def edit(arrays):
        arrays.pop("tensor:stem.b")
        arrays["tensor:enc1.se.w1"] = np.zeros((1, 1))

    f = tmp_path / "ck.npz"
    rewrite_checkpoint(f, edit)
    with pytest.raises(DataError, match=r"array tensor:enc1\.se\.w1 has shape"):
        load_params(f)


def test_config_hash_is_stable_and_sensitive():
    a = ModelConfig(t_in=8, t_out=8)
    b = ModelConfig(t_in=8, t_out=8)
    c = ModelConfig(t_in=8, t_out=9)
    assert a.hash() == b.hash()
    assert a.hash() != c.hash()


# ---------------------------------------------------------------------------
# stacked models: a leading model axis on every tensor and buffer
# ---------------------------------------------------------------------------


def dense_tiny(seed):
    """Tiny params with every weight random, so zero-initialised paths are live."""
    params = tiny_params(seed)
    r = np.random.default_rng(seed + 500)
    for t in params.tensors.values():
        t.data[...] = 0.3 * r.standard_normal(t.data.shape)
    return params


def latent_eps(r, lead, batch):
    lengths = TINY.level_lengths()
    return [r.standard_normal(lead + (batch, TINY.latent, ln)) for ln in reversed(lengths)]


def test_stack_and_run_round_trip(tmp_path):
    a, b = dense_tiny(1), dense_tiny(2)
    encode(b, Tensor(np.random.default_rng(0).normal(size=(3, 6, 8))), training=True)
    stacked = ModelParams.stack([a, b])
    assert stacked["stem.w"].shape == (2,) + a["stem.w"].shape
    assert stacked.bn_states["enc1.bn1"].mean.shape == (2, TINY.channels)
    back = stacked.run(1)
    for k in b.tensors:
        np.testing.assert_array_equal(back[k].data, b[k].data)
    for k in b.bn_states:
        np.testing.assert_array_equal(back.bn_states[k].var, b.bn_states[k].var)
    with pytest.raises(ContractError):
        save_params(stacked, tmp_path / "stack.npz")
    with pytest.raises(ContractError):
        ModelParams.stack([a, ModelParams.init(ModelConfig(t_in=8, t_out=4), seed=0)])


@pytest.mark.parametrize("make", ["init", "stack", "run", "load"])
def test_every_tensor_views_its_models_flat_vector(tmp_path, make):
    params = tiny_params(seed=5)
    if make in ("stack", "run"):
        params = ModelParams.stack([params, tiny_params(seed=6)])
    if make == "run":
        params = params.run(1)
    if make == "load":
        save_params(params, tmp_path / "ck.npz")
        params = load_params(tmp_path / "ck.npz")
    # a training-mode forward writes the running buffers in place
    encode(params, Tensor(np.random.default_rng(0).normal(size=(3, 6, 8))), training=True)
    values = params.values
    lead = (2,) if make == "stack" else ()
    assert values.dtype == np.float64 and values.shape[:-1] == lead
    bn = [params.bn_states[k] for k in sorted(params.bn_states)]
    buffers = [*(s.mean for s in bn), *(s.var for s in bn)]
    tensors = [t.data for t in params.parameters()]
    for a in buffers + tensors + [params.flat]:
        assert np.shares_memory(a, values)
    # each row of values is the buffers then the tensors, in sorted-key
    # order, and flat is the tensors' part
    values[...] = np.arange(values.size).reshape(values.shape)

    def rows(arrays):
        return np.concatenate([a.reshape(lead + (-1,)) for a in arrays], axis=-1)

    np.testing.assert_array_equal(rows(buffers + tensors), values)
    np.testing.assert_array_equal(rows(tensors), params.flat)


def test_stack_rows_are_the_models_values():
    models = [dense_tiny(1), dense_tiny(2)]
    stacked = ModelParams.stack(models)
    for r, single in enumerate(models):
        assert stacked.values[r].tobytes() == single.values.tobytes()
        back = stacked.run(r)
        assert back.values.tobytes() == single.values.tobytes()
        assert not np.shares_memory(back.values, stacked.values)


def test_a_rebound_tensor_is_refused(tmp_path):
    # a rebound tensor no longer views values, which would silently keep
    # the old value in a checkpoint or a stack
    params = tiny_params(seed=3)
    params.tensors["energy.q"].data = np.array(1.0)
    with pytest.raises(ContractError, match="energy.q"):
        save_params(params, tmp_path / "ck.npz")
    assert not (tmp_path / "ck.npz").exists()
    with pytest.raises(ContractError, match="energy.q"):
        ModelParams.stack([tiny_params(seed=4), params])


def test_stacked_forward_matches_each_model_alone():
    models = [dense_tiny(3), dense_tiny(4)]
    stacked = ModelParams.stack(models)
    r = np.random.default_rng(40)
    x = r.normal(size=(2, 3, 6, 8))
    eps = latent_eps(r, (2,), 3)
    y_s = generate(stacked, encode(stacked, Tensor(x), training=True),
                   eps=eps, training=True)
    jump_s = denoise_jump(stacked, y_s.y_hat)
    energy_s = energy(stacked, y_s.y_hat)
    for m, single in enumerate(models):
        y_m = generate(single, encode(single, Tensor(x[m]), training=True),
                       eps=[e[m] for e in eps], training=True)
        np.testing.assert_array_equal(y_s.y_hat.data[m], y_m.y_hat.data)
        for kl_s, kl_m in zip(y_s.kl_groups, y_m.kl_groups):
            np.testing.assert_array_equal(kl_s.data[m], kl_m.data)
        np.testing.assert_array_equal(jump_s.data[m], denoise_jump(single, y_m.y_hat).data)
        np.testing.assert_array_equal(energy_s.data[m], energy(single, y_m.y_hat).data)
        for k, s in single.bn_states.items():
            np.testing.assert_array_equal(stacked.bn_states[k].mean[m], s.mean)


def test_stacked_models_share_an_unstacked_input():
    models = [dense_tiny(5), dense_tiny(6)]
    stacked = ModelParams.stack(models)
    x = Tensor(np.random.default_rng(41).normal(size=(3, 6, 8)))
    y_s = generate(stacked, encode(stacked, x)).y_hat.data
    assert y_s.shape == (2, 3, TINY.t_out)
    for m, single in enumerate(models):
        np.testing.assert_array_equal(y_s[m], generate(single, encode(single, x)).y_hat.data)


def test_gradcheck_kl_elementwise_stacked():
    r = np.random.default_rng(42)
    qm, pm = Tensor(r.normal(size=(2, 2, 3, 4))), Tensor(r.normal(size=(2, 2, 3, 4)))
    ql = Tensor(r.uniform(-2, 2, size=(2, 2, 3, 4)))
    pl = Tensor(r.uniform(-2, 2, size=(2, 2, 3, 4)))
    w = Tensor(r.normal(size=(2, 2, 3, 4)))

    def loss():
        return sum_(mul(w, kl_gaussian_elementwise(qm, ql, pm, pl)))

    assert check_params(loss, [qm, ql, pm, pl]) < 1e-6


def test_gradcheck_grad_energy_stacked():
    stacked = ModelParams.stack([dense_tiny(7), dense_tiny(8)])
    r = np.random.default_rng(43)
    y = Tensor(r.normal(size=(2, 3, TINY.t_out)))
    target = r.normal(size=(2, 3, TINY.t_out))

    def loss():
        return sum_(square(sub(grad_energy(stacked, y), Tensor(target))))

    assert check_params(loss, energy_params(stacked) + [y], step=1e-4) < 1e-4


def test_stacked_gradients_do_not_leak_across_models():
    # model 0's loss has exactly zero gradient in every tensor of model 1
    stacked = ModelParams.stack([dense_tiny(9), dense_tiny(10)])
    r = np.random.default_rng(44)
    x = r.normal(size=(2, 3, 6, 8))
    y = r.normal(size=(2, 3, TINY.t_out))
    sched = make_schedule()
    with Tape() as tape:
        out = generate(stacked, encode(stacked, Tensor(x), training=True),
                       eps=latent_eps(r, (2,), 3), training=True)
        kl_1, kl_2, kl_3 = out.kl_groups
        per_model = add(
            add(add(add(kl_1, kl_2), kl_3), output_kl(out.y_hat, 1.0, y, sched, np.array([5, 9]))),
            dsm_loss(stacked, out.y_hat, y, sched, np.array([5, 9]), block_predictor=False),
        )
        loss0 = sum_(mul(per_model, Tensor(np.array([1.0, 0.0]))))
    grads = backward(tape, loss0, params=stacked.parameters())
    for p in stacked.parameters():
        assert np.all(grads[p][1] == 0.0), p.name
    assert all(np.any(grads[stacked[k]][0] != 0.0) for k in ("stem.w", "energy.w1", "h"))


# ---------------------------------------------------------------------------
# the residual cell: one taped op over x and its 13 tensors
# ---------------------------------------------------------------------------


def composite_cell(params, prefix, x, training):
    """The residual cell as the chain of layer kernel pairs it fuses, one
    tape entry per pair."""
    g1, b1, d1, p1, g2, b2, d2, p2, pb2, w1, sb1, w2, sb2 = (
        params[k] for k in model._CELL_TENSORS[prefix]
    )
    states = [params.bn_states[f"{prefix}.bn{j}"] for j in (1, 2)]
    h = taped(batch_norm, batch_norm_bwd, (x, g1, b1), states[0], training, training)
    h = taped(separable_conv1d, separable_conv1d_bwd, (swish(h), d1, p1, None), True)
    h = taped(batch_norm, batch_norm_bwd, (h, g2, b2), states[1], training, training)
    h = taped(separable_conv1d, separable_conv1d_bwd, (swish(h), d2, p2, pb2), True)
    h = taped(se_gate, se_gate_bwd, (h, w1, sb1, w2, sb2), True)
    return add(x, h)


def cell_case(training, seed=60):
    """Two stacks of the same two dense models (running buffers moved off
    their initial values), a stacked cell input and an output weighting."""
    r = np.random.default_rng(seed)
    models = [dense_tiny(seed), dense_tiny(seed + 1)]
    for m in models:
        for s in m.bn_states.values():
            s.mean[...] = r.normal(size=s.mean.shape)
            s.var[...] = r.uniform(0.5, 2.0, size=s.var.shape)
    a, b = ModelParams.stack(models), ModelParams.stack(models)
    x = r.normal(loc=0.2, size=(2, TINY.channels, 3, TINY.t_in))
    w = r.normal(size=x.shape)
    return a, b, x, w


def cell_inputs(params, x):
    return [x] + [params[k] for k in model._CELL_TENSORS["enc2"]]


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
def test_fused_cell_matches_composite_of_layer_ops(training):
    # the gradients in training mode; inference mode is never taped, so its
    # case compares the forward pass only
    fused, ref, x, w = cell_case(training)
    results = []
    for params, cell in ((fused, model._cell), (ref, composite_cell)):
        xt = Tensor(x.copy())
        if not training:
            results.append((cell(params, "enc2", xt, False).data, []))
            continue
        with Tape() as tape:
            y = cell(params, "enc2", xt, True)
            loss = sum_(mul(Tensor(w), y))
        ins = cell_inputs(params, xt)
        grads = backward(tape, loss, params=ins)
        results.append((y.data, [grads[t] for t in ins]))
    (y_f, g_f), (y_r, g_r) = results
    assert max_rel_error(y_f, y_r) <= 1e-12
    assert len(g_f) == (14 if training else 0)
    for got, want in zip(g_f, g_r):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    for j in (1, 2):
        s_f, s_r = fused.bn_states[f"enc2.bn{j}"], ref.bn_states[f"enc2.bn{j}"]
        assert max_rel_error(s_f.mean, s_r.mean) <= 1e-12
        assert max_rel_error(s_f.var, s_r.var) <= 1e-12


# the tape records training-mode cells only: inference mode has no backward
@pytest.mark.parametrize("training", [True], ids=["train"])
def test_gradcheck_fused_cell(training):
    # one model; training mode moves the running buffers on every call, but
    # reads only batch statistics, so the closure stays a pure function
    params = dense_tiny(70)
    r = np.random.default_rng(71)
    for s in params.bn_states.values():
        s.mean[...] = r.normal(size=s.mean.shape)
        s.var[...] = r.uniform(0.5, 2.0, size=s.var.shape)
    x = Tensor(r.normal(size=(TINY.channels, 3, TINY.t_in)))
    w = Tensor(r.normal(size=x.shape))

    def loss():
        y = model._cell(params, "enc2", x, training)
        return sum_(add(mul(w, y), mul(y, y)))

    assert check_params(loss, cell_inputs(params, x)) < 1e-4


@pytest.mark.parametrize("training", [True], ids=["train"])
def test_fused_cell_taped_and_untaped_are_bit_identical(training):
    # the untaped forward works in place and keeps nothing; it computes the
    # same numbers in the same order as the taped one
    on_tape, off_tape, x, _ = cell_case(training, seed=80)
    with Tape() as tape:
        y_t = model._cell(on_tape, "enc2", Tensor(x), training)
    assert len(tape) == 1
    y_u = model._cell(off_tape, "enc2", Tensor(x), training)
    np.testing.assert_array_equal(y_t.data, y_u.data)
    for k, s in on_tape.bn_states.items():
        np.testing.assert_array_equal(s.mean, off_tape.bn_states[k].mean)
        np.testing.assert_array_equal(s.var, off_tape.bn_states[k].var)


def test_fused_cell_leaves_its_input_intact():
    params, _, x, _ = cell_case(True, seed=90)
    xt = Tensor(x.copy())
    model._cell(params, "enc2", xt, True)
    np.testing.assert_array_equal(xt.data, x)
