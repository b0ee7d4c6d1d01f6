"""Composite loss identity, training-loop determinism, and the experiment driver."""

import json
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import reference_graph

from dva.autodiff import Tape, Tensor, backward
from dva.data import (
    FEATURE_DIM,
    SynthSpec,
    build_dataset,
    synth_generate,
    write_ohlcv,
)
from dva.errors import ConfigError, ContractError, TrainingAbort
from dva.evaluation import load_predictions
from dva.model import ModelParams, encode, generate, load_params
from dva.training import (
    TrainBatch,
    TrainConfig,
    _latent_noise,
    evaluate_mse,
    loss_from_components,
    make_batch,
    predict,
    refresh_norm_stats,
    run_experiment,
    total_loss,
    train_runs,
    train_stock,
)

TINY = TrainConfig(
    t_in=8,
    t_out=4,
    n_steps=12,
    epochs=2,
    batch_size=8,
    channels=4,
    latent=2,
    se_reduction=2,
    energy_hidden=6,
)


def tiny_split(seed=0, length=80, **spec_kw):
    spec = SynthSpec(
        process="sinusoid",
        length=length,
        amplitude=0.05,
        period=12.0,
        start_price=1.0,
        **spec_kw,
    )
    prices, _ = synth_generate(spec, seed=seed)
    return build_dataset(prices, TINY.t_in, TINY.t_out)


def random_batch(cfg, rng, batch=5):
    x = 1.0 + 0.05 * rng.standard_normal((batch, FEATURE_DIM, cfg.t_in))
    y = 1.0 + 0.05 * rng.standard_normal((batch, cfg.t_out))
    n = int(rng.integers(1, cfg.n_steps + 1))
    return make_batch(x, y, cfg.schedule(), n, rng, cfg)


def latent_noise(rng, cfg, batch):
    """The latent noise ``train_runs`` draws for one model's batch."""
    return _latent_noise(rng, batch, cfg.latent, cfg.model_config().level_lengths())


def randomized_params(cfg, seed):
    """Init params, then overwrite with dense random values so every branch
    (including the zero-initialized residual closers) is live."""
    params = ModelParams.init(cfg.model_config(), seed)
    rng = np.random.default_rng(seed + 1000)
    for name, t in params.tensors.items():
        t.data[...] = 0.3 * rng.standard_normal(t.data.shape)
    return params


# ---------------------------------------------------------------------------
# Loss identity and components
# ---------------------------------------------------------------------------


def test_default_training_step_tape_stays_fused():
    # The stem, each residual cell, each pooling, the decoder's start, each
    # latent group, the output head, each loss and their weighted sum are
    # single taped ops: 18 entries. Spelled out as composites the default
    # step recorded 349, with one entry per layer of the six cells 198, and
    # with only the cells fused 102.
    cfg = TrainConfig()
    rng = np.random.default_rng(11)
    params = ModelParams.init(cfg.model_config(), cfg.seed)
    batch = random_batch(cfg, rng, batch=cfg.batch_size)
    with Tape() as tape:
        loss_t, _ = total_loss(
            batch, params, cfg.schedule(), cfg, eps=latent_noise(rng, cfg, len(batch.y))
        )
    assert len(tape) <= 18
    grads = backward(tape, loss_t, params.parameters())
    assert all(np.all(np.isfinite(g)) for g in grads.values())


# The taped blocks of the program, with the entries each records in one
# default training step: 18 in all.
BLOCKS = {
    "_stem": 1, "_pool": 2, "_cell": 6, "_decoder_start": 1, "_latent_group": 3,
    "_output_head": 1, "mse_loss": 1, "output_kl": 1, "dsm_loss": 1, "_weighted_sum": 1,
}


def test_every_primitive_runs_in_training_or_prediction():
    # Census of the block kinds one default training step records: a taped
    # block that it does not record is dead code. Prediction is never taped
    # (the tape serves the training step only), so it adds no kind.
    cfg = TrainConfig()
    rng = np.random.default_rng(11)
    params = ModelParams.init(cfg.model_config(), cfg.seed)
    batch = random_batch(cfg, rng, batch=cfg.batch_size)
    with Tape() as tape:
        total_loss(
            batch, params, cfg.schedule(), cfg, eps=latent_noise(rng, cfg, len(batch.y))
        )
    kinds = Counter(backfn.__qualname__.split(".")[0] for _, _, backfn in tape.entries)
    assert kinds == BLOCKS


@pytest.mark.parametrize("runs", [None, 3], ids=["lone", "stack3"])
def test_every_backward_returns_one_vjp_per_input(runs):
    # The tape contract on one default step of a lone model and of a stack
    # of three, the form train_runs steps: each entry's backward returns one
    # array per input, shaped like that input, constants included, and the
    # pass consumes the tape. No backward sums a gradient back down to its
    # input's shape, so this is what checks the shapes.
    cfg = TrainConfig()
    rng = np.random.default_rng(11)
    if runs is None:
        params = ModelParams.init(cfg.model_config(), cfg.seed)
        batch = random_batch(cfg, rng, batch=cfg.batch_size)
        eps = latent_noise(rng, cfg, len(batch.y))
    else:
        seeds = range(runs)
        params = ModelParams.stack([ModelParams.init(cfg.model_config(), s) for s in seeds])
        batch = TrainBatch.stack([random_batch(cfg, rng, batch=cfg.batch_size) for _ in seeds])
        eps = [np.stack(g) for g in zip(*(latent_noise(rng, cfg, cfg.batch_size) for _ in seeds))]
    with Tape() as tape:
        loss_t, _ = total_loss(batch, params, cfg.schedule(), cfg, eps=eps)
    checked = 0

    def checking(backfn, inputs):
        def wrapped(g):
            nonlocal checked
            vjps = backfn(g)
            assert len(vjps) == len(inputs)
            for t, v in zip(inputs, vjps):
                # arithmetic on 0-d arrays gives numpy scalars, shape ()
                assert isinstance(v, (np.ndarray, np.generic)) and v.shape == t.shape
            checked += 1
            return vjps

        return wrapped

    tape.entries = [(o, ins, checking(fn, ins)) for o, ins, fn in tape.entries]
    n_entries = len(tape)
    backward(tape, loss_t, params.parameters())
    assert len(tape) == 0
    assert checked == n_entries


@pytest.mark.parametrize("kw", [{}, {"dsm_block": False}], ids=["default", "dsm_unblocked"])
def test_stacked_step_matches_the_tensor_level_graph(kw):
    # the fused ops against the graph of small taped primitives they
    # replaced (tests/reference_graph.py), on a stacked default step with
    # every weight moved off its initial value: the same loss, and every
    # tensor's gradient to 1e-12 relative
    cfg = replace(TrainConfig(), **kw)
    models = [ModelParams.init(cfg.model_config(), seed) for seed in (0, 1)]
    rng = np.random.default_rng(21)
    for m in models:
        for t in m.tensors.values():
            t.data[...] += 0.05 * rng.standard_normal(t.data.shape)
    params = ModelParams.stack(models)
    batch = TrainBatch.stack([random_batch(cfg, rng, batch=cfg.batch_size) for _ in models])
    eps = [np.stack(g) for g in zip(*(latent_noise(rng, cfg, cfg.batch_size) for _ in models))]
    results = []
    for loss_fn in (lambda: total_loss(batch, params, cfg.schedule(), cfg, eps=eps)[0],
                    lambda: reference_graph.total_loss(batch, params, cfg.schedule(), cfg, eps=eps)):
        with Tape() as tape:
            loss_t = loss_fn()
        results.append((loss_t.data.item(), backward(tape, loss_t, params.parameters())))
    (fused_loss, fused), (ref_loss, ref) = results
    assert fused_loss == pytest.approx(ref_loss, rel=1e-14, abs=0.0)
    for t in params.parameters():
        scale = np.max(np.abs(ref[t]))
        assert np.max(np.abs(fused[t] - ref[t])) <= 1e-12 * scale, t.name
        assert scale > 0.0, t.name


class TestLossIdentity:
    TOGGLES = [
        {},
        {"latent_kl": False},
        {"output_kl": False},
        {"denoiser": False},
        {"latent_kl": False, "output_kl": False},
        {"latent_kl": False, "output_kl": False, "denoiser": False},
        {"diffuse_y": False},
        {"mse_against_clean": True},
        {"zeta": 0.0},
        {"eta": 0.0},
        {"zeta": 2.5, "eta": 0.25},
        {"dsm_block": False},
        {"diffuse_x": False},
    ]

    @pytest.mark.parametrize("kw", TOGGLES)
    def test_total_matches_components_bitwise(self, kw):
        cfg = replace(TINY, **kw)
        rng = np.random.default_rng(7)
        params = randomized_params(cfg, 7)
        for _ in range(5):
            batch = random_batch(cfg, rng)
            loss_t, (comps,) = total_loss(
                batch, params, cfg.schedule(), cfg, eps=latent_noise(rng, cfg, len(batch.y))
            )
            assert loss_t.data.item() == comps.total
            assert comps.total == loss_from_components(
                comps.mse, comps.kl, comps.dsm, cfg.zeta, cfg.eta
            )
            assert comps.kl_latent >= 0.0 and comps.kl_output >= 0.0

    def test_zero_weights_reduce_to_mse(self):
        cfg = replace(TINY, zeta=0.0, eta=0.0, denoiser=False)
        rng = np.random.default_rng(3)
        params = randomized_params(cfg, 3)
        batch = random_batch(cfg, rng)
        loss_t, (comps,) = total_loss(
            batch, params, cfg.schedule(), cfg, eps=latent_noise(rng, cfg, len(batch.y))
        )
        assert loss_t.data.item() == comps.mse

    def test_component_arithmetic_hand_example(self):
        assert loss_from_components(1.0, 0.4, 0.2, 0.5, 1.0) == 1.4

    def test_disabled_terms_report_zero(self):
        cfg = replace(TINY, latent_kl=False, output_kl=False, denoiser=False)
        rng = np.random.default_rng(5)
        params = randomized_params(cfg, 5)
        _, (comps,) = total_loss(
            random_batch(cfg, rng), params, cfg.schedule(), cfg, eps=latent_noise(rng, cfg, 5)
        )
        assert comps.kl == 0.0 and comps.dsm == 0.0

    def test_output_kl_needs_diffused_targets(self):
        # with target diffusion off there is no step-n target distribution,
        # so the output KL term must vanish even though its toggle is on
        cfg = replace(TINY, diffuse_y=False, latent_kl=False)
        rng = np.random.default_rng(6)
        params = randomized_params(cfg, 6)
        _, (comps,) = total_loss(
            random_batch(cfg, rng), params, cfg.schedule(), cfg, eps=latent_noise(rng, cfg, 5)
        )
        assert comps.kl_output == 0.0 and comps.kl == 0.0

    def test_nonfinite_aborts_with_component(self):
        cfg = TINY
        rng = np.random.default_rng(8)
        params = randomized_params(cfg, 8)
        params.tensors["out.proj.w"].data[0, 0] = np.nan
        with pytest.raises(TrainingAbort) as err:
            total_loss(
                random_batch(cfg, rng), params, cfg.schedule(), cfg, eps=latent_noise(rng, cfg, 5)
            )
        assert err.value.epoch == -1 and err.value.batch == -1
        assert err.value.component == "mse"


class TestDsmBlocking:
    def test_generator_grads_unaffected_by_denoiser(self):
        """With the predictor blocked, adding the DSM term must leave every
        generator gradient bitwise unchanged while energy weights get grads."""
        rng = np.random.default_rng(11)
        base = replace(TINY, latent_kl=True, output_kl=True)
        params = randomized_params(base, 11)
        batch = random_batch(base, rng)
        eps = [
            np.random.default_rng(99).standard_normal((5, base.latent, ln))
            for ln in reversed(params.config.level_lengths())
        ]

        grads = {}
        for denoiser in (False, True):
            cfg = replace(base, denoiser=denoiser)
            with Tape() as tape:
                loss_t, _ = total_loss(batch, params, cfg.schedule(), cfg, eps=eps)
            gmap = backward(tape, loss_t, params.parameters())
            grads[denoiser] = {
                t.name: gmap.get(t) for t in params.parameters()
            }

        energy_saw_grad = False
        for name, g_off in grads[False].items():
            g_on = grads[True][name]
            if name.startswith("energy."):
                assert not np.any(g_off)  # energy path untouched without DSM
                energy_saw_grad = energy_saw_grad or np.any(g_on != 0.0)
            else:
                np.testing.assert_array_equal(g_on, g_off)
        assert energy_saw_grad

    def test_unblocked_dsm_reaches_generator(self):
        rng = np.random.default_rng(12)
        cfg = replace(TINY, latent_kl=False, output_kl=False, dsm_block=False)
        params = randomized_params(cfg, 12)
        batch = random_batch(cfg, rng)
        eps = [
            np.random.default_rng(99).standard_normal((5, cfg.latent, ln))
            for ln in reversed(params.config.level_lengths())
        ]
        grads = {}
        for blocked in (True, False):
            c = replace(cfg, dsm_block=blocked)
            with Tape() as tape:
                loss_t, _ = total_loss(batch, params, c.schedule(), c, eps=eps)
            grads[blocked] = backward(tape, loss_t, params.parameters())
        w = params.tensors["out.proj.w"]
        assert np.any(grads[True][w] != grads[False][w])

    def test_every_latent_group_receives_gradient(self):
        rng = np.random.default_rng(13)
        cfg = replace(TINY, denoiser=False)
        params = randomized_params(cfg, 13)
        batch = random_batch(cfg, rng)
        with Tape() as tape:
            loss_t, _ = total_loss(
                batch, params, cfg.schedule(), cfg, eps=latent_noise(rng, cfg, len(batch.y))
            )
        gmap = backward(tape, loss_t, params.parameters())
        for i in (1, 2, 3):
            g = gmap[params.tensors[f"post{i}.mu.w"]]
            assert g is not None and np.any(g != 0.0)


# ---------------------------------------------------------------------------
# Batch construction
# ---------------------------------------------------------------------------


class TestMakeBatch:
    def test_toggles_skip_noise(self):
        cfg = replace(TINY, diffuse_x=False, diffuse_y=False)
        rng = np.random.default_rng(0)
        x = np.ones((3, FEATURE_DIM, cfg.t_in))
        y = np.ones((3, cfg.t_out))
        batch = make_batch(x, y, cfg.schedule(), 5, rng, cfg)
        np.testing.assert_array_equal(batch.x_n, x)
        np.testing.assert_array_equal(batch.y_n, y)
        assert batch.n == 5

    def test_diffusion_noise_independent(self):
        cfg = TINY
        rng = np.random.default_rng(0)
        x = np.ones((4, FEATURE_DIM, cfg.t_in))
        y = np.ones((4, cfg.t_out))
        batch = make_batch(x, y, cfg.schedule(), cfg.n_steps, rng, cfg)
        assert not np.allclose(batch.x_n, x)
        assert not np.allclose(batch.y_n, y)
        np.testing.assert_array_equal(batch.y, y)  # clean targets preserved

    def test_shape_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ContractError):
            make_batch(
                np.ones((2, FEATURE_DIM + 1, 8)), np.ones((2, 4)),
                TINY.schedule(), 1, rng, TINY,
            )
        with pytest.raises(ContractError):
            make_batch(
                np.ones((2, FEATURE_DIM, 8)), np.ones((3, 4)),
                TINY.schedule(), 1, rng, TINY,
            )


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


class TestTrainConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            {"zeta": -0.1},
            {"eta": -1.0},
            {"batch_size": 0},
            {"epochs": 0},
            {"lr": 0.0},
            {"s_out": 0.0},
            {"seed": -1},
            {"t_in": 3},  # too short for three resolution levels
            {"n_steps": 0},
        ],
    )
    def test_rejects(self, kw):
        with pytest.raises(ConfigError):
            replace(TINY, **kw).validate()

    def test_hash_stable_and_sensitive(self):
        assert TINY.hash() == TINY.hash()
        assert TINY.hash() != replace(TINY, zeta=0.75).hash()

    def test_in_channels(self):
        assert TINY.model_config().in_channels == FEATURE_DIM

    def test_default_model_hash_is_pinned(self):
        # checkpoints store this hash; a change would orphan every saved model
        assert TrainConfig().model_config().hash() == "f59cfe1d5c7e1443"

    def test_default_hash_is_pinned(self):
        # metrics.json records this hash
        assert TrainConfig().hash() == "ec16ea05ebe5d748"


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


class TestTrainStock:
    def test_bitwise_deterministic(self):
        split = tiny_split()
        p1, h1 = train_stock(split, TINY)
        p2, h2 = train_stock(split, TINY)
        assert h1 == h2
        for name, t in p1.tensors.items():
            np.testing.assert_array_equal(t.data, p2.tensors[name].data)
        for name, s in p1.bn_states.items():
            np.testing.assert_array_equal(s.mean, p2.bn_states[name].mean)
            np.testing.assert_array_equal(s.var, p2.bn_states[name].var)

    def test_seed_changes_outcome(self):
        split = tiny_split()
        _, h1 = train_stock(split, TINY)
        _, h2 = train_stock(split, replace(TINY, seed=1))
        assert h1 != h2

    def test_best_epoch_is_first_argmin(self):
        split = tiny_split()
        _, hist = train_stock(split, replace(TINY, epochs=4))
        vals = [e.val_mse for e in hist.epochs]
        assert hist.best_epoch == int(np.argmin(vals))
        assert hist.best_val_mse() == min(vals)

    def test_step_count_matches_work(self):
        split = tiny_split()
        cfg = replace(TINY, epochs=3)
        _, hist = train_stock(split, cfg)
        expected = math.ceil(len(split.train) / cfg.batch_size) * cfg.epochs
        assert hist.steps == expected
        assert len(hist.epochs) == cfg.epochs

    def test_best_checkpoint_frozen_at_best_epoch(self):
        split = tiny_split()
        params, hist = train_stock(split, replace(TINY, epochs=3))
        assert evaluate_mse(params, split.validation.x, split.validation.y, TINY) == pytest.approx(
            hist.best_val_mse()
        )

    def test_empty_split_rejected(self):
        split = tiny_split()
        empty = replace(split, train=())
        with pytest.raises(ConfigError):
            train_stock(empty, TINY)

    def test_abort_carries_location(self, monkeypatch):
        split = tiny_split()
        import dva.training as tr

        real = tr.total_loss
        calls = {"k": 0}

        def exploding(batch, params, schedule, cfg, **kw):
            calls["k"] += 1
            if calls["k"] == 3:
                raise TrainingAbort("non-finite loss", epoch=-1, batch=-1, component="kl")
            return real(batch, params, schedule, cfg, **kw)

        monkeypatch.setattr(tr, "total_loss", exploding)
        with pytest.raises(TrainingAbort) as err:
            train_stock(split, TINY)
        assert err.value.epoch == 0 and err.value.batch == 2
        assert err.value.component == "kl"


class TestTrainRuns:
    def test_each_run_matches_training_alone(self):
        split = tiny_split()
        # a large step makes the validation curves cross, so best epochs differ
        cfgs = [replace(TINY, seed=s, epochs=4, lr=5e-3) for s in (0, 1, 2)]
        together = train_runs(split, cfgs)
        for cfg, (params, hist) in zip(cfgs, together):
            alone, alone_hist = train_stock(split, cfg)
            assert hist == alone_hist
            for name, t in alone.tensors.items():
                np.testing.assert_array_equal(params.tensors[name].data, t.data)
            for name, st in alone.bn_states.items():
                np.testing.assert_array_equal(params.bn_states[name].mean, st.mean)
                np.testing.assert_array_equal(params.bn_states[name].var, st.var)
        assert len({h.best_epoch for _, h in together}) > 1  # selection is per run

    def test_output_bias_starts_at_the_target_mean_in_the_flat_vector(self, monkeypatch):
        # Adam updates the stack's flat vector, so the start value must be
        # written there, not into an array a rebind detaches from it
        import dva.training as tr

        split = tiny_split()
        first = []

        class Recording(tr.Adam):
            def step(self, grads):
                if self.step_count == 0:
                    offset = 0
                    for p in self.params:
                        size = p.data[0].size  # one model's share of a row
                        if p.name == "out.proj.b":
                            first.append(self.flat[:, offset : offset + size].copy())
                        offset += size
                super().step(grads)

        monkeypatch.setattr(tr, "Adam", Recording)
        train_runs(split, [replace(TINY, seed=s, epochs=1) for s in (0, 1)])
        mean = split.train.y.mean(axis=0)
        np.testing.assert_array_equal(first[0], np.stack([mean, mean]))

    def test_configs_may_differ_only_in_seed(self):
        split = tiny_split()
        with pytest.raises(ConfigError, match="seed"):
            train_runs(split, [TINY, replace(TINY, seed=1, lr=1e-3)])
        with pytest.raises(ConfigError):
            train_runs(split, [])

    def test_abort_names_the_failing_run(self, monkeypatch):
        import dva.training as tr

        real = tr.make_batch

        def poison_seed_1(x, y, schedule, n, rng, cfg):
            batch = real(x, y, schedule, n, rng, cfg)
            if cfg.seed == 1:
                batch.x_n[0, 0, 0] = np.nan
            return batch

        monkeypatch.setattr(tr, "make_batch", poison_seed_1)
        with pytest.raises(TrainingAbort) as err:
            train_runs(tiny_split(), [replace(TINY, seed=s) for s in (0, 1, 2)])
        assert err.value.run == 1 and err.value.epoch == 0 and err.value.batch == 0


class TestRefreshNormStats:
    def test_refresh_moves_buffers_not_weights(self):
        split = tiny_split()
        cfg = TINY
        params = ModelParams.init(cfg.model_config(), 0)
        before_w = {k: t.data.copy() for k, t in params.tensors.items()}
        before_bn = {k: s.mean.copy() for k, s in params.bn_states.items()}
        refresh_norm_stats(params, split.train.x, cfg)
        for k, t in params.tensors.items():
            np.testing.assert_array_equal(t.data, before_w[k])
        moved = any(
            not np.array_equal(s.mean, before_bn[k])
            for k, s in params.bn_states.items()
        )
        assert moved


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------


class TestPredict:
    def trained(self):
        split = tiny_split()
        params, _ = train_stock(split, TINY)
        return params, split.test.x

    def test_output_shape_and_repeatability(self):
        params, x = self.trained()
        y1 = predict(params, x, TINY)
        y2 = predict(params, x, TINY)
        assert y1.shape == (len(x), TINY.t_out)
        np.testing.assert_array_equal(y1, y2)

    def test_one_window_matches_its_row_of_a_batch(self):
        # a window's forecast does not depend on the batch it is predicted
        # in, up to the rounding of GEMMs of another width
        cfg = TrainConfig()
        params = randomized_params(cfg, 3)
        rng = np.random.default_rng(4)
        x = 1.0 + 0.05 * rng.standard_normal((236, FEATURE_DIM, cfg.t_in))
        refresh_norm_stats(params, x, cfg)
        batched = predict(params, x, cfg)
        for i in (0, 1, 117, 235):
            alone = predict(params, x[i : i + 1], cfg)[0]
            assert np.max(np.abs(alone - batched[i])) <= 1e-10 * np.max(np.abs(batched[i]))

    def test_denoiser_off_is_raw_generator_mean(self):
        params, x = self.trained()
        cfg = replace(TINY, denoiser=False)
        stack = encode(params, Tensor(x), training=False)
        raw = generate(params, stack, training=False).y_hat.data
        np.testing.assert_array_equal(predict(params, x, cfg), raw)

    def test_denoiser_on_applies_jump(self):
        params, x = self.trained()
        on = predict(params, x, TINY)
        off = predict(params, x, replace(TINY, denoiser=False))
        assert np.any(on != off)

    def test_config_hash_mismatch(self):
        params, x = self.trained()
        other = replace(TINY, channels=8)
        with pytest.raises(ContractError, match="hash"):
            predict(params, x, other)

    def test_input_shape_check(self):
        params, _ = self.trained()
        with pytest.raises(ContractError):
            predict(params, np.ones((2, FEATURE_DIM + 1, TINY.t_in)), TINY)

    def test_evaluate_mse_empty(self):
        params, _ = self.trained()
        x, y = np.empty((0, FEATURE_DIM, TINY.t_in)), np.empty((0, TINY.t_out))
        with pytest.raises(ConfigError):
            evaluate_mse(params, x, y, TINY)


# ---------------------------------------------------------------------------
# Experiment driver
# ---------------------------------------------------------------------------


def write_universe(data_dir, tickers, length=80):
    data_dir.mkdir(parents=True, exist_ok=True)
    for k, ticker in enumerate(tickers):
        spec = SynthSpec(
            process="sinusoid",
            length=length,
            amplitude=0.05,
            period=12.0,
            phase=0.7 * k,
            start_price=1.0,
        )
        prices, _ = synth_generate(spec, seed=50 + k)
        write_ohlcv(data_dir / f"{ticker}.csv", prices)


class TestRunExperiment:
    CFG = replace(TINY, epochs=1)

    def test_artifacts_and_metrics(self, tmp_path):
        data = tmp_path / "data"
        out = tmp_path / "out"
        write_universe(data, ["AAA", "BBB"])
        metrics = run_experiment(["AAA", "BBB"], data, self.CFG, out, runs=2)

        # the caller writes metrics.json, once, with its run config added
        assert sorted(p.name for p in out.iterdir()) == ["checkpoints", "predictions"]
        for ticker in ("AAA", "BBB"):
            for run in (0, 1):
                assert (out / "checkpoints" / f"{ticker}_run{run}.npz").exists()
                y_hat, y_true, _, _ = load_predictions(
                    out / "predictions" / f"{ticker}_run{run}.csv"
                )
                assert y_hat.size == y_true.size > 0
        assert metrics["schema_version"] == 1
        assert metrics["partial"] is False and metrics["failures"] == []
        assert set(metrics["per_stock"]) == {"AAA", "BBB"}
        details = metrics["per_stock"]["AAA"]["run_details"]
        assert [d["run"] for d in details] == [0, 1]
        assert [d["seed"] for d in details] == [self.CFG.seed, self.CFG.seed + 1]
        # the persisted prediction files reproduce the reported MSEs exactly
        for ticker in ("AAA", "BBB"):
            for run, detail in enumerate(metrics["per_stock"][ticker]["run_details"]):
                y_hat, y_true, _, _ = load_predictions(
                    out / "predictions" / f"{ticker}_run{run}.csv"
                )
                assert detail["test_mse"] == pytest.approx(
                    float(np.mean((y_hat - y_true) ** 2)), abs=1e-15
                )

    def test_checkpoints_reload_and_reproduce(self, tmp_path):
        data = tmp_path / "data"
        out = tmp_path / "out"
        write_universe(data, ["AAA"])
        run_experiment(["AAA"], data, self.CFG, out, runs=1)
        params = load_params(out / "checkpoints" / "AAA_run0.npz")
        from dva.data import load_ohlcv

        split = build_dataset(load_ohlcv(data, "AAA"), self.CFG.t_in, self.CFG.t_out)
        y_hat, _, _, _ = load_predictions(out / "predictions" / "AAA_run0.csv")
        np.testing.assert_array_equal(
            predict(params, split.test.x, self.CFG).ravel(), y_hat
        )

    def test_byte_identical_reruns(self, tmp_path):
        data = tmp_path / "data"
        write_universe(data, ["AAA"])
        outs, texts = [], []
        for name in ("out1", "out2"):
            out = tmp_path / name
            metrics = run_experiment(["AAA"], data, self.CFG, out, runs=2)
            outs.append(out)
            texts.append(json.dumps(metrics, sort_keys=True))
        assert texts[0] == texts[1]
        for rel in (
            "predictions/AAA_run0.csv",
            "predictions/AAA_run1.csv",
        ):
            assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()

    def test_parallel_matches_serial(self, tmp_path):
        data = tmp_path / "data"
        write_universe(data, ["AAA", "BBB"])
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        m1 = run_experiment(["AAA", "BBB"], data, self.CFG, serial, runs=2, jobs=1)
        m2 = run_experiment(["AAA", "BBB"], data, self.CFG, parallel, runs=2, jobs=2)
        assert json.dumps(m1, sort_keys=True) == json.dumps(m2, sort_keys=True)
        for ticker in ("AAA", "BBB"):
            for run in (0, 1):
                name = f"{ticker}_run{run}"
                assert (serial / "predictions" / f"{name}.csv").read_bytes() == (
                    parallel / "predictions" / f"{name}.csv"
                ).read_bytes()
                with np.load(serial / "checkpoints" / f"{name}.npz") as a, np.load(
                    parallel / "checkpoints" / f"{name}.npz"
                ) as b:
                    assert a.files == b.files
                    for key in a.files:
                        assert a[key].tobytes() == b[key].tobytes(), key

    def test_nonfinite_run_fails_alone(self, tmp_path, monkeypatch):
        # a non-finite loss in run 1 fails (AAA, 1) only; runs 0 and 2 are
        # retrained without it and their artifacts equal a clean run's
        import dva.training as tr

        data = tmp_path / "data"
        write_universe(data, ["AAA"])
        clean = tmp_path / "clean"
        clean_details = run_experiment(["AAA"], data, self.CFG, clean, runs=3)[
            "per_stock"
        ]["AAA"]

        real = tr.make_batch

        def poison_run_1(x, y, schedule, n, rng, cfg):
            batch = real(x, y, schedule, n, rng, cfg)
            if cfg.seed == self.CFG.seed + 1:
                batch.y_n[0, 0] = np.inf
            return batch

        monkeypatch.setattr(tr, "make_batch", poison_run_1)
        out = tmp_path / "out"
        metrics = run_experiment(["AAA"], data, self.CFG, out, runs=3)
        assert metrics["partial"] is True
        assert [(f["stock"], f["run"]) for f in metrics["failures"]] == [("AAA", 1)]
        assert "non-finite loss" in metrics["failures"][0]["error"]
        details = metrics["per_stock"]["AAA"]["run_details"]
        assert [d["run"] for d in details] == [0, 2]
        assert details == [clean_details["run_details"][r] for r in (0, 2)]
        assert not (out / "predictions" / "AAA_run1.csv").exists()
        assert not (out / "checkpoints" / "AAA_run1.npz").exists()
        for run in (0, 2):
            rel = f"predictions/AAA_run{run}.csv"
            assert (out / rel).read_bytes() == (clean / rel).read_bytes()
            with np.load(out / "checkpoints" / f"AAA_run{run}.npz") as a, np.load(
                clean / "checkpoints" / f"AAA_run{run}.npz"
            ) as b:
                for key in a.files:
                    assert a[key].tobytes() == b[key].tobytes(), key

    def test_single_run_warns_about_sd(self, tmp_path):
        data = tmp_path / "data"
        write_universe(data, ["AAA"])
        metrics = run_experiment(["AAA"], data, self.CFG, tmp_path / "out", runs=1)
        assert any("single run" in w for w in metrics["warnings"])
        assert metrics["per_stock"]["AAA"]["mse_sd_over_runs"] == 0.0

    def test_partial_failure_recorded(self, tmp_path):
        data = tmp_path / "data"
        write_universe(data, ["GOOD"])
        write_universe(data / "..", [])  # no-op; keep directory layout simple
        # a ticker with too little history fails inside its own job
        spec = SynthSpec(process="sinusoid", length=15, start_price=1.0)
        prices, _ = synth_generate(spec, seed=0)
        write_ohlcv(data / "SHORT.csv", prices)
        metrics = run_experiment(
            ["GOOD", "SHORT"], data, self.CFG, tmp_path / "out", runs=1
        )
        assert metrics["partial"] is True
        assert [f["stock"] for f in metrics["failures"]] == ["SHORT"]
        assert set(metrics["per_stock"]) == {"GOOD"}
        assert metrics["aggregate"] is not None

    def test_bad_args_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            run_experiment([], tmp_path, self.CFG, tmp_path / "o", runs=1)
        with pytest.raises(ConfigError):
            run_experiment(["A", "A"], tmp_path, self.CFG, tmp_path / "o", runs=1)
        with pytest.raises(ConfigError):
            run_experiment(["A"], tmp_path, self.CFG, tmp_path / "o", runs=0)
