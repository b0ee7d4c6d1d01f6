"""Acceptance gate: the eleven headline guarantees of the package.

Each test checks one end-to-end promise at its stated tolerance and prints a
single ``ACCEPTANCE #k (...): PASS/FAIL`` line (visible with ``pytest -v -s``
or on failure). These deliberately re-verify behaviour the unit suites cover
piecewise: the point is that every guarantee holds in one place, at full
stated scale, against independently computed oracles.
"""

from __future__ import annotations

import datetime as dt
import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dva.autodiff import Tensor
from dva.cli import main
from dva.data import FEATURE_DIM, R_INDEX, SynthSpec, build_dataset, synth_generate
from dva.diffusion import diffuse_input, diffuse_target, make_schedule
from dva.errors import DegenerateReturnsError
from dva.evaluation import aggregate
from dva.layers import (
    batch_norm,
    batch_norm_bwd,
    depthwise_conv1d,
    depthwise_conv1d_bwd,
    se_gate,
    se_gate_bwd,
    separable_conv1d,
    separable_conv1d_bwd,
)
from dva.losses import _ENERGY_TENSORS, dsm_loss, mse_loss, output_kl
from dva.model import (
    _CELL_TENSORS,
    _GROUP_TENSORS,
    _OUT_TENSORS,
    ModelParams,
    _cell,
    _decoder_start,
    _latent_group,
    _output_head,
)
from dva.portfolio import (
    PredictionFrame,
    backtest,
    graphical_lasso,
    mean_variance_weights,
    sharpe,
)
from dva.training import (
    TrainConfig,
    _latent_noise,
    _weighted_sum,
    evaluate_mse,
    loss_from_components,
    make_batch,
    predict,
    total_loss,
    train_runs,
    train_stock,
)
from gradcheck import check_params
from layer_ops import conv1d_op, downsample2_op, fresh_state, taped
from reference_graph import add, mean_, mul, square


def verdict(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE #{num} ({name}): {status} - {detail}")
    assert ok, f"acceptance #{num} ({name}) failed: {detail}"


def sin_universe(length, noise, seed, *, phase=0.0, amplitude=0.9, period=10.0):
    spec = SynthSpec(
        process="sinusoid",
        length=length,
        noise_scale=noise,
        amplitude=amplitude,
        period=period,
        phase=phase,
        start_price=1.0,
        volume_noise=0.0,
        intraday_scale=0.0,
    )
    prices, r_true = synth_generate(spec, seed)
    return build_dataset(prices, 10, 10), r_true


def truth_windows(pairs, r_true):
    """Noise-free targets aligned with each window's horizon."""
    return np.stack(
        [r_true[p.anchor_index + 1 : p.anchor_index + 1 + len(p.y)] for p in pairs]
    )


def dense_params(cfg: TrainConfig, seed: int) -> ModelParams:
    """Init, then overwrite every weight so zero-initialised branches are live."""
    params = ModelParams.init(cfg.model_config(), seed)
    rng = np.random.default_rng(seed + 1000)
    for t in params.tensors.values():
        t.data[...] = 0.3 * rng.standard_normal(t.data.shape)
    return params


# ---------------------------------------------------------------------------
# 1. Gradient oracle
# ---------------------------------------------------------------------------


def test_a01_gradient_oracle():
    """Every taped op of the program and the composed loss match central
    differences."""
    start = time.time()
    rng = np.random.default_rng(42)

    def t(shape, scale=1.0, loc=0.0):
        return Tensor(loc + scale * rng.standard_normal(shape))

    errors: dict[str, float] = {}

    def channel_major(x):
        """A (batch, c, t) draw laid out as the (c, batch, t) activations take it."""
        return Tensor(np.ascontiguousarray(np.swapaxes(x.data, -3, -2)))

    def case(name, builder, step=1e-5, channel_major_out=False):
        fn, tensors = builder()
        shape = fn().data.shape
        draw = np.random.default_rng(len(name)).standard_normal
        if channel_major_out:
            # drawn in (batch, c, t) order, as for the batch-major layout,
            # so that the case checks the same numbers in the new layout
            probe = np.swapaxes(draw(shape[:-3] + (shape[-2], shape[-3], shape[-1])), -3, -2)
        else:
            probe = draw(shape)

        def closure():
            return mean_(square(add(fn(), Tensor(probe))))

        errors[name] = check_params(closure, tensors, step=step)

    cx, ck, cb = channel_major(t((2, 3, 9))), t((4, 3, 1)), t((4,))
    case("conv1d", lambda: (lambda: conv1d_op(cx, ck, cb), [cx, ck, cb]), channel_major_out=True)

    def pair(name, fwd, bwd, inputs, *args):
        """A kernel pair of ``dva.layers`` as one tape entry."""

        def op():
            return taped(fwd, bwd, inputs, *args)

        case(name, lambda: (op, [x for x in inputs if x is not None]), channel_major_out=True)

    dk = t((3, 1, 3))
    pair("depthwise_conv1d", depthwise_conv1d, depthwise_conv1d_bwd, (cx, dk))
    pk = t((4, 3, 1))
    pair("separable_conv1d", separable_conv1d, separable_conv1d_bwd, (cx, dk, pk, cb), True)
    pair("separable_no_bias", separable_conv1d, separable_conv1d_bwd, (cx, dk, pk, None), True)
    d8 = t((2, 3, 8))
    case("downsample2", lambda: (lambda: downsample2_op(d8), [d8]))

    bx, bg, bb = channel_major(t((3, 4, 6))), t((4,), scale=0.2, loc=1.0), t((4,))
    # batch statistics only: the running buffers move on every call but are
    # never read, so the closure stays pure
    pair("batch_norm_train", batch_norm, batch_norm_bwd, (bx, bg, bb), fresh_state(4), True, True)
    # eight draws no case reads, kept so that the cases below keep their
    # numbers
    rng.standard_normal(4), rng.random(4)
    sx = channel_major(t((2, 3, 5)))
    sw1, sb1, sw2, sb2 = t((2, 3)), t((2,)), t((3, 2)), t((3,))
    pair("se_gate", se_gate, se_gate_bwd, (sx, sw1, sb1, sw2, sb2), True)

    # Composed loss on a small full model at a 10-day-in / 10-day-out scale
    # reduced to T = T' = 8: MSE + latent KL + output KL + unblocked score
    # penalty, differentiated through every parameter.
    cfg = replace(
        TrainConfig(
            t_in=8,
            t_out=8,
            n_steps=12,
            channels=4,
            latent=2,
            se_reduction=2,
            energy_hidden=6,
        ),
        dsm_block=False,
        latent_kl=True,
        output_kl=True,
        denoiser=True,
    )
    params = dense_params(cfg, 5)

    # the fused residual cell, its kernel pairs chained into one tape entry
    cell_params = dense_params(cfg, 6)
    cell_x = channel_major(t((3, cfg.channels, cfg.t_in)))
    cell_inputs = [cell_x] + [cell_params[k] for k in _CELL_TENSORS["enc1"]]
    case(
        "residual_cell_train",
        lambda: (lambda: _cell(cell_params, "enc1", cell_x, True), cell_inputs),
        channel_major_out=True,
    )

    # the decoder's start, a latent group, the output head, the losses, the
    # score-matching term and the weighted sum: one taped op each
    case("decoder_start", lambda: (lambda: _decoder_start(cell_params["h"], 3), [cell_params["h"]]))
    c, zc = cfg.channels, cfg.latent
    gs, genc = t((c, 3, 3)), t((c, 3, 3))
    noise = rng.standard_normal((zc, 3, 3))
    # one posterior log-variance channel sits below the clamp, so its
    # gradient is cut there while the other channel's passes
    cell_params["post2.lv.b"].data[...] = [-12.0, 0.0]
    group = [gs, genc] + [cell_params[k] for k in _GROUP_TENSORS[2]]
    kl_weight = Tensor(2.5)

    def group_op(reach):
        def op():
            s_next, kl = _latent_group(cell_params, 2, gs, genc, noise, 5)
            if reach == "state":
                return s_next
            if reach == "kl":
                return kl
            return add(mean_(square(s_next)), mul(kl_weight, kl))

        return op

    for reach in ("both", "state", "kl"):
        case(f"latent_group_{reach}", lambda: (group_op(reach), group))
    head_s = t((c, 3, cfg.t_in))
    head = [head_s] + [cell_params[k] for k in _OUT_TENSORS]
    case("output_head", lambda: (lambda: _output_head(cell_params, head_s), head))
    ly, target = t((3, cfg.t_out)), rng.standard_normal((3, cfg.t_out))
    case("mse", lambda: (lambda: mse_loss(ly, target), [ly]))
    sched = cfg.schedule()
    case("output_kl", lambda: (lambda: output_kl(ly, 0.8, target, sched, 5), [ly]))
    energy = [cell_params[k] for k in _ENERGY_TENSORS]
    for block in (True, False):
        # blocked, y_hat enters as data: its VJP is zero, not the numeric slope
        case(
            f"dsm_block_{block}",
            lambda: (lambda: dsm_loss(cell_params, ly, target, sched, 5, block), energy + [ly] * (not block)),
        )
    terms = [t((2,), loc=1.0) for _ in range(4)]

    def weighted():
        mse, kl1, kl2, dsm = terms
        total = loss_from_components(mse.data, kl1.data + kl2.data, dsm.data, 0.7, 1.3)
        return _weighted_sum(total, mse, [kl1, kl2], dsm, 0.7, 1.3)

    case("weighted_sum", lambda: (weighted, terms))

    worst_op = max(errors.values())
    data_rng = np.random.default_rng(3)
    x = 1.0 + 0.05 * data_rng.standard_normal((3, FEATURE_DIM, cfg.t_in))
    y = 1.0 + 0.05 * data_rng.standard_normal((3, cfg.t_out))
    schedule = cfg.schedule()
    batch = make_batch(x, y, schedule, 5, data_rng, cfg)
    eps = [
        np.random.default_rng(99).standard_normal((3, cfg.latent, ln))
        for ln in reversed(params.config.level_lengths())
    ]

    def loss():
        return total_loss(batch, params, schedule, cfg, eps=eps)[0]

    composed = check_params(loss, params.parameters(), step=1e-4)
    elapsed = time.time() - start
    ok = worst_op < 1e-4 and composed < 1e-4 and elapsed < 60.0
    verdict(
        1,
        "gradient oracle",
        ok,
        f"worst primitive rel err {worst_op:.3e}, composed loss rel err "
        f"{composed:.3e} over {sum(p.data.size for p in params.parameters())} "
        f"parameters, {elapsed:.1f}s (budget 60s)",
    )


# ---------------------------------------------------------------------------
# 2. Diffusion marginals
# ---------------------------------------------------------------------------


def test_a02_diffusion_marginals():
    """Corrupted samples match the closed-form mean/variance at three steps."""
    n_samples = 100_000
    x0 = 1.7
    schedules = [
        make_schedule(),
        make_schedule(50, 1e-3, 0.2, 0.25),
        make_schedule(200, 1e-4, 0.05, 1.0),
    ]
    rng = np.random.default_rng(2024)
    worst_z = 0.0
    worst_var = 0.0
    for sched in schedules:
        for n in (1, sched.n_steps // 2, sched.n_steps):
            for chain, diffuse, abar in (
                ("input", diffuse_input, sched.alpha_bar_at(n)),
                ("target", diffuse_target, sched.target_alpha_bar_at(n)),
            ):
                eps = rng.standard_normal(n_samples)
                out = diffuse(np.full(n_samples, x0), sched, n, eps)
                mean_exp = np.sqrt(abar) * x0
                var_exp = 1.0 - abar
                se = np.sqrt(var_exp / n_samples)
                z = abs(float(out.mean()) - mean_exp) / se
                var_rel = abs(float(out.var(ddof=1)) - var_exp) / var_exp
                worst_z = max(worst_z, z)
                worst_var = max(worst_var, var_rel)
                assert z < 3.0, f"{chain} mean at n={n}: {z:.2f} SE"
                assert var_rel < 0.02, f"{chain} var at n={n}: {var_rel:.4f}"

    unit = schedules[2]
    bitwise = np.array_equal(unit.alpha_bar_prime, unit.alpha_bar) and all(
        unit.target_alpha_bar_at(n) == unit.alpha_bar_at(n)
        for n in range(1, unit.n_steps + 1)
    )
    ok = worst_z < 3.0 and worst_var < 0.02 and bitwise
    verdict(
        2,
        "diffusion marginals",
        ok,
        f"worst mean deviation {worst_z:.2f} SE (limit 3), worst variance error "
        f"{100 * worst_var:.2f}% (limit 2%), unit coupling scale bitwise: {bitwise}",
    )


# ---------------------------------------------------------------------------
# 3. Loss identity
# ---------------------------------------------------------------------------


def test_a03_loss_identity():
    """total == (mse + zeta*kl) + eta*dsm exactly at f64; KL parts >= 0."""
    base = TrainConfig(
        t_in=8,
        t_out=4,
        n_steps=12,
        channels=4,
        latent=2,
        se_reduction=2,
        energy_hidden=6,
    )
    params = dense_params(base, 7)
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(100):
        cfg = replace(
            base,
            latent_kl=bool(rng.integers(2)),
            output_kl=bool(rng.integers(2)),
            denoiser=bool(rng.integers(2)),
            dsm_block=bool(rng.integers(2)),
            diffuse_x=bool(rng.integers(2)),
            diffuse_y=bool(rng.integers(2)),
            mse_against_clean=bool(rng.integers(2)),
            zeta=float(rng.uniform(0.05, 2.0)),
            eta=float(rng.uniform(0.05, 2.0)),
        )
        x = 1.0 + 0.05 * rng.standard_normal((5, FEATURE_DIM, cfg.t_in))
        y = 1.0 + 0.05 * rng.standard_normal((5, cfg.t_out))
        schedule = cfg.schedule()
        n = int(rng.integers(1, cfg.n_steps + 1))
        batch = make_batch(x, y, schedule, n, rng, cfg)
        eps = _latent_noise(rng, 5, cfg.latent, cfg.model_config().level_lengths())
        loss_t, ((mse, kl, dsm, kl_latent, kl_output),) = total_loss(
            batch, params, schedule, cfg, eps=eps
        )
        total = loss_from_components(mse, kl, dsm, cfg.zeta, cfg.eta)
        assert total == (mse + cfg.zeta * kl) + cfg.eta * dsm
        assert loss_t.data.item() == total
        assert kl_latent >= 0.0
        assert kl_output >= 0.0
        assert kl >= 0.0
        checked += 1
    verdict(
        3,
        "loss identity",
        checked == 100,
        f"{checked}/100 random batches: exact f64 composition and KL >= 0",
    )


# ---------------------------------------------------------------------------
# 4. Signal recovery
# ---------------------------------------------------------------------------


def test_a04_signal_recovery():
    """A noiseless 3-ticker sinusoid universe is learned well under budget."""
    start = time.time()
    cfg = TrainConfig(seed=11)
    details = []
    ok = True
    for k, phase in enumerate((0.0, 2.0, 4.0)):
        split, _ = sin_universe(800, 0.0, 101 + k, phase=phase)
        params, _ = train_stock(split, cfg)
        mse = evaluate_mse(params, split.test.x, split.test.y, cfg)
        target_var = float(split.test.y.var())
        pers = float(
            np.mean(
                [
                    np.mean((np.full(cfg.t_out, p.x[-1, R_INDEX]) - p.y) ** 2)
                    for p in split.test
                ]
            )
        )
        ok = ok and mse < 0.1 * target_var and mse < pers
        details.append(f"ticker{k}: mse {mse:.5f} vs 0.1*var {0.1 * target_var:.5f}, persistence {pers:.5f}")
    elapsed = time.time() - start
    ok = ok and elapsed < 300.0
    verdict(
        4,
        "signal recovery",
        ok,
        "; ".join(details) + f"; {elapsed:.0f}s (budget 300s)",
    )


# ---------------------------------------------------------------------------
# 5. Noise robustness
# ---------------------------------------------------------------------------


def test_a05_noise_robustness():
    """Coupled corruption stabilises test MSE across seeds vs the ablation."""
    majority = 0
    details = []
    for draw in range(3):
        split, _ = sin_universe(300, 0.02, 7000 + draw)
        sds = {}
        for name, diffused in (("full", True), ("ablation", False)):
            cfg = TrainConfig(epochs=8)
            if not diffused:
                cfg = replace(cfg, diffuse_x=False, diffuse_y=False)
            # the five seeds train together; each run equals train_stock at its seed
            mses = [
                evaluate_mse(params, split.test.x, split.test.y, cfg)
                for params, _ in train_runs(split, cfg, range(5))
            ]
            sds[name] = float(np.std(mses, ddof=1))
        win = sds["full"] <= sds["ablation"]
        majority += win
        details.append(
            f"draw{draw}: full SD {sds['full']:.5f} vs ablation SD {sds['ablation']:.5f}"
        )
    ok = majority >= 2
    verdict(
        5,
        "noise robustness",
        ok,
        f"full model lower/equal across-seed SD in {majority}/3 draws; " + "; ".join(details),
    )


# ---------------------------------------------------------------------------
# 6. Denoise jump
# ---------------------------------------------------------------------------


def test_a06_denoise_jump():
    """The one-step correction beats the raw prediction on noisy targets."""
    split, r_true = sin_universe(400, 0.02, 601)
    x_test = split.test.x
    y_true = truth_windows(split.test, r_true)
    wins = 0
    details = []
    cfg = TrainConfig(beta_max=0.01)
    # the five seeds train together; each run equals train_stock at its seed
    for seed, (params, _) in enumerate(train_runs(split, cfg, range(5))):
        raw = predict(params, x_test, replace(cfg, denoiser=False))
        final = predict(params, x_test, cfg)
        mse_raw = float(np.mean((raw - y_true) ** 2))
        mse_final = float(np.mean((final - y_true) ** 2))
        wins += mse_final < mse_raw
        details.append(f"seed{seed}: {mse_final:.5f} vs {mse_raw:.5f}")
    ok = wins >= 4
    verdict(
        6,
        "denoise jump",
        ok,
        f"final beats raw in {wins}/5 seeds (need >= 4); " + "; ".join(details),
    )


# ---------------------------------------------------------------------------
# 7. Mean-variance oracle
# ---------------------------------------------------------------------------


def _simplex_grid(s: int) -> np.ndarray:
    steps = np.arange(1001)
    if s == 2:
        w1 = steps / 1000.0
        return np.stack([w1, 1.0 - w1], axis=1)
    i, j = np.meshgrid(steps, steps, indexing="ij")
    mask = i + j <= 1000
    w1 = i[mask] / 1000.0
    w2 = j[mask] / 1000.0
    return np.stack([w1, w2, 1.0 - w1 - w2], axis=1)


def test_a07_mean_variance_oracle():
    """Simplex-QP weights (a primal active-set method over faces by exact
    KKT solves) match a 1e-3 simplex grid search."""
    w = mean_variance_weights(np.array([0.1, 0.2]), np.eye(2), 1.0)
    hand_interior = float(np.max(np.abs(w.w - np.array([0.45, 0.55]))))
    w = mean_variance_weights(np.array([-1.0, 0.5]), np.eye(2), 1.0)
    hand_boundary = float(np.max(np.abs(w.w - np.array([0.0, 1.0]))))

    grids = {2: _simplex_grid(2), 3: _simplex_grid(3)}
    rng = np.random.default_rng(7)
    worst = 0.0
    for k in range(50):
        s = 2 + k % 2
        mu = 0.3 * rng.normal(size=s)
        root = rng.normal(size=(s, s))
        sigma = root @ root.T / s + 0.05 * np.eye(s)
        gamma = float(rng.uniform(0.5, 5.0))
        w = mean_variance_weights(mu, sigma, gamma)
        cand = grids[s]
        obj = cand @ mu - 0.5 * gamma * np.einsum("ij,jk,ik->i", cand, sigma, cand)
        best = cand[int(np.argmax(obj))]
        worst = max(worst, float(np.max(np.abs(w.w - best))))
    ok = worst <= 2e-3 and hand_interior <= 1e-6 and hand_boundary <= 1e-6
    verdict(
        7,
        "mean-variance oracle",
        ok,
        f"50 instances worst |w - grid| {worst:.2e} (limit 2e-3); hand examples "
        f"{hand_interior:.1e} / {hand_boundary:.1e} (limit 1e-6)",
    )


# ---------------------------------------------------------------------------
# 8. Sparse-precision stationarity
# ---------------------------------------------------------------------------


def _kkt_residual(sigma: np.ndarray, theta: np.ndarray, lam: float) -> float:
    s = (sigma + sigma.T) / 2.0 + 1e-8 * np.eye(sigma.shape[0])
    w = np.linalg.inv(theta)
    gap = w - s
    off = ~np.eye(sigma.shape[0], dtype=bool)
    active = off & (theta != 0.0)
    inactive = off & (theta == 0.0)
    resid = float(np.max(np.abs(np.diag(gap))))
    if np.any(active):
        resid = max(resid, float(np.max(np.abs(gap[active] - lam * np.sign(theta[active])))))
    if np.any(inactive):
        resid = max(resid, float(np.max(np.abs(gap[inactive]) - lam)))
    return resid


def test_a08_sparse_precision_stationarity():
    """Coordinate-descent precision estimates satisfy the optimality system."""
    rng = np.random.default_rng(8)
    worst_kkt = 0.0
    for _ in range(20):
        draws = 0.1 * rng.normal(size=(10, 10))  # 10 samples x 10 stocks
        centered = draws - draws.mean(axis=0)
        sigma = centered.T @ centered / 9.0
        theta = graphical_lasso(sigma, 0.1).theta
        worst_kkt = max(worst_kkt, _kkt_residual(sigma, theta, 0.1))

    draws = rng.normal(size=(60, 6))
    centered = draws - draws.mean(axis=0)
    sigma = centered.T @ centered / 59.0
    theta0 = graphical_lasso(sigma, 0.0).theta
    target = np.linalg.inv((sigma + sigma.T) / 2.0 + 1e-8 * np.eye(6))
    inv_gap = float(np.max(np.abs(theta0 - target)))

    eye_gap = float(np.max(np.abs(graphical_lasso(np.eye(4), 0.1).theta - np.eye(4))))

    # the jittered instances above all come out diagonal, so this one is
    # penalised lightly enough to keep off-diagonal entries active
    draws = rng.normal(size=(60, 6))
    centered = draws - draws.mean(axis=0)
    sigma = centered.T @ centered / 59.0
    theta = graphical_lasso(sigma, 0.05).theta
    n_active = int(np.count_nonzero(theta[~np.eye(6, dtype=bool)]))
    active_kkt = _kkt_residual(sigma, theta, 0.05)

    ok = (
        worst_kkt < 1e-6
        and n_active > 0
        and active_kkt < 1e-6
        and inv_gap < 1e-6
        and eye_gap < 1e-6
    )
    verdict(
        8,
        "sparse precision stationarity",
        ok,
        f"20 jittered 10-stock instances worst KKT residual {worst_kkt:.2e} "
        f"(limit 1e-6); 6-stock instance with {n_active} active off-diagonals "
        f"KKT residual {active_kkt:.2e}; unpenalised inverse gap {inv_gap:.2e}; "
        f"identity gap {eye_gap:.2e}",
    )


# ---------------------------------------------------------------------------
# 9. Sharpe arithmetic
# ---------------------------------------------------------------------------


def test_a09_sharpe_arithmetic():
    """Hand Sharpe value, degenerate-returns error, identical-stock equality."""
    value = sharpe(np.array([0.02, 0.00]))
    hand_ok = abs(value - 0.70711) <= 1e-5

    with pytest.raises(DegenerateReturnsError):
        sharpe(np.full(4, 0.01))

    rng = np.random.default_rng(9)
    y_true = 1.0 + 0.02 * rng.normal(size=(6, 3))
    y_hat = y_true + 0.005 * rng.normal(size=(6, 3))
    dates = tuple(dt.date(2024, 1, 1) + dt.timedelta(days=i) for i in range(6))
    frames = [
        PredictionFrame(stock="AAA", run=0, anchors=dates, y_hat=y_hat, y_true=y_true),
        PredictionFrame(stock="BBB", run=0, anchors=dates, y_hat=y_hat, y_true=y_true),
    ]
    report = backtest(frames, gamma_risk=2.0, lam=None)
    periods = report.runs[0].periods
    equal_ok = bool(periods) and all(
        p.sharpe == p.equal_weight_sharpe and p.weights == {"AAA": 0.5, "BBB": 0.5}
        for p in periods
    )
    ok = hand_ok and equal_ok
    verdict(
        9,
        "sharpe arithmetic",
        ok,
        f"sharpe(0.02, 0.00) = {value:.6f} (want 0.70711 +/- 1e-5); degenerate "
        f"returns raise; identical stocks equal the uniform baseline exactly on "
        f"{len(periods)} periods",
    )


# ---------------------------------------------------------------------------
# 10. Pipeline determinism
# ---------------------------------------------------------------------------


def _snapshot(out: Path) -> dict[str, bytes]:
    """Bytes of every comparable artifact (timestamps live only in the
    run_info.json sidecar, which is excluded by design)."""
    return {
        p.relative_to(out).as_posix(): p.read_bytes()
        for pattern in ("*.json", "*.csv", "predictions/*.csv", "predictions_val/*.csv")
        for p in out.glob(pattern)
        if p.name != "run_info.json"
    }


def test_a10_pipeline_determinism(tmp_path):
    """Rerunning every command with the same config is byte-identical."""
    data, out = tmp_path / "data", tmp_path / "out"
    base = {
        "process": "sinusoid",
        "length": 160,
        "noise_scale": 0.01,
        "amplitude": 0.05,
        "period": 8.0,
        "start_price": 1.0,
        "volume_noise": 0.0,
        "intraday_scale": 0.0,
    }
    spec = tmp_path / "synth.json"
    spec.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "seed": 11,
                "tickers": {"AAA": dict(base), "BBB": dict(base, phase=2.0)},
            },
            indent=2,
        )
        + "\n"
    )
    cfg = tmp_path / "run.json"
    cfg.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "data_dir": str(data),
                "tickers_file": str(data / "tickers.txt"),
                "out_dir": str(out),
                "runs": 2,
                "t_in": 8,
                "t_out": 4,
                "epochs": 1,
                "batch_size": 8,
                "channels": 4,
                "latent": 2,
                "se_reduction": 2,
                "energy_hidden": 6,
                "portfolio": {"lambda": 0.05, "gamma_grid": [0.5, 2.0]},
            },
            indent=2,
        )
        + "\n"
    )

    snapshots = []
    for force in ([], ["--force"]):
        assert main(["synth", "--spec", str(spec), "--out", str(data)] + force) == 0
        assert main(["train", "--config", str(cfg)] + force) == 0
        assert main(["predict", "--config", str(cfg), "--force"]) == 0
        assert main(["evaluate", "--config", str(cfg)] + force) == 0
        assert main(["portfolio", "--config", str(cfg)] + force) == 0
        snapshots.append(_snapshot(out))

    first, second = snapshots
    assert sorted(first) == sorted(second)
    diffs = [rel for rel in sorted(first) if first[rel] != second[rel]]
    assert not diffs, f"artifacts differ between reruns: {diffs}"
    names = sorted(first)
    ok = (
        "metrics.json" in names
        and any(n.startswith("predictions/") for n in names)
        and any(n.startswith("predictions_val/") for n in names)
        and len(names) >= 6
    )
    verdict(
        10,
        "pipeline determinism",
        ok,
        f"{len(names)} artifacts byte-identical across full reruns "
        f"(incl. metrics.json and every prediction file)",
    )


# ---------------------------------------------------------------------------
# 11. Aggregation convention
# ---------------------------------------------------------------------------


def test_a11_aggregation_convention():
    """2 stocks x 3 runs aggregate to hand-computed mean and sample SD."""
    results = [
        ("AAA", 0, 0.5),
        ("AAA", 1, 1.0),
        ("AAA", 2, 1.5),
        ("BBB", 0, 2.0),
        ("BBB", 1, 2.0),
        ("BBB", 2, 2.0),
    ]
    report = aggregate(results)
    # By hand: AAA mean 1.0, SD sqrt(((0.5)^2 + 0 + (0.5)^2) / 2) = 0.5 with
    # the n-1 divisor; BBB mean 2.0, SD 0.0; cross-stock means 1.5 and 0.25.
    per_stock, across = report["per_stock"], report["aggregate"]
    aaa, bbb = per_stock.get("AAA", {}), per_stock.get("BBB", {})
    exact = (
        list(per_stock) == ["AAA", "BBB"]
        and aaa["mse_mean"] == 1.0
        and aaa["mse_sd_over_runs"] == 0.5
        and bbb["mse_mean"] == 2.0
        and bbb["mse_sd_over_runs"] == 0.0
        and across["mean_of_stock_means"] == 1.5
        and across["mean_of_stock_sds"] == 0.25
    )
    verdict(
        11,
        "aggregation convention",
        exact,
        f"per-stock (mean, sd): AAA ({aaa['mse_mean']}, {aaa['mse_sd_over_runs']}), BBB "
        f"({bbb['mse_mean']}, {bbb['mse_sd_over_runs']}); cross-stock "
        f"({across['mean_of_stock_means']}, {across['mean_of_stock_sds']}) == hand values exactly",
    )
