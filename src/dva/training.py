"""Composite training objective, per-stock training loop, and inference.

The R runs of one stock are trained together: their models are stacked
along a leading model axis (``ModelParams.stack``) and every step runs all
of them in one tape. The loss is the sum of the per-model losses, so each
model's gradient is its own, and each run keeps its own random generator,
so run r matches a model trained alone with the same seed. Every batch of
every run draws one diffusion step n,
corrupts inputs and targets through the coupled schedules with independent
noise, runs the hierarchical generator on the corrupted inputs, and takes an
Adam step on

    L = L_MSE + zeta * L_KL + eta * L_DSM

where L_KL sums the latent-group KLs and the output KL against the diffused
target distribution, and L_DSM trains the energy head on the (blocked)
prediction. Validation after each epoch is deterministic: clean inputs,
posterior means, and (when enabled) the one-step denoising jump; the
checkpoint kept is the epoch with the lowest validation MSE.

Loss terms travel as arrays: ``total_loss`` returns one row of ``TERMS``
per model, and a run's history is an (epochs, len(TERMS) + 1) array, the
epoch means of the terms followed by the validation MSE (column
``VAL_MSE``).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .autodiff import Tape, Tensor, backward, record
from .data import FEATURE_DIM, DatasetSplit, build_dataset, load_ohlcv, price_file
from .diffusion import (
    DiffusionSchedule,
    diffuse_input,
    diffuse_target,
    make_schedule,
    sample_step,
)
from .errors import ConfigError, ContractError, DvaError, TrainingAbort
from .evaluation import aggregate, prediction_path, write_predictions
from .losses import denoise_jump, dsm_loss, mse_loss, output_kl
from .model import (
    ModelConfig,
    ModelParams,
    checkpoint_path,
    config_hash,
    encode,
    generate,
    save_params,
)
from .optim import Adam

__all__ = [
    "TrainConfig",
    "TrainBatch",
    "TERMS",
    "VAL_MSE",
    "make_batch",
    "total_loss",
    "loss_from_components",
    "train_stock",
    "train_runs",
    "predict",
    "evaluate_mse",
    "refresh_norm_stats",
    "run_experiment",
]

@dataclass(frozen=True)
class TrainConfig:
    """Everything a single training run depends on."""

    t_in: int = 10
    t_out: int = 10
    # diffusion schedule
    n_steps: int = 100
    beta_min: float = 1e-4
    beta_max: float = 0.1
    gamma_scale: float = 0.5
    # loss weights
    zeta: float = 0.5
    eta: float = 1.0
    s_out: float = 1.0
    # optimisation
    lr: float = 5e-4
    batch_size: int = 16
    epochs: int = 20
    seed: int = 0
    # toggles
    latent_kl: bool = True
    output_kl: bool = True
    denoiser: bool = True
    diffuse_x: bool = True
    diffuse_y: bool = True
    mse_against_clean: bool = False
    dsm_block: bool = True
    # architecture
    channels: int = 16
    latent: int = 4
    kernel: int = 3
    se_reduction: int = 4
    energy_hidden: int = 32

    def validate(self) -> "TrainConfig":
        if self.zeta < 0 or self.eta < 0:
            raise ConfigError(
                f"loss weights must be >= 0, got zeta={self.zeta}, eta={self.eta}"
            )
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.lr <= 0:
            raise ConfigError(f"learning rate must be > 0, got {self.lr}")
        if self.s_out <= 0:
            raise ConfigError(f"s_out must be > 0, got {self.s_out}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        self.model_config()
        try:
            self.schedule()
        except ContractError as err:
            raise ConfigError(str(err)) from None
        return self

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            t_in=self.t_in,
            t_out=self.t_out,
            channels=self.channels,
            latent=self.latent,
            kernel=self.kernel,
            se_reduction=self.se_reduction,
            energy_hidden=self.energy_hidden,
        ).validate()

    def schedule(self) -> DiffusionSchedule:
        return make_schedule(
            n_steps=self.n_steps,
            beta_min=self.beta_min,
            beta_max=self.beta_max,
            gamma_scale=self.gamma_scale,
        )

    def hash(self) -> str:
        return config_hash(asdict(self))


# ---------------------------------------------------------------------------
# Batch construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainBatch:
    """One optimisation batch: model inputs plus both target views. A stack
    of batches (``TrainBatch.stack``) puts a model axis in front of every
    array and holds one diffusion step per model."""

    x_n: np.ndarray  # (..., batch, channels, t_in) inputs fed to the model
    y_n: np.ndarray  # (..., batch, t_out) regression target for the MSE term
    y: np.ndarray  # (..., batch, t_out) clean targets for the KL and DSM terms
    n: int | np.ndarray  # diffusion step shared across the batch, per model

    @classmethod
    def stack(cls, batches: Sequence["TrainBatch"]) -> "TrainBatch":
        return cls(
            x_n=np.stack([b.x_n for b in batches]),
            y_n=np.stack([b.y_n for b in batches]),
            y=np.stack([b.y for b in batches]),
            n=np.array([b.n for b in batches]),
        )


def make_batch(
    x: np.ndarray,
    y: np.ndarray,
    schedule: DiffusionSchedule,
    n: int,
    rng: np.random.Generator,
    cfg: TrainConfig,
) -> TrainBatch:
    """Corrupt one batch at step n; inputs and targets draw independent noise."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 3 or x.shape[1] != FEATURE_DIM:
        raise ContractError(f"expected x (batch, {FEATURE_DIM}, t), got {x.shape}")
    if y.ndim != 2 or y.shape[0] != x.shape[0]:
        raise ContractError(f"expected y (batch, t_out) matching x, got {y.shape}")
    x_n = diffuse_input(x, schedule, n, rng.standard_normal(x.shape)) if cfg.diffuse_x else x
    y_n = diffuse_target(y, schedule, n, rng.standard_normal(y.shape)) if cfg.diffuse_y else y
    return TrainBatch(x_n=x_n, y_n=y_n, y=y, n=n)


# ---------------------------------------------------------------------------
# Composite loss
# ---------------------------------------------------------------------------


# the per-model loss terms, as the columns of ``total_loss``'s array; kl is
# kl_latent + kl_output, as weighted into the loss
TERMS = ("mse", "kl", "dsm", "kl_latent", "kl_output")
# the column of a run's history after the epoch means of the terms
VAL_MSE = len(TERMS)


def loss_from_components(mse, kl, dsm, zeta: float, eta: float):
    """The total loss of one model, or of each model when given arrays; the
    training objective sums it over the models of a stack."""
    return (mse + zeta * kl) + eta * dsm


def _weighted_sum(
    total: np.ndarray, mse: Tensor, kls: list[Tensor], dsm: Tensor | None,
    zeta: float, eta: float,
) -> Tensor:
    """The scalar training loss, the per-model ``total`` (``loss_from_components``
    of the terms) summed over the models, as one taped op over the MSE, the
    KL terms and the DSM term."""
    inputs = (mse, *kls) + ((dsm,) if dsm is not None else ())
    weights = (1.0,) + (zeta,) * len(kls) + (eta,) * (dsm is not None)

    def back(g):
        return tuple(np.full(t.data.shape, w * g) for t, w in zip(inputs, weights))

    return record(Tensor(total.sum()), inputs, back)


def total_loss(
    batch: TrainBatch,
    params: ModelParams,
    schedule: DiffusionSchedule,
    cfg: TrainConfig,
    *,
    eps: list[np.ndarray],
) -> tuple[Tensor, np.ndarray]:
    """Composite objective on one batch, summed over the models of a stack,
    from a training-mode forward pass.

    Returns the scalar loss tensor and an (R, len(TERMS)) float array of
    each model's terms (R = 1 for an unstacked model); each model's
    ``loss_from_components`` of its mse, kl and dsm is its share of the
    loss, exactly at f64. Latents are reparameterized samples driven by
    ``eps``, one standard-normal array per latent group, coarsest first (see
    ``_latent_noise``).
    """
    stack = encode(params, Tensor(batch.x_n), training=True)
    out = generate(params, stack, eps=eps, training=True)

    m_t = mse_loss(out.y_hat, batch.y if cfg.mse_against_clean else batch.y_n)
    zeros = np.zeros(m_t.shape)

    kls: list[Tensor] = []
    kl_latent = kl_output = zeros
    if cfg.latent_kl:
        kls += out.kl_groups
        kl_latent = sum(kl.data for kl in out.kl_groups)
    # the output KL is measured against the diffused-target distribution at
    # step n, so it only exists while targets are actually diffused
    if cfg.output_kl and cfg.diffuse_y:
        o_t = output_kl(out.y_hat, cfg.s_out, batch.y, schedule, batch.n)
        kls.append(o_t)
        kl_output = o_t.data
    kl = kl_latent + kl_output

    d_t: Tensor | None = None
    dsm = zeros
    if cfg.denoiser:
        d_t = dsm_loss(
            params, out.y_hat, batch.y, schedule, batch.n, block_predictor=cfg.dsm_block
        )
        dsm = d_t.data

    total = loss_from_components(m_t.data, kl, dsm, cfg.zeta, cfg.eta)
    terms = np.stack([m_t.data, kl, dsm, kl_latent, kl_output], axis=-1)
    return _weighted_sum(total, m_t, kls, d_t, cfg.zeta, cfg.eta), terms.reshape(-1, len(TERMS))


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def refresh_norm_stats(params: ModelParams, x_train: np.ndarray, cfg: TrainConfig) -> None:
    """Re-estimate batch-norm running statistics from clean training inputs.

    Training batches carry diffusion noise, so the running buffers otherwise
    describe activations far noisier than anything inference ever sees;
    normalising clean inputs by those inflated variances systematically
    shrinks the forecast.  A sweep of training-mode forward passes over the
    undiffused inputs (no parameter updates) leaves the buffers matched to
    the distribution that validation and prediction actually use. Every
    model of a stack sees the same chunks of ``batch_size`` rows.
    """
    for i in range(0, len(x_train), cfg.batch_size):
        xb = x_train[i : i + cfg.batch_size]
        if len(xb) < 2:
            continue  # single-row batch statistics are meaningless
        generate(params, encode(params, Tensor(xb), training=True), training=True)


def _latent_noise(
    rng: np.random.Generator, batch: int, latent: int, lengths: tuple[int, int, int]
) -> list[np.ndarray]:
    """The reparameterization noise of one model's batch, coarsest group
    first, drawn from that model's own generator; ``lengths`` as
    ``ModelConfig.level_lengths`` gives them, finest first."""
    return [rng.standard_normal((batch, latent, ln)) for ln in reversed(lengths)]


def train_runs(
    split: DatasetSplit, cfg: TrainConfig, seeds: Sequence[int]
) -> list[tuple[ModelParams, np.ndarray]]:
    """Train one model per seed on one stock's split, all in one tape, under
    ``cfg`` (whose own seed is not read); return each run's best-epoch
    checkpoint and history, in seed order.

    A run's history is an (epochs, len(TERMS) + 1) array: the epoch means of
    the loss terms, then the validation MSE. Run r is deterministic for a
    fixed (split, cfg, seeds[r]) and does not depend on the other runs: a
    generator seeded from its own seed drives shuffling, the per-batch step
    draw, the diffusion noise, and the latent noise, in that order, and its
    checkpoint is taken at the first argmin of its own validation MSE. A
    non-finite loss term or validation MSE raises TrainingAbort whose
    ``run`` is the failing run's index.
    """
    cfg.validate()
    if not seeds or min(seeds) < 0:
        raise ConfigError(f"train_runs needs one or more seeds >= 0, got {list(seeds)}")
    if not split.train or not split.validation:
        raise ConfigError("training needs nonempty train and validation sets")
    schedule = cfg.schedule()
    x_train, y_train = split.train.x, split.train.y
    params = ModelParams.stack([ModelParams.init(cfg.model_config(), s) for s in seeds])
    lengths = params.config.level_lengths()
    # start the output head, in the flat vector Adam updates, at the per-step
    # mean of the training targets: gross returns sit near 1.0, further than
    # Adam can move a zero bias within the configured epoch budget
    params["out.proj.b"].data[...] = y_train.mean(axis=0)

    rngs = [np.random.default_rng([s, 1]) for s in seeds]
    opt = Adam(params.flat, params.parameters(), cfg.lr)
    n_batches = math.ceil(len(x_train) / cfg.batch_size)

    history = np.empty((len(seeds), cfg.epochs, len(TERMS) + 1))
    best_val = np.full(len(seeds), math.inf)
    best_params: list[ModelParams | None] = [None] * len(seeds)
    for epoch in range(cfg.epochs):
        orders = [rng.permutation(len(x_train)) for rng in rngs]
        sums = np.zeros((len(seeds), len(TERMS)))
        for b_idx in range(n_batches):
            batches = []
            noise = []
            for order, rng in zip(orders, rngs):
                idx = order[b_idx * cfg.batch_size : (b_idx + 1) * cfg.batch_size]
                n = sample_step(rng, schedule)
                batches.append(make_batch(x_train[idx], y_train[idx], schedule, n, rng, cfg))
                noise.append(_latent_noise(rng, len(idx), cfg.latent, lengths))
            eps = [np.stack(group) for group in zip(*noise)]
            with Tape() as tape:
                loss_t, terms = total_loss(
                    TrainBatch.stack(batches), params, schedule, cfg, eps=eps
                )
            # kl sums the two KLs, so mse, kl and dsm cover every term
            bad = np.argwhere(~np.isfinite(terms[:, :3]))
            if len(bad):
                r, c = bad[0]
                raise TrainingAbort(
                    "non-finite loss", epoch=epoch, batch=b_idx, component=TERMS[c], run=int(r)
                )
            opt.step(backward(tape, loss_t, params.parameters()))
            sums += terms
        refresh_norm_stats(params, x_train, cfg)
        val = evaluate_mse(params, split.validation.x, split.validation.y, cfg)
        bad = np.flatnonzero(~np.isfinite(val))
        if len(bad):
            raise TrainingAbort(
                "non-finite validation MSE", epoch=epoch, batch=-1,
                component="val_mse", run=int(bad[0]),
            )
        history[:, epoch, :VAL_MSE] = sums / n_batches
        history[:, epoch, VAL_MSE] = val
        for r in np.flatnonzero(val < best_val):
            best_val[r] = val[r]
            best_params[r] = params.run(r)
    return list(zip(best_params, history))


def train_stock(split: DatasetSplit, cfg: TrainConfig) -> tuple[ModelParams, np.ndarray]:
    """Train one model on one stock's split with ``cfg.seed``; the
    single-run case of ``train_runs``."""
    return train_runs(split, cfg, [cfg.seed])[0]


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------


def predict(params: ModelParams, x: np.ndarray, cfg: TrainConfig) -> np.ndarray:
    """Deterministic forecast: clean inputs, posterior means, and the one-step
    denoising jump when the denoiser toggle is on. x (batch, channels, t) is
    shared by every model of a stack, which returns (R, batch, t_out)."""
    expected = cfg.model_config().hash()
    if params.config.hash() != expected:
        raise ContractError(
            f"checkpoint config hash {params.config.hash()} does not match"
            f" the run config's model hash {expected}"
        )
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[1] != FEATURE_DIM:
        raise ContractError(f"expected x (batch, {FEATURE_DIM}, t), got {x.shape}")
    stack = encode(params, Tensor(x), training=False)
    out = generate(params, stack, training=False)
    y_hat = denoise_jump(params, out.y_hat) if cfg.denoiser else out.y_hat
    return y_hat.data.copy()


def evaluate_mse(params: ModelParams, x: np.ndarray, y: np.ndarray, cfg: TrainConfig):
    """Deterministic MSE of predict() on inputs x (N, 6, t_in) against the
    clean targets y (N, t_out): a float, or one per model of a stack."""
    if len(x) == 0:
        raise ConfigError("cannot evaluate on an empty window set")
    return np.mean((predict(params, x, cfg) - y) ** 2, axis=(-2, -1))


# ---------------------------------------------------------------------------
# Experiment driver: stocks x runs
# ---------------------------------------------------------------------------

METRICS_SCHEMA_VERSION = 1


def _experiment_job(args: tuple) -> list[dict]:
    """One stock's runs, trained together; writes only to paths private to
    the stock. A run whose loss turns non-finite fails alone: the others
    are retrained without it, which reproduces them exactly."""
    ticker, runs, data_dir, cfg, out_dir = args
    outcomes: dict[int, dict] = {}

    def failed(r: int, err: DvaError) -> dict:
        return {"stock": ticker, "run": r, "seed": cfg.seed + r, "ok": False,
                "error": str(err), "error_type": type(err).__name__}

    try:
        where = f"price file {price_file(data_dir, ticker)}"
        split = build_dataset(load_ohlcv(data_dir, ticker), cfg.t_in, cfg.t_out, where)
        live = list(range(runs))
        trained = []
        while live:
            try:
                trained = train_runs(split, cfg, [cfg.seed + r for r in live])
                break
            except TrainingAbort as err:
                r = live.pop(err.run)
                outcomes[r] = failed(r, err)
        x_test, y_test = split.test.x, split.test.y
        for r, (params, history) in zip(live, trained):
            save_params(params, checkpoint_path(Path(out_dir) / "checkpoints", ticker, r))
            y_hat = predict(params, x_test, cfg)
            pred = prediction_path(Path(out_dir) / "predictions", ticker, r)
            write_predictions(pred, split.test, y_hat)
            best = int(np.argmin(history[:, VAL_MSE]))  # the checkpoint's epoch
            outcomes[r] = {
                "stock": ticker,
                "run": r,
                "seed": cfg.seed + r,
                "ok": True,
                "test_mse": float(np.mean((y_hat - y_test) ** 2)),
                "val_mse": float(history[best, VAL_MSE]),
                "best_epoch": best,
            }
    except DvaError as err:
        for r in range(runs):
            outcomes.setdefault(r, failed(r, err))
    return [outcomes[r] for r in range(runs)]


def run_experiment(
    tickers: Sequence[str],
    data_dir,
    cfg: TrainConfig,
    out_dir,
    runs: int = 5,
    jobs: int = 1,
) -> dict:
    """Train stocks x runs, write checkpoint and prediction artifacts, and
    return the metrics dict; the caller writes it.

    Run r uses seed cfg.seed + r. The job unit is a stock: its runs train
    together in one process, and ``jobs`` processes share the stocks.
    Per-(stock, run) failures are recorded and the experiment continues;
    the metrics carry a ``partial`` flag.
    """
    cfg.validate()
    if runs < 1:
        raise ConfigError(f"runs must be >= 1, got {runs}")
    out = Path(out_dir)
    (out / "checkpoints").mkdir(parents=True, exist_ok=True)
    (out / "predictions").mkdir(parents=True, exist_ok=True)

    grid = [(t, runs, str(data_dir), cfg, str(out)) for t in tickers]
    if jobs <= 1:
        per_stock_outcomes = [_experiment_job(job) for job in grid]
    else:
        # imported here, where a pool starts: a serial run does not pay for it
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # spawned workers avoid forking a process with live BLAS thread pools
        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=jobs, mp_context=ctx) as pool:
            per_stock_outcomes = list(pool.map(_experiment_job, grid))
    outcomes = [o for stock in per_stock_outcomes for o in stock]

    results = [(o["stock"], o["run"], o["test_mse"]) for o in outcomes if o["ok"]]
    failures = [
        {k: o[k] for k in ("stock", "run", "seed", "error", "error_type")}
        for o in outcomes
        if not o["ok"]
    ]
    warnings = []
    if runs == 1:
        warnings.append("single run per stock: across-run SDs are 0 by convention")
    if failures:
        warnings.append(f"{len(failures)} of {len(outcomes)} runs failed; results are partial")

    report = aggregate(results) if results else None
    per_stock = report["per_stock"] if report else {}
    for o in outcomes:
        if o["ok"]:
            detail = per_stock[o["stock"]].setdefault("run_details", [])
            detail.append(
                {k: o[k] for k in ("run", "seed", "test_mse", "val_mse", "best_epoch")}
            )
    metrics = {
        "schema_version": METRICS_SCHEMA_VERSION,
        "kind": "train_metrics",
        "config": asdict(cfg),
        "config_hash": cfg.hash(),
        "tickers": list(tickers),
        "runs": runs,
        "per_stock": per_stock,
        "aggregate": report["aggregate"] if report else None,
        "failures": failures,
        "partial": bool(failures),
        "warnings": warnings,
    }
    return metrics
