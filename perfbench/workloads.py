"""The three benchmark workloads: how each builds its inputs from a seed, which
``dva`` command it times, how much work one command does, and how its outputs
are checked.

Every input is synthesised from the workload seed. Set-up goes through the
program's own entry points (``dva synth``, ``dva train``,
``dva.evaluation.write_predictions``), so work moved into set-up shows in
``setup_s``.
"""

from __future__ import annotations

import datetime as dt
import json
import shutil
from pathlib import Path

import numpy as np

import checks

T_IN = 10
T_OUT = 10

# train: a04-style clean, high-amplitude sinusoids; >= 2 runs per stock.
TRAIN_TICKERS = 1
TRAIN_RUNS = 2
TRAIN_EPOCHS = 3
TRAIN_LENGTH = 300

# forecast: many (ticker, run) checkpoints over long histories.
FORECAST_TICKERS = 6
FORECAST_RUNS = 2
FORECAST_LENGTH = 1200
FORECAST_MODEL_LENGTH = 120  # the short series that trains the shared model

# allocate-sparse: prediction files made from a factor-model truth plus noise.
SPARSE_STOCKS = 8  # below T_OUT - 1, so period covariances have full rank
SPARSE_RUNS = 2
SPARSE_VAL_ANCHORS = 60
SPARSE_TEST_ANCHORS = 60
SPARSE_OFFDIAG_QUANTILE = 0.7  # lambda = this quantile of |sigma_ij|, i != j

START_DATE = dt.date(2021, 1, 4)


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _run_config(d: Path, **fields) -> dict:
    return {
        "schema_version": 1,
        "data_dir": str(d / "data"),
        "tickers_file": str(d / "data" / "tickers.txt"),
        "out_dir": str(d / "out"),
        **fields,
    }


def _sinusoid(length: int, phase: float) -> dict:
    return {
        "process": "sinusoid",
        "length": length,
        "noise_scale": 0.0,
        "amplitude": 0.9,
        "period": 10.0,
        "phase": phase,
        "start_price": 1.0,
        "volume_noise": 0.0,
        "intraday_scale": 0.0,
    }


def _synth(dva_main, d: Path, seed: int, tickers: dict) -> None:
    _write_json(d / "synth.json", {"schema_version": 1, "seed": seed, "tickers": tickers})
    code = dva_main(["synth", "--spec", str(d / "synth.json"), "--out", str(d / "data"), "--force"])
    if code != 0:
        raise RuntimeError(f"dva synth exited with {code}")


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def setup_train(dva_main, d: Path, seed: int) -> None:
    phases = _rng(seed, 1).uniform(0.0, 2.0 * np.pi, TRAIN_TICKERS)
    _synth(
        dva_main, d, seed,
        {f"SIN{k}": _sinusoid(TRAIN_LENGTH, float(p)) for k, p in enumerate(phases)},
    )
    _write_json(
        d / "run.json",
        _run_config(d, runs=TRAIN_RUNS, epochs=TRAIN_EPOCHS, seed=seed % 1000),
    )


# ---------------------------------------------------------------------------
# forecast
# ---------------------------------------------------------------------------


def setup_forecast(dva_main, d: Path, seed: int) -> None:
    rng = _rng(seed, 2)
    tickers = {
        f"FC{k}": {
            "process": "ar1",
            "length": FORECAST_LENGTH,
            "noise_scale": 0.01,
            "ar_coeff": float(rng.uniform(-0.5, 0.5)),
            "drift": float(rng.uniform(-5e-4, 5e-4)),
        }
        for k in range(FORECAST_TICKERS)
    }
    _synth(dva_main, d, seed, tickers)
    _write_json(d / "run.json", _run_config(d, runs=FORECAST_RUNS, seed=seed % 1000))

    # One short model, saved under every (ticker, run) name: the checkpoint's
    # model hash leaves out the seed, so each run's config accepts it.
    m = d / "model"
    m.mkdir()
    _synth(dva_main, m, seed, {"MODEL": _sinusoid(FORECAST_MODEL_LENGTH, 0.0)})
    _write_json(m / "run.json", _run_config(m, runs=1, epochs=1, seed=seed % 1000))
    code = dva_main(["train", "--config", str(m / "run.json"), "--jobs", "1", "--force"])
    if code != 0:
        raise RuntimeError(f"dva train exited with {code}")
    ckpt = d / "out" / "checkpoints"
    ckpt.mkdir(parents=True)
    for ticker in tickers:
        for run in range(FORECAST_RUNS):
            shutil.copyfile(m / "out" / "checkpoints" / "MODEL_run0.npz", ckpt / f"{ticker}_run{run}.npz")


# ---------------------------------------------------------------------------
# allocate-sparse
# ---------------------------------------------------------------------------


def _trading_days(count: int) -> list[dt.date]:
    days, d = [], START_DATE
    while len(days) < count:
        if d.weekday() < 5:
            days.append(d)
        d += dt.timedelta(days=1)
    return days


def factor_truth(stocks: int, days: int) -> np.ndarray:
    """Gross daily returns (stocks, days) from three common factors plus
    idiosyncratic noise, so that period covariances carry real correlations.

    The truth is fixed by the universe's size; the seed draws the prediction
    noise on top of it. Seeds then differ in data but hardly in how hard the
    period covariances are to solve, so one command does about the same work
    on every seed.
    """
    rng = np.random.default_rng([stocks, days])
    loadings = rng.normal(0.0, 1.0, (stocks, 3))
    scale = rng.uniform(0.5, 1.5, (stocks, 1))
    drift = rng.uniform(-1e-3, 1e-3, (stocks, 1))
    factors = rng.normal(0.0, 0.008, (3, days))
    idio = rng.normal(0.0, 0.006, (stocks, days)) * scale
    return 1.0 + drift + loadings @ factors + idio


def _write_prediction_sets(
    d: Path, seed: int, stocks: int, runs: int, splits: dict[str, int]
) -> dict[str, list[np.ndarray]]:
    """Write ``<split>/<stock>_run<k>.csv`` for each split (name -> anchors).

    Splits follow one another in time, as validation precedes test. Returns
    every run's y_hat blocks per split, (stocks, anchors, T_OUT), which set-up
    uses to scale the penalty.
    """
    from dva.data import WindowPair
    from dva.evaluation import write_predictions

    rng = _rng(seed, 3)
    total = sum(splits.values())
    truth = factor_truth(stocks, total + T_OUT)
    dates = _trading_days(total + T_OUT)
    blank = np.zeros((T_IN, 6))
    out: dict[str, list[np.ndarray]] = {}
    first = 0
    for split, n in splits.items():
        (d / "out" / split).mkdir(parents=True)
        anchors = range(first, first + n)
        y_true = np.stack([truth[:, a + 1 : a + 1 + T_OUT] for a in anchors], axis=1)
        out[split] = []
        for run in range(runs):
            y_hat = y_true + rng.normal(0.0, 0.001, y_true.shape)
            out[split].append(y_hat)
            for s in range(stocks):
                pairs = [
                    WindowPair(x=blank, y=y_true[s, i], anchor_date=dates[a], anchor_index=a)
                    for i, a in enumerate(anchors)
                ]
                write_predictions(d / "out" / split / f"S{s:03d}_run{run}.csv", pairs, y_hat[s])
        first += n
    return out


def sparse_lambda(blocks: list[np.ndarray]) -> float:
    """The SPARSE_OFFDIAG_QUANTILE quantile of |sigma_ij| (i != j) over every
    period covariance the backtests will see."""
    offdiag = []
    for y_hat in blocks:
        for a in range(0, y_hat.shape[1], T_OUT):
            sigma = checks.period_moments(y_hat[:, a])[1]
            offdiag.append(np.abs(sigma[~np.eye(sigma.shape[0], dtype=bool)]))
    return float(np.quantile(np.concatenate(offdiag), SPARSE_OFFDIAG_QUANTILE))


def setup_allocate_sparse(dva_main, d: Path, seed: int) -> None:
    blocks = _write_prediction_sets(
        d, seed, SPARSE_STOCKS, SPARSE_RUNS,
        {"predictions_val": SPARSE_VAL_ANCHORS, "predictions": SPARSE_TEST_ANCHORS},
    )
    lam = sparse_lambda(blocks["predictions_val"] + blocks["predictions"])
    _write_json(d / "run.json", _run_config(d, runs=SPARSE_RUNS, portfolio={"lambda": lam}))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def _windows(length: int) -> tuple[int, int, int]:
    """(train, validation, test) window counts of one ``length``-bar series."""
    from dva.data import split_sizes

    return split_sizes(length - 1 - T_IN - T_OUT + 1)


def _periods(anchors: int) -> int:
    return -(-anchors // T_OUT)


class Workload:
    """One workload: set-up, the timed ``dva`` command, work per command, the
    output checks and the primary artifacts they cover."""

    def __init__(self, name, setup, command, items, check, outputs, setup_reps):
        self.name = name
        self.setup = setup
        self.command = command
        self.items = items  # work items one command completes
        self.check = check
        self.outputs = outputs
        self.setup_reps = setup_reps  # set-up repetitions timed per command

    def argv(self, d: Path) -> list[str]:
        return [self.command, "--config", str(d / "run.json"), "--force"] + (
            ["--jobs", "1"] if self.command == "train" else []
        )


def _train_items() -> int:
    return _windows(TRAIN_LENGTH)[0] * TRAIN_EPOCHS * TRAIN_RUNS * TRAIN_TICKERS


def _forecast_items() -> int:
    _, val, test = _windows(FORECAST_LENGTH)
    return (val + test) * FORECAST_RUNS * FORECAST_TICKERS


def _sparse_items() -> int:
    from dva.portfolio import DEFAULT_GAMMA_GRID

    tuning = len(DEFAULT_GAMMA_GRID) * _periods(SPARSE_VAL_ANCHORS)
    return (tuning + _periods(SPARSE_TEST_ANCHORS)) * SPARSE_RUNS


def _files(*patterns):
    return lambda d: [f for p in patterns for f in sorted((d / "out").glob(p))]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train", setup_train, "train", _train_items, checks.check_train,
            _files("metrics.json", "predictions/*.csv"), 5,
        ),
        Workload(
            "forecast", setup_forecast, "predict", _forecast_items, checks.check_forecast,
            _files("predictions/*.csv", "predictions_val/*.csv"), 1,
        ),
        Workload(
            "allocate-sparse", setup_allocate_sparse, "portfolio", _sparse_items,
            checks.check_allocate, _files("portfolio.json", "weights/*.csv"), 1,
        ),
    )
}
