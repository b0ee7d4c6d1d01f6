"""Command-line pipeline driver.

Subcommands: ``synth`` builds a synthetic universe, ``ingest-check``
validates input data, ``train`` runs the stocks-x-runs experiment,
``predict`` regenerates forecasts from checkpoints (test and validation
splits), ``evaluate`` aggregates prediction files into the report and the
uncertainty/improvement CSV, ``portfolio`` backtests mean-variance weights
on the predictions, and ``sweep`` grids the two loss weights.

Exit code 0 means success. Every failure prints one machine-readable JSON
object to stderr and exits nonzero. All primary artifacts are deterministic
functions of (config, data, seed); wall-clock information goes only to the
``run_info.json`` sidecar.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime as dt
import json
import math
import os
import shutil
import sys
import time
from pathlib import Path

from .atomic import read_utf8, write_csv, write_json
from .config import (
    RunConfig,
    SynthUniverse,
    load_run_config,
    load_synth_spec,
)
from .data import (
    R_INDEX,
    DatasetSplit,
    Prices,
    build_dataset,
    load_ohlcv,
    load_tickers,
    price_file,
    synth_generate,
    write_ohlcv,
    write_tickers,
    write_truth,
)
from .errors import (
    ConfigError,
    ContractError,
    ConvergenceError,
    DataError,
    DegenerateReturnsError,
    DvaError,
    ParseError,
    TrainingAbort,
)
from .evaluation import (
    aggregate,
    mse,
    prediction_path,
    uncertainty_improvement,
    write_predictions,
    write_uncertainty_csv,
)
from .model import checkpoint_path, load_params
from .portfolio import (
    backtest,
    load_prediction_frames,
    report_as_dict as portfolio_report_as_dict,
    tune_gamma,
    write_weights_csv,
)
from .training import TrainConfig, predict, run_experiment

__all__ = ["main", "build_parser"]

# paper grid: step 0.1 within [0.1, 1]
DEFAULT_WEIGHT_GRID = tuple(round(0.1 * k, 1) for k in range(1, 11))

# the first class an error is an instance of gives its exit code; others exit 1
_EXIT_CODES = {
    ConfigError: 2,
    DataError: 3,
    ParseError: 3,
    ContractError: 4,
    ConvergenceError: 5,
    TrainingAbort: 5,
    DegenerateReturnsError: 5,
}


def _fail(error: str, message: str, code: int) -> int:
    print(json.dumps({"error": error, "message": message}, sort_keys=True), file=sys.stderr)
    return code


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _resolve_out(flag_value, cfg_out: str | None) -> Path:
    """--out beats the config, which beats the DVA_OUT environment root."""
    for candidate in (flag_value, cfg_out, os.environ.get("DVA_OUT")):
        if candidate:
            return Path(candidate)
    raise ConfigError(
        "no output directory: pass --out, set out_dir in the config,"
        " or export DVA_OUT"
    )


def _refuse_overwrite(paths, force: bool) -> None:
    existing = sorted(str(p) for p in paths if Path(p).exists())
    if existing and not force:
        raise ConfigError(
            f"refusing to overwrite existing artifacts (use --force): {existing}"
        )


def _clear(paths) -> None:
    for p in paths:
        p = Path(p)
        if p.is_dir():
            shutil.rmtree(p)
        elif p.exists():
            p.unlink()


def _write_sidecar(out: Path, command: str, started: float) -> None:
    """Timestamps live here and only here, so reruns stay byte-identical
    everywhere else."""
    write_json(
        out / "run_info.json",
        {
            "command": command,
            "written_at": dt.datetime.now(dt.timezone.utc).isoformat(),
            "elapsed_seconds": round(time.monotonic() - started, 3),
        },
    )


def _config_from(args) -> RunConfig:
    if not args.config:
        raise ConfigError("this command needs --config <path>")
    return load_run_config(args.config)


def _train_config(rc: RunConfig, args) -> TrainConfig:
    cfg = rc.train
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    return cfg.validate()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    started = time.monotonic()
    universe: SynthUniverse = load_synth_spec(args.spec)
    if args.seed is not None:
        universe = dataclasses.replace(universe, seed=args.seed)
    out = _resolve_out(args.out, None)
    targets = [out / "tickers.txt"]
    for name, _ in universe.tickers:
        targets += [out / f"{name}.csv", out / f"{name}.truth.csv"]
    _refuse_overwrite(targets, args.force)
    out.mkdir(parents=True, exist_ok=True)

    for k, (name, spec) in enumerate(universe.tickers):
        prices, r_true = synth_generate(spec, universe.seed + k)
        write_ohlcv(out / f"{name}.csv", prices)
        write_truth(out / f"{name}.truth.csv", prices, r_true)
    write_tickers(out / "tickers.txt", [name for name, _ in universe.tickers])
    _write_sidecar(out, "synth", started)
    _emit(
        {
            "ok": True,
            "out_dir": str(out),
            "tickers": [name for name, _ in universe.tickers],
        }
    )
    return 0


def _dataset(rc: RunConfig, ticker: str) -> tuple[Prices, DatasetSplit]:
    """One ticker's prices and their split; errors name the ticker and file."""
    prices = load_ohlcv(rc.data_dir, ticker)
    where = f"price file {price_file(rc.data_dir, ticker)}"
    return prices, build_dataset(prices, rc.train.t_in, rc.train.t_out, where)


def cmd_ingest_check(args) -> int:
    rc = _config_from(args)
    tickers = load_tickers(rc.tickers_file)
    report = {}
    for ticker in tickers:
        prices, split = _dataset(rc, ticker)
        report[ticker] = {
            "rows": len(prices.dates),
            "first_date": prices.dates[0].isoformat(),
            "last_date": prices.dates[-1].isoformat(),
            "windows": sum(split.counts()),
            "split": {
                "train": len(split.train),
                "val": len(split.validation),
                "test": len(split.test),
            },
        }
    _emit(
        {
            "ok": True,
            "kind": "ingest_check",
            "config_hash": rc.hash(),
            "tickers": report,
        }
    )
    return 0


def cmd_train(args) -> int:
    started = time.monotonic()
    rc = _config_from(args)
    cfg = _train_config(rc, args)
    out = _resolve_out(args.out, rc.out_dir)
    tickers = load_tickers(rc.tickers_file)
    names = ("metrics.json", "checkpoints", "predictions", "predictions_val")
    targets = [out / name for name in names]
    _refuse_overwrite(targets, args.force)
    _clear(targets)  # a stale partial tree must not leak into this run
    out.mkdir(parents=True, exist_ok=True)

    metrics = run_experiment(
        tickers, rc.data_dir, cfg, out, runs=rc.runs, jobs=args.jobs
    )
    metrics["run_config"] = rc.as_dict()
    metrics["run_config_hash"] = rc.hash()
    write_json(out / "metrics.json", metrics)
    _write_sidecar(out, "train", started)
    if metrics["partial"]:
        # the smallest exit code among the failed runs' error classes, so that
        # a data fault (3) is never masked by a training abort (5)
        failed = {f["error_type"] for f in metrics["failures"]}
        codes = [(c, e.__name__) for e, c in _EXIT_CODES.items() if e.__name__ in failed]
        code, error = min(codes, default=(1, "DvaError"))
        n = len(metrics["failures"])
        message = f"{n} training runs failed; partial metrics kept at {out / 'metrics.json'}"
        return _fail(error, message, code)
    _emit({"ok": True, "metrics": str(out / "metrics.json")})
    return 0


def cmd_predict(args) -> int:
    started = time.monotonic()
    rc = _config_from(args)
    cfg = rc.train
    out = _resolve_out(args.out, rc.out_dir)
    tickers = load_tickers(rc.tickers_file)

    targets = [
        prediction_path(out / sub, ticker, run)
        for ticker in tickers
        for run in range(rc.runs)
        for sub in ("predictions", "predictions_val")
    ]
    _refuse_overwrite(targets, args.force)
    (out / "predictions").mkdir(parents=True, exist_ok=True)
    (out / "predictions_val").mkdir(parents=True, exist_ok=True)

    model_hash = cfg.model_config().hash()
    for ticker in tickers:
        split = _dataset(rc, ticker)[1]
        for run in range(rc.runs):
            ckpt = checkpoint_path(out / "checkpoints", ticker, run)
            params = load_params(ckpt, expected_hash=model_hash)
            for windows, sub in (
                (split.test, "predictions"),
                (split.validation, "predictions_val"),
            ):
                y_hat = predict(params, windows.x, cfg)
                write_predictions(prediction_path(out / sub, ticker, run), windows, y_hat)
    _write_sidecar(out, "predict", started)
    _emit(
        {
            "ok": True,
            "predictions": str(out / "predictions"),
            "predictions_val": str(out / "predictions_val"),
        }
    )
    return 0


def _persistence_report(rc: RunConfig, tickers) -> dict:
    """The persistence forecast's report on the test split: the last
    observed gross return repeated over the horizon, the sanity floor any
    trained model must beat."""
    results = []
    for ticker in tickers:
        test = _dataset(rc, ticker)[1].test
        # per-window MSEs of the last gross return carried over the horizon
        errs = ((test.x[:, R_INDEX, -1:] - test.y) ** 2).mean(axis=1)
        results.append((ticker, 0, sum(errs.tolist()) / len(errs)))
    return aggregate(results)


def _report_from_metrics(path) -> dict:
    """The report of a metrics file's per-stock run MSEs. Each must be a
    finite number > 0, for the percentage change against it to exist."""
    where = f"metrics file {path}"
    try:
        raw = json.loads(read_utf8(path, "metrics file"))
    except json.JSONDecodeError as err:
        raise DataError(f"{where}: invalid JSON: {err}") from None
    per_stock = (raw.get("per_stock") if isinstance(raw, dict) else None) or {}
    if not isinstance(per_stock, dict) or not all(
        isinstance(entry, dict) and isinstance(entry.get("runs"), list)
        and all(isinstance(v, (int, float)) for v in entry["runs"])
        for entry in per_stock.values()
    ):
        raise DataError(f"{where}: per_stock must list each stock's run MSEs")
    results = []
    for stock, entry in per_stock.items():
        for i, v in enumerate(entry["runs"]):
            # bool is an int to isinstance, and a JSON integer may overflow a float
            if isinstance(v, bool) or not 0.0 < v <= sys.float_info.max:
                raise DataError(
                    f"{where}: per_stock.{stock}.runs[{i}] must be a finite MSE > 0, got {v!r}"
                )
            results.append((stock, i, float(v)))
    if not results:
        raise DataError(f"{where}: no per-stock results")
    return aggregate(results)


def cmd_evaluate(args) -> int:
    started = time.monotonic()
    rc = _config_from(args)
    out = _resolve_out(args.out, rc.out_dir)
    targets = [out / "report.json", out / "uncertainty.csv"]
    _refuse_overwrite(targets, args.force)

    results = []
    for f in load_prediction_frames(out / "predictions"):
        err = mse(f.y_hat, f.y_true)
        if not math.isfinite(err):
            raise DataError(f"prediction file {f.path}: the forecast errors have no finite MSE")
        results.append((f.stock, f.run, err))
    model_report = aggregate(results)
    tickers = load_tickers(rc.tickers_file)
    if args.baseline:
        before = _report_from_metrics(args.baseline)
        baseline_name = str(args.baseline)
    else:
        before = _persistence_report(rc, tickers)
        baseline_name = "persistence"
    model_stocks, baseline_stocks = set(model_report["per_stock"]), set(before["per_stock"])
    if model_stocks != baseline_stocks:
        raise DataError(
            f"predictions and baseline {baseline_name} cover different stocks:"
            f" predictions lack {sorted(baseline_stocks - model_stocks)},"
            f" the baseline lacks {sorted(model_stocks - baseline_stocks)}"
        )
    rows = uncertainty_improvement(before, model_report)

    out.mkdir(parents=True, exist_ok=True)
    write_json(
        out / "report.json",
        {
            "schema_version": 1,
            "kind": "evaluation_report",
            "run_config": rc.as_dict(),
            "run_config_hash": rc.hash(),
            "baseline": baseline_name,
            "report": model_report,
            "baseline_report": before,
        },
    )
    write_uncertainty_csv(out / "uncertainty.csv", rows)
    _write_sidecar(out, "evaluate", started)
    _emit(
        {
            "ok": True,
            "report": str(out / "report.json"),
            "uncertainty_csv": str(out / "uncertainty.csv"),
        }
    )
    return 0


def cmd_portfolio(args) -> int:
    started = time.monotonic()
    rc = _config_from(args)
    out = _resolve_out(args.out, rc.out_dir)
    targets = [out / "portfolio.json", out / "weights"]
    _refuse_overwrite(targets, args.force)
    _clear(targets)  # a failed rerun must not leave the old report behind

    frames = load_prediction_frames(out / "predictions")
    lam = rc.portfolio.effective_lambda()
    gamma = rc.portfolio.gamma_risk
    tuned = False
    tuning_warnings = []
    if gamma is None:
        val_dir = out / "predictions_val"
        if not val_dir.is_dir():
            raise ConfigError(
                "portfolio.gamma_risk is not set and there are no validation"
                " predictions to tune on; run `dva predict` first or set"
                " portfolio.gamma_risk"
            )
        gamma = tune_gamma(
            load_prediction_frames(val_dir), grid=rc.portfolio.gamma_grid, lam=lam
        )
        tuned = True
        lo, hi = min(rc.portfolio.gamma_grid), max(rc.portfolio.gamma_grid)
        if lo < hi and gamma in (lo, hi):
            tuning_warnings.append(
                f"tuned gamma_risk {gamma!r} is at the {'lower' if gamma == lo else 'upper'}"
                f" edge of gamma_grid [{lo!r}, {hi!r}]; the validation Sharpe may"
                " still be improving past it"
            )

    report = backtest(frames, gamma_risk=gamma, lam=lam)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema_version": 1,
        "kind": "portfolio_report",
        "run_config": rc.as_dict(),
        "run_config_hash": rc.hash(),
        "gamma_tuned_on_validation": tuned,
    }
    payload.update(portfolio_report_as_dict(report))
    payload["warnings"] = tuning_warnings + payload["warnings"]
    write_json(out / "portfolio.json", payload)
    (out / "weights").mkdir(parents=True, exist_ok=True)
    for run_result in report.runs:
        write_weights_csv(
            out / "weights" / f"weights_run{run_result.run}.csv",
            report,
            run_result.run,
        )
    _write_sidecar(out, "portfolio", started)
    _emit(
        {
            "ok": True,
            "portfolio": str(out / "portfolio.json"),
            "gamma_risk": gamma,
        }
    )
    return 0


def _parse_grid(text: str | None, name: str) -> tuple[float, ...]:
    """The values of ``--<name>-grid``; a fault names the flag."""
    if text is None:
        return DEFAULT_WEIGHT_GRID
    flag = f"--{name}-grid"
    try:
        values = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError as err:
        raise ConfigError(f"{flag}: {err}") from None
    if not values:
        raise ConfigError(f"{flag}: grid is empty")
    if not all(math.isfinite(v) and v >= 0 for v in values):
        raise ConfigError(f"{flag}: entries must be finite and >= 0, got {list(values)}")
    if len(set(values)) != len(values):
        raise ConfigError(f"{flag}: grid has duplicates: {list(values)}")
    return values


SWEEP_HEADER = ["zeta", "eta", "mean_of_stock_means", "mean_of_stock_sds", "partial"]


def cmd_sweep(args) -> int:
    started = time.monotonic()
    rc = _config_from(args)
    cfg = _train_config(rc, args)
    zetas = _parse_grid(args.zeta_grid, "zeta")
    etas = _parse_grid(args.eta_grid, "eta")
    out = _resolve_out(args.out, rc.out_dir) / "sweep"
    _refuse_overwrite([out], args.force)
    _clear([out])
    out.mkdir(parents=True, exist_ok=True)

    tickers = load_tickers(rc.tickers_file)
    rows = []
    any_partial = False
    for zeta in zetas:
        for eta in etas:
            cell_cfg = dataclasses.replace(cfg, zeta=zeta, eta=eta)
            cell_dir = out / f"zeta{zeta:g}_eta{eta:g}"
            metrics = run_experiment(
                tickers, rc.data_dir, cell_cfg, cell_dir, runs=rc.runs, jobs=args.jobs
            )
            write_json(cell_dir / "metrics.json", metrics)
            agg = metrics["aggregate"] or {}
            any_partial = any_partial or metrics["partial"]
            rows.append(
                [
                    repr(float(zeta)),
                    repr(float(eta)),
                    repr(float(agg["mean_of_stock_means"])) if agg else "",
                    repr(float(agg["mean_of_stock_sds"])) if agg else "",
                    str(metrics["partial"]).lower(),
                ]
            )
    write_csv(out / "summary.csv", SWEEP_HEADER, rows)
    _write_sidecar(out, "sweep", started)
    if any_partial:
        raise DvaError(f"sweep had failing cells; partial summary kept at {out}")
    _emit({"ok": True, "summary": str(out / "summary.csv"), "cells": len(rows)})
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dva",
        description="Multi-step stock-return forecasting and portfolio pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, *, config=True, seed=False, jobs=False, out=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if config:
            p.add_argument("--config", help="run configuration JSON")
        if seed:
            p.add_argument("--seed", type=int, help="override the base seed")
        if jobs:
            p.add_argument(
                "--jobs",
                type=int,
                default=1,
                help="parallel stock jobs; a stock's runs train together in one job",
            )
        if out:
            p.add_argument(
                "--out", help="output directory (default: config out_dir or $DVA_OUT)"
            )
        p.add_argument(
            "--force", action="store_true", help="overwrite existing artifacts"
        )
        return p

    p_synth = add(
        "synth", cmd_synth, "generate a synthetic universe", config=False, seed=True
    )
    p_synth.add_argument("--spec", required=True, help="synthetic universe JSON")

    add("ingest-check", cmd_ingest_check, "validate input data", out=False)
    add("train", cmd_train, "train stocks x runs", seed=True, jobs=True)
    add("predict", cmd_predict, "regenerate forecasts from checkpoints")
    p_eval = add("evaluate", cmd_evaluate, "aggregate prediction files")
    p_eval.add_argument(
        "--baseline",
        help="metrics.json of the before-variant (default: persistence baseline)",
    )
    add("portfolio", cmd_portfolio, "backtest mean-variance weights")
    p_sweep = add("sweep", cmd_sweep, "grid the two loss weights", seed=True, jobs=True)
    p_sweep.add_argument(
        "--zeta-grid", help="comma-separated values (default 0.1..1.0 step 0.1)"
    )
    p_sweep.add_argument(
        "--eta-grid", help="comma-separated values (default 0.1..1.0 step 0.1)"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as err:  # noqa: BLE001 - the CLI boundary reports, not raises
        code = next((c for cls, c in _EXIT_CODES.items() if isinstance(err, cls)), 1)
        return _fail(type(err).__name__, str(err), code)


if __name__ == "__main__":
    sys.exit(main())
