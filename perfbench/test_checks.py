"""Each output check passes on real outputs and fails on a corrupted one.

Run from the root of a checkout: python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from dva.cli import main as dva_main  # noqa: E402


def _outputs(tmp_path_factory, name: str) -> Path:
    w = WORKLOADS[name]
    d = tmp_path_factory.mktemp(name)
    w.setup(dva_main, d, 5)
    assert dva_main(w.argv(d)) == 0
    return d


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    return _outputs(tmp_path_factory, "train")


@pytest.fixture(scope="module")
def forecast(tmp_path_factory):
    return _outputs(tmp_path_factory, "forecast")


@pytest.fixture(scope="module")
def allocated(tmp_path_factory):
    return _outputs(tmp_path_factory, "allocate-sparse")


def _copy(d: Path, tmp_path: Path) -> Path:
    """A corruptible copy; run.json keeps pointing at the original inputs."""
    c = tmp_path / "copy"
    shutil.copytree(d, c)
    cfg = json.loads((c / "run.json").read_text())
    cfg["out_dir"] = str(c / "out")
    (c / "run.json").write_text(json.dumps(cfg))
    return c


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _write_rows(path: Path, rows) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_real_outputs_pass(trained, forecast, allocated):
    checks.check_train(trained)
    checks.check_forecast(forecast)
    share = checks.check_allocate(allocated)["precision_nonzero_share"]
    assert 0.0 < share < 1.0


def test_weights_off_the_simplex_fail(allocated, tmp_path):
    c = _copy(allocated, tmp_path)
    path = c / "out" / "weights" / "weights_run0.csv"
    rows = _rows(path)
    first = rows[1][0]
    _write_rows(path, [r if r[0] != first else [r[0], r[1], repr(float(r[2]) * 0.99)] for r in rows])
    with pytest.raises(checks.CheckFailed, match="weights sum to"):
        checks.check_allocate(c)


def test_qp_point_off_stationarity_fails(allocated, tmp_path):
    c = _copy(allocated, tmp_path)
    path = c / "out" / "weights" / "weights_run0.csv"
    rows = _rows(path)
    period = [i for i, r in enumerate(rows) if r[0] == rows[1][0]]
    # move 0.05 of capital between two stocks: still on the simplex
    w = np.array([float(rows[i][2]) for i in period])
    hi, lo = int(np.argmax(w)), int(np.argmin(w))
    w[hi] -= 0.05
    w[lo] += 0.05
    for i, v in zip(period, w):
        rows[i][2] = repr(float(v))
    _write_rows(path, rows)
    with pytest.raises(checks.CheckFailed, match="QP stationarity"):
        checks.check_allocate(c)


def test_wrong_sharpe_fails(allocated, tmp_path):
    c = _copy(allocated, tmp_path)
    report = json.loads((c / "out" / "portfolio.json").read_text())
    report["runs"]["1"]["periods"][2]["sharpe"] *= 1.001
    (c / "out" / "portfolio.json").write_text(json.dumps(report))
    with pytest.raises(checks.CheckFailed, match="Sharpe"):
        checks.check_allocate(c)


def test_y_true_shifted_by_one_day_fails(forecast, tmp_path):
    c = _copy(forecast, tmp_path)
    path = next((c / "out" / "predictions_val").glob("*_run1.csv"))
    rows = _rows(path)
    body = rows[1:]
    t = checks.T_OUT
    # each window takes the targets of the window anchored one day later
    shifted = [r[:3] + [body[i + t][3]] for i, r in enumerate(body[:-t])] + body[-t:]
    _write_rows(path, [rows[0]] + shifted)
    with pytest.raises(checks.CheckFailed, match="close / previous close"):
        checks.check_forecast(c)


def test_batched_row_that_single_window_prediction_disagrees_with_fails(forecast, tmp_path):
    c = _copy(forecast, tmp_path)
    path = next((c / "out" / "predictions").glob("*_run0.csv"))
    rows = _rows(path)
    rows[1][2] = repr(float(rows[1][2]) + 1e-6)
    _write_rows(path, rows)
    with pytest.raises(checks.CheckFailed, match="alone != batched"):
        checks.check_forecast(c)


def test_mse_above_persistence_fails(trained, tmp_path):
    c = _copy(trained, tmp_path)
    metrics = json.loads((c / "out" / "metrics.json").read_text())
    ticker = next(iter(metrics["per_stock"]))
    path = c / "out" / "predictions" / f"{ticker}_run0.csv"
    rows = _rows(path)
    rows[1:] = [r[:2] + [repr(float(r[3]) + 1.5), r[3]] for r in rows[1:]]
    _write_rows(path, rows)
    _, y_hat, y_true = checks.read_predictions(path)
    # the report agrees with the file, so only the persistence bound can fail
    metrics["per_stock"][ticker]["runs"][0] = float(np.mean((y_hat - y_true) ** 2))
    (c / "out" / "metrics.json").write_text(json.dumps(metrics))
    with pytest.raises(checks.CheckFailed, match="persistence"):
        checks.check_train(c)


def test_reported_mse_that_disagrees_with_the_file_fails(trained, tmp_path):
    c = _copy(trained, tmp_path)
    metrics = json.loads((c / "out" / "metrics.json").read_text())
    ticker = next(iter(metrics["per_stock"]))
    metrics["per_stock"][ticker]["runs"][1] *= 0.99
    (c / "out" / "metrics.json").write_text(json.dumps(metrics))
    with pytest.raises(checks.CheckFailed, match="vs reported"):
        checks.check_train(c)


def test_benchmark_json_names_the_metrics_the_runs_print():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
