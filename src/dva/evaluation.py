"""Error aggregation across stocks and runs.

Reporting convention: each stock is summarized by the mean and sample
standard deviation (divisor n-1) of its per-run test MSE; the experiment
summary is the mean of the per-stock means and the mean of the per-stock
SDs. The module also owns the prediction-file format (CSV
``anchor_date,step,y_hat,y_true``) and the uncertainty-vs-improvement
export (CSV ``stock,sd_before,pct_mse_change``).
"""

from __future__ import annotations

import csv
import datetime as dt
import operator
import re
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .atomic import atomic_open, read_utf8, write_csv
from .data import WindowPair, Windows
from .errors import ContractError, DataError, ParseError

__all__ = [
    "StockRunResult",
    "StockAggregate",
    "Report",
    "UncertaintyRow",
    "mse",
    "aggregate",
    "report_as_dict",
    "uncertainty_improvement",
    "write_uncertainty_csv",
    "PREDICTION_NAME",
    "prediction_path",
    "write_predictions",
    "load_predictions",
]

PREDICTION_HEADER = ["anchor_date", "step", "y_hat", "y_true"]
PREDICTION_NAME = re.compile(r"^(?P<stock>.+)_run(?P<run>\d+)\.csv$")
Columns = tuple[list[float], list[float], list[dt.date], list[int]]  # y_hat, y_true, dates, steps
UNCERTAINTY_HEADER = ["stock", "sd_before", "pct_mse_change"]


# ---------------------------------------------------------------------------
# Point error
# ---------------------------------------------------------------------------


def mse(pred, target) -> float:
    """Mean of squared differences over every element; inf, without a
    warning, where the squares overflow."""
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    if p.shape != t.shape:
        raise ContractError(f"mse needs matching shapes, got {p.shape} vs {t.shape}")
    if p.size == 0:
        raise ContractError("mse of empty sequences is undefined")
    with np.errstate(over="ignore"):
        return float(np.mean((p - t) ** 2))


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StockRunResult:
    """Test MSE of one (stock, run) training."""

    stock: str
    run: int
    mse: float

    def validate(self) -> "StockRunResult":
        if not np.isfinite(self.mse) or self.mse < 0:
            raise ContractError(
                f"MSE must be finite and >= 0, got {self.mse} for {self.stock} run {self.run}"
            )
        return self


@dataclass(frozen=True)
class StockAggregate:
    stock: str
    mse_mean: float
    mse_sd: float  # sample SD over runs (divisor n-1); 0.0 for a single run
    runs: tuple[float, ...]  # per-run MSEs in run order


@dataclass(frozen=True)
class Report:
    stocks: tuple[StockAggregate, ...]  # sorted by stock id
    mean_of_means: float
    mean_of_sds: float

    def stock_ids(self) -> tuple[str, ...]:
        return tuple(s.stock for s in self.stocks)


def aggregate(results: Iterable[StockRunResult]) -> Report:
    """Per-stock mean/sample-SD over runs, then means of those across stocks."""
    rows = [r.validate() for r in results]
    if not rows:
        raise ContractError("aggregate needs at least one result")
    by_stock: dict[str, dict[int, float]] = {}
    for r in rows:
        runs = by_stock.setdefault(r.stock, {})
        if r.run in runs:
            raise ContractError(f"duplicate result for {r.stock} run {r.run}")
        runs[r.run] = r.mse
    stocks = []
    for stock in sorted(by_stock):
        vals = np.array([by_stock[stock][run] for run in sorted(by_stock[stock])])
        sd = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
        stocks.append(
            StockAggregate(
                stock=stock,
                mse_mean=float(vals.mean()),
                mse_sd=sd,
                runs=tuple(float(v) for v in vals),
            )
        )
    return Report(
        stocks=tuple(stocks),
        mean_of_means=float(np.mean([s.mse_mean for s in stocks])),
        mean_of_sds=float(np.mean([s.mse_sd for s in stocks])),
    )


def report_as_dict(report: Report) -> dict:
    """JSON-ready view of a report."""
    return {
        "per_stock": {
            s.stock: {
                "mse_mean": s.mse_mean,
                "mse_sd_over_runs": s.mse_sd,
                "runs": list(s.runs),
            }
            for s in report.stocks
        },
        "aggregate": {
            "mean_of_stock_means": report.mean_of_means,
            "mean_of_stock_sds": report.mean_of_sds,
        },
    }


# ---------------------------------------------------------------------------
# Uncertainty-vs-improvement export
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UncertaintyRow:
    stock: str
    sd_before: float
    pct_mse_change: float


def uncertainty_improvement(report_a: Report, report_b: Report) -> list[UncertaintyRow]:
    """Per stock: report A's across-run SD against the percentage MSE change
    from A to B, sorted ascending by the SD."""
    if report_a.stock_ids() != report_b.stock_ids():
        raise ContractError(
            f"reports cover different stock sets: {report_a.stock_ids()} vs {report_b.stock_ids()}"
        )
    b_by_stock = {s.stock: s for s in report_b.stocks}
    rows = []
    for a in report_a.stocks:
        if a.mse_mean == 0.0:
            raise ContractError(
                f"percentage change undefined: stock {a.stock} has zero baseline MSE"
            )
        b = b_by_stock[a.stock]
        pct = 100.0 * (b.mse_mean - a.mse_mean) / a.mse_mean
        rows.append(UncertaintyRow(stock=a.stock, sd_before=a.mse_sd, pct_mse_change=pct))
    rows.sort(key=lambda r: (r.sd_before, r.stock))
    return rows


def write_uncertainty_csv(path, rows: Sequence[UncertaintyRow]) -> None:
    cells = ([r.stock, repr(float(r.sd_before)), repr(float(r.pct_mse_change))] for r in rows)
    write_csv(path, UNCERTAINTY_HEADER, cells)


# ---------------------------------------------------------------------------
# Prediction files
# ---------------------------------------------------------------------------


def prediction_path(directory, stock: str, run: int) -> Path:
    """The prediction file of run ``run`` of ``stock`` in ``directory``,
    ``<stock>_run<run>.csv``: the one name ``PREDICTION_NAME`` matches."""
    return Path(directory) / f"{stock}_run{run}.csv"


def write_predictions(path, windows: Windows | Sequence[WindowPair], y_hat: np.ndarray) -> None:
    """One row per (window, horizon step), written once; ``windows`` is a
    ``Windows`` or a sequence of ``WindowPair``."""
    if isinstance(windows, Windows):
        anchors, targets = windows.anchors, windows.y
    else:
        anchors, targets = [w.anchor_date for w in windows], [w.y for w in windows]
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y_hat.ndim != 2 or y_hat.shape[0] != len(anchors):
        raise ContractError(
            f"predictions {y_hat.shape} do not cover {len(anchors)} windows"
        )
    # the rows of an array share one shape
    for y in targets[:1] if isinstance(targets, np.ndarray) else targets:
        if y.shape != y_hat.shape[1:]:
            raise ContractError(
                f"horizon mismatch: prediction {y_hat.shape[1:]} vs target {y.shape}"
            )
    text = _prediction_text(anchors, np.asarray(targets, dtype=np.float64), y_hat)
    with atomic_open(path) as fh:
        fh.write(text.encode())


def _prediction_text(anchors: Sequence[dt.date], y_true: np.ndarray, y_hat: np.ndarray) -> str:
    """The prediction file's text, built column by column from N anchor
    dates and (N, t_out) targets and predictions: each anchor date and each
    step is formatted once, and each distinct target once. Floats use repr
    for exact round trips. The bytes equal ``csv.writer``'s: none of the
    fields needs quoting, and every line ends in ``\\r\\n``."""
    n, t_out = y_hat.shape
    # overlapping windows repeat each target up to t_out times: format each
    # distinct value once, keyed by its bits so that -0.0 and 0.0 stay apart
    # (a dict, not np.unique: a first sort pages in numpy's sort kernels,
    # about 0.5 MiB of resident memory)
    bits = y_true.ravel().view(np.int64).tolist()
    distinct = list(dict.fromkeys(bits))
    floats = np.array(distinct, dtype=np.int64).view(np.float64).tolist()
    true_text = dict(zip(distinct, [f",{v!r}\r\n" for v in floats]))
    # cell 0 is the header; row r = i * t_out + s holds cells 4r + 1 .. 4r + 4:
    # "<date>," "<step>," "<y_hat>" ",<y_true>\r\n"
    cells = [""] * (1 + 4 * n * t_out)
    cells[0] = ",".join(PREDICTION_HEADER) + "\r\n"
    dates = [f"{a.isoformat()}," for a in anchors]
    for s in range(t_out):
        cells[1 + 4 * s :: 4 * t_out] = dates
    cells[2::4] = [f"{s}," for s in range(1, t_out + 1)] * n
    cells[3::4] = map(repr, y_hat.ravel().tolist())
    cells[4::4] = map(true_text.__getitem__, bits)
    return "".join(cells)


def _read_rows(where: str, lines: list[str]) -> Columns:
    """Parse data rows one by one with ``csv``; a bad row raises a
    ``ParseError`` naming its line."""
    y_hat, y_true, dates, steps = [], [], [], []
    for lineno, row in enumerate(csv.reader(lines), start=2):
        if len(row) != 4:
            raise ParseError(where, lineno, f"expected 4 fields, got {len(row)}")
        try:
            dates.append(dt.date.fromisoformat(row[0]))
            steps.append(int(row[1]))
            y_hat.append(float(row[2]))
            y_true.append(float(row[3]))
        except ValueError as err:
            raise ParseError(where, lineno, str(err)) from None
    return y_hat, y_true, dates, steps


def _read_columns(lines: list[str]) -> Columns:
    """Parse data rows column by column; raises ``ValueError`` on any row
    ``_read_rows`` would not read the same way."""
    if set(map(str.count, lines, repeat(","))) - {3}:
        raise ValueError("a row without four fields")
    # a quote fails every field's parse below, so csv's quoting never applies
    fields = ",".join(lines).split(",")
    raw_dates = fields[0::4]
    parsed = {s: dt.date.fromisoformat(s) for s in dict.fromkeys(raw_dates)}
    steps = list(map(int, fields[1::4]))
    y_hat = list(map(float, fields[2::4]))
    y_true = list(map(float, fields[3::4]))
    return y_hat, y_true, list(map(parsed.__getitem__, raw_dates)), steps


def _check_steps(where: str, steps: list[int], dates: list[dt.date]) -> None:
    """Each anchor's rows (a run of equal dates) must number their steps 1,
    2, ... in order; a ``ParseError`` names the first line that does not."""
    # up to the first wrong row, step i - 1 is right, so row i expects one
    # more than it on the same date and 1 on a new one
    same = [False, *map(operator.eq, dates[1:], dates[:-1])]
    expected = list(map(operator.add, map(operator.mul, [0, *steps[:-1]], same), repeat(1)))
    if steps != expected:
        i = next(i for i, (s, e) in enumerate(zip(steps, expected)) if s != e)
        raise ParseError(where, i + 2, f"step {steps[i]} out of order, expected {expected[i]}")


def load_predictions(path) -> tuple[np.ndarray, np.ndarray, list[dt.date], list[int]]:
    """Read a prediction file back: (y_hat, y_true, anchor dates, steps) by row.
    A row that does not parse, then a step out of order, is a ``ParseError``."""
    where = f"prediction file {path}"
    lines = read_utf8(path, "prediction file").split("\n")
    if lines[-1] == "":
        lines.pop()
    header = next(csv.reader(lines[:1]), None)
    if header != PREDICTION_HEADER:
        raise ParseError(where, 1, f"header must be {','.join(PREDICTION_HEADER)}, got {header}")
    try:
        y_hat, y_true, dates, steps = _read_columns(lines[1:])
    except ValueError:
        y_hat, y_true, dates, steps = _read_rows(where, lines[1:])
    if not y_hat:
        raise DataError(f"{where}: no data rows")
    _check_steps(where, steps, dates)
    return np.array(y_hat), np.array(y_true), dates, steps

