"""Mean-variance portfolio stage on top of multi-step return forecasts.

Pipeline per rebalancing period: take every stock's predicted gross-return
path over the next horizon, convert to net returns, form the cross-stock
mean vector and sample covariance, optionally replace the covariance by the
inverse of a graphical-lasso precision estimate, and solve a no-short
mean-variance program on the simplex. Realized portfolio returns over the
same window give a per-period Sharpe ratio, reported against an equal-weight
baseline. Rebalancing periods are non-overlapping, back-to-back horizon-length
windows tiling the evaluated span.
"""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    ConfigError,
    ContractError,
    ConvergenceError,
    DataError,
    DegenerateReturnsError,
)
from .evaluation import _PREDICTION_NAME, load_predictions

__all__ = [
    "PeriodMoments",
    "Precision",
    "Weights",
    "PredictionFrame",
    "PeriodResult",
    "RunBacktest",
    "BacktestReport",
    "DEFAULT_GAMMA_GRID",
    "prediction_moments",
    "graphical_lasso",
    "mean_variance_weights",
    "sharpe",
    "equal_weights",
    "load_prediction_frames",
    "backtest",
    "tune_gamma",
    "write_backtest_report",
    "write_weights_csv",
]

# Logarithmic half-decade grid spanning 0.1 .. 100, 13 points.
DEFAULT_GAMMA_GRID = tuple(float(10.0 ** (-1 + k / 4)) for k in range(13))


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PeriodMoments:
    """Cross-stock first and second moments of one period's predictions."""

    mu: np.ndarray  # (S,) net-return means
    sigma: np.ndarray  # (S, S) sample covariance, divisor T'-1

    def validate(self) -> "PeriodMoments":
        s = self.sigma
        if s.shape != (self.mu.size, self.mu.size):
            raise ContractError(f"covariance {s.shape} does not match mu {self.mu.shape}")
        if not np.allclose(s, s.T, atol=1e-12):
            raise ContractError("covariance must be symmetric")
        if np.linalg.eigvalsh(s).min() < -1e-10:
            raise ContractError("covariance must be positive semidefinite")
        return self


def prediction_moments(preds) -> PeriodMoments:
    """Net the gross-return predictions, then average over the horizon and
    take the sample covariance across stocks (divisor T'-1)."""
    arr = np.asarray(preds, dtype=np.float64)
    if arr.ndim != 2:
        raise ContractError(f"expected (stocks, horizon) predictions, got {arr.shape}")
    s, t_out = arr.shape
    if s < 1:
        raise ContractError("need at least one stock")
    if t_out < 2:
        raise ContractError(f"covariance needs horizon >= 2, got {t_out}")
    net = arr - 1.0
    mu = net.mean(axis=1)
    centered = net - mu[:, None]
    sigma = centered @ centered.T / (t_out - 1)
    return PeriodMoments(mu=mu, sigma=sigma).validate()


# ---------------------------------------------------------------------------
# Graphical lasso
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Precision:
    """Regularized inverse covariance."""

    theta: np.ndarray
    lam: float


def _lasso_cd(gram: np.ndarray, target: np.ndarray, lam: float, beta: np.ndarray) -> np.ndarray:
    """Cyclic coordinate descent for 0.5 b'Gb - t'b + lam*|b|_1 (warm start)."""
    p = target.size
    for _ in range(1000):
        delta = 0.0
        for j in range(p):
            r = target[j] - gram[j] @ beta + gram[j, j] * beta[j]
            new = np.sign(r) * max(abs(r) - lam, 0.0) / gram[j, j]
            delta = max(delta, abs(new - beta[j]))
            beta[j] = new
        if delta < 1e-10:
            break
    return beta


def graphical_lasso(
    sigma,
    lam: float,
    *,
    jitter: float = 1e-8,
    tol: float = 1e-7,
    max_sweeps: int = 200,
) -> Precision:
    """Sparse precision estimate: max log det Θ − tr(ΣΘ) − λ‖Θ_offdiag‖₁.

    Block coordinate descent over rows/columns of the working covariance,
    with an ℓ₁ inner solve per column (the penalty touches off-diagonals
    only, so λ=0 reduces exactly to the matrix inverse). A small diagonal
    jitter makes rank-deficient sample covariances (more stocks than horizon
    days) workable.
    """
    s = np.asarray(sigma, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ContractError(f"covariance must be square, got {s.shape}")
    if not np.allclose(s, s.T, atol=1e-10):
        raise ContractError("covariance must be symmetric")
    if lam < 0:
        raise ContractError(f"penalty must be >= 0, got {lam}")
    if np.any(np.diag(s) < 0):
        raise ContractError("covariance diagonal must be nonnegative")
    p = s.shape[0]
    s = (s + s.T) / 2.0 + jitter * np.eye(p)
    if p == 1:
        return Precision(theta=np.array([[1.0 / s[0, 0]]]), lam=lam)

    w = s.copy()  # working covariance estimate; diagonal stays fixed
    betas = np.zeros((p, p - 1))
    residual = np.inf
    for _ in range(max_sweeps):
        w_prev = w.copy()
        for j in range(p):
            rest = [k for k in range(p) if k != j]
            w11 = w[np.ix_(rest, rest)]
            beta = _lasso_cd(w11, s[rest, j], lam, betas[j])
            w[rest, j] = w11 @ beta
            w[j, rest] = w[rest, j]
        residual = float(np.max(np.abs(w - w_prev)))
        if residual < tol:
            break
    else:
        raise ConvergenceError(
            f"graphical lasso did not converge in {max_sweeps} sweeps", residual=residual
        )

    theta = np.empty((p, p))
    for j in range(p):
        rest = [k for k in range(p) if k != j]
        beta = betas[j]
        theta[j, j] = 1.0 / (w[j, j] - w[rest, j] @ beta)
        theta[rest, j] = -beta * theta[j, j]
    theta = (theta + theta.T) / 2.0
    return Precision(theta=theta, lam=lam)


# ---------------------------------------------------------------------------
# Mean-variance weights
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Weights:
    """Long-only capital fractions."""

    w: np.ndarray

    def validate(self) -> "Weights":
        if abs(float(self.w.sum()) - 1.0) > 1e-9:
            raise ContractError(f"weights must sum to 1, got {self.w.sum()!r}")
        if float(self.w.min()) < 0.0:
            raise ContractError(f"weights must be >= 0, got min {self.w.min()!r}")
        return self


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {w: w >= 0, sum w = 1} (sort-based)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, v.size + 1)
    rho = np.max(ks[u - css / ks > 0])
    tau = css[rho - 1] / rho
    return np.maximum(v - tau, 0.0)


def mean_variance_weights(
    mu,
    sigma_eff,
    gamma_risk: float,
    *,
    max_iter: int = 10_000,
    tol: float = 1e-8,
) -> Weights:
    """Maximize w'mu - (gamma_risk/2) w'Σw over the no-short simplex.

    Projected gradient ascent with the fixed step 1/(gamma_risk * ||Σ||₂);
    stops at a stationarity residual below ``tol`` (equalized gradients on
    the support, no ascent direction off it) or errors after ``max_iter``.
    """
    mu = np.asarray(mu, dtype=np.float64)
    sig = np.asarray(sigma_eff, dtype=np.float64)
    if mu.ndim != 1 or sig.shape != (mu.size, mu.size):
        raise ContractError(f"shape mismatch: mu {mu.shape}, sigma {sig.shape}")
    if not np.allclose(sig, sig.T, atol=1e-10):
        raise ContractError("sigma_eff must be symmetric")
    if gamma_risk <= 0:
        raise ContractError(f"gamma_risk must be > 0, got {gamma_risk}")
    s = mu.size
    spectral = float(np.linalg.eigvalsh(sig)[-1]) if s > 1 else float(sig[0, 0])
    if spectral <= 0.0:
        # degenerate quadratic: the objective is linear, the argmax is the
        # uniform split over the best-mean stocks (deterministic tie rule)
        best = mu == mu.max()
        return Weights(w=best / best.sum()).validate()

    step = 1.0 / (gamma_risk * spectral)
    w = np.full(s, 1.0 / s)
    for _ in range(max_iter):
        grad = mu - gamma_risk * (sig @ w)
        support = w > 1e-12
        tau = float(w[support] @ grad[support])  # sum w = 1 on the support
        resid = max(
            float(np.max(np.abs(grad[support] - tau))),
            float(np.max(np.maximum(grad[~support] - tau, 0.0), initial=0.0)),
        )
        if resid < tol:
            break
        w = _project_simplex(w + step * grad)
    else:
        raise ConvergenceError(
            f"mean-variance ascent did not converge in {max_iter} iterations",
            residual=resid,
        )
    return Weights(w=np.maximum(w, 0.0)).validate()


def equal_weights(s: int) -> Weights:
    if s < 1:
        raise ContractError("need at least one stock")
    return Weights(w=np.full(s, 1.0 / s))


# ---------------------------------------------------------------------------
# Sharpe
# ---------------------------------------------------------------------------


def sharpe(returns) -> float:
    """Mean over sample SD (divisor n-1) at zero risk-free rate."""
    r = np.asarray(returns, dtype=np.float64)
    if r.ndim != 1 or r.size < 2:
        raise ContractError(f"need a flat series of length >= 2, got shape {r.shape}")
    sd = float(r.std(ddof=1))
    if sd == 0.0:
        raise DegenerateReturnsError(
            "degenerate returns: zero variance, Sharpe ratio undefined"
        )
    return float(r.mean()) / sd


# ---------------------------------------------------------------------------
# Backtest over prediction files
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PredictionFrame:
    """One stock/run's predictions: one row per anchored window."""

    stock: str
    run: int
    anchors: tuple[dt.date, ...]
    y_hat: np.ndarray  # (windows, t_out) gross returns
    y_true: np.ndarray  # (windows, t_out) gross returns

    def by_anchor(self) -> dict[dt.date, int]:
        return {a: i for i, a in enumerate(self.anchors)}


def load_prediction_frames(pred_dir) -> list[PredictionFrame]:
    """Read every ``<stock>_run<k>.csv`` in a directory into window frames."""
    p = Path(pred_dir)
    if not p.is_dir():
        raise DataError(f"missing artifact: no prediction directory {p}")
    frames = []
    for f in sorted(p.iterdir()):
        m = _PREDICTION_NAME.match(f.name)
        if m is None:
            continue
        y_hat, y_true, dates = load_predictions(f)
        anchors: list[dt.date] = []
        starts = []
        for i, d in enumerate(dates):
            if not anchors or d != anchors[-1]:
                anchors.append(d)
                starts.append(i)
        starts.append(len(dates))
        widths = {starts[i + 1] - starts[i] for i in range(len(anchors))}
        if len(widths) != 1:
            raise DataError(f"{f}: ragged prediction horizons {sorted(widths)}")
        t_out = widths.pop()
        frames.append(
            PredictionFrame(
                stock=m.group("stock"),
                run=int(m.group("run")),
                anchors=tuple(anchors),
                y_hat=y_hat.reshape(-1, t_out),
                y_true=y_true.reshape(-1, t_out),
            )
        )
    if not frames:
        raise DataError(f"missing artifact: no prediction files in {p}")
    return frames


@dataclass(frozen=True)
class PeriodResult:
    period_start: dt.date
    sharpe: float
    equal_weight_sharpe: float
    weights: Mapping[str, float]


@dataclass(frozen=True)
class RunBacktest:
    run: int
    periods: tuple[PeriodResult, ...]
    avg_sharpe: float
    avg_equal_weight_sharpe: float


@dataclass(frozen=True)
class BacktestReport:
    gamma_risk: float
    lam: float | None  # None = raw sample covariance, no precision estimate
    runs: tuple[RunBacktest, ...]
    avg_sharpe: float
    avg_equal_weight_sharpe: float
    warnings: tuple[str, ...] = field(default_factory=tuple)


def _period_anchors(frames: Sequence[PredictionFrame]) -> list[dt.date]:
    """Every horizon-th anchor of the union calendar: back-to-back windows."""
    t_out = frames[0].y_hat.shape[1]
    all_anchors = sorted({a for f in frames for a in f.anchors})
    return all_anchors[::t_out]


def _evaluate_run(
    frames: Sequence[PredictionFrame],
    gamma_risk: float,
    lam: float | None,
    warnings: list[str],
) -> tuple[list[PeriodResult], list[str]]:
    stocks = sorted(f.stock for f in frames)
    by_stock = {f.stock: f for f in frames}
    row_of = {f.stock: f.by_anchor() for f in frames}
    run = frames[0].run
    t_out = frames[0].y_hat.shape[1]
    if any(f.y_hat.shape[1] != t_out for f in frames):
        raise DataError(f"run {run}: stocks disagree on the prediction horizon")
    results = []
    for anchor in _period_anchors(frames):
        rows_hat, rows_true = [], []
        missing = [s for s in stocks if anchor not in row_of[s]]
        if missing:
            warnings.append(
                f"run {run}: period {anchor.isoformat()} skipped,"
                f" missing stocks {missing}"
            )
            continue
        for s in stocks:
            f = by_stock[s]
            i = row_of[s][anchor]
            rows_hat.append(f.y_hat[i])
            rows_true.append(f.y_true[i])
        pred = np.array(rows_hat)
        realized_net = np.array(rows_true) - 1.0
        moments = prediction_moments(pred)
        if lam is None:
            sigma_eff = moments.sigma
        else:
            sigma_eff = np.linalg.inv(graphical_lasso(moments.sigma, lam).theta)
            sigma_eff = (sigma_eff + sigma_eff.T) / 2.0
        w = mean_variance_weights(moments.mu, sigma_eff, gamma_risk)
        port = w.w @ realized_net
        eq = equal_weights(len(stocks)).w @ realized_net
        try:
            sr = sharpe(port)
            sr_eq = sharpe(eq)
        except DegenerateReturnsError:
            warnings.append(
                f"run {run}: period {anchor.isoformat()} skipped,"
                " degenerate realized returns"
            )
            continue
        results.append(
            PeriodResult(
                period_start=anchor,
                sharpe=sr,
                equal_weight_sharpe=sr_eq,
                weights=dict(zip(stocks, (float(x) for x in w.w))),
            )
        )
    return results, warnings


def backtest(
    frames: Iterable[PredictionFrame],
    gamma_risk: float,
    lam: float | None = 0.1,
) -> BacktestReport:
    """Per-period mean-variance portfolios vs equal weight, across runs.

    ``lam=None`` uses the raw sample covariance; otherwise the period
    covariance is replaced by the inverse of the graphical-lasso precision
    at that penalty. Periods with a missing stock or degenerate realized
    returns are skipped and reported in the warnings.
    """
    frames = list(frames)
    if not frames:
        raise ConfigError("backtest needs at least one prediction frame")
    by_run: dict[int, list[PredictionFrame]] = {}
    for f in frames:
        by_run.setdefault(f.run, []).append(f)
    warnings: list[str] = []
    runs = []
    for run in sorted(by_run):
        periods, warnings = _evaluate_run(by_run[run], gamma_risk, lam, warnings)
        if not periods:
            warnings.append(f"run {run}: no scorable periods")
            continue
        runs.append(
            RunBacktest(
                run=run,
                periods=tuple(periods),
                avg_sharpe=float(np.mean([p.sharpe for p in periods])),
                avg_equal_weight_sharpe=float(
                    np.mean([p.equal_weight_sharpe for p in periods])
                ),
            )
        )
    if not runs:
        raise ConfigError("no scorable periods in any run")
    return BacktestReport(
        gamma_risk=gamma_risk,
        lam=lam,
        runs=tuple(runs),
        avg_sharpe=float(np.mean([r.avg_sharpe for r in runs])),
        avg_equal_weight_sharpe=float(
            np.mean([r.avg_equal_weight_sharpe for r in runs])
        ),
        warnings=tuple(warnings),
    )


def tune_gamma(
    frames: Iterable[PredictionFrame],
    grid: Sequence[float] = DEFAULT_GAMMA_GRID,
    lam: float | None = 0.1,
) -> float:
    """Grid-search the risk aversion by average Sharpe; ties take the
    smallest value so stronger risk aversion must earn its keep."""
    frames = list(frames)
    if not grid:
        raise ConfigError("gamma grid is empty")
    best_gamma = None
    best_score = -np.inf
    for gamma in sorted(float(g) for g in grid):
        try:
            report = backtest(frames, gamma, lam)
        except ConfigError:
            continue
        if report.avg_sharpe > best_score:
            best_score = report.avg_sharpe
            best_gamma = gamma
    if best_gamma is None:
        raise ConfigError("no gamma produced a scorable validation period")
    return best_gamma


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------

WEIGHTS_HEADER = ["period_start", "ticker", "weight"]


def report_as_dict(report: BacktestReport) -> dict:
    return {
        "gamma_risk": report.gamma_risk,
        "lambda": report.lam,
        "runs": {
            str(r.run): {
                "avg_sharpe": r.avg_sharpe,
                "avg_equal_weight_sharpe": r.avg_equal_weight_sharpe,
                "periods": [
                    {
                        "period_start": p.period_start.isoformat(),
                        "sharpe": p.sharpe,
                        "equal_weight_sharpe": p.equal_weight_sharpe,
                    }
                    for p in r.periods
                ],
            }
            for r in report.runs
        },
        "avg_sharpe_across_runs": report.avg_sharpe,
        "avg_equal_weight_sharpe_across_runs": report.avg_equal_weight_sharpe,
        "warnings": list(report.warnings),
    }


def write_backtest_report(path, report: BacktestReport) -> None:
    import json

    with open(path, "w") as fh:
        json.dump(report_as_dict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_weights_csv(path, report: BacktestReport, run: int) -> None:
    chosen = next((r for r in report.runs if r.run == run), None)
    if chosen is None:
        raise ContractError(f"report has no run {run}")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(WEIGHTS_HEADER)
        for p in chosen.periods:
            for ticker in sorted(p.weights):
                writer.writerow(
                    [p.period_start.isoformat(), ticker, repr(p.weights[ticker])]
                )
