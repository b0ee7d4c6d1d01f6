"""Output checks for the benchmark workloads.

Each check recomputes what it can with numpy, apart from the program, from
the files a ``dva`` command wrote and the inputs it read, or tests a property
the method must have. A failed check raises ``CheckFailed``. Each workload
check returns a dict of measured facts about the outputs, which the traced
run reports.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

T_OUT = 10
QP_TOL = 1e-8  # dva.portfolio.mean_variance_weights stops below this residual
KKT_TOL = 1e-6  # graphical-lasso optimality, as in the acceptance suite
SIMPLEX_TOL = 1e-9
MATCH_RTOL = 1e-9


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close_enough(a, b, rtol: float = MATCH_RTOL) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rtol * np.maximum(np.abs(b), 1e-12)))


def digest(paths) -> str:
    """One hash over the names and bytes of files."""
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(str(p).encode())
        h.update(Path(p).read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Readers, written apart from the program's own
# ---------------------------------------------------------------------------


def read_predictions(path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """(anchor dates, y_hat, y_true), both (windows, T_OUT)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    require(rows[0] == ["anchor_date", "step", "y_hat", "y_true"], f"{path}: bad header")
    body = rows[1:]
    require(len(body) > 0 and len(body) % T_OUT == 0, f"{path}: {len(body)} rows")
    steps = [int(r[1]) for r in body]
    require(steps == list(range(1, T_OUT + 1)) * (len(body) // T_OUT), f"{path}: step column")
    anchors = [r[0] for r in body[::T_OUT]]
    require(all(r[0] == body[i - i % T_OUT][0] for i, r in enumerate(body)), f"{path}: ragged anchors")
    vals = np.array([[float(r[2]), float(r[3])] for r in body])
    return anchors, vals[:, 0].reshape(-1, T_OUT), vals[:, 1].reshape(-1, T_OUT)


def read_closes(path) -> tuple[dict[str, int], np.ndarray]:
    """(date -> row index, close prices) of one OHLCV file."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return {r[0]: i for i, r in enumerate(rows)}, np.array([float(r[4]) for r in rows])


def realised_returns(index: dict[str, int], closes: np.ndarray, anchors: list[str]) -> np.ndarray:
    """close / previous close over the T_OUT days after each anchor."""
    idx = np.array([index[a] for a in anchors])[:, None] + np.arange(1, T_OUT + 1)
    require(int(idx.max()) < closes.size, "a horizon runs past the price history")
    return closes[idx] / closes[idx - 1]


def anchor_returns(index: dict[str, int], closes: np.ndarray, anchors: list[str]) -> np.ndarray:
    """close / previous close on each anchor day: the persistence forecast."""
    idx = np.array([index[a] for a in anchors])
    return closes[idx] / closes[idx - 1]


def read_tickers(path) -> list[str]:
    return [t.strip() for t in Path(path).read_text().splitlines() if t.strip()]


# ---------------------------------------------------------------------------
# Checks on arrays
# ---------------------------------------------------------------------------


def check_y_true(y_true: np.ndarray, expected: np.ndarray, where: str) -> None:
    require(close_enough(y_true, expected, 1e-12), f"{where}: y_true is not close / previous close")


def check_finite(y_hat: np.ndarray, where: str) -> None:
    require(bool(np.all(np.isfinite(y_hat))), f"{where}: non-finite prediction")


def check_mse(recomputed: float, reported: float, persistence: float, where: str) -> None:
    require(close_enough(recomputed, reported), f"{where}: MSE {recomputed!r} vs reported {reported!r}")
    require(recomputed < persistence, f"{where}: MSE {recomputed:.4f} >= persistence {persistence:.4f}")


def check_simplex(w: np.ndarray, where: str) -> None:
    require(abs(float(w.sum()) - 1.0) <= SIMPLEX_TOL, f"{where}: weights sum to {w.sum()!r}")
    require(float(w.min()) >= 0.0, f"{where}: negative weight {w.min()!r}")


def period_moments(pred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Net-return mean vector and sample covariance across stocks of one
    period's (stocks, T_OUT) predicted gross returns."""
    net = pred - 1.0
    mu = net.mean(axis=1)
    centered = net - mu[:, None]
    return mu, centered @ centered.T / (pred.shape[1] - 1)


def qp_residual(mu: np.ndarray, sigma: np.ndarray, gamma: float, w: np.ndarray) -> float:
    """Stationarity residual of max w'mu - gamma/2 w'Sigma w on the simplex:
    equal gradients on the support, none larger off it."""
    grad = mu - gamma * (sigma @ w)
    support = w > 1e-12
    tau = float(w[support] @ grad[support])
    off = np.maximum(grad[~support] - tau, 0.0)
    return max(float(np.max(np.abs(grad[support] - tau))), float(np.max(off, initial=0.0)))


def glasso_kkt_residual(sigma: np.ndarray, theta: np.ndarray, lam: float) -> float:
    """Optimality of max log det T - tr(S T) - lam |T_offdiag|_1, with the
    program's diagonal jitter: W - S is zero on the diagonal, lam sign(T_ij)
    where T_ij != 0 and at most lam in size elsewhere."""
    p = sigma.shape[0]
    s = (sigma + sigma.T) / 2.0 + 1e-8 * np.eye(p)
    gap = np.linalg.inv(theta) - s
    off = ~np.eye(p, dtype=bool)
    active = off & (theta != 0.0)
    inactive = off & (theta == 0.0)
    resid = float(np.max(np.abs(np.diag(gap))))
    if np.any(active):
        resid = max(resid, float(np.max(np.abs(gap[active] - lam * np.sign(theta[active])))))
    if np.any(inactive):
        resid = max(resid, float(np.max(np.abs(gap[inactive]) - lam)))
    return resid


def sharpe(r: np.ndarray) -> float:
    return float(r.mean() / r.std(ddof=1))


# ---------------------------------------------------------------------------
# Workload checks
# ---------------------------------------------------------------------------


def check_train(d: Path) -> dict:
    """Per (stock, run): test MSE from the prediction CSV matches metrics.json
    and beats persistence computed from the raw closes."""
    cfg = json.loads((d / "run.json").read_text())
    out = d / "out"
    metrics = json.loads((out / "metrics.json").read_text())
    require(not metrics["partial"], f"training failures: {metrics['failures']}")
    for ticker in read_tickers(cfg["tickers_file"]):
        index, closes = read_closes(Path(cfg["data_dir"]) / f"{ticker}.csv")
        reported = metrics["per_stock"][ticker]["runs"]
        require(len(reported) == cfg["runs"], f"{ticker}: {len(reported)} runs reported")
        for run, mse in enumerate(reported):
            where = f"{ticker} run {run}"
            anchors, y_hat, y_true = read_predictions(out / "predictions" / f"{ticker}_run{run}.csv")
            truth = realised_returns(index, closes, anchors)
            check_y_true(y_true, truth, where)
            persistence = float(np.mean((anchor_returns(index, closes, anchors)[:, None] - truth) ** 2))
            check_mse(float(np.mean((y_hat - y_true) ** 2)), mse, persistence, where)
    return {}


def check_forecast(d: Path, samples: int = 2) -> dict:
    """Every y_true is close / previous close, every y_hat is finite, each
    file covers its split, and predicting single windows reproduces the
    batched rows."""
    from dva.data import build_dataset, load_ohlcv
    from dva.model import load_params
    from dva.training import TrainConfig, predict

    cfg = json.loads((d / "run.json").read_text())
    out = d / "out"
    tc = TrainConfig()
    for ticker in read_tickers(cfg["tickers_file"]):
        index, closes = read_closes(Path(cfg["data_dir"]) / f"{ticker}.csv")
        split = build_dataset(load_ohlcv(cfg["data_dir"], ticker), tc.t_in, tc.t_out)
        for run in range(cfg["runs"]):
            params = load_params(out / "checkpoints" / f"{ticker}_run{run}.npz") if run == 0 else None
            for sub, pairs in (("predictions", split.test), ("predictions_val", split.validation)):
                path = out / sub / f"{ticker}_run{run}.csv"
                anchors, y_hat, y_true = read_predictions(path)
                where = f"{sub}/{path.name}"
                require(len(anchors) == len(pairs), f"{where}: {len(anchors)} windows, split has {len(pairs)}")
                check_y_true(y_true, realised_returns(index, closes, anchors), where)
                check_finite(y_hat, where)
                if params is None:
                    continue
                for i in np.linspace(0, len(pairs) - 1, samples).astype(int):
                    one = predict(params, pairs[i].x.T[None], tc)[0]
                    require(close_enough(one, y_hat[i], 1e-10), f"{where}: window {i} alone != batched")
    return {}


def read_weights(path) -> dict[str, dict[str, float]]:
    """period start -> ticker -> weight."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    require(rows[0] == ["period_start", "ticker", "weight"], f"{path}: bad header")
    periods: dict[str, dict[str, float]] = {}
    for start, ticker, w in rows[1:]:
        periods.setdefault(start, {})[ticker] = float(w)
    return periods


def check_allocate(d: Path) -> dict:
    """Per run and period: weights on the simplex, the graphical lasso
    optimal and the QP stationary for the recomputed moments, and both Sharpe
    ratios as recomputed from weights and realised returns."""
    from dva.portfolio import graphical_lasso

    out = d / "out"
    report = json.loads((out / "portfolio.json").read_text())
    gamma, lam = report["gamma_risk"], report["lambda"]
    frames: dict[int, dict[str, tuple]] = {}
    for f in sorted((out / "predictions").glob("*_run*.csv")):
        stock, _, run = f.stem.rpartition("_run")
        frames.setdefault(int(run), {})[stock] = read_predictions(f)
    nonzero, offdiag = 0, 0
    for run, by_stock in sorted(frames.items()):
        stocks = sorted(by_stock)
        anchors = by_stock[stocks[0]][0]
        require(all(by_stock[s][0] == anchors for s in stocks), f"run {run}: stocks disagree on anchors")
        starts = anchors[::T_OUT]
        periods = report["runs"][str(run)]["periods"]
        require([p["period_start"] for p in periods] == starts, f"run {run}: periods {len(periods)}")
        weights = read_weights(out / "weights" / f"weights_run{run}.csv")
        for k, period in enumerate(periods):
            where = f"run {run} period {period['period_start']}"
            i = anchors.index(period["period_start"])
            pred = np.stack([by_stock[s][1][i] for s in stocks])
            realised = np.stack([by_stock[s][2][i] for s in stocks]) - 1.0
            require(sorted(weights[period["period_start"]]) == stocks, f"{where}: weight tickers")
            w = np.array([weights[period["period_start"]][s] for s in stocks])
            check_simplex(w, where)
            mu, sigma = period_moments(pred)
            theta = graphical_lasso(sigma, lam).theta
            kkt = glasso_kkt_residual(sigma, theta, lam)
            require(kkt < KKT_TOL, f"{where}: graphical-lasso KKT residual {kkt:.2e}")
            mask = ~np.eye(len(stocks), dtype=bool)
            nonzero += int(np.count_nonzero(theta[mask]))
            offdiag += int(mask.sum())
            sigma_eff = np.linalg.inv(theta)
            sigma_eff = (sigma_eff + sigma_eff.T) / 2.0
            resid = qp_residual(mu, sigma_eff, gamma, w)
            require(resid < QP_TOL, f"{where}: QP stationarity residual {resid:.2e}")
            require(close_enough(sharpe(w @ realised), period["sharpe"]), f"{where}: Sharpe")
            require(
                close_enough(sharpe(realised.mean(axis=0)), period["equal_weight_sharpe"]),
                f"{where}: equal-weight Sharpe",
            )
    return {"precision_nonzero_share": nonzero / offdiag}
