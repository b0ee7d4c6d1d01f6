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

import datetime as dt
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .atomic import write_csv
from .errors import (
    ConfigError,
    ContractError,
    ConvergenceError,
    DataError,
    DegenerateReturnsError,
)
from .evaluation import PREDICTION_NAME, load_predictions

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
    "write_weights_csv",
]

# Logarithmic half-decade grid spanning 0.1 .. 100, 13 points.
DEFAULT_GAMMA_GRID = tuple(float(10.0 ** (-1 + k / 4)) for k in range(13))

# Graphical lasso: diagonal jitter added to the covariance, the block sweeps'
# stop (relative to the mean diagonal variance) and their cap.
GLASSO_JITTER = 1e-8
GLASSO_TOL = 1e-7
GLASSO_MAX_SWEEPS = 200
# Simplex QP: the stationarity residual that accepts weights, relative to
# the gradient's scale |mu|_inf + gamma * max |sigma_ij|.
QP_TOL = 1e-12


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
        # rounding leaves eigenvalues of about -1e-16 of the scale, so the
        # tolerance scales: no eigenvalue may lie below -eps, which is when
        # sigma + eps I has a Cholesky factor
        eps = 1e-10 * max(1.0, s.diagonal().max())
        try:
            np.linalg.cholesky(s + eps * np.eye(len(s)))
        except np.linalg.LinAlgError:
            raise ContractError("covariance must be positive semidefinite") from None
        return self


def prediction_moments(preds) -> PeriodMoments:
    """Net the gross-return predictions, then average over the horizon and
    take the sample covariance across stocks (divisor T'-1); overflow is a ``DataError``."""
    arr = np.asarray(preds, dtype=np.float64)
    if arr.ndim != 2:
        raise ContractError(f"expected (stocks, horizon) predictions, got {arr.shape}")
    s, t_out = arr.shape
    if s < 1:
        raise ContractError("need at least one stock")
    if t_out < 2:
        raise ContractError(f"covariance needs horizon >= 2, got {t_out}")
    with np.errstate(over="ignore", invalid="ignore"):
        net = arr - 1.0
        mu = net.mean(axis=1)
        centered = net - mu[:, None]
        sigma = centered @ centered.T / (t_out - 1)
    if not (np.isfinite(mu).all() and np.isfinite(sigma).all()):
        raise DataError("the forecasts have no finite mean and covariance")
    return PeriodMoments(mu=mu, sigma=sigma).validate()


# ---------------------------------------------------------------------------
# Graphical lasso
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Precision:
    """Regularized inverse covariance and the block sweeps it took."""

    theta: np.ndarray
    lam: float
    sweeps: int = 0


def _lasso_cd(gram: np.ndarray, target: np.ndarray, lam: float, beta: np.ndarray) -> np.ndarray:
    """Cyclic coordinate descent for 0.5 b'Gb - t'b + lam*|b|_1 (warm start,
    ``beta`` updated in place); errors, carrying the last sweep's largest
    step, after 1000 sweeps.

    Runs on Python floats and keeps the residual t - Gb current as
    coordinates move, so a coordinate costs one row read, and a coordinate
    that stays put (typically an inactive zero) costs no update at all.
    """
    rows = gram.tolist()
    b = beta.tolist()
    res = (target - gram @ beta).tolist()
    p = len(b)
    for _ in range(1000):
        delta = 0.0
        for j in range(p):
            g_jj = rows[j][j]
            old = b[j]
            r = res[j] + g_jj * old
            if r > lam:
                new = (r - lam) / g_jj
            elif r < -lam:
                new = (r + lam) / g_jj
            else:
                new = 0.0
            if new == old:
                continue
            step = new - old
            b[j] = new
            res = [x - g * step for x, g in zip(res, rows[j])]
            if abs(step) > delta:
                delta = abs(step)
        if delta < 1e-10:
            beta[:] = b
            return beta
    beta[:] = b
    raise ConvergenceError(
        "graphical lasso column solve did not converge in 1000 sweeps", residual=delta
    )


def graphical_lasso(sigma, lam: float) -> Precision:
    """Sparse precision estimate: max log det Θ − tr(ΣΘ) − λ‖Θ_offdiag‖₁.

    Block coordinate descent over rows/columns of the working covariance,
    with an ℓ₁ inner solve per column (the penalty touches off-diagonals
    only, so λ=0 reduces exactly to the matrix inverse). A small absolute
    diagonal jitter, ``GLASSO_JITTER``, keeps rank-deficient sample
    covariances (more stocks than horizon days) positive definite, but a
    small λ still fails on them: with 6 stocks and t_out = 4, λ = 0 and
    1e-6 end in a ConvergenceError of the column solve. The sweeps stop
    once the working covariance moves by less than ``GLASSO_TOL`` times the
    mean diagonal variance, so the stop is the same at every return scale,
    and error after ``GLASSO_MAX_SWEEPS``.
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
    s = (s + s.T) / 2.0 + GLASSO_JITTER * np.eye(p)
    if p == 1:
        return Precision(theta=np.array([[1.0 / s[0, 0]]]), lam=lam)

    stop = GLASSO_TOL * float(np.mean(np.diag(s)))
    rests = [np.array([k for k in range(p) if k != j]) for j in range(p)]
    blocks = [np.ix_(rest, rest) for rest in rests]
    w = s.copy()  # working covariance estimate; diagonal stays fixed
    betas = np.zeros((p, p - 1))
    residual = np.inf
    for sweep in range(1, GLASSO_MAX_SWEEPS + 1):
        w_prev = w.copy()
        for j, rest in enumerate(rests):
            w11 = w[blocks[j]]
            beta = _lasso_cd(w11, s[rest, j], lam, betas[j])
            w[rest, j] = w11 @ beta
            w[j, rest] = w[rest, j]
        residual = float(np.max(np.abs(w - w_prev)))
        if residual < stop:
            break
    else:
        raise ConvergenceError(
            f"graphical lasso did not converge in {GLASSO_MAX_SWEEPS} sweeps",
            residual=residual,
        )

    theta = np.empty((p, p))
    for j, rest in enumerate(rests):
        beta = betas[j]
        theta[j, j] = 1.0 / (w[j, j] - w[rest, j] @ beta)
        theta[rest, j] = -beta * theta[j, j]
    theta = (theta + theta.T) / 2.0
    return Precision(theta=theta, lam=lam, sweeps=sweep)


# ---------------------------------------------------------------------------
# Mean-variance weights
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Weights:
    """Long-only capital fractions and the face systems the solver solved."""

    w: np.ndarray
    iterations: int = 0

    def validate(self) -> "Weights":
        if abs(float(self.w.sum()) - 1.0) > 1e-9:
            raise ContractError(f"weights must sum to 1, got {self.w.sum()!r}")
        if float(self.w.min()) < 0.0:
            raise ContractError(f"weights must be >= 0, got min {self.w.min()!r}")
        return self


def _stationarity(w: np.ndarray, grad: np.ndarray) -> float:
    """Simplex KKT residual: equal gradients on the support, none larger off it."""
    support = w > 1e-12
    excess = grad - float(w[support] @ grad[support])  # sum w = 1 on the support
    return float(np.where(support, np.abs(excess), excess).max(initial=0.0))


def _active_set(mu, sig, gamma_risk, w) -> Weights:
    """Primal active-set ascent (Nocedal & Wright, *Numerical Optimization*,
    §16.5) over the faces of the simplex from the feasible ``w``, whose
    support is the first face.

    Each iteration solves the face's KKT system [γΣ_FF 1; 1ᵀ 0][w_F; ν] =
    [μ_F; 1]. A strictly positive solution is the face optimum: it is
    returned if stationary, else the off-face stock of largest gradient
    joins the face. Otherwise the weights step toward the solution up to the
    first weight that reaches zero, and that stock leaves the face. A
    singular system (a raw covariance of more stocks than horizon days, or
    identical stocks) returns a stationary ``w``; otherwise the face's step
    problem is solved by least squares, and where it is inconsistent its
    residual is a zero-curvature ascent direction that sums to 0. Every step
    of positive length raises the objective, so no face optimum repeats.
    Stationary means a residual of at most ``QP_TOL`` times |μ|∞ + γ max|Σ_ij|.
    """
    s = mu.size
    scale = np.abs(mu).max() + gamma_risk * np.abs(sig).max()
    tol = QP_TOL * scale
    w = w.copy()
    face = w > 0.0
    # far above any count seen: the bound only stops a solve rounding stalls
    for it in range(1, (s + 1) ** 2 + 1):
        idx = np.flatnonzero(face)
        k = idx.size
        kkt = np.ones((k + 1, k + 1))
        kkt[:k, :k] = gamma_risk * sig[idx[:, None], idx]
        kkt[k, k] = 0.0
        rhs = np.ones(k + 1)
        rhs[:k] = mu[idx]
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            sol = np.full(k + 1, np.nan)
        res = kkt @ sol - rhs  # the weights' row is scale-free
        if np.abs(res[:k]).max() <= tol and abs(res[k]) <= QP_TOL:
            target, ray = sol[:k], None
        else:  # singular
            grad = mu - gamma_risk * (sig @ w)
            if _stationarity(w, grad) <= tol:
                return Weights(w, it)
            # the step problem, its border in the units of γΣ_FF so that
            # least squares sees one scale
            kkt[k, :k] = kkt[:k, k] = scale
            rhs[:k], rhs[k] = grad[idx], 0.0
            step = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
            ray = (rhs - kkt @ step)[:k]
            target = w[idx] + step[:k] if np.abs(ray).max() <= tol else None
        if target is not None and target.min() > 0.0:
            w = np.zeros(s)
            w[idx] = target / target.sum()
            grad = mu - gamma_risk * (sig @ w)
            if _stationarity(w, grad) <= tol:
                return Weights(w, it)
            off = np.flatnonzero(~face)
            if not off.size:
                break
            face[off[np.argmax(grad[off])]] = True
            continue
        x = w[idx]
        if target is None:
            d, blocking = ray, ray < 0.0
        else:
            d, blocking = target - x, target <= 0.0
        ratio = np.zeros(k)  # each blocking weight's step to zero
        moving = blocking & (x > 0.0)
        ratio[moving] = x[moving] / -d[moving]
        j = np.flatnonzero(blocking)[np.argmin(ratio[blocking])]
        w[idx] = np.maximum(x + ratio[j] * d, 0.0)
        w[idx[j]] = 0.0
        w /= w.sum()
        face[idx[j]] = False
    raise ConvergenceError(
        f"mean-variance active set did not converge in {it} face solves",
        residual=_stationarity(w, mu - gamma_risk * (sig @ w)),
    )


def _weights_path(mu, sigma_eff, gammas: Sequence[float]) -> list[Weights]:
    """``mean_variance_weights`` at each ascending gamma, each solve started
    from the previous gamma's weights."""
    mu = np.asarray(mu, dtype=np.float64)
    sig = np.asarray(sigma_eff, dtype=np.float64)
    if mu.ndim != 1 or sig.shape != (mu.size, mu.size):
        raise ContractError(f"shape mismatch: mu {mu.shape}, sigma {sig.shape}")
    if not np.allclose(sig, sig.T, atol=1e-10):
        raise ContractError("sigma_eff must be symmetric")
    if min(gammas) <= 0:
        raise ContractError(f"gamma_risk must be > 0, got {min(gammas)}")
    best = np.flatnonzero(mu == mu.max())
    w = np.zeros(mu.size)
    w[best] = 1.0 / best.size
    path = []
    for gamma in gammas:
        path.append(_active_set(mu, sig, gamma, w).validate())
        w = path[-1].w
    return path


def mean_variance_weights(mu, sigma_eff, gamma_risk: float) -> Weights:
    """Maximize w'mu - (gamma_risk/2) w'Σw over the no-short simplex by the
    active-set ascent from the uniform split over the best-mean stocks."""
    return _weights_path(mu, sigma_eff, (gamma_risk,))[0]


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
    path: Path | None = None  # the prediction file read, if any

    def by_anchor(self) -> dict[dt.date, int]:
        return {a: i for i, a in enumerate(self.anchors)}


def load_prediction_frames(pred_dir) -> list[PredictionFrame]:
    """Read every ``<stock>_run<k>.csv`` in a directory into window frames."""
    p = Path(pred_dir)
    if not p.is_dir():
        raise DataError(f"missing artifact: no prediction directory {p}")
    frames = []
    for f in sorted(p.iterdir()):
        m = PREDICTION_NAME.match(f.name)
        if m is None:
            continue
        y_hat, y_true, dates, steps = load_predictions(f)
        where = f"prediction file {f}"
        bad = np.flatnonzero(~(np.isfinite(y_hat) & np.isfinite(y_true)))
        if bad.size:
            raise DataError(f"{where}: line {bad[0] + 2}: a non-finite y_hat or y_true")
        # the reader checked each anchor's steps count 1, 2, ...: anchors start at 1
        anchors = steps.count(1)
        t_out = len(steps) // anchors
        expected = list(range(1, t_out + 1)) * anchors
        if steps != expected:  # the first row off the pattern; steps are >= 1
            i = next(i for i, (s, e) in enumerate(zip(steps, expected + [0])) if s != e)
            raise DataError(f"{where}: line {i + 2}: ragged prediction horizons")
        frames.append(
            PredictionFrame(
                stock=m.group("stock"),
                run=int(m.group("run")),
                anchors=tuple(dates[::t_out]),
                y_hat=y_hat.reshape(-1, t_out),
                y_true=y_true.reshape(-1, t_out),
                path=f,
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
    qp_iterations: int
    lasso_sweeps: int | None  # None = raw covariance, no lasso


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


@dataclass(frozen=True)
class _Period:
    """One rebalancing period's inputs that do not depend on gamma."""

    start: dt.date
    mu: np.ndarray  # (S,) predicted net-return means
    sigma_eff: np.ndarray  # (S, S) sample covariance or inverse lasso precision
    realized_net: np.ndarray  # (S, t_out) realized net returns
    lasso_sweeps: int | None  # None = raw covariance, no lasso
    equal_weight_sharpe: float


@dataclass(frozen=True)
class _PreparedRun:
    """One run's stocks and its periods in calendar order."""

    run: int
    stocks: tuple[str, ...]
    periods: tuple[_Period | str, ...]  # a string is a skipped period's warning


def _degenerate(run: int, anchor: dt.date) -> str:
    return f"run {run}: period {anchor.isoformat()} skipped, degenerate realized returns"


def _prepare_run(frames: Sequence[PredictionFrame], lam: float | None) -> _PreparedRun:
    """Moments, effective covariance, realized returns and equal-weight
    Sharpe of every period: the graphical lasso runs here, once per period."""
    stocks = sorted(f.stock for f in frames)
    by_stock = {f.stock: f for f in frames}
    row_of = {f.stock: f.by_anchor() for f in frames}
    run = frames[0].run
    t_out = frames[0].y_hat.shape[1]
    odd = [f.path for f in frames if f.y_hat.shape[1] != t_out]
    if odd:
        raise DataError(f"prediction file {odd[0]}: horizon unlike {frames[0].path}'s")
    eq_w = equal_weights(len(stocks)).w
    periods: list[_Period | str] = []
    for anchor in _period_anchors(frames):
        rows_hat, rows_true = [], []
        missing = [s for s in stocks if anchor not in row_of[s]]
        if missing:
            periods.append(
                f"run {run}: period {anchor.isoformat()} skipped,"
                f" missing stocks {missing}"
            )
            continue
        for s in stocks:
            f = by_stock[s]
            i = row_of[s][anchor]
            rows_hat.append(f.y_hat[i])
            rows_true.append(f.y_true[i])
        realized_net = np.array(rows_true) - 1.0
        try:
            sr_eq = sharpe(eq_w @ realized_net)
        except DegenerateReturnsError:
            periods.append(_degenerate(run, anchor))
            continue
        try:
            moments = prediction_moments(np.array(rows_hat))
        except DataError as err:  # name the first stock whose own variance overflows
            with np.errstate(over="ignore", invalid="ignore"):
                name = stocks[int(np.argmin(np.isfinite(np.var(rows_hat, axis=1))))]
            raise DataError(
                f"prediction file {by_stock[name].path}: line {row_of[name][anchor] * t_out + 2}:"
                f" {err} in period {anchor.isoformat()} of run {run}"
            ) from None
        if lam is None:
            sigma_eff, sweeps = moments.sigma, None
        else:
            precision = graphical_lasso(moments.sigma, lam)
            sigma_eff = np.linalg.inv(precision.theta)
            sigma_eff = (sigma_eff + sigma_eff.T) / 2.0
            sweeps = precision.sweeps
        periods.append(_Period(anchor, moments.mu, sigma_eff, realized_net, sweeps, sr_eq))
    return _PreparedRun(run=run, stocks=tuple(stocks), periods=tuple(periods))


def _prepare(frames: Iterable[PredictionFrame], lam: float | None) -> list[_PreparedRun]:
    frames = list(frames)
    if not frames:
        raise ConfigError("backtest needs at least one prediction frame")
    by_run: dict[int, list[PredictionFrame]] = {}
    for f in frames:
        by_run.setdefault(f.run, []).append(f)
    return [_prepare_run(by_run[run], lam) for run in sorted(by_run)]


def _scored(prepared: Sequence[_PreparedRun]) -> Iterator[_Period]:
    """The periods that get weights, in run and calendar order."""
    return (p for prep in prepared for p in prep.periods if not isinstance(p, str))


def _score(
    prepared: Sequence[_PreparedRun],
    weights: Iterator[Weights],
    gamma_risk: float,
    lam: float | None,
) -> BacktestReport:
    """Sharpe ratios at one gamma of the scored periods' ``weights``."""
    warnings: list[str] = []
    runs = []
    for prep in prepared:
        periods = []
        for period in prep.periods:
            if isinstance(period, str):
                warnings.append(period)
                continue
            w = next(weights)
            try:
                sr = sharpe(w.w @ period.realized_net)
            except DegenerateReturnsError:
                warnings.append(_degenerate(prep.run, period.start))
                continue
            periods.append(
                PeriodResult(
                    period_start=period.start,
                    sharpe=sr,
                    equal_weight_sharpe=period.equal_weight_sharpe,
                    weights=dict(zip(prep.stocks, w.w.tolist())),
                    qp_iterations=w.iterations,
                    lasso_sweeps=period.lasso_sweeps,
                )
            )
        if not periods:
            warnings.append(f"run {prep.run}: no scorable periods")
            continue
        runs.append(
            RunBacktest(
                run=prep.run,
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
    prepared = _prepare(frames, lam)
    weights = (mean_variance_weights(p.mu, p.sigma_eff, gamma_risk) for p in _scored(prepared))
    return _score(prepared, weights, gamma_risk, lam)


def tune_gamma(
    frames: Iterable[PredictionFrame],
    grid: Sequence[float] = DEFAULT_GAMMA_GRID,
    lam: float | None = 0.1,
) -> float:
    """Grid-search the risk aversion by average Sharpe; ties take the
    smallest value so stronger risk aversion must earn its keep. The
    gamma-free period inputs, graphical lasso included, are built once, and
    each period's weights come from one pass along the sorted grid."""
    if not grid:
        raise ConfigError("gamma grid is empty")
    gammas = sorted(float(g) for g in grid)
    prepared = _prepare(frames, lam)
    paths = [_weights_path(p.mu, p.sigma_eff, gammas) for p in _scored(prepared)]
    best_gamma = None
    best_score = -np.inf
    for k, gamma in enumerate(gammas):
        try:
            report = _score(prepared, (path[k] for path in paths), gamma, lam)
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
                        "qp_iterations": p.qp_iterations,
                        "lasso_sweeps": p.lasso_sweeps,
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


def write_weights_csv(path, report: BacktestReport, run: int) -> None:
    chosen = next((r for r in report.runs if r.run == run), None)
    if chosen is None:
        raise ContractError(f"report has no run {run}")
    rows = (
        [p.period_start.isoformat(), ticker, repr(p.weights[ticker])]
        for p in chosen.periods
        for ticker in sorted(p.weights)
    )
    write_csv(path, WEIGHTS_HEADER, rows)
