"""Time the portfolio stage in-process at 5, 30 and 100 stocks, parent against change.

Each case builds one run of validation and test prediction frames (12
periods each, horizon 10) from a three-factor truth plus prediction noise,
then times ``tune_gamma`` on the default 13-point grid and ``backtest`` at
the tuned gamma, each including the gamma-free preparation (moments and
graphical lasso), whose time is also reported alone. Covariances: the raw
sample covariance, lambda = 0.1, and lambda at the 70th percentile of the
period covariances' |sigma_ij| (5 and 30 stocks only: the lasso takes
seconds per call at 100). Each side runs in its own process from its own
source tree, the sides alternating which goes first; reported are the
medians over pairs of each side's in-process medians, the face solves the
test backtest's periods record (``qp_iterations``), and whether both sides
give the same tuned gamma and the same weight bytes.

With ``--perfbench-pairs N`` it also runs ``perfbench/run.py`` on the
workloads given by ``--workloads`` in both checkouts, alternating, one seed
per pair from ``--seed0``, and reports each end-to-end metric's median and
quartiles per side and the pairs the change wins.

Usage: python scripts/bench_portfolio.py --parent PATH_TO_PARENT_CHECKOUT
           [--pairs 5] [--repeats 3] [--perfbench-pairs 10] [--seconds 15]
"""

from __future__ import annotations

import argparse
import datetime as dt
import hashlib
import json
import os
import platform
import statistics
import time
from pathlib import Path

from pairing import order, perfbench_pairs, spawn

ROOT = Path(__file__).resolve().parents[1]
T_OUT = 10
ANCHORS = 120  # per split: 12 back-to-back periods
CASES = [(s, cov) for s in (5, 30, 100) for cov in ("raw", "lambda=0.1")] + [
    (s, "lambda=q70") for s in (5, 30)
]


def factor_truth(stocks: int, days: int):
    """Gross daily returns (stocks, days): three common factors plus
    idiosyncratic noise, fixed by the universe's size (as perfbench's
    allocate-sparse workload draws them)."""
    import numpy as np

    rng = np.random.default_rng([stocks, days])
    loadings = rng.normal(0.0, 1.0, (stocks, 3))
    scale = rng.uniform(0.5, 1.5, (stocks, 1))
    drift = rng.uniform(-1e-3, 1e-3, (stocks, 1))
    factors = rng.normal(0.0, 0.008, (3, days))
    idio = rng.normal(0.0, 0.006, (stocks, days)) * scale
    return 1.0 + drift + loadings @ factors + idio


def build_case(portfolio, stocks: int):
    """Validation and test frames of one run, and the q70 penalty."""
    import numpy as np

    truth = factor_truth(stocks, 2 * ANCHORS + T_OUT)
    rng = np.random.default_rng([stocks, 3])
    day0 = dt.date(2021, 1, 4)
    splits, offdiag = [], []
    for first in (0, ANCHORS):
        anchors = range(first, first + ANCHORS)
        y_true = np.stack([truth[:, a + 1 : a + 1 + T_OUT] for a in anchors], axis=1)
        y_hat = y_true + rng.normal(0.0, 0.001, y_true.shape)
        dates = tuple(day0 + dt.timedelta(days=a) for a in anchors)
        splits.append(
            [
                portfolio.PredictionFrame(f"S{s:03d}", 0, dates, y_hat[s], y_true[s])
                for s in range(stocks)
            ]
        )
        for a in range(0, ANCHORS, T_OUT):
            sigma = np.cov(y_hat[:, a])
            offdiag.append(np.abs(sigma[~np.eye(stocks, dtype=bool)]))
    return splits[0], splits[1], float(np.quantile(np.concatenate(offdiag), 0.7))


def worker(repeats: int) -> dict:
    """Time every case with the ``dva`` on ``sys.path``; one JSON object."""
    import numpy as np

    from dva import portfolio
    from dva.errors import DvaError

    def median_ms(fn):
        times, out = [], None
        for _ in range(repeats):
            t0 = time.perf_counter()
            out = fn()
            times.append(1e3 * (time.perf_counter() - t0))
        return statistics.median(times), out

    out = {}
    for stocks, cov in CASES:
        val, test, q70 = build_case(portfolio, stocks)
        lam = {"raw": None, "lambda=0.1": 0.1, "lambda=q70": q70}[cov]
        try:
            prepare_ms, _ = median_ms(lambda: portfolio._prepare(val, lam))
            tune_ms, gamma = median_ms(lambda: portfolio.tune_gamma(val, lam=lam))
            backtest_ms, report = median_ms(lambda: portfolio.backtest(test, gamma, lam=lam))
        except DvaError as err:  # recorded, so that the other side's figures still print
            out[f"S={stocks} {cov}"] = {"lambda": lam, "error": f"{type(err).__name__}: {err}"}
            continue
        weights = np.array([[p.weights[k] for k in sorted(p.weights)] for p in report.runs[0].periods])
        out[f"S={stocks} {cov}"] = {
            "lambda": lam,
            "prepare_ms": round(prepare_ms, 2),
            "tune_gamma_ms": round(tune_ms, 2),
            "backtest_ms": round(backtest_ms, 2),
            "tuned_gamma": gamma,
            "solves": len(portfolio.DEFAULT_GAMMA_GRID) * (ANCHORS // T_OUT) + ANCHORS // T_OUT,
            "qp_iterations": sum(p.qp_iterations for r in report.runs for p in r.periods),
            "weights_sha256": hashlib.sha256(weights.tobytes()).hexdigest()[:16],
        }
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--perfbench-pairs", type=int, default=0)
    ap.add_argument("--workloads", nargs="+", default=["allocate-sparse"])
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--seed0", type=int, default=941)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        print(json.dumps(worker(args.repeats)))
        return
    if args.parent is None:
        ap.error("--parent is required")

    import numpy as np

    trees = {"parent": args.parent.resolve(), "change": ROOT}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for k in range(args.pairs):
        for side in order(k):
            runs[side].append(
                spawn(Path(__file__).resolve(), trees[side], ["--worker", "--repeats", str(args.repeats)])
            )
    cases = {}
    for name in runs["change"][0]:
        row = {}
        for side in ("parent", "change"):
            errors = {r[name]["error"] for r in runs[side] if "error" in r[name]}
            if errors:
                row[side] = {"error": sorted(errors)}
                continue
            row[side] = {
                key: round(statistics.median(r[name][key] for r in runs[side]), 2)
                for key in ("prepare_ms", "tune_gamma_ms", "backtest_ms")
            }
            row[side].update(
                {key: runs[side][0][name][key] for key in ("tuned_gamma", "qp_iterations", "weights_sha256")}
            )
            row["solves"] = runs[side][0][name]["solves"]
        row["same_gamma_and_weights"] = len({
            (r[name].get("tuned_gamma"), r[name].get("weights_sha256"))
            for side in runs for r in runs[side]
        }) == 1
        cases[name] = row

    out = {
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()},"
        f" numpy {np.__version__}, BLAS on one thread",
        "pairs": args.pairs,
        "repeats": args.repeats,
        "cases": cases,
    }
    if args.perfbench_pairs:
        out["perfbench"] = perfbench_pairs(
            trees, args.workloads, args.perfbench_pairs, args.seed0, args.seconds
        )
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
