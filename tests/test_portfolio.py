"""Portfolio stage: moments, sparse precision, simplex QP, Sharpe, backtest."""

import csv
import datetime as dt
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dva import portfolio
from dva.data import FEATURE_DIM, R_INDEX, WindowPair
from dva.errors import (
    ConfigError,
    ContractError,
    ConvergenceError,
    DataError,
    DegenerateReturnsError,
)
from dva.evaluation import write_predictions
from dva.portfolio import (
    DEFAULT_GAMMA_GRID,
    WEIGHTS_HEADER,
    BacktestReport,
    PeriodMoments,
    PeriodResult,
    PredictionFrame,
    _lasso_cd,
    backtest,
    equal_weights,
    graphical_lasso,
    load_prediction_frames,
    mean_variance_weights,
    prediction_moments,
    report_as_dict,
    sharpe,
    tune_gamma,
    write_weights_csv,
)


def random_psd(rng, s, *, ridge=0.05):
    a = rng.normal(size=(s, s))
    return a @ a.T / s + ridge * np.eye(s)


def qp_objective(w, mu, sigma, gamma):
    return w @ mu - 0.5 * gamma * w @ sigma @ w


def qp_residual(w, mu, sigma, gamma):
    grad = mu - gamma * (sigma @ w)
    support = w > 1e-12
    tau = w[support] @ grad[support]
    off = np.maximum(grad[~support] - tau, 0.0)
    return max(np.max(np.abs(grad[support] - tau)), np.max(off, initial=0.0))


def project_simplex(v):
    """Euclidean projection onto {w: w >= 0, sum w = 1} (sort-based)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, v.size + 1)
    rho = np.max(ks[u - css / ks > 0])
    tau = css[rho - 1] / rho
    return np.maximum(v - tau, 0.0)


def reference_projected_gradient(mu, sigma, gamma, max_iter=10_000, tol=1e-8):
    """Plain projected gradient ascent with the fixed step 1/(gamma ||Σ||₂),
    no face steps; returns the weights and the residual tests it made."""
    step = 1.0 / (gamma * np.linalg.eigvalsh(sigma)[-1])
    w = np.full(mu.size, 1.0 / mu.size)
    for it in range(1, max_iter + 1):
        if qp_residual(w, mu, sigma, gamma) < tol:
            return w, it
        w = project_simplex(w + step * (mu - gamma * (sigma @ w)))
    raise AssertionError("reference ascent did not converge")


def reference_lasso_cd(gram, target, lam, beta):
    """Scalar coordinate descent recomputing each partial residual from G."""
    for _ in range(1000):
        delta = 0.0
        for j in range(target.size):
            r = target[j] - gram[j] @ beta + gram[j, j] * beta[j]
            new = np.sign(r) * max(abs(r) - lam, 0.0) / gram[j, j]
            delta = max(delta, abs(new - beta[j]))
            beta[j] = new
        if delta < 1e-10:
            return beta
    raise AssertionError("reference coordinate descent did not converge")


def regularized_problems(seed, n=6, stocks=8, days=10, lam=0.05):
    """Means and inverse lasso precisions of factor-driven predictions."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        common = rng.normal(size=days)
        gross = 1.0 + 0.3 * (
            0.1 * rng.normal(size=(stocks, 1))
            + 0.6 * common
            + rng.normal(size=(stocks, days))
        )
        moments = prediction_moments(gross)
        sigma_eff = np.linalg.inv(graphical_lasso(moments.sigma, lam).theta)
        out.append((moments.mu, (sigma_eff + sigma_eff.T) / 2.0))
    return out


# ---------------------------------------------------------------------------
# prediction_moments
# ---------------------------------------------------------------------------


class TestPredictionMoments:
    def test_hand_example(self):
        # gross paths whose net returns are [[0.01, 0.03], [0.02, 0.02]]
        m = prediction_moments(np.array([[1.01, 1.03], [1.02, 1.02]]))
        np.testing.assert_allclose(m.mu, [0.02, 0.02], atol=1e-15)
        np.testing.assert_allclose(
            m.sigma, [[2e-4, 0.0], [0.0, 0.0]], atol=1e-15
        )

    def test_matches_sample_covariance(self):
        rng = np.random.default_rng(3)
        gross = 1.0 + 0.02 * rng.normal(size=(4, 9))
        m = prediction_moments(gross)
        np.testing.assert_allclose(m.mu, (gross - 1).mean(axis=1), atol=1e-15)
        np.testing.assert_allclose(m.sigma, np.cov(gross - 1, ddof=1), atol=1e-15)

    def test_single_stock(self):
        m = prediction_moments([[1.0, 1.1, 1.2]])
        assert m.sigma.shape == (1, 1)
        assert m.sigma[0, 0] == pytest.approx(np.var([0.0, 0.1, 0.2], ddof=1))

    def test_horizon_too_short(self):
        with pytest.raises(ContractError):
            prediction_moments([[1.01]])

    def test_needs_matrix(self):
        with pytest.raises(ContractError):
            prediction_moments([1.01, 1.02])

    def test_needs_stocks(self):
        with pytest.raises(ContractError):
            prediction_moments(np.empty((0, 5)))

    def test_covariance_is_psd(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            gross = 1.0 + 0.1 * rng.normal(size=(6, 4))  # rank-deficient S > T'
            m = prediction_moments(gross)  # validate() runs inside
            assert np.linalg.eigvalsh(m.sigma).min() >= -1e-10
        # at a large scale rounding alone leaves eigenvalues below -1e-10:
        # here the smallest is about -1e-9 against a largest of about 7e6
        gross = 1.0 + 1e3 * rng.normal(size=(30, 10))
        m = prediction_moments(gross)
        assert np.linalg.eigvalsh(m.sigma).min() < -1e-10

    def test_psd_tolerance(self):
        # the check accepts eigenvalues down to -eps, eps = 1e-10 * max(1,
        # largest variance): -0.5 eps passes and -2 eps fails
        q, _ = np.linalg.qr(np.random.default_rng(12).normal(size=(4, 4)))
        for scale in (1.0, 50.0):
            eps = 1e-10 * scale
            for smallest, ok in ((-0.5 * eps, True), (-2.0 * eps, False)):
                # the largest variance is exactly scale, on a stock of its own
                sigma = np.zeros((5, 5))
                sigma[0, 0] = scale
                sigma[1:, 1:] = q @ np.diag([0.6, 0.3, 0.1, smallest]) @ q.T
                sigma = (sigma + sigma.T) / 2.0
                moments = PeriodMoments(mu=np.zeros(5), sigma=sigma)
                if ok:
                    moments.validate()
                else:
                    with pytest.raises(ContractError, match="positive semidefinite"):
                        moments.validate()

    def test_permutation_consistency(self):
        rng = np.random.default_rng(5)
        gross = 1.0 + 0.05 * rng.normal(size=(3, 7))
        perm = [2, 0, 1]
        m = prediction_moments(gross)
        mp = prediction_moments(gross[perm])
        np.testing.assert_array_equal(mp.mu, m.mu[perm])
        np.testing.assert_array_equal(mp.sigma, m.sigma[np.ix_(perm, perm)])


# ---------------------------------------------------------------------------
# graphical_lasso
# ---------------------------------------------------------------------------


class TestGraphicalLasso:
    def test_zero_penalty_recovers_inverse(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            s = random_psd(rng, 6, ridge=0.5)
            theta = graphical_lasso(s, 0.0).theta
            expect = np.linalg.inv(s + 1e-8 * np.eye(6))
            assert np.max(np.abs(theta - expect)) < 1e-6

    def test_kkt_conditions_at_penalty(self):
        # the acceptance-scale setup: S=10 stocks from T'=10 samples (rank
        # deficient before the jitter)
        rng = np.random.default_rng(21)
        lam = 0.1
        for _ in range(5):
            draws = rng.normal(size=(10, 10))
            s = np.cov(draws, ddof=1)
            prec = graphical_lasso(s, lam)
            theta = prec.theta
            np.testing.assert_allclose(theta, theta.T, atol=1e-12)
            assert np.linalg.eigvalsh(theta).min() > 0
            w = np.linalg.inv(theta)
            gap = np.abs(w - s)
            diag_gap = np.abs(np.diag(gap) - 1e-8).max()
            np.fill_diagonal(gap, 0.0)
            assert gap.max() <= lam + 1e-6
            assert diag_gap < 1e-6

    def test_identity_fixed_point(self):
        for lam in (0.0, 0.3, 5.0):
            theta = graphical_lasso(np.eye(4), lam).theta
            assert np.max(np.abs(theta - np.eye(4))) < 1e-6

    def test_large_penalty_diagonal(self):
        s = np.array([[2.0, 0.5], [0.5, 1.0]])
        theta = graphical_lasso(s, 10.0).theta
        np.testing.assert_allclose(theta, np.diag([0.5, 1.0]), atol=1e-6)

    def test_single_stock(self):
        theta = graphical_lasso(np.array([[4.0]]), 0.2).theta
        assert theta[0, 0] == pytest.approx(0.25, abs=1e-8)

    def test_rank_deficient_workable_under_penalty(self):
        # exact inversion is only promised for well-conditioned inputs; a
        # rank-1 covariance must still solve cleanly once the penalty is on
        v = np.array([0.01, 0.02, 0.03])
        s = np.outer(v, v)  # rank 1
        prec = graphical_lasso(s, 0.1)
        assert np.all(np.isfinite(prec.theta))
        assert np.linalg.eigvalsh(prec.theta).min() > 0
        gap = np.abs(np.linalg.inv(prec.theta) - (s + 1e-8 * np.eye(3)))
        diag_gap = np.diag(gap).max()
        np.fill_diagonal(gap, 0.0)
        assert gap.max() <= 0.1 + 1e-6
        assert diag_gap < 1e-6

    def test_rejects_bad_inputs(self):
        with pytest.raises(ContractError):
            graphical_lasso(np.zeros((2, 3)), 0.1)
        with pytest.raises(ContractError):
            graphical_lasso(np.array([[1.0, 0.5], [0.2, 1.0]]), 0.1)
        with pytest.raises(ContractError):
            graphical_lasso(np.eye(2), -0.1)
        with pytest.raises(ContractError):
            graphical_lasso(np.diag([1.0, -0.5]), 0.1)

    def test_nonconvergence_carries_residual(self, monkeypatch):
        rng = np.random.default_rng(2)
        s = random_psd(rng, 8)
        monkeypatch.setattr(portfolio, "GLASSO_MAX_SWEEPS", 1)
        with pytest.raises(ConvergenceError) as err:
            graphical_lasso(s, 0.1)
        assert np.isfinite(err.value.residual)
        assert "residual" in str(err.value)

    def test_inner_solve_cap_raises_with_last_step(self):
        # a near-singular gram: coordinate descent contracts by about
        # (1 - 1e-7)^2 per sweep, so 1000 sweeps leave it far from optimal
        gram = np.array([[1.0, 1.0 - 1e-7], [1.0 - 1e-7, 1.0]])
        with pytest.raises(ConvergenceError, match="1000 sweeps") as err:
            _lasso_cd(gram, np.array([1.0, 0.0]), 0.0, np.zeros(2))
        assert err.value.residual > 1e-10

    @pytest.mark.parametrize("lam", [0.0, 0.05, 0.3])
    def test_inner_solve_matches_scalar_reference(self, lam):
        rng = np.random.default_rng(41)
        for _ in range(8):
            gram = random_psd(rng, 7, ridge=0.1)
            target = rng.normal(size=7)
            start = rng.normal(size=7) * (rng.uniform(size=7) < 0.5)
            got = _lasso_cd(gram, target, lam, start.copy())
            expect = reference_lasso_cd(gram, target, lam, start.copy())
            assert np.max(np.abs(got - expect)) <= 1e-10

    def test_inner_solve_updates_warm_start_in_place(self):
        rng = np.random.default_rng(43)
        beta = np.zeros(5)
        out = _lasso_cd(random_psd(rng, 5), rng.normal(size=5), 0.05, beta)
        assert out is beta and np.any(beta != 0.0)

    def test_stop_is_scale_free(self):
        # rank-deficient 12-stock covariances from 5 days of daily-scale
        # returns: the optimality conditions must hold relative to lambda
        rng = np.random.default_rng(8)
        lam = 1e-5
        worst = 0.0
        for _ in range(20):
            s = np.cov(0.01 * rng.normal(size=(12, 5)), ddof=1)
            theta = graphical_lasso(s, lam).theta
            gap = np.linalg.inv(theta) - (s + 1e-8 * np.eye(12))
            off = ~np.eye(12, dtype=bool)
            active = off & (theta != 0.0)
            worst = max(
                worst,
                np.max(np.abs(np.diag(gap))),
                np.max(np.abs(gap[active] - lam * np.sign(theta[active])), initial=0.0),
                np.max(np.abs(gap[off & (theta == 0.0)]) - lam, initial=0.0),
            )
        assert worst < 1e-3 * lam

    def test_sweeps_recorded(self):
        rng = np.random.default_rng(2)
        assert graphical_lasso(random_psd(rng, 5), 0.1).sweeps >= 1
        assert graphical_lasso(np.array([[4.0]]), 0.1).sweeps == 0

    def test_penalty_recorded(self):
        assert graphical_lasso(np.eye(2), 0.25).lam == 0.25


# ---------------------------------------------------------------------------
# mean_variance_weights
# ---------------------------------------------------------------------------


class TestMeanVarianceWeights:
    def test_hand_interior(self):
        w = mean_variance_weights(np.array([0.1, 0.2]), np.eye(2), 1.0)
        np.testing.assert_allclose(w.w, [0.45, 0.55], atol=1e-6)

    def test_hand_boundary(self):
        w = mean_variance_weights(np.array([-1.0, 0.5]), np.eye(2), 1.0)
        np.testing.assert_allclose(w.w, [0.0, 1.0], atol=1e-6)

    @pytest.mark.parametrize("s", [2, 3, 5])
    def test_equal_means_split_evenly(self, s):
        w = mean_variance_weights(np.full(s, 0.05), 0.3 * np.eye(s), 2.0)
        np.testing.assert_allclose(w.w, np.full(s, 1.0 / s), atol=1e-8)

    def test_identical_stocks_stay_uniform_exactly(self):
        # equal means and an all-equal covariance leave no preference: the
        # first face's system is singular, and the uniform start is already
        # stationary, so it is returned bit for bit
        sigma = np.full((3, 3), 0.04)
        w = mean_variance_weights(np.full(3, 0.01), sigma, 1.5)
        assert np.array_equal(w.w, np.full(3, 1.0 / 3.0))

    def test_matches_projected_gradient_reference(self):
        for mu, sigma in regularized_problems(3):
            for gamma in DEFAULT_GAMMA_GRID:
                got = mean_variance_weights(mu, sigma, gamma).w
                expect, _ = reference_projected_gradient(mu, sigma, gamma)
                assert np.max(np.abs(got - expect)) <= 1e-5

    def test_iteration_count_stays_low(self):
        # the active set ends most solves within a few KKT solves: on these
        # 78 problems the plain projected-gradient reference needs 3973
        # iterations, the active set from the best-mean stocks 342 solves
        total = sum(
            mean_variance_weights(mu, sigma, gamma).iterations
            for mu, sigma in regularized_problems(3)
            for gamma in DEFAULT_GAMMA_GRID
        )
        assert total < 450

    def test_raw_rank_deficient_covariances(self):
        # 30 stocks from 10 days: Σ has rank 9, so every face of more than
        # nine stocks has a singular KKT system
        rng = np.random.default_rng(19)
        for _ in range(3):
            gross = 1.0 + 0.01 * rng.normal(size=(30, 10)) + 0.002 * rng.normal(size=(30, 1))
            m = prediction_moments(gross)
            for gamma in DEFAULT_GAMMA_GRID:
                w = mean_variance_weights(m.mu, m.sigma, gamma)
                assert abs(w.w.sum() - 1.0) <= 1e-9 and w.w.min() >= 0.0
                assert qp_residual(w.w, m.mu, m.sigma, gamma) < 1e-8

    def test_iterations_recorded(self):
        # the face systems solved: one for identical stocks and one for a
        # zero covariance, whose singular first face holds a stationary start
        w = mean_variance_weights(np.array([0.1, 0.2]), np.eye(2), 1.0)
        assert w.iterations >= 1
        assert mean_variance_weights(np.full(3, 0.01), np.full((3, 3), 0.04), 1.5).iterations == 1
        assert mean_variance_weights(np.ones(2), np.zeros((2, 2)), 1.0).iterations == 1

    @pytest.mark.parametrize("c", [1e-6, 1e6])
    def test_stationarity_is_scale_free(self, c):
        # scaling mu and Σ together scales the objective, not its optimum:
        # a stationarity test in return units would accept a wrong face at
        # 1e-6 and chase rounding at 1e6
        for mu, sigma in [*regularized_problems(3), *raw_rank9_problems(19)]:
            for gamma in DEFAULT_GAMMA_GRID:
                base = mean_variance_weights(mu, sigma, gamma).w
                scaled = mean_variance_weights(c * mu, c * sigma, gamma).w
                assert np.array_equal(scaled > 0.0, base > 0.0)

    def test_grid_search_two_stocks(self):
        rng = np.random.default_rng(17)
        grid = np.linspace(0.0, 1.0, 1001)
        cand = np.stack([grid, 1.0 - grid], axis=1)
        for _ in range(10):
            mu = 0.3 * rng.normal(size=2)
            sigma = random_psd(rng, 2)
            gamma = float(rng.uniform(0.5, 5.0))
            w = mean_variance_weights(mu, sigma, gamma).w
            objs = cand @ mu - 0.5 * gamma * np.einsum("ij,jk,ik->i", cand, sigma, cand)
            best = cand[int(np.argmax(objs))]
            assert np.max(np.abs(w - best)) <= 2e-3
            assert qp_objective(w, mu, sigma, gamma) >= objs.max() - 1e-6

    def test_grid_search_three_stocks(self):
        rng = np.random.default_rng(29)
        mu = np.array([0.03, -0.01, 0.02])
        sigma = random_psd(rng, 3)
        gamma = 2.0
        w = mean_variance_weights(mu, sigma, gamma).w
        ticks = np.arange(1001)
        i, j = np.meshgrid(ticks, ticks, indexing="ij")
        keep = i + j <= 1000
        cand = (
            np.stack([i[keep], j[keep], 1000 - i[keep] - j[keep]], axis=1) / 1000.0
        )
        objs = cand @ mu - 0.5 * gamma * np.einsum("ij,jk,ik->i", cand, sigma, cand)
        best = cand[int(np.argmax(objs))]
        assert np.max(np.abs(w - best)) <= 2e-3
        assert qp_objective(w, mu, sigma, gamma) >= objs.max() - 1e-6

    @pytest.mark.parametrize("c", [2.0, 0.5, 8.0])
    def test_scale_equivariance(self, c):
        # rescaling the return unit by c multiplies mu by c, the covariance
        # by c^2, and the natural risk aversion by 1/c; weights are invariant
        rng = np.random.default_rng(31)
        mu = 0.1 * rng.normal(size=3)
        sigma = random_psd(rng, 3)
        gamma = 1.7
        base = mean_variance_weights(mu, sigma, gamma).w
        scaled = mean_variance_weights(c * mu, c * c * sigma, gamma / c).w
        np.testing.assert_allclose(scaled, base, atol=1e-9)

    @given(
        seed=st.integers(0, 10_000),
        s=st.integers(2, 4),
        gamma=st.floats(0.2, 5.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_simplex_feasibility(self, seed, s, gamma):
        rng = np.random.default_rng(seed)
        mu = 0.5 * rng.uniform(-1.0, 1.0, size=s)
        w = mean_variance_weights(mu, random_psd(rng, s), gamma).w
        assert abs(w.sum() - 1.0) <= 1e-9
        assert w.min() >= 0.0

    def test_zero_covariance_takes_best_mean(self):
        w = mean_variance_weights(np.array([0.2, 0.2, 0.1]), np.zeros((3, 3)), 1.0)
        np.testing.assert_array_equal(w.w, [0.5, 0.5, 0.0])

    def test_rejects_bad_inputs(self):
        with pytest.raises(ContractError):
            mean_variance_weights(np.zeros(2), np.eye(3), 1.0)
        with pytest.raises(ContractError):
            mean_variance_weights(np.zeros(2), np.array([[1.0, 0.5], [0.2, 1.0]]), 1.0)
        with pytest.raises(ContractError):
            mean_variance_weights(np.zeros(2), np.eye(2), 0.0)

    def test_equal_weights_helper(self):
        np.testing.assert_array_equal(equal_weights(4).w, np.full(4, 0.25))
        with pytest.raises(ContractError):
            equal_weights(0)


def raw_rank9_problems(seed, n=3):
    """Means and raw sample covariances of 30 stocks over 10 days (rank 9)."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        gross = 1.0 + 0.01 * rng.normal(size=(30, 10)) + 0.002 * rng.normal(size=(30, 1))
        m = prediction_moments(gross)
        yield m.mu, m.sigma


class TestWeightsPath:
    """One pass along the sorted grid per period, each gamma started from the
    previous gamma's weights, gives what a lone solve at that gamma gives."""

    def check_path(self, mu, sigma, ref_tol):
        path = portfolio._weights_path(mu, sigma, DEFAULT_GAMMA_GRID)
        assert len(path) == len(DEFAULT_GAMMA_GRID)
        for gamma, w in zip(DEFAULT_GAMMA_GRID, path):
            assert np.array_equal(w.w, mean_variance_weights(mu, sigma, gamma).w)
            assert qp_residual(w.w, mu, sigma, gamma) < 1e-8
            try:
                expect, _ = reference_projected_gradient(mu, sigma, gamma, tol=ref_tol)
            except AssertionError:
                continue  # the reference did not converge
            assert np.max(np.abs(w.w - expect)) <= 1e-5

    @pytest.mark.parametrize("s", range(2, 13))
    def test_positive_definite(self, s):
        rng = np.random.default_rng(200 + s)
        for _ in range(2):
            self.check_path(0.1 * rng.normal(size=s), random_psd(rng, s), 1e-8)

    def test_raw_rank_deficient(self):
        # at 1 % daily returns a 1e-8 residual leaves the reference up to
        # 2e-5 from the optimum, so it runs to 1e-10 here
        for mu, sigma in raw_rank9_problems(19):
            self.check_path(mu, sigma, 1e-10)

    def test_nonsingular_faces_end_every_solve_here(self, monkeypatch):
        # the regularized and rank-9 problems meet no singular face, so no
        # solve takes the least-squares step
        calls = []
        monkeypatch.setattr(np.linalg, "lstsq", lambda *args, **kw: calls.append(args))
        for mu, sigma in [*regularized_problems(3), *raw_rank9_problems(19)]:
            portfolio._weights_path(mu, sigma, DEFAULT_GAMMA_GRID)
        assert calls == []

    def test_identical_stocks_path_stays_uniform(self):
        # every face's KKT system is singular, and the uniform start, and
        # each gamma's start from the last, is already stationary
        mu, sigma = np.full(3, 0.01), np.full((3, 3), 0.04)
        for w in portfolio._weights_path(mu, sigma, (0.5, 1.5)):
            assert np.array_equal(w.w, np.full(3, 1.0 / 3.0))
            assert w.iterations == 1

    def test_any_feasible_start_reaches_the_same_optimum(self):
        # the optimum face is unique, so whichever feasible point the active
        # set starts from, it ends on the same face solve, bit for bit
        rng = np.random.default_rng(47)
        for mu, sigma in regularized_problems(3):
            expect = mean_variance_weights(mu, sigma, 2.0)
            starts = [np.eye(mu.size)[k] for k in range(mu.size)]
            for _ in range(4):
                start = rng.uniform(size=mu.size) * (rng.uniform(size=mu.size) < 0.6)
                start[rng.integers(mu.size)] += 1.0
                starts.append(start / start.sum())
            for start in starts:
                got = portfolio._active_set(mu, sigma, 2.0, start)
                assert np.array_equal(got.w, expect.w)

    def test_singular_faces(self, monkeypatch):
        """Low-rank Σ (rank r < S, twin stocks of equal or unequal means)
        along the default grid: feasible, stationary relative to the
        gradient's scale, and no worse than the projected-gradient reference
        where it converges; some case takes the zero-curvature step."""
        lstsq = np.linalg.lstsq
        rays = []

        def counted(a, b, rcond=None):
            out = lstsq(a, b, rcond=rcond)
            k = b.size - 1  # an inconsistent step problem leaves a residual
            rays.append(np.abs((b - a @ out[0])[:k]).max() > 1e-9 * np.abs(b).max())
            return out

        monkeypatch.setattr(np.linalg, "lstsq", counted)

        @given(
            seed=st.integers(0, 10_000),
            s=st.integers(2, 6),
            rank=st.integers(1, 5),
            twin=st.sampled_from(["none", "equal", "unequal"]),
        )
        @example(seed=40, s=3, rank=1, twin="none")  # a three-stock face, rank 1
        @settings(max_examples=25, deadline=None)
        def check(seed, s, rank, twin):
            rng = np.random.default_rng(seed)
            loadings = rng.choice([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0], size=(s, min(rank, s - 1)))
            mu = rng.integers(0, 4, size=s) / 100
            if twin != "none":
                loadings[1] = loadings[0]
                mu[1] = mu[0] + (0.01 if twin == "unequal" else 0.0)
            sigma = loadings @ loadings.T / 10
            path = portfolio._weights_path(mu, sigma, DEFAULT_GAMMA_GRID)
            for gamma, w in zip(DEFAULT_GAMMA_GRID, path):
                scale = np.abs(mu).max() + gamma * np.abs(sigma).max()
                assert abs(w.w.sum() - 1.0) <= 1e-9 and w.w.min() >= 0.0
                assert qp_residual(w.w, mu, sigma, gamma) <= 1e-12 * scale
                try:
                    expect, _ = reference_projected_gradient(
                        mu, sigma, gamma, max_iter=500, tol=1e-9 * scale
                    )
                except AssertionError:
                    continue  # the reference did not converge
                got = qp_objective(w.w, mu, sigma, gamma)
                assert got >= qp_objective(expect, mu, sigma, gamma) - 1e-10

        check()
        assert any(rays)


# ---------------------------------------------------------------------------
# sharpe
# ---------------------------------------------------------------------------


class TestSharpe:
    def test_hand_example(self):
        assert sharpe([0.02, 0.00]) == pytest.approx(0.70711, abs=1e-5)

    def test_constant_returns_degenerate(self):
        with pytest.raises(DegenerateReturnsError):
            sharpe([0.01, 0.01, 0.01])

    def test_too_short(self):
        with pytest.raises(ContractError):
            sharpe([0.01])

    def test_needs_flat_series(self):
        with pytest.raises(ContractError):
            sharpe(np.zeros((2, 2)))

    def test_uses_sample_sd(self):
        r = np.array([0.01, 0.02, 0.06])
        assert sharpe(r) == pytest.approx(r.mean() / r.std(ddof=1))

    @given(
        seed=st.integers(0, 10_000),
        c=st.floats(0.01, 100.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_positive_scale_invariant(self, seed, c):
        rng = np.random.default_rng(seed)
        r = rng.normal(size=6)
        assert sharpe(c * r) == pytest.approx(sharpe(r), abs=1e-9)
        assert sharpe(-r) == pytest.approx(-sharpe(r), abs=1e-12)


# ---------------------------------------------------------------------------
# backtest
# ---------------------------------------------------------------------------

D0 = dt.date(2024, 1, 1)


def seq_dates(n, start=D0):
    return tuple(start + dt.timedelta(days=i) for i in range(n))


def make_frame(stock, run, y_hat, y_true, anchors=None):
    y_hat = np.asarray(y_hat, dtype=np.float64)
    y_true = np.asarray(y_true, dtype=np.float64)
    if anchors is None:
        anchors = seq_dates(y_hat.shape[0])
    return PredictionFrame(
        stock=stock, run=run, anchors=tuple(anchors), y_hat=y_hat, y_true=y_true
    )


def varied_universe(rng, stocks=("AAA", "BBB"), runs=(0,), windows=6, t_out=3):
    frames = []
    for run in runs:
        for k, stock in enumerate(stocks):
            y_true = 1.0 + 0.02 * rng.normal(size=(windows, t_out)) + 0.001 * k
            y_hat = y_true + 0.005 * rng.normal(size=(windows, t_out))
            frames.append(make_frame(stock, run, y_hat, y_true))
    return frames


class TestBacktest:
    def test_period_tiling_every_horizon(self):
        rng = np.random.default_rng(0)
        frames = varied_universe(rng, windows=7, t_out=3)
        report = backtest(frames, gamma_risk=1.0, lam=None)
        starts = [p.period_start for p in report.runs[0].periods]
        assert starts == [D0, D0 + dt.timedelta(days=3), D0 + dt.timedelta(days=6)]

    def test_identical_stocks_match_equal_weight_exactly(self):
        rng = np.random.default_rng(1)
        y_true = 1.0 + 0.02 * rng.normal(size=(6, 3))
        y_hat = y_true + 0.005 * rng.normal(size=(6, 3))
        frames = [
            make_frame("AAA", 0, y_hat, y_true),
            make_frame("BBB", 0, y_hat, y_true),
        ]
        report = backtest(frames, gamma_risk=2.0, lam=None)
        assert report.runs[0].periods
        for p in report.runs[0].periods:
            assert p.sharpe == p.equal_weight_sharpe
            assert p.weights == {"AAA": 0.5, "BBB": 0.5}
        assert report.avg_sharpe == report.avg_equal_weight_sharpe

    def test_missing_stock_skips_period_with_warning(self):
        rng = np.random.default_rng(2)
        frames = varied_universe(rng, windows=6, t_out=3)
        partial = frames[1]
        frames[1] = make_frame(
            partial.stock,
            partial.run,
            partial.y_hat[1:],
            partial.y_true[1:],
            anchors=partial.anchors[1:],  # drops the first period's anchor
        )
        report = backtest(frames, gamma_risk=1.0, lam=None)
        starts = [p.period_start for p in report.runs[0].periods]
        assert D0 not in starts and D0 + dt.timedelta(days=3) in starts
        assert any("skipped" in w and "BBB" in w for w in report.warnings)

    def test_degenerate_period_skipped_with_warning(self):
        rng = np.random.default_rng(3)
        frames = varied_universe(rng, windows=6, t_out=3)
        for i, f in enumerate(frames):
            y_true = f.y_true.copy()
            y_true[0] = 1.01  # first period realizes a constant return
            frames[i] = make_frame(f.stock, f.run, f.y_hat, y_true)
        report = backtest(frames, gamma_risk=1.0, lam=None)
        starts = [p.period_start for p in report.runs[0].periods]
        assert D0 not in starts
        assert any("degenerate" in w for w in report.warnings)

    def test_all_periods_degenerate_is_config_error(self):
        frames = [
            make_frame("AAA", 0, np.full((3, 3), 1.01), np.full((3, 3), 1.01)),
            make_frame("BBB", 0, np.full((3, 3), 1.02), np.full((3, 3), 1.02)),
        ]
        with pytest.raises(ConfigError):
            backtest(frames, gamma_risk=1.0, lam=None)

    def test_no_frames_is_config_error(self):
        with pytest.raises(ConfigError):
            backtest([], gamma_risk=1.0)

    def test_averages_are_means_over_periods_and_runs(self):
        rng = np.random.default_rng(4)
        frames = varied_universe(rng, runs=(0, 1), windows=6, t_out=3)
        report = backtest(frames, gamma_risk=1.0, lam=None)
        assert [r.run for r in report.runs] == [0, 1]
        for r in report.runs:
            assert r.avg_sharpe == pytest.approx(
                np.mean([p.sharpe for p in r.periods])
            )
        assert report.avg_sharpe == pytest.approx(
            np.mean([r.avg_sharpe for r in report.runs])
        )

    def test_regularized_covariance_path(self):
        rng = np.random.default_rng(5)
        frames = varied_universe(rng, stocks=("A", "B", "C"), windows=8, t_out=4)
        report = backtest(frames, gamma_risk=1.0, lam=0.05)
        assert report.lam == 0.05
        assert all(np.isfinite(p.sharpe) for p in report.runs[0].periods)

    def test_horizon_disagreement_rejected(self):
        frames = [
            make_frame("AAA", 0, np.ones((4, 3)) + 0.01, np.ones((4, 3))),
            make_frame("BBB", 0, np.ones((4, 2)) + 0.01, np.ones((4, 2))),
        ]
        with pytest.raises(DataError):
            backtest(frames, gamma_risk=1.0, lam=None)

    def test_weights_on_simplex_every_period(self):
        rng = np.random.default_rng(6)
        frames = varied_universe(rng, stocks=("A", "B", "C"), windows=9, t_out=3)
        report = backtest(frames, gamma_risk=0.5, lam=None)
        for p in report.runs[0].periods:
            total = sum(p.weights.values())
            assert abs(total - 1.0) <= 1e-9
            assert min(p.weights.values()) >= 0.0

    def test_skips_match_hand_built_expectation(self):
        # run 0: BBB lacks the first period; the second period realizes a
        # constant return for every stock; only the third is scored.
        # run 1: every period realizes a constant return.
        rng = np.random.default_rng(11)
        frames = varied_universe(rng, runs=(0, 1), windows=9, t_out=3)
        for i, f in enumerate(frames):
            y_true = f.y_true.copy()
            y_true[3] = 1.01
            if f.run == 1:
                y_true[:] = 1.01
            frames[i] = make_frame(f.stock, f.run, f.y_hat, y_true)
        bbb = frames[1]
        frames[1] = make_frame(
            "BBB", 0, bbb.y_hat[1:], bbb.y_true[1:], anchors=bbb.anchors[1:]
        )
        report = backtest(frames, gamma_risk=2.0, lam=0.05)

        day = [(D0 + dt.timedelta(days=k)).isoformat() for k in (0, 3, 6)]
        assert report.warnings == (
            f"run 0: period {day[0]} skipped, missing stocks ['BBB']",
            f"run 0: period {day[1]} skipped, degenerate realized returns",
            f"run 1: period {day[0]} skipped, degenerate realized returns",
            f"run 1: period {day[1]} skipped, degenerate realized returns",
            f"run 1: period {day[2]} skipped, degenerate realized returns",
            "run 1: no scorable periods",
        )
        pred = np.array([frames[0].y_hat[6], frames[1].y_hat[5]])
        realized = np.array([frames[0].y_true[6], frames[1].y_true[5]]) - 1.0
        moments = prediction_moments(pred)
        precision = graphical_lasso(moments.sigma, 0.05)
        sigma_eff = np.linalg.inv(precision.theta)
        weights = mean_variance_weights(moments.mu, (sigma_eff + sigma_eff.T) / 2.0, 2.0)
        w = weights.w
        expected = PeriodResult(
            period_start=D0 + dt.timedelta(days=6),
            sharpe=sharpe(w @ realized),
            equal_weight_sharpe=sharpe(realized.mean(axis=0)),
            weights={"AAA": float(w[0]), "BBB": float(w[1])},
            qp_iterations=weights.iterations,
            lasso_sweeps=precision.sweeps,
        )
        assert [r.run for r in report.runs] == [0]
        assert report.runs[0].periods == (expected,)


    def test_warning_order_mixes_prepared_and_scored_skips(self, monkeypatch):
        # period 0 lacks BBB; in period 1 only the weights' returns are
        # degenerate (everything on AAA, which realizes a constant), so it is
        # skipped per gamma; in period 2 the equal-weight returns are
        # degenerate too, so it is skipped before any lasso or solve
        rng = np.random.default_rng(13)
        frames = varied_universe(rng, windows=12, t_out=3)
        aaa, bbb = frames
        a_hat, a_true, b_true = aaa.y_hat.copy(), aaa.y_true.copy(), bbb.y_true.copy()
        a_hat[3] += 0.5
        a_true[3] = 1.01
        a_true[6] = b_true[6] = 1.02
        frames = [
            make_frame("AAA", 0, a_hat, a_true),
            make_frame("BBB", 0, bbb.y_hat[1:], b_true[1:], anchors=bbb.anchors[1:]),
        ]
        calls = []

        def counting(sigma, lam):
            calls.append(lam)
            return graphical_lasso(sigma, lam)

        monkeypatch.setattr(portfolio, "graphical_lasso", counting)
        report = backtest(frames, gamma_risk=0.1, lam=0.05)
        day = [(D0 + dt.timedelta(days=k)).isoformat() for k in (0, 3, 6, 9)]
        assert report.warnings == (
            f"run 0: period {day[0]} skipped, missing stocks ['BBB']",
            f"run 0: period {day[1]} skipped, degenerate realized returns",
            f"run 0: period {day[2]} skipped, degenerate realized returns",
        )
        assert [p.period_start.isoformat() for p in report.runs[0].periods] == [day[3]]
        assert len(calls) == 2  # periods 1 and 3


class TestTuneGamma:
    def build_regimes(self):
        # stock A: optimistic forecasts, volatile and losing in reality;
        # stock B: modest forecasts, steady small gains. High risk aversion
        # tilts to B and earns the better Sharpe.
        rng = np.random.default_rng(9)
        windows, t_out = 8, 4
        a_hat = 1.0 + 0.05 + 0.02 * rng.normal(size=(windows, t_out))
        a_true = 1.0 - 0.01 + 0.04 * rng.normal(size=(windows, t_out))
        b_hat = 1.0 + 0.004 + 0.001 * rng.normal(size=(windows, t_out))
        b_true = 1.0 + 0.003 + 0.001 * rng.normal(size=(windows, t_out))
        return [
            make_frame("AAA", 0, a_hat, a_true),
            make_frame("BBB", 0, b_hat, b_true),
        ]

    def test_prefers_risk_aversion_that_pays(self):
        frames = self.build_regimes()
        grid = (0.1, 1.0, 10.0, 100.0)
        best = tune_gamma(frames, grid=grid, lam=None)
        scores = {g: backtest(frames, g, lam=None).avg_sharpe for g in grid}
        assert scores[best] == max(scores.values())
        assert scores[100.0] > scores[0.1]

    def build_sparse_regimes(self):
        # three stocks sharing a common factor at return scales where
        # lambda = 0.05 leaves some off-diagonal precision entries nonzero
        rng = np.random.default_rng(2)
        windows, t_out = 12, 4
        common = rng.normal(size=(windows, t_out))
        frames = []
        for stock, drift, scale in (("A", 0.3, 0.6), ("B", 0.1, 0.2), ("C", 0.05, 0.1)):
            y_true = 1.0 + 0.1 * drift + scale * (0.5 * common + rng.normal(size=(windows, t_out)))
            y_hat = 1.0 + drift + scale * (0.5 * common + rng.normal(size=(windows, t_out)))
            frames.append(make_frame(stock, 0, y_hat, y_true))
        return frames

    def test_matches_backtest_argmax_under_penalty(self):
        frames = self.build_sparse_regimes()
        thetas = [
            graphical_lasso(
                prediction_moments(np.array([f.y_hat[a] for f in frames])).sigma, 0.05
            ).theta
            for a in (0, 4, 8)
        ]
        assert any(np.count_nonzero(t - np.diag(np.diag(t))) for t in thetas)
        scores = [backtest(frames, g, lam=0.05).avg_sharpe for g in DEFAULT_GAMMA_GRID]
        assert len(set(scores)) > 1
        best = DEFAULT_GAMMA_GRID[int(np.argmax(scores))]  # first maximum
        assert tune_gamma(frames, lam=0.05) == best

    def test_one_lasso_call_per_scored_period(self, monkeypatch):
        rng = np.random.default_rng(12)
        frames = varied_universe(
            rng, stocks=("A", "B", "C"), runs=(0, 1), windows=9, t_out=3
        )
        partial = frames[4]  # run 1, stock B: drop the first period's anchor
        frames[4] = make_frame(
            "B", 1, partial.y_hat[1:], partial.y_true[1:], anchors=partial.anchors[1:]
        )
        calls = []

        def counting(sigma, lam):
            calls.append(lam)
            return graphical_lasso(sigma, lam)

        monkeypatch.setattr(portfolio, "graphical_lasso", counting)
        tune_gamma(frames, grid=DEFAULT_GAMMA_GRID, lam=0.05)
        assert calls == [0.05] * 5  # 3 periods in run 0, 2 in run 1

    def test_ties_take_smallest(self):
        rng = np.random.default_rng(10)
        y_true = 1.0 + 0.02 * rng.normal(size=(6, 3))
        y_hat = y_true + 0.005 * rng.normal(size=(6, 3))
        frames = [
            make_frame("AAA", 0, y_hat, y_true),
            make_frame("BBB", 0, y_hat, y_true),
        ]  # identical stocks: every gamma scores the same
        assert tune_gamma(frames, grid=(3.0, 1.0, 2.0), lam=None) == 1.0

    def test_all_degenerate_is_config_error(self):
        frames = [
            make_frame("AAA", 0, np.full((3, 3), 1.01), np.full((3, 3), 1.0)),
            make_frame("BBB", 0, np.full((3, 3), 1.02), np.full((3, 3), 1.0)),
        ]
        with pytest.raises(ConfigError):
            tune_gamma(frames, lam=None)

    def test_empty_grid_is_config_error(self):
        with pytest.raises(ConfigError):
            tune_gamma(self.build_regimes(), grid=())

    def test_default_grid_shape(self):
        assert len(DEFAULT_GAMMA_GRID) == 13
        assert DEFAULT_GAMMA_GRID[0] == pytest.approx(0.1)
        assert DEFAULT_GAMMA_GRID[-1] == pytest.approx(100.0)
        ratios = np.diff(np.log10(DEFAULT_GAMMA_GRID))
        np.testing.assert_allclose(ratios, ratios[0])


# ---------------------------------------------------------------------------
# prediction-frame loading and artifacts
# ---------------------------------------------------------------------------


def write_frame_csv(path, anchors, y_hat, y_true, t_in=4):
    pairs = []
    for a, truth in zip(anchors, y_true):
        x = np.zeros((t_in, FEATURE_DIM))
        x[:, R_INDEX] = 1.0
        pairs.append(
            WindowPair(x=x, y=np.asarray(truth), anchor_date=a, anchor_index=t_in - 1)
        )
    write_predictions(path, pairs, np.asarray(y_hat))


class TestLoadPredictionFrames:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        y_true = 1.0 + 0.01 * rng.normal(size=(5, 3))
        y_hat = y_true + 0.002 * rng.normal(size=(5, 3))
        anchors = seq_dates(5)
        write_frame_csv(tmp_path / "ABC_run0.csv", anchors, y_hat, y_true)
        write_frame_csv(tmp_path / "ABC_run1.csv", anchors, y_hat + 0.01, y_true)
        (tmp_path / "notes.txt").write_text("ignored\n")
        frames = load_prediction_frames(tmp_path)
        assert [(f.stock, f.run) for f in frames] == [("ABC", 0), ("ABC", 1)]
        f0 = frames[0]
        assert f0.anchors == anchors
        np.testing.assert_array_equal(f0.y_hat, y_hat)
        np.testing.assert_array_equal(f0.y_true, y_true)

    def test_feeds_backtest(self, tmp_path):
        rng = np.random.default_rng(13)
        anchors = seq_dates(6)
        for stock in ("AAA", "BBB"):
            y_true = 1.0 + 0.02 * rng.normal(size=(6, 3))
            write_frame_csv(
                tmp_path / f"{stock}_run0.csv", anchors, y_true + 0.004, y_true
            )
        report = backtest(load_prediction_frames(tmp_path), gamma_risk=1.0, lam=None)
        assert len(report.runs[0].periods) == 2

    def test_missing_directory(self, tmp_path):
        with pytest.raises(DataError, match="missing artifact"):
            load_prediction_frames(tmp_path / "nope")

    def test_no_matching_files(self, tmp_path):
        (tmp_path / "metrics.json").write_text("{}\n")
        with pytest.raises(DataError, match="missing artifact"):
            load_prediction_frames(tmp_path)

    def test_ragged_horizons_rejected(self, tmp_path):
        path = tmp_path / "AAA_run0.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["anchor_date", "step", "y_hat", "y_true"])
            w.writerow(["2024-01-01", 1, 1.0, 1.0])
            w.writerow(["2024-01-01", 2, 1.0, 1.0])
            w.writerow(["2024-01-02", 1, 1.0, 1.0])
        with pytest.raises(DataError, match="ragged"):
            load_prediction_frames(tmp_path)


class TestArtifacts:
    def make_report(self) -> BacktestReport:
        rng = np.random.default_rng(14)
        frames = varied_universe(rng, runs=(0, 1), windows=6, t_out=3)
        return backtest(frames, gamma_risk=1.0, lam=0.1)

    def test_report_dict_fields(self):
        d = report_as_dict(self.make_report())
        assert d["gamma_risk"] == 1.0
        assert d["lambda"] == 0.1
        assert set(d["runs"]) == {"0", "1"}
        run0 = d["runs"]["0"]
        assert {"avg_sharpe", "avg_equal_weight_sharpe", "periods"} <= set(run0)
        period = run0["periods"][0]
        assert {"period_start", "sharpe", "equal_weight_sharpe"} <= set(period)
        assert "avg_sharpe_across_runs" in d
        assert "avg_equal_weight_sharpe_across_runs" in d

    def test_report_json_round_trip(self):
        # the dict is JSON-ready and a rebuilt report serialises to the same text
        report = self.make_report()
        text = json.dumps(report_as_dict(report), sort_keys=True)
        assert json.loads(text) == report_as_dict(report)
        assert json.dumps(report_as_dict(self.make_report()), sort_keys=True) == text

    def test_weights_csv(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "weights_run0.csv"
        write_weights_csv(path, report, run=0)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == WEIGHTS_HEADER
        periods = report.runs[0].periods
        assert len(rows) == 1 + 2 * len(periods)  # two tickers per period
        assert rows[1][0] == periods[0].period_start.isoformat()
        assert [r[1] for r in rows[1:3]] == ["AAA", "BBB"]
        got = float(rows[1][2])
        assert got == periods[0].weights["AAA"]

    def test_weights_csv_unknown_run(self, tmp_path):
        with pytest.raises(ContractError):
            write_weights_csv(tmp_path / "w.csv", self.make_report(), run=9)
