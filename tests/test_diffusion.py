"""Variance schedules and the coupled forward corruption of inputs/targets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dva.diffusion import diffuse_input, diffuse_target, make_schedule, sample_step
from dva.errors import ConfigError, ContractError


def test_single_step_schedule():
    s = make_schedule(n_steps=1, beta_min=0.1, beta_max=0.1, gamma_scale=0.5)
    assert s.alpha_bar[0] == pytest.approx(0.9)


def test_two_step_cumulative_products():
    s = make_schedule(n_steps=2, beta_min=0.1, beta_max=0.2, gamma_scale=0.5)
    assert np.allclose(s.beta, [0.1, 0.2])
    assert np.allclose(s.alpha_bar, [0.9, 0.72])


def test_gamma_scaled_twin_chain():
    s = make_schedule(n_steps=2, beta_min=0.1, beta_max=0.2, gamma_scale=2.0)
    assert np.allclose(s.beta_prime, [0.2, 0.4])
    assert np.allclose(s.alpha_bar_prime, [0.8, 0.48])


def test_sigma_is_target_noise_scale():
    s = make_schedule(n_steps=3, beta_min=0.05, beta_max=0.3, gamma_scale=0.5)
    assert np.allclose(s.sigma, np.sqrt(1.0 - s.alpha_bar_prime))


def test_gamma_times_beta_max_must_stay_below_one():
    with pytest.raises(ConfigError, match="unit variance"):
        make_schedule(n_steps=5, beta_min=0.1, beta_max=0.5, gamma_scale=2.0)


def test_invalid_beta_range_rejected():
    with pytest.raises(ContractError):
        make_schedule(n_steps=5, beta_min=0.0, beta_max=0.1)
    with pytest.raises(ContractError):
        make_schedule(n_steps=5, beta_min=0.2, beta_max=0.1)
    with pytest.raises(ContractError):
        make_schedule(n_steps=5, beta_min=0.1, beta_max=1.0)


def test_diffuse_input_hand_value():
    # a_bar = 0.25 via a one-step schedule with beta = 0.75
    s = make_schedule(n_steps=1, beta_min=0.75, beta_max=0.75, gamma_scale=0.5)
    x = np.array(1.0)
    out = diffuse_input(x, s, 1, np.array(0.5))
    assert float(out) == pytest.approx(0.9330127018922193, abs=1e-12)


def test_diffuse_input_pure_noise_limit():
    s = make_schedule(n_steps=200, beta_min=1e-4, beta_max=0.999, gamma_scale=0.5)
    assert s.alpha_bar[-1] < 1e-12
    eps = np.random.default_rng(0).normal(size=(4,))
    out = diffuse_input(np.ones(4), s, 200, eps)
    assert np.allclose(out, eps, atol=1e-5)


def test_diffuse_input_step_range_checked():
    s = make_schedule(n_steps=10)
    x, eps = np.zeros(3), np.zeros(3)
    for bad in (0, -1, 11):
        with pytest.raises(ContractError):
            diffuse_input(x, s, bad, eps)


def test_diffuse_input_leaves_input_untouched():
    s = make_schedule(n_steps=4)
    x = np.ones(5)
    before = x.copy()
    diffuse_input(x, s, 2, np.full(5, 0.3))
    assert np.array_equal(x, before)


def test_diffuse_target_hand_value():
    # a_bar_prime = 0.48 at n=2 with beta=(0.1,0.2) and gamma=2
    s = make_schedule(n_steps=2, beta_min=0.1, beta_max=0.2, gamma_scale=2.0)
    out = diffuse_target(np.array(0.01), s, 2, np.array(1.0))
    want = np.sqrt(0.48) * 0.01 + np.sqrt(0.52)
    assert float(out) == pytest.approx(want, abs=1e-12)
    assert float(out) == pytest.approx(0.7280384583230733, abs=1e-12)


def test_diffuse_target_noise_shape_checked():
    s = make_schedule(n_steps=4)
    with pytest.raises(ContractError):
        diffuse_target(np.zeros(3), s, 1, np.zeros(4))


def test_small_gamma_keeps_target_nearly_clean():
    s = make_schedule(n_steps=50, beta_min=1e-4, beta_max=0.1, gamma_scale=1e-9)
    y = np.full(6, 0.25)
    out = diffuse_target(y, s, 50, np.ones(6))
    assert np.allclose(out, y, atol=1e-3)


def test_target_chain_and_sigma_read_primed_products():
    s = make_schedule(n_steps=2, beta_min=0.1, beta_max=0.2, gamma_scale=2.0)
    out = diffuse_target(np.array(1.0), s, 2, np.array(0.0))
    assert float(out) == pytest.approx(np.sqrt(0.48), abs=1e-12)
    assert s.target_alpha_bar_at(2) == s.alpha_bar_prime[1] != s.alpha_bar[1]
    assert np.array_equal(s.sigma, np.sqrt(1.0 - s.alpha_bar_prime))


def test_gamma_one_makes_chains_identical_bitwise():
    s = make_schedule(n_steps=100, beta_min=1e-4, beta_max=0.1, gamma_scale=1.0)
    assert np.array_equal(s.alpha_bar, s.alpha_bar_prime)


@settings(deadline=None, max_examples=30)
@given(
    n_steps=st.integers(2, 64),
    beta_min=st.floats(1e-5, 0.01),
    spread=st.floats(0.01, 0.4),
    gamma=st.floats(0.1, 1.5),
)
def test_schedule_invariants(n_steps, beta_min, spread, gamma):
    beta_max = beta_min + spread
    if gamma * beta_max >= 1.0:
        gamma = 0.5 / beta_max
    s = make_schedule(n_steps, beta_min, beta_max, gamma)
    assert np.all(np.diff(s.beta) > 0)
    assert np.all(np.diff(s.alpha_bar) < 0)
    assert np.all(np.diff(s.alpha_bar_prime) < 0)
    assert s.alpha_bar[0] < 1.0
    assert s.beta_prime[-1] < 1.0
    assert np.all(s.sigma >= 0)


def test_monotone_corruption_in_expectation():
    s = make_schedule(n_steps=20, beta_min=0.01, beta_max=0.3)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2000,))
    dist = []
    for n in range(1, 21):
        eps = rng.normal(size=x.shape)
        xn = diffuse_input(x, s, n, eps)
        dist.append(np.mean((xn - x) ** 2))
    # theoretical E||x_n - x||^2 rises with n; empirical curve may jitter, so
    # compare against the closed form instead of demanding a sorted sample
    theory = [
        (1.0 - np.sqrt(s.alpha_bar_at(n))) ** 2 * np.mean(x**2) + (1.0 - s.alpha_bar_at(n))
        for n in range(1, 21)
    ]
    assert np.all(np.diff(theory) > 0)
    assert np.allclose(dist, theory, rtol=0.15)


def test_marginal_moments_match_closed_form():
    s = make_schedule()
    rng = np.random.default_rng(11)
    x = np.array(0.8)
    n = 60
    draws = 100_000
    eps = rng.normal(size=draws)
    xn = diffuse_input(np.full(draws, x), s, n, eps)
    a = s.alpha_bar_at(n)
    se = np.sqrt((1.0 - a) / draws)
    assert abs(xn.mean() - np.sqrt(a) * x) < 3 * se
    assert abs(xn.var() - (1.0 - a)) < 0.02 * (1.0 - a)


def test_sample_step_covers_full_range():
    s = make_schedule(n_steps=10)
    rng = np.random.default_rng(3)
    draws = {sample_step(rng, s) for _ in range(500)}
    assert draws == set(range(1, 11))
