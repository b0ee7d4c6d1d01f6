"""Forward-diffusion variance schedules for coupled input/target corruption.

A linear beta schedule drives the input chain; the target chain reuses it
scaled by ``gamma_scale``, which couples how fast inputs and targets decay
toward noise. Both chains are summarized by their cumulative alpha products,
so any step is a single closed-form draw rather than a sequential walk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError

__all__ = [
    "DiffusionSchedule",
    "make_schedule",
    "diffuse_input",
    "diffuse_target",
    "sample_step",
]


@dataclass(frozen=True)
class DiffusionSchedule:
    """Immutable per-step constants for steps n = 1..n_steps.

    Arrays are indexed by n - 1; the n = 0 boundary (no corruption) is the
    implicit cumulative product 1.
    """

    n_steps: int
    beta: np.ndarray
    alpha_bar: np.ndarray
    gamma_scale: float
    beta_prime: np.ndarray
    alpha_bar_prime: np.ndarray
    sigma: np.ndarray

    def alpha_bar_at(self, n: int) -> float:
        if n == 0:
            return 1.0
        self._check_step(n)
        return float(self.alpha_bar[n - 1])

    def target_alpha_bar_at(self, n: int) -> float:
        """Cumulative product governing the target chain at step n."""
        if n == 0:
            return 1.0
        self._check_step(n)
        return float(self.alpha_bar_prime[n - 1])

    def sigma_at(self, n: int) -> float:
        self._check_step(n)
        return float(self.sigma[n - 1])

    def _check_step(self, n: int) -> None:
        if not 1 <= n <= self.n_steps:
            raise ContractError(f"step n={n} outside 1..{self.n_steps}")


def make_schedule(
    n_steps: int = 100,
    beta_min: float = 1e-4,
    beta_max: float = 0.1,
    gamma_scale: float = 0.5,
) -> DiffusionSchedule:
    """Linear beta from beta_min to beta_max, plus the gamma-scaled twin.

    The target chain must stay sub-unit: gamma_scale * beta_max < 1.
    """
    if n_steps < 1:
        raise ContractError(f"n_steps must be >= 1, got {n_steps}")
    if not (0.0 < beta_min <= beta_max < 1.0):
        raise ContractError(
            f"need 0 < beta_min <= beta_max < 1, got ({beta_min}, {beta_max})"
        )
    if n_steps > 1 and beta_min == beta_max:
        raise ContractError("constant schedule: beta_min must be < beta_max for n_steps > 1")
    if gamma_scale <= 0.0:
        raise ContractError(f"gamma_scale must be > 0, got {gamma_scale}")
    if gamma_scale * beta_max >= 1.0:
        raise ConfigError("target noise exceeds unit variance")
    beta = np.linspace(beta_min, beta_max, n_steps)
    alpha_bar = np.cumprod(1.0 - beta)
    beta_prime = gamma_scale * beta
    alpha_bar_prime = np.cumprod(1.0 - beta_prime)
    sigma = np.sqrt(1.0 - alpha_bar_prime)
    return DiffusionSchedule(
        n_steps=n_steps,
        beta=beta,
        alpha_bar=alpha_bar,
        gamma_scale=gamma_scale,
        beta_prime=beta_prime,
        alpha_bar_prime=alpha_bar_prime,
        sigma=sigma,
    )


def _diffuse(x: np.ndarray, a_bar: float, eps: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != x.shape:
        raise ContractError(f"noise shape {eps.shape} != input shape {x.shape}")
    return np.sqrt(a_bar) * x + np.sqrt(1.0 - a_bar) * eps


def diffuse_input(
    x: np.ndarray, schedule: DiffusionSchedule, n: int, eps: np.ndarray
) -> np.ndarray:
    """Closed-form input corruption: sqrt(a_bar_n) x + sqrt(1 - a_bar_n) eps."""
    schedule._check_step(n)
    return _diffuse(x, schedule.alpha_bar_at(n), eps)


def diffuse_target(
    y: np.ndarray, schedule: DiffusionSchedule, n: int, eps: np.ndarray
) -> np.ndarray:
    """Target corruption with the coupled (gamma-scaled) cumulative product."""
    schedule._check_step(n)
    return _diffuse(y, schedule.target_alpha_bar_at(n), eps)


def sample_step(rng: np.random.Generator, schedule: DiffusionSchedule) -> int:
    """Uniform draw from {1..n_steps}; the unbiased surrogate for summing
    the per-step losses over every n."""
    return int(rng.integers(1, schedule.n_steps + 1))
