"""Spectrally positive stable laws normalized so E[exp(-lam*X_t)] = exp(t*lam**alpha).

Covers increment sampling (a Chambers-Mallows-Stuck style transform for the
totally skewed case) and the largest-jump constant obtained as the root of
an alternating series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "StableParams",
    "sample_increment",
    "beta_root",
    "expected_max_jump",
]


@dataclass(frozen=True)
class StableParams:
    """Stability index alpha, restricted to the open interval (1, 2)."""

    alpha: float

    def __post_init__(self) -> None:
        alpha = float(self.alpha)
        if not (1.0 < alpha < 2.0):
            raise ValueError(f"alpha must lie strictly inside (1, 2), got {alpha!r}")
        object.__setattr__(self, "alpha", alpha)


def sample_increment(params: StableParams, t: float, rng: np.random.Generator, size=None):
    """Draw X_t for the spectrally positive alpha-stable process.

    The normalization is E[exp(-lam * X_t)] = exp(t * lam**alpha), so the
    draw is centered with a heavy right tail and a thin left tail.  Uses the
    Chambers-Mallows-Stuck transform for skewness +1; the scale constant
    |cos(pi*alpha/2)|**(1/alpha) demanded by the Laplace normalization cancels
    against the transform's own prefactor, and X_t = t**(1/alpha) * X_1 by
    self-similarity.

    :param t: time argument, must be positive and finite.
    :param size: optional numpy-style shape; None gives a scalar.
    """
    if not 0 < t < math.inf:  # nan fails too
        raise ValueError(f"t must be positive and finite, got {t!r}")
    alpha = params.alpha
    theta0 = math.pi / 2 - math.pi / alpha  # negative throughout (1, 2)
    v = rng.uniform(-math.pi / 2, math.pi / 2, size=size)
    w = rng.standard_exponential(size=size)
    a = alpha * (v + theta0)
    x = (np.sin(a) / np.cos(v) ** (1.0 / alpha)) * (
        np.cos(v - a) / w
    ) ** ((1.0 - alpha) / alpha)
    out = t ** (1.0 / alpha) * x
    if size is None:
        return float(out)
    return out


def _series_coefficients(alpha: float, truncation: int, tol: float) -> np.ndarray:
    """Coefficients of f(beta) = sum_n (-1)^n beta^n / ((n - alpha) n!).

    Truncated at the first coefficient below tol/10 in magnitude (factorial
    decay makes the cut safe uniformly over beta in (0, 1)), hard-capped at
    ``truncation`` terms.
    """
    coeffs = []
    fact = 1.0
    for n in range(truncation):
        if n > 0:
            fact *= n
        c = (-1.0) ** n / ((n - alpha) * fact)
        coeffs.append(c)
        if n >= 1 and abs(c) < tol / 10.0:
            break
    return np.array(coeffs)


def beta_root(params: StableParams, truncation: int = 200, tol: float = 1e-10) -> float:
    """Root in (0, 1) of the alternating series f controlling the largest jump.

    f(beta) = sum_{n>=0} (-1)^n beta^n / ((n - alpha) n!) starts negative at
    beta = 0 (value -1/alpha) and is positive at beta = 1; bisection on (0, 1)
    returns beta with |f(beta)| <= tol.
    """
    if truncation < 20:
        raise ValueError(f"truncation must be at least 20, got {truncation}")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    alpha = params.alpha
    coeffs = _series_coefficients(alpha, truncation, tol)
    powers = np.arange(len(coeffs))

    def f(beta: float) -> float:
        return float(np.sum(coeffs * beta**powers))

    lo, hi = 0.0, 1.0
    f_lo, f_hi = -1.0 / alpha, f(1.0)
    if not (f_lo < 0.0 < f_hi):
        raise RuntimeError(
            f"series bracket does not straddle a sign change: f(0)={f_lo}, f(1)={f_hi}"
        )
    mid = 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if abs(f_mid) <= tol:
            return mid
        if f_mid < 0.0:
            lo = mid
        else:
            hi = mid
    return mid


def expected_max_jump(params: StableParams) -> float:
    """Mean of the largest jump of the normalized excursion.

    Equals Gamma(1 - 1/alpha) times the series root; decreases from near 1
    toward 0 as alpha sweeps (1, 2).
    """
    alpha = params.alpha
    return math.gamma(1.0 - 1.0 / alpha) * beta_root(params)
