"""Stable increment sampling and the jump-mean constant."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import gamma

from looptrees.stable_law import (
    StableParams,
    beta_root,
    expected_max_jump,
    sample_increment,
)


def test_params_rejects_endpoints():
    for bad in (0.5, 1.0, 2.0, 2.3):
        with pytest.raises(ValueError):
            StableParams(bad)
    StableParams(1.0000001)
    StableParams(1.9999999)


def test_increment_rejects_bad_time():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_increment(StableParams(1.5), 0.0, rng)
    with pytest.raises(ValueError):
        sample_increment(StableParams(1.5), -1.0, rng)


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_increment_rejects_non_finite_time(t):
    # nan gave a nan draw
    with pytest.raises(ValueError, match=r"^t must be positive and finite, got "):
        sample_increment(StableParams(1.5), t, np.random.default_rng(0))


def test_increment_scalar_and_shape():
    rng = np.random.default_rng(1)
    x = sample_increment(StableParams(1.5), 1.0, rng)
    assert isinstance(x, float)
    arr = sample_increment(StableParams(1.5), 1.0, rng, size=(3, 7))
    assert arr.shape == (3, 7)


def test_laplace_transform_single_point():
    # E exp(-0.5 X_1) should be exp(0.5**1.5), within 3 standard errors
    rng = np.random.default_rng(12345)
    draws = sample_increment(StableParams(1.5), 1.0, rng, size=10**6)
    vals = np.exp(-0.5 * draws)
    est = vals.mean()
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    target = math.exp(0.5**1.5)
    assert abs(est - target) <= 3.0 * se


def test_self_similarity_two_sample():
    # at t = 2**alpha a draw has the law of 2 * X_1
    alpha = 1.5
    rng = np.random.default_rng(7)
    a = sample_increment(StableParams(alpha), 2.0**alpha, rng, size=40_000)
    b = 2.0 * sample_increment(StableParams(alpha), 1.0, rng, size=40_000)
    ks = stats.ks_2samp(a, b)
    assert ks.pvalue > 1e-3


def test_tail_ordering_by_alpha():
    # the alpha=1.2 law has a markedly heavier right tail than alpha=1.8
    rng = np.random.default_rng(99)
    q_low = np.quantile(
        sample_increment(StableParams(1.2), 1.0, rng, size=10**6), 0.999
    )
    q_high = np.quantile(
        sample_increment(StableParams(1.8), 1.0, rng, size=10**6), 0.999
    )
    assert q_low > q_high


def _series(alpha: float, beta: float) -> float:
    # running term beta**k / k! keeps everything in float range
    total = 0.0
    term = 1.0
    k = 0
    while term > 1e-30:
        total += (-1.0) ** k * term / (k - alpha)
        k += 1
        term *= beta / k
    return total


def test_beta_root_is_a_sign_change():
    for alpha in (1.05, 1.2, 1.5, 1.8, 1.95):
        p = StableParams(alpha)
        b = beta_root(p)
        assert 0.0 < b < 1.0
        assert _series(alpha, 1e-12) < 0.0 < _series(alpha, 1.0)
        assert abs(_series(alpha, b)) < 1e-9
        eps = 1e-7
        assert _series(alpha, b - eps) < 0.0 < _series(alpha, b + eps)


def test_beta_root_grid_scan_oracle():
    # dense scan of the series on (0,1) brackets the root to 1e-4; the
    # reported value should sit within 1e-3 of the scan's crossing
    alpha = 1.5
    grid = np.arange(1e-4, 1.0, 1e-4)
    vals = np.array([_series(alpha, b) for b in grid])
    k = int(np.flatnonzero(np.diff(np.sign(vals)) > 0)[0])
    crossing = 0.5 * (grid[k] + grid[k + 1])
    assert abs(beta_root(StableParams(alpha)) - crossing) < 1e-3


def test_beta_root_frozen_values():
    want = {
        1.05: 0.04755998,
        1.2: 0.16340764,
        1.5: 0.29202061,
        1.8: 0.28474945,
        1.95: 0.18005427,
    }
    for alpha, b in want.items():
        assert beta_root(StableParams(alpha)) == pytest.approx(b, abs=2e-8)


def test_beta_root_rejects_small_truncation():
    with pytest.raises(ValueError):
        beta_root(StableParams(1.5), truncation=10)


def test_expected_max_jump_composition_and_limits():
    for alpha in (1.05, 1.2, 1.5, 1.8, 1.95):
        p = StableParams(alpha)
        want = gamma(1.0 - 1.0 / alpha) * beta_root(p)
        assert expected_max_jump(p) == pytest.approx(want, rel=1e-12)
        assert 0.0 < expected_max_jump(p) < 1.0
    # sweep: decreases from near 1 (alpha near 1) to near 0 (alpha near 2)
    sweep = [expected_max_jump(StableParams(a))
             for a in (1.02, 1.2, 1.4, 1.6, 1.8, 1.98)]
    assert sweep[0] > 0.95
    assert sweep[-1] < 0.25
    assert all(a > b for a, b in zip(sweep, sweep[1:]))


def test_expected_max_jump_frozen_values():
    want = {
        1.05: 0.973454,
        1.2: 0.909579,
        1.5: 0.782305,
        1.8: 0.567475,
        1.95: 0.327408,
    }
    for alpha, v in want.items():
        assert expected_max_jump(StableParams(alpha)) == pytest.approx(
            v, abs=2e-6
        )
