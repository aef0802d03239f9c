"""Shared fixtures: exhaustive tree enumerations used across test modules,
and the i.i.d. offspring sampler that the rejection oracles draw from."""

from __future__ import annotations

import weakref

import numpy as np
import pytest

from looptrees.gw_tree import OffspringLaw, PlaneTree

# atoms the oracle tabulates for inverse-transform sampling; a draw beyond
# them inverts the law's analytic tail
ORACLE_TABLE = 2**20

_cdfs: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def sample_offspring(law: OffspringLaw, size: int,
                     rng: np.random.Generator) -> np.ndarray:
    """``size`` i.i.d. offspring counts of a polynomial-tail law by inverse
    transform, exact at every k: the unconditioned draws that the rejection
    oracles filter.  The CDF table is built once per law."""
    cdf = _cdfs.get(law)
    if cdf is None:
        cdf = _cdfs[law] = np.cumsum(law.pmf(np.arange(ORACLE_TABLE)))
    u = rng.random(size)
    out = np.searchsorted(cdf, u, side="right").astype(np.int64)
    for i in np.flatnonzero(out >= ORACLE_TABLE):
        out[i] = invert_tail(law, float(u[i]))
    return out


def invert_tail(law: OffspringLaw, u: float) -> int:
    """Smallest k with P(offspring <= k) >= u, for u beyond the oracle's
    table of a polynomial-tail law."""
    residual = 1.0 - u  # = target tail mass
    alpha, theta = law.alpha, law._theta
    # power-law guess from tail(k) ~ (theta/alpha) k**-alpha, then walk
    # with the exact Hurwitz tail until tail(k+1) < residual <= tail(k)
    k = max(ORACLE_TABLE, int((alpha * residual / theta) ** (-1.0 / alpha)))
    while law.tail(k) < residual:
        k -= 1
    while law.tail(k + 1) >= residual:
        k += 1
    return int(k)


def enumerate_plane_trees(n: int) -> list[PlaneTree]:
    """Every plane tree with exactly n vertices, in DFS count encoding."""
    out: list[PlaneTree] = []

    def rec(counts: list[int], w: int) -> None:
        t = len(counts)
        if t == n:
            if w == -1:
                out.append(PlaneTree(list(counts)))
            return
        cmax = n - t - 1 - w
        for c in range(0, cmax + 1):
            w2 = w + c - 1
            if t + 1 < n and w2 < 0:
                continue
            if t + 1 == n and w2 != -1:
                continue
            counts.append(c)
            rec(counts, w2)
            counts.pop()

    rec([], 0)
    return out


def enumerate_no_unary_trees(max_leaves: int) -> dict[int, list[PlaneTree]]:
    """All plane trees without unary vertices, grouped by leaf count."""
    by_leaves: dict[int, list[PlaneTree]] = {
        k: [] for k in range(2, max_leaves + 1)
    }
    max_size = 2 * max_leaves - 1

    def rec(counts: list[int], w: int, leaves: int) -> None:
        t = len(counts)
        if t > 0 and w == -1:
            if 2 <= leaves <= max_leaves:
                by_leaves[leaves].append(PlaneTree(list(counts)))
            return
        # finishing needs w+1 more down-steps, each one a leaf
        if t + w + 1 > max_size or leaves + w + 1 > max_leaves:
            return
        for c in [0] + list(range(2, max_size - t + 1)):
            w2 = w + c - 1
            if w2 < -1:
                continue
            counts.append(c)
            rec(counts, w2, leaves + (c == 0))
            counts.pop()

    rec([], 0, 0)
    return by_leaves


@pytest.fixture(scope="session")
def small_trees() -> list[PlaneTree]:
    """All 626 plane trees with at most 8 vertices."""
    trees = [t for n in range(1, 9) for t in enumerate_plane_trees(n)]
    assert len(trees) == sum([1, 1, 2, 5, 14, 42, 132, 429])
    return trees


@pytest.fixture(scope="session")
def no_unary_by_leaves() -> dict[int, list[PlaneTree]]:
    """No-unary plane trees keyed by leaf count, for 2..7 leaves."""
    groups = enumerate_no_unary_trees(7)
    assert [len(groups[k]) for k in range(2, 8)] == [1, 3, 11, 45, 197, 903]
    return groups


@pytest.fixture(scope="session")
def rng_factory():
    """Fresh deterministic generator per call, varied by label."""

    def make(label: int) -> np.random.Generator:
        return np.random.default_rng(np.random.Philox(key=[99, label]))

    return make
