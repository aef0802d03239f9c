"""Loop-graph metrics: BFS distance matrices, the Gromov-Hausdorff bound of
the loop pairing, ball profiles and dimension fits."""

from __future__ import annotations

import numpy as np
import pytest

from looptrees.gw_tree import encode_tree, sample_conditioned_tree, stable_offspring
from looptrees.looptree import (
    LoopGraph,
    build_loop,
    build_loop_prime,
    loop_prime_distance,
)
from looptrees.metric_analysis import ball_volume_profile, dimension_estimate

from conftest import gh_upper_bound


@pytest.fixture
def cycle4():
    edges = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])
    return LoopGraph(4, edges, np.arange(4))


# ---- BFS distance matrices ----

def test_bfs_metric_basics(cycle4):
    edge = LoopGraph(2, np.array([[0, 1]]), np.arange(2))
    assert edge.distances().tolist() == [[0, 1], [1, 0]]
    d = cycle4.distances()
    assert d[0, 2] == 2 and d[1, 3] == 2
    rows = cycle4.distances(sources=[0, 2])
    assert rows.shape == (2, 4)
    assert rows[0].tolist() == [0, 1, 2, 1]


def test_bfs_metric_rejects_sources_out_of_range(cycle4):
    # dijkstra reads -1 as the last vertex; the graph names the id instead
    for bad in ([-1], [0, -4], [4]):
        message = rf"^vertex index {bad[-1]} out of range \[0, 4\)$"
        with pytest.raises(IndexError, match=message):
            cycle4.distances(bad)
    assert cycle4.distances([3]).tolist() == [[1, 2, 1, 0]]


def test_bfs_metric_names_unreachable_vertex():
    iso = LoopGraph(3, np.array([[0, 1]]), np.arange(3))
    with pytest.raises(RuntimeError, match="2"):
        iso.distances()


def test_bfs_metric_agrees_with_walk_distance(rng_factory):
    rng = rng_factory(50)
    for _ in range(15):
        n = int(rng.integers(2, 120))
        law = stable_offspring(float(rng.uniform(1.1, 1.9)))
        tree = sample_conditioned_tree(law, n, rng)
        path = encode_tree(tree)
        d = build_loop_prime(tree).distances()
        for _ in range(25):
            i, j = rng.integers(0, n, size=2)
            assert d[i, j] == loop_prime_distance(path, int(i), int(j))


# ---- gh_upper_bound ----

def test_gh_upper_bound_identity_and_rescale(cycle4):
    d = cycle4.distances()
    ident = np.column_stack([np.arange(4), np.arange(4)])
    assert gh_upper_bound(ident, d, d) == 0.0
    lam = 1.7
    want = abs(lam - 1.0) * d.max() / 2.0
    assert gh_upper_bound(ident, d, d * lam) == pytest.approx(want)
    with pytest.raises(ValueError, match="misses"):
        gh_upper_bound(ident[:2], d, d)
    with pytest.raises(ValueError, match="empty"):
        gh_upper_bound(np.zeros((0, 2), dtype=int), d, d)


def test_gh_upper_bound_loop_pairing(rng_factory):
    rng = rng_factory(51)
    for _ in range(12):
        n = int(rng.integers(2, 90))
        law = stable_offspring(float(rng.uniform(1.1, 1.9)))
        tree = sample_conditioned_tree(law, n, rng)
        dl = build_loop(tree).distances()
        dp = build_loop_prime(tree).distances()
        px = np.concatenate([[0], np.arange(1, n) - 1])
        corr = np.column_stack([px, np.arange(n)])
        assert gh_upper_bound(corr, dl, dp) <= 2.0


# ---- profiles and dimension ----

def test_ball_volume_profile(cycle4):
    counts = ball_volume_profile(cycle4, 0, np.array([0, 1, 2, 5, 10]))
    assert counts.tolist() == [1, 3, 4, 4, 4]
    with pytest.raises(ValueError, match="increasing"):
        ball_volume_profile(cycle4, 0, np.array([1, 1, 2]))
    with pytest.raises(ValueError, match="negative"):
        ball_volume_profile(cycle4, 0, np.array([-1, 2]))


def test_ball_volume_profile_rejects_a_center_out_of_range(cycle4):
    # dijkstra reads -1 as the last vertex; the profile names the id instead
    for bad in (-1, 4):
        message = rf"^vertex index {bad} out of range \[0, 4\)$"
        with pytest.raises(IndexError, match=message):
            ball_volume_profile(cycle4, bad, [0, 1])


def test_ball_volume_profile_takes_integers_only(cycle4):
    with pytest.raises(ValueError, match=r"^radii must be integers, got 0\.5$"):
        ball_volume_profile(cycle4, 0, [0.5, 1.7])
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        ball_volume_profile(cycle4, 1.5, [0, 1])
    assert ball_volume_profile(cycle4, np.int64(1), [0.0, 1.0]).tolist() == [1, 3]


def test_ball_volume_profile_against_dense(rng_factory):
    rng = rng_factory(55)
    tree = sample_conditioned_tree(stable_offspring(1.4), 200, rng)
    g = build_loop(tree)
    dm = g.distances()
    radii = np.array([0, 1, 2, 4, 8, 16, 32])
    for center in (0, 5, 37):
        counts = ball_volume_profile(g, center, radii)
        assert counts.tolist() == [(dm[center] <= r).sum() for r in radii]


def test_dimension_estimate_cycle_slope_one():
    big = 3000
    edges = np.column_stack([np.arange(big), (np.arange(big) + 1) % big])
    cyc = LoopGraph(big, edges, np.arange(big))
    radii = np.unique(np.rint(np.geomspace(1, big // 3, 25))).astype(int)
    profs = [
        (radii.astype(float), ball_volume_profile(cyc, c, radii))
        for c in range(0, big, big // 12)
    ]
    slope, se = dimension_estimate(profs, (4.0, big / 8.0))
    assert abs(slope - 1.0) < 0.05
    assert se < 0.05


def test_dimension_estimate_grid_slope_two():
    side = 60
    vid = lambda r, c: r * side + c
    ge = []
    for r in range(side):
        for c in range(side):
            if c + 1 < side:
                ge.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < side:
                ge.append((vid(r, c), vid(r + 1, c)))
    grid = LoopGraph(side * side, np.array(ge), np.arange(side * side))
    radii = np.unique(np.rint(np.geomspace(1, side // 2, 20))).astype(int)
    centers = [vid(side // 2 + dr, side // 2 + dc)
               for dr in (-5, 0, 5) for dc in (-7, 0, 7)]
    centers += [vid(side // 2, side // 2 + k) for k in (1, 2, 3)]
    profs = [(radii.astype(float), ball_volume_profile(grid, c, radii))
             for c in centers]
    slope, se = dimension_estimate(profs, (3.0, side / 4.0))
    # the diamond ball holds 2r^2+2r+1 points, so the finite-window slope
    # sits a bit under 2; compare against the fit on that exact profile
    exact = [(radii.astype(float), 2 * radii**2 + 2 * radii + 1)] * 10
    want, _ = dimension_estimate(exact, (3.0, side / 4.0))
    assert abs(slope - want) < 0.02
    assert abs(slope - 2.0) < 0.3


def test_dimension_estimate_validation():
    radii = np.arange(1, 30, dtype=float)
    prof = (radii, (2 * radii + 1).astype(np.int64))
    with pytest.raises(ValueError, match="10"):
        dimension_estimate([prof] * 5, (1.0, 20.0))
    with pytest.raises(ValueError, match="few"):
        dimension_estimate([prof] * 10, (6.0, 6.5))
