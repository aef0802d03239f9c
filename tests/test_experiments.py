"""Experiment harness: substreams, thread independence, small-scale runs."""

from __future__ import annotations

import json
import re
import time

import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra

from looptrees import _bridge
from looptrees._bridge import _sum_pmf_tables
from looptrees.experiments import (
    ConfigError,
    circle_gap_bound,
    default_window,
    dimension_experiment,
    gh_sandwich,
    interpolation_circle,
    interpolation_crt,
    laplace_check,
    max_jump_experiment,
    stream,
)
from looptrees.dissection import gh_gap_check, sample_boltzmann
from looptrees.gw_tree import (
    PlaneTree,
    sample_conditioned_tree,
    stable_offspring,
    tree_stats,
)
from looptrees.looptree import build_loop, build_loop_prime
from looptrees.metric_analysis import ball_volume_profile

from conftest import dual_by_chord_walk, polygon_by_loop_graph


def bfs_circle_gap_bound(tree, b: float, anchors: int = 128) -> float:
    """Oracle: the same bound with every anchor distance and the covering
    radius read off one breadth-first search per anchor."""
    n = tree.size
    graph = build_loop(tree)
    m = min(anchors, graph.vertex_count)
    ids = np.rint(np.arange(m) * (n - 1) / m).astype(np.int64)
    ids = np.clip(ids, 1, n - 1) - 1
    d = dijkstra(graph.adjacency(), unweighted=True, indices=ids)
    eps_graph = float(d.min(axis=0).max())
    da = d[:, ids] / b
    k = np.arange(m)
    gap = np.abs(k[:, None] - k[None, :])
    dc = np.minimum(gap, m - gap) / m
    dis = float(np.abs(da - dc).max())
    return dis / 2.0 + eps_graph / b + 1.0 / (2.0 * m)


def bfs_sandwich_row(d) -> dict:
    """Oracle: one gh_sandwich row, with the gap check, the dual tree and
    both loop metrics rebuilt from scratch and measured by breadth-first
    search on the loop graphs."""
    counts, regions = dual_by_chord_walk(d)
    tree = PlaneTree(counts)
    n = d.n_sides
    loop_dist = build_loop(tree).distances()
    ends = np.array([(a % n, b % n) for a, b in regions[1:]], dtype=np.int64)
    glue = np.arange(1, tree.size, dtype=np.int64) - 1
    px = np.concatenate([ends[:, 0], ends[:, 1]])
    gx = np.concatenate([glue, glue])
    poly_dist = polygon_by_loop_graph(d)
    dis = np.abs(poly_dist[np.ix_(px, px)] - loop_dist[np.ix_(gx, gx)]).max()
    observed = dis / 2.0
    height = tree_stats(tree).height
    nt = tree.size
    dp = build_loop_prime(tree).distances()
    px = np.concatenate([[0], np.arange(1, nt) - 1])
    py = np.arange(0, nt)
    pair = int(np.abs(loop_dist[np.ix_(px, px)] - dp[np.ix_(py, py)]).max())
    return {
        "n_leaves": tree_stats(tree).leaf_count,
        "height": height,
        "observed": float(observed),
        "height_bound_ok": bool(observed <= height + 2),
        "loop_pair_gh_bound": pair / 2.0,
    }


def test_stream_is_deterministic_and_split():
    a = stream(5, 3).integers(0, 2**62, size=8)
    b = stream(5, 3).integers(0, 2**62, size=8)
    c = stream(5, 4).integers(0, 2**62, size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("seed", [-1, 2**63, 2**63 + 1, 2**64 - 1, 2**64])
def test_stream_refuses_a_seed_outside_its_range(seed):
    # numpy read such keys through a float: 2**63 + 1 drew the stream of
    # 2**63, and -1 and 2**64 - 1 warned of an invalid cast
    message = rf"^seed must be in \[0, 2\*\*63\), got {seed}$"
    with pytest.raises(ConfigError, match=message) as info:
        stream(seed, 0)
    assert info.value.param == "seed"


@pytest.mark.parametrize(("seed", "index", "param", "message"), [
    (1.5, 0, "seed", "seed must be an integer, got 1.5"),
    (True, 0, "seed", "seed must be an integer, got True"),
    (np.float64(1.0), 0, "seed", "seed must be an integer, got np.float64(1.0)"),
    (1, 0.7, "index", "index must be an integer, got 0.7"),
    (1, False, "index", "index must be an integer, got False"),
    (1, -1, "index", "index must be in [0, 2**63), got -1"),
    (1, 2**63, "index", "index must be in [0, 2**63), got 9223372036854775808"),
])
def test_stream_refuses_a_key_that_is_not_an_integer_in_range(seed, index, param, message):
    # numpy truncated these: 1.5, True, (1, 0.7) and (1, 0) drew one stream
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$") as info:
        stream(seed, index)
    assert info.value.param == param


def test_stream_takes_numpy_integers():
    want = stream(3, 5).bit_generator.random_raw(4).tolist()
    for seed, index in ((np.int64(3), 5), (3, np.uint64(5)), (np.int32(3), np.int8(5))):
        assert stream(seed, index).bit_generator.random_raw(4).tolist() == want


def test_stream_keeps_the_draws_of_seeds_in_range():
    # the first raw words of both ends of the range, as drawn before the check
    assert stream(0, 0).bit_generator.random_raw(2).tolist() == [
        213000021201967259, 4455796210202625458]
    assert stream(0, 5).bit_generator.random_raw(1).tolist() == [10838992762465911255]
    assert stream(2**63 - 1, 0).bit_generator.random_raw(2).tolist() == [
        17078119557474009138, 3349379938193924205]
    assert stream(2**63 - 1, 5).bit_generator.random_raw(1).tolist() == [
        14647519378219125677]


def test_two_workers_give_the_single_worker_report(monkeypatch):
    # every replicate fans out over the pool, replicate 0 included
    kw = dict(alpha=1.05, n=3000, replicates=5, gh_paths=3, seed=6)
    monkeypatch.setenv("LOOPTREE_THREADS", "1")
    one = interpolation_circle(**kw)
    monkeypatch.setenv("LOOPTREE_THREADS", "2")
    two = interpolation_circle(**kw)
    assert json.dumps(one) == json.dumps(two)


def test_cold_two_worker_run_builds_its_tables_once(monkeypatch):
    # workers that miss the cache together wait for one build
    builds = []

    def counting(window, plan, reach=None):
        builds.append(window.size)
        return _sum_pmf_tables(window, plan, reach)

    monkeypatch.setattr(_bridge, "_sum_pmf_tables", counting)
    monkeypatch.setenv("LOOPTREE_THREADS", "2")
    _bridge._TABLES.clear()
    try:
        interpolation_circle(alpha=1.05, n=3000, replicates=4, gh_paths=1, seed=6)
    finally:
        _bridge._TABLES.clear()
    assert builds == [3000]


def test_thread_count_does_not_change_results(monkeypatch):
    monkeypatch.setenv("LOOPTREE_THREADS", "1")
    r1 = laplace_check(alphas=(1.5,), lams=(0.5,), n_samples=20_000, seed=8)
    monkeypatch.setenv("LOOPTREE_THREADS", "4")
    r4 = laplace_check(alphas=(1.5,), lams=(0.5,), n_samples=20_000, seed=8)
    assert r1 == r4


@pytest.mark.parametrize("raw", ["abc", "0", "-3", "2.5", ""])
def test_bad_thread_count_fails_before_any_replicate(monkeypatch, raw):
    def refuse(seed, index):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr("looptrees.experiments.stream", refuse)
    monkeypatch.setenv("LOOPTREE_THREADS", raw)
    with pytest.raises(ConfigError, match=f"^LOOPTREE_THREADS .*, got {raw!r}$") as info:
        max_jump_experiment(n=500, replicates=4)
    assert info.value.param == "LOOPTREE_THREADS"


def test_laplace_check_report_shape():
    rep = laplace_check(alphas=(1.2, 1.8), lams=(0.1, 1.0),
                        n_samples=30_000, seed=3)
    assert len(rep["rows"]) == 4
    for row in rep["rows"]:
        assert set(row) >= {"alpha", "lam", "estimate", "target", "stderr", "z"}
        assert row["stderr"] > 0
    assert rep["worst_z"] == max(abs(r["z"]) for r in rep["rows"])
    assert rep["pass"] == (rep["worst_z"] <= 4.0)


def test_max_jump_experiment_small():
    rep = max_jump_experiment(alpha=1.5, n=3000, replicates=50, seed=2,
                              tolerance=0.5)
    assert len(rep["values"]) == 50
    assert rep["estimate"] == pytest.approx(np.mean(rep["values"]))
    assert 0.0 < rep["target"] < 1.0
    assert rep["pass"] == (rep["rel_error"] <= 0.5)


@pytest.mark.parametrize("n", [2, 3000])
def test_max_jump_values_are_the_trees_largest_counts(n):
    # the steps' maximum is the tree's: the cycle shift only rotates them
    law = stable_offspring(1.05)
    rep = max_jump_experiment(alpha=1.05, n=n, replicates=6, seed=7)
    b = law.scaling_constant(n)
    trees = [sample_conditioned_tree(law, n, stream(7, i)) for i in range(6)]
    assert rep["values"] == [float(t.children_counts.max() - 1) / b for t in trees]


def test_circle_max_jumps_do_not_depend_on_gh_paths():
    # replicates past gh_paths draw only the largest step, which is the
    # tree's largest children count; a one-vertex tree reads -1 / B_1 as
    # before, whatever gh_paths is
    for n in (3000, 1):
        few, every = (interpolation_circle(n=n, replicates=5, gh_paths=g, seed=4)
                      for g in (1, 5))
        assert few["max_jumps"] == every["max_jumps"]
        assert few["gh_bounds"] == every["gh_bounds"][:1]
    assert few["max_jumps"] == [-1.0 / stable_offspring(1.05).scaling_constant(1)] * 5


def test_default_window_orders():
    lo, hi = default_window(1.5, 10**6)
    assert 0 < lo < hi


def test_dimension_experiment_smoke():
    rep = dimension_experiment(alpha=1.5, n=20_000, trees=2,
                               centers_per_tree=5, seed=4, tolerance=5.0)
    assert rep["pass"]
    assert len(rep["profiles"]) == 10
    assert rep["slope"] > 0
    assert rep["window"][0] < rep["window"][1]


def test_dimension_profiles_equal_the_bfs_route():
    # the oracle: the same trees and centers, each ball counted by a
    # truncated search on the built loop graph
    alpha, n, trees, per_tree, seed = 1.5, 2000, 5, 2, 4
    rep = dimension_experiment(alpha=alpha, n=n, trees=trees,
                               centers_per_tree=per_tree, seed=seed)
    law = stable_offspring(alpha)
    want = []
    for i in range(trees):
        rng = stream(seed, i)
        graph = build_loop(sample_conditioned_tree(law, n, rng))
        for _ in range(per_tree):
            center = int(rng.integers(0, graph.vertex_count))
            radii = np.array(rep["profiles"][len(want)]["radii"])
            want.append(ball_volume_profile(graph, center, radii).tolist())
    assert [p["counts"] for p in rep["profiles"]] == want


def test_dimension_experiment_builds_no_graph(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dimension_experiment built a graph")

    for name in ("looptrees.looptree.build_loop",
                 "looptrees.experiments.build_loop",
                 "looptrees.metric_analysis.ball_volume_profile"):
        monkeypatch.setattr(name, refuse)
    rep = dimension_experiment(alpha=1.5, n=2000, trees=5, seed=4)
    assert rep["pass"] and rep["centers"] == 10


@pytest.mark.parametrize("b", [float("nan"), float("inf"), -1.0, 0, 0.0])
def test_circle_gap_bound_refuses_a_scale_not_positive_and_finite(b):
    with pytest.raises(ConfigError, match=r"^b must be positive and finite, got") as info:
        circle_gap_bound(PlaneTree([3, 0, 0, 0]), b)
    assert info.value.param == "b"


def test_circle_gap_bound_on_a_star():
    # the loop graph of a star is one big cycle, which after rescaling by
    # its length is exactly the unit-circumference circle sampled discretely
    m = 256
    tree = PlaneTree([m] + [0] * m)
    bound = circle_gap_bound(tree, float(m), anchors=128)
    assert 0.0 < bound < 0.05


def test_circle_gap_bound_is_loose_on_a_chain():
    # an interval is far from the circle; the bound must not pretend otherwise
    tree = PlaneTree([1] * 200 + [0])
    bound = circle_gap_bound(tree, 200.0, anchors=64)
    assert bound > 0.2


def test_circle_gap_bound_equals_bfs_oracle():
    for counts in ([0], [1, 0], [2, 0, 0], [1, 1, 0]):
        tree = PlaneTree(counts)
        assert circle_gap_bound(tree, 1.0) == bfs_circle_gap_bound(tree, 1.0)
    for alpha in (1.05, 1.5, 1.95):
        law = stable_offspring(alpha)
        for seed in range(2):
            n = 1990 + seed
            tree = sample_conditioned_tree(law, n, stream(seed, 7))
            b = law.scaling_constant(n)
            for anchors in (128, 37):
                assert circle_gap_bound(tree, b, anchors) == \
                    bfs_circle_gap_bound(tree, b, anchors)


def test_circle_gap_bound_rejects_zero_anchors():
    # no anchors died in numpy's max over an empty array
    tree = sample_conditioned_tree(stable_offspring(1.5), 20, stream(0, 0))
    with pytest.raises(ConfigError, match="^anchors must be at least 1, got 0$") as info:
        circle_gap_bound(tree, 1.0, anchors=0)
    assert info.value.param == "anchors"


def test_interpolation_crt_rejects_tiny_n():
    for n in (1, 2):
        t0 = time.perf_counter()
        with pytest.raises(ConfigError) as info:
            interpolation_crt(n=n, paths=2, draws=5)
        assert info.value.param == "n"
        assert time.perf_counter() - t0 < 1.0


def test_max_jump_rejects_n_below_2():
    for n in (0, 1):
        t0 = time.perf_counter()
        with pytest.raises(ConfigError) as info:
            max_jump_experiment(n=n)
        assert info.value.param == "n"
        assert time.perf_counter() - t0 < 1.0


def test_interpolation_crt_fails_on_a_path_with_no_positive_time():
    # at n = 3 and alpha = 1.95 the unary chain [1, 1, 0] is the likely tree;
    # seed 1 draws it for path 0, and its walk is 0 at both queryable times
    tree = sample_conditioned_tree(stable_offspring(1.95), 3, stream(1, 0))
    assert tree.children_counts.tolist() == [1, 1, 0]
    with pytest.raises(ValueError, match="no time in 1..2 with a positive"):
        interpolation_crt(n=3, paths=1, draws=5, seed=1)
    tree = sample_conditioned_tree(stable_offspring(1.95), 3, stream(0, 0))
    assert tree.children_counts.tolist() == [2, 0, 0]
    rep = interpolation_crt(n=3, paths=1, draws=5, seed=0, tolerance=1.0)
    # only t = 1 qualifies; it ends its own jump, which closes onto the root
    assert rep["path_means"] == [0.0]


@pytest.mark.parametrize("kw, param", [
    (dict(n=500), "n"),                 # default window is empty
    (dict(n=600), "n"),                 # default window holds one radius
    (dict(n=2000, window=(5.0, 4.0)), "window"),
    (dict(n=2000, window=(0.0, 9.0)), "window"),
    (dict(n=2000, window=(10.0, 10.5)), "window"),
    (dict(n=2000, trees=2), "trees"),
])
def test_dimension_rejects_unfittable_arguments_before_sampling(kw, param):
    t0 = time.perf_counter()
    with pytest.raises(ConfigError) as info:
        dimension_experiment(alpha=1.5, **kw)
    assert info.value.param == param
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("run, param", [
    (max_jump_experiment, "replicates"),
    (interpolation_circle, "replicates"),
    (interpolation_circle, "gh_paths"),
    (interpolation_circle, "anchors"),
    (dimension_experiment, "centers_per_tree"),
    (interpolation_crt, "paths"),
    (interpolation_crt, "draws"),
    (laplace_check, "n_samples"),
    (gh_sandwich, "n_dissections"),
])
def test_counts_below_one_fail_before_sampling(run, param):
    t0 = time.perf_counter()
    with pytest.raises(ConfigError, match=param) as info:
        run(**{param: 0})
    assert info.value.param == param
    assert time.perf_counter() - t0 < 1.0


def test_interpolation_crt_smoke():
    rep = interpolation_crt(alpha=1.95, n=4000, paths=4, draws=300, seed=1,
                            tolerance=0.3)
    assert len(rep["path_means"]) == 4
    assert 0.2 < rep["mean_ratio"] < 0.8
    assert rep["pass"]


def test_gh_sandwich_small():
    rep = gh_sandwich(alpha=1.5, n_dissections=10, max_leaves=40, seed=5)
    assert rep["pass"]
    assert len(rep["rows"]) == 10
    for row in rep["rows"]:
        assert row["height_bound_ok"]
        assert row["loop_pair_gh_bound"] <= 2.0


def test_gh_sandwich_rows_match_bfs_oracle():
    law = stable_offspring(1.5, variant="no-unary", cutoff=81)
    for seed in range(40):
        rows = gh_sandwich(alpha=1.5, n_dissections=4, max_leaves=80,
                           seed=seed)["rows"]
        for i, row in enumerate(rows):
            rng = stream(seed, i)
            d = sample_boltzmann(law, int(rng.integers(2, 81)), rng)
            want = bfs_sandwich_row(d)
            assert row == want, (seed, i)
            ok, observed = gh_gap_check(d)
            assert (ok, observed) == (want["height_bound_ok"], want["observed"])

