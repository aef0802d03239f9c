"""Loop graphs in both flavors and the walk-based exact distance."""

from __future__ import annotations

import json

import numpy as np
import pytest

from looptrees.gw_tree import (
    PlaneTree,
    encode_tree,
    sample_conditioned_tree,
    stable_offspring,
)
from looptrees.excursion_metric import looptree_distance, rescale
from looptrees.dissection import dual_tree, sample_boltzmann
from looptrees.looptree import (
    _CORNER,
    _LOOPTREE,
    _PRIME,
    LoopGraph,
    _prime_and_corner,
    _source_distances,
    _walk_distance,
    build_loop,
    build_loop_prime,
    loop_distances,
    loop_prime_distance,
)


def test_loop_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        LoopGraph(2, np.array([[0, 2]]), np.arange(2))
    with pytest.raises(ValueError):
        LoopGraph(2, np.array([[-1, 0]]), np.arange(2))


def test_loop_graph_takes_integers_only():
    with pytest.raises(ValueError, match=r"^edge endpoints must be integers, got 1\.5$"):
        LoopGraph(3, [[0, 1.5], [1, 2]], np.arange(3))
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        LoopGraph(3.5, [[0, 1], [1, 2]], np.arange(3))
    g = LoopGraph(3, [[0, 1], [1, 2]], np.arange(3))
    with pytest.raises(ValueError, match=r"^sources must be integers, got 0\.7$"):
        g.distances([0.7])
    assert g.distances([2.0]).tolist() == [[2, 1, 0]]


def test_loop_hand_examples():
    g = build_loop(PlaneTree([0]))
    assert g.vertex_count == 1 and g.edge_count == 0

    # a root with a single leaf child: both cycles collapse onto the one
    # shared corner, so the graph is a single vertex
    g = build_loop(PlaneTree([1, 0]))
    assert g.vertex_count == 1 and g.edge_count == 0

    # star on three leaves: the root cycle is a triangle of corners
    g = build_loop(PlaneTree([3, 0, 0, 0]))
    assert g.vertex_count == 3 and g.edge_count == 3
    assert g.distances().max() == 1

    # unary spine: a length-two cycle, i.e. a double edge
    g = build_loop(PlaneTree([1, 1, 0]))
    assert g.vertex_count == 2 and g.edge_count == 2
    assert g.distances().max() == 1
    assert g.adjacency()[0, 1] == 1  # simple projection keeps multiplicity 1


def _assert_simple_adjacency(g: LoopGraph) -> None:
    a = g.adjacency()
    assert a.dtype == np.float64 and a.shape == (g.vertex_count,) * 2
    # one stored 1.0 per ordered pair of distinct neighbours, so parallel
    # edges collapse and no zero is kept
    assert np.all(a.data == 1.0)
    pairs = {(u, v) for u, v in g.edges.tolist()} | \
        {(v, u) for u, v in g.edges.tolist()}
    assert a.nnz == len(pairs)
    rows, cols = a.nonzero()
    assert set(zip(rows.tolist(), cols.tolist())) == pairs
    assert (a != a.T).nnz == 0


def test_adjacency_is_float64_symmetric_and_simple(small_trees):
    _assert_simple_adjacency(LoopGraph(3, [[0, 1], [1, 0], [0, 1], [1, 2]],
                                       np.arange(3)))
    _assert_simple_adjacency(LoopGraph(2, np.empty((0, 2), dtype=np.int64),
                                       np.arange(2)))
    for tree in small_trees:
        # unary vertices give the double edges
        _assert_simple_adjacency(build_loop(tree))
        _assert_simple_adjacency(build_loop_prime(tree))


def test_loop_prime_hand_examples():
    gp = build_loop_prime(PlaneTree([3, 0, 0, 0]))
    assert gp.vertex_count == 4 and gp.edge_count == 4
    d = gp.distances()
    assert d[0, 2] == 2 and d.max() == 2

    gp = build_loop_prime(PlaneTree([1, 0]))
    assert gp.vertex_count == 2 and gp.edge_count == 2  # double edge
    assert gp.distances()[0, 1] == 1

    gp = build_loop_prime(PlaneTree([0]))
    assert gp.vertex_count == 1 and gp.edge_count == 0


def test_serialization_is_deterministic_and_sorted():
    g = build_loop_prime(PlaneTree([2, 2, 0, 0, 0]))
    lines = g.to_edge_list().splitlines()
    assert lines == sorted(lines, key=lambda s: tuple(map(int, s.split())))
    for line in lines:
        u, v = map(int, line.split())
        assert u <= v
    doc = json.loads(g.to_json())
    assert doc["vertex_count"] == 5
    assert doc["origin"] == [0, 1, 2, 3, 4]
    assert len(doc["edges"]) == g.edge_count


def test_loop_origin_marks_corners():
    g = build_loop(PlaneTree([2, 2, 0, 0, 0]))
    assert g.origin.shape == (4, 2)
    assert g.origin[:, 0].tolist() == [1, 2, 3, 4]


def _check_all_pairs(tree: PlaneTree) -> None:
    path = encode_tree(tree)
    d = build_loop_prime(tree).distances()
    n = tree.size
    for i in range(n):
        for j in range(n):
            assert loop_prime_distance(path, i, j) == d[i, j], (
                tree.children_counts.tolist(), i, j)


def test_distance_matches_bfs_small(small_trees):
    for tree in small_trees:
        if tree.size <= 7:
            _check_all_pairs(tree)


def test_distance_matches_bfs_random(rng_factory):
    rng = rng_factory(20)
    law = stable_offspring(1.5)
    for _ in range(10):
        n = int(rng.integers(2, 150))
        tree = sample_conditioned_tree(law, n, rng)
        path = encode_tree(tree)
        d = build_loop_prime(tree).distances()
        for _ in range(200):
            i, j = (int(x) for x in rng.integers(0, n, size=2))
            assert loop_prime_distance(path, i, j) == d[i, j]


def test_distance_validation_and_symmetry(rng_factory):
    tree = PlaneTree([2, 2, 0, 0, 0])
    path = encode_tree(tree)
    with pytest.raises(IndexError):
        loop_prime_distance(path, 0, 5)
    with pytest.raises(IndexError):
        loop_prime_distance(path, -1, 0)
    assert loop_prime_distance(path, 2, 2) == 0
    rng = rng_factory(21)
    law = stable_offspring(1.4)
    tree = sample_conditioned_tree(law, 80, rng)
    path = encode_tree(tree)
    for _ in range(60):
        i, j, k = (int(x) for x in rng.integers(0, 80, size=3))
        dij = loop_prime_distance(path, i, j)
        assert dij == loop_prime_distance(path, j, i)
        assert dij <= loop_prime_distance(path, i, k) + loop_prime_distance(path, k, j)


def test_loop_loop_prime_corner_correspondence(small_trees, rng_factory):
    # pairing each non-root vertex with its corner (root with the first
    # corner) distorts distances by at most 4, so the GH bound is <= 2
    def distortion(tree):
        n = tree.size
        if n == 1:
            return 0
        dl = build_loop(tree).distances()
        dp = build_loop_prime(tree).distances()
        px = np.concatenate([[0], np.arange(1, n) - 1])
        py = np.arange(0, n)
        return int(np.abs(dl[np.ix_(px, px)] - dp[np.ix_(py, py)]).max())

    worst = 0
    for tree in small_trees:
        worst = max(worst, distortion(tree))
    rng = rng_factory(23)
    law = stable_offspring(1.5)
    for _ in range(10):
        tree = sample_conditioned_tree(law, int(rng.integers(2, 120)), rng)
        worst = max(worst, distortion(tree))
    assert worst <= 4


_SPECIAL_TREES = [
    PlaneTree([1, 0]),                 # n = 2
    PlaneTree([2, 0, 0]),              # n = 3, root cycle of two slots
    PlaneTree([1, 1, 0]),              # n = 3, root with one child
    PlaneTree([9] + [0] * 9),          # star
    PlaneTree([1] * 30 + [0]),         # chain
    PlaneTree([1, 4, 0, 2, 0, 0, 0, 0]),  # root with one child, below it a tree
]


def _corner_kernel_matches_bfs(tree: PlaneTree) -> int:
    # the walk distance takes build_loop's own ids
    path = encode_tree(tree)
    graph = build_loop(tree)
    v = np.arange(graph.vertex_count)
    got = loop_distances(path, v[:, None], v[None, :])
    assert np.array_equal(got, graph.distances()), tree.children_counts.tolist()
    return v.size ** 2


def test_corner_kernel_matches_bfs_on_every_pair(rng_factory):
    pairs = 0
    for tree in _SPECIAL_TREES:
        pairs += _corner_kernel_matches_bfs(tree)
    rng = rng_factory(24)
    for alpha in (1.05, 1.5, 1.95):
        law = stable_offspring(alpha)
        for _ in range(40):
            tree = sample_conditioned_tree(law, int(rng.integers(2, 150)), rng)
            pairs += _corner_kernel_matches_bfs(tree)
    assert pairs > 100_000


def test_walk_distances_equal_bfs_of_their_own_graph_in_both_forms():
    # each function in its own graph's numbering, as a pair and as arrays;
    # the one-vertex tree's corner graph is its root
    for tree in _SPECIAL_TREES + [PlaneTree([0])]:
        path = encode_tree(tree)
        for distance, build in ((loop_prime_distance, build_loop_prime),
                                (loop_distances, build_loop)):
            want = build(tree).distances()
            v = np.arange(want.shape[0])
            assert np.array_equal(distance(path, v[:, None], v), want)
            pairs = [[distance(path, i, j) for j in range(v.size)]
                     for i in range(v.size)]
            assert np.array_equal(pairs, want), tree.children_counts.tolist()
            assert distance(path, np.int64(v[-1]), np.int32(0)) == want[-1, 0]


def _check_one_climb(tree: PlaneTree) -> None:
    path = encode_tree(tree)
    prime, corner = _prime_and_corner(path)
    want_prime = build_loop_prime(tree).distances()
    want_corner = build_loop(tree).distances()
    assert np.array_equal(prime, want_prime), tree.children_counts.tolist()
    assert np.array_equal(corner, want_corner), tree.children_counts.tolist()
    v = np.arange(len(want_prime))
    c = np.arange(len(want_corner))
    assert np.array_equal(prime, loop_prime_distance(path, v[:, None], v))
    assert np.array_equal(corner, loop_distances(path, c[:, None], c))


def test_one_climb_gives_both_loop_matrices(small_trees, rng_factory):
    # the small trees and the special ones hold pairs that meet at the root
    # and roots with one child; the duals of dissections are what the
    # gh-sandwich check reads
    for tree in small_trees + _SPECIAL_TREES:
        _check_one_climb(tree)
    rng = rng_factory(26)
    law = stable_offspring(1.5, variant="no-unary")
    for n_leaves in [2, 3, 80] + rng.integers(4, 80, size=12).tolist():
        _check_one_climb(dual_tree(sample_boltzmann(law, n_leaves, rng)))


def _check_source_rows(tree: PlaneTree) -> int:
    # every source's row against the BFS of its own graph; the continuous
    # convention, which has no graph, against the pair climb
    path = encode_tree(tree)
    for convention, build in ((_PRIME, build_loop_prime), (_CORNER, build_loop)):
        want = build(tree).distances()
        got = _source_distances(path, np.arange(want.shape[0]), convention)
        assert np.array_equal(got, want), (convention, tree.children_counts.tolist())
    v = np.arange(tree.size)
    want = _walk_distance(path, v[:, None], v, _LOOPTREE)
    assert np.array_equal(_source_distances(path, v, _LOOPTREE), want)
    return tree.size


def test_source_distances_equal_bfs_rows(small_trees, rng_factory):
    # the small trees include those of one and two vertices
    for tree in small_trees + _SPECIAL_TREES:
        _check_source_rows(tree)
    sources = 0
    rng = rng_factory(27)
    for alpha in (1.05, 1.5, 1.95):
        law = stable_offspring(alpha)
        for _ in range(15):
            tree = sample_conditioned_tree(law, int(rng.integers(2, 300)), rng)
            sources += _check_source_rows(tree)
    assert sources > 1000


def test_source_distances_take_any_sources_and_check_them():
    tree = PlaneTree([2, 2, 0, 0, 0])
    path = encode_tree(tree)
    want = build_loop(tree).distances()
    assert np.array_equal(_source_distances(path, [3, 0, 3], _CORNER),
                          want[[3, 0, 3]])
    assert np.array_equal(_source_distances(path, np.int32(2), _CORNER), want[[2]])
    for bad in (4, -1):
        with pytest.raises(IndexError, match=f"vertex index {bad} out of range"):
            _source_distances(path, [0, bad], _CORNER)
    with pytest.raises(ValueError, match=r"^sources must be integers, got 0\.5$"):
        _source_distances(path, [0.5], _PRIME)


def test_loop_prime_kernel_matches_bfs_and_scalar(small_trees, rng_factory):
    def check(tree):
        path = encode_tree(tree)
        v = np.arange(tree.size)
        got = loop_prime_distance(path, v[:, None], v[None, :])
        assert np.array_equal(got, build_loop_prime(tree).distances())
        return got

    def scalar(tree):
        path = encode_tree(tree)
        return np.array([[loop_prime_distance(path, i, j)
                          for j in range(tree.size)] for i in range(tree.size)])

    for tree in small_trees:
        assert np.array_equal(scalar(tree), check(tree))
    rng = rng_factory(25)
    law = stable_offspring(1.5)
    tree = sample_conditioned_tree(law, 200, rng)
    assert np.array_equal(scalar(tree), check(tree))
    # the scalar climb against the lockstep one on every pair
    for alpha in (1.05, 1.5, 1.95):
        law = stable_offspring(alpha)
        for _ in range(8):
            tree = sample_conditioned_tree(law, int(rng.integers(2, 151)), rng)
            path = encode_tree(tree)
            v = np.arange(tree.size)
            want = loop_prime_distance(path, v[:, None], v[None, :])
            assert np.array_equal(scalar(tree), want), tree.children_counts.tolist()


def test_loop_distances_shapes_and_validation():
    path = encode_tree(PlaneTree([2, 2, 0, 0, 0]))  # 5 tree vertices, 4 corners
    assert loop_distances(path, np.array(2), 3).shape == ()
    assert loop_prime_distance(path, np.array(2), 4).shape == ()
    assert loop_distances(path, [0, 1, 2], 3).tolist() == \
        [loop_distances(path, k, 3) for k in (0, 1, 2)]
    assert loop_prime_distance(path, [0, 1, 2], 4).tolist() == \
        [loop_prime_distance(path, k, 4) for k in (0, 1, 2)]
    with pytest.raises(IndexError):
        loop_distances(path, [0, 4], 1)
    with pytest.raises(IndexError):
        loop_distances(path, -1, 1)
    # the root's cycle length is no longer an option
    with pytest.raises(TypeError, match="root_cycle"):
        loop_distances(path, 2, 3, root_cycle=3)


def test_walk_distances_reject_float_and_out_of_range_indices():
    path = encode_tree(PlaneTree([2, 2, 0, 0, 0]))
    jp = rescale(path, 1.0)
    cases = [(lambda i, j: loop_prime_distance(path, i, j), 5),
             (lambda i, j: loop_distances(path, i, j), 4),
             (lambda i, j: looptree_distance(jp, i, j), 5)]
    for distance, count in cases:
        for i, j in ((1.0, 0), (0, np.float64(1.0)), (np.array([0.0]), 1),
                     ([0, 1], [1.5, 2])):
            with pytest.raises(TypeError, match="integers"):
                distance(i, j)
        for i, j in ((count, 0), (0, -1), ([0, count], 1), (np.array([-1]), 0)):
            with pytest.raises(IndexError, match=f"range \\[0, {count}\\)"):
                distance(i, j)
        assert distance(count - 1, 0) == distance([count - 1], [0])[0]


def test_disconnected_graph_raises():
    g = LoopGraph(3, np.array([[0, 1]]), np.arange(3))
    with pytest.raises(RuntimeError, match="not connected: vertex 2 unreachable from vertex 0"):
        g.distances()
    with pytest.raises(RuntimeError, match="vertex 0 unreachable from vertex 2"):
        g.distances(sources=[2])
