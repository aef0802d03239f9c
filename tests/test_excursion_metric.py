"""Continuous-convention looptree pseudo-metric on finite jump paths."""

from __future__ import annotations

import math

import numpy as np
import pytest

from looptrees.excursion_metric import (
    JumpPath,
    distance_from_root,
    looptree_distance,
    max_jump,
    rescale,
)
from looptrees.gw_tree import (
    PlaneTree,
    encode_tree,
    sample_conditioned_tree,
    stable_offspring,
)
from looptrees.looptree import loop_prime_distance


# ---- brute-force reference, straight from the defining formulas ----

def brute_ancestors(path, t):
    v, lim = path.values, path.left_limits
    return [s for s in range(t + 1) if lim[s] <= v[s:t + 1].min()]


def brute_x(path, r, t):
    return path.values[r:t + 1].min() - path.left_limits[r]


def brute_gap(w, c):
    return min(w, c - w) if c > 0 else 0.0


def brute_distance(path, s, t):
    if s == t:
        return 0.0
    if s > t:
        s, t = t, s
    anc_t = brute_ancestors(path, t)
    anc_s = set(brute_ancestors(path, s))
    m = max(r for r in anc_t if r in anc_s)
    jump = path.jumps

    def chain(base, end, anc):
        return sum(
            brute_gap(brute_x(path, r, end), jump[r])
            for r in anc
            if base < r <= end
        )

    if m == s:
        return brute_gap(brute_x(path, s, t), jump[s]) + chain(s, t, anc_t)
    xs = brute_x(path, m, s)
    xt = brute_x(path, m, t)
    return (
        brute_gap(abs(xs - xt), jump[m])
        + chain(m, s, sorted(anc_s))
        + chain(m, t, anc_t)
    )


# ---- the earlier single-query climbs, kept as bit-for-bit oracles ----

def _gap(width, cycle):
    return min(width, cycle - width)


def climb_root_distance(path, t):
    """distance_from_root one time at a time: climb the ancestors of t,
    adding jump * min(u, 1 - u) wherever there is a jump."""
    parent = path._ensure_parent()
    v, lim, jump = path.values, path.left_limits, path.jumps
    total = 0.0
    running = math.inf
    cur = t
    while cur != -1:
        if jump[cur] > 0.0:
            x = min(v[cur], running) - lim[cur]
            u = x / jump[cur]
            total += jump[cur] * min(u, 1.0 - u)
        running = min(running, v[cur])
        cur = int(parent[cur])
    return total


def window_min_looptree_distance(path, s, t):
    """looptree_distance that tells ancestor pairs apart by the window
    minimum of the values between s and t."""
    if s == t:
        return 0.0
    if s > t:
        s, t = t, s
    parent = path._ensure_parent()
    v, lim, jump = path.values, path.left_limits, path.jumps

    def climb(cur, stop):
        total, running = 0.0, math.inf
        while cur > stop:
            x = min(v[cur], running) - lim[cur]
            total += _gap(x, jump[cur])
            running = min(running, v[cur])
            cur = int(parent[cur])
        return total, cur, running

    window_min = float(v[s:t + 1].min())
    if lim[s] <= window_min:
        return _gap(window_min - lim[s], jump[s]) + climb(t, s)[0]
    sum_t, meet, running = climb(t, s)
    x_t = min(v[meet], running) - lim[meet]
    sum_s, _, running = climb(s, meet)
    x_s = min(v[meet], running) - lim[meet]
    return sum_s + sum_t + _gap(abs(x_t - x_s), jump[meet])


def random_jump_path(rng, n, float_steps=True):
    v = [0.0]
    for _ in range(n - 1):
        step = rng.uniform(-1.2, 1.6) if float_steps else int(rng.integers(-1, 4))
        v.append(max(0.0, v[-1] + step))
    v.append(v[-1] + rng.uniform(-2.0, 1.0))
    return JumpPath(np.array(v))


# ---- construction and simple exports ----

def test_jump_path_validation():
    with pytest.raises(ValueError):
        JumpPath([1.0, 2.0, -1.0])  # does not start at 0
    with pytest.raises(ValueError):
        JumpPath([0.0, 1.0, -0.5, 2.0, -1.0])  # dips negative mid-path
    with pytest.raises(ValueError):
        JumpPath([0.0])  # too short
    with pytest.raises(ValueError):
        JumpPath([0.0, np.inf, -1.0])
    JumpPath([0.0, 1.0, -1.0])  # endpoint may go negative


def test_index_validation():
    p = JumpPath([0.0, 1.0, -1.0])
    with pytest.raises(IndexError):
        looptree_distance(p, 0, 2)
    with pytest.raises(IndexError):
        distance_from_root(p, -1)


def test_rescale_and_max_jump():
    tree = PlaneTree([2, 2, 0, 0, 0])
    path = encode_tree(tree)
    jp1 = rescale(path, 1.0)
    jp2 = rescale(path, 2.0)
    assert np.allclose(jp2.values * 2, path.values)
    assert max_jump(jp2) * 2 == max_jump(jp1)
    assert max_jump(jp1) == path.steps.max()
    with pytest.raises(ValueError):
        rescale(path, 0.0)


def test_walk_view_and_csv():
    w = JumpPath(np.array([0, 1, 2, 1, 0, -1], dtype=float))
    assert w.n == 5 and w.source_size == 5
    assert list(w.jumps) == [0, 1, 1, 0, 0, 0]
    csv = w.to_csv()
    lines = csv.splitlines()
    assert lines[0] == "time,value,jump"
    assert len(lines) == 7
    assert "np." not in csv


def test_max_jump_hand_example():
    p = JumpPath([0.0, 0.1, 0.8, 1.0, -0.2])
    assert max_jump(p) == pytest.approx(0.7)


# ---- agreement with the brute-force formulas ----

def test_parent_array_matches_brute_force(rng_factory):
    rng = rng_factory(30)
    for _ in range(120):
        n = int(rng.integers(2, 40))
        p = random_jump_path(rng, n, float_steps=bool(rng.integers(0, 2)))
        par = p._ensure_parent().tolist()
        for t in range(p.n):
            anc = brute_ancestors(p, t)
            want = max([s for s in anc if s < t], default=-1)
            assert par[t] == want


def test_distance_matches_brute_force(rng_factory):
    rng = rng_factory(31)
    for _ in range(200):
        n = int(rng.integers(2, 35))
        p = random_jump_path(rng, n, float_steps=bool(rng.integers(0, 2)))
        for _ in range(30):
            s, t = (int(x) for x in rng.integers(0, p.n, size=2))
            got = looptree_distance(p, s, t)
            want = brute_distance(p, s, t)
            assert abs(got - want) < 1e-12


def test_distance_matches_brute_force_on_tree_walks(rng_factory):
    rng = rng_factory(32)
    law = stable_offspring(1.5)
    for _ in range(20):
        n = int(rng.integers(2, 120))
        tree = sample_conditioned_tree(law, n, rng)
        lp = encode_tree(tree)
        for sc in (1.0, law.scaling_constant(n)):
            p = rescale(lp, sc)
            for _ in range(25):
                s, t = (int(x) for x in rng.integers(0, p.n, size=2))
                want = brute_distance(p, s, t)
                assert abs(looptree_distance(p, s, t) - want) <= 1e-12 * max(1, want)


def test_batched_root_distance_is_the_single_time_climb_bit_for_bit(rng_factory):
    rng = rng_factory(36)
    for _ in range(60):
        p = random_jump_path(rng, int(rng.integers(2, 60)),
                             float_steps=bool(rng.integers(0, 2)))
        times = np.arange(p.n)
        want = [climb_root_distance(p, int(t)) for t in times]
        assert distance_from_root(p, times).tolist() == want
        assert [distance_from_root(p, int(t)) for t in times] == want
    for alpha in (1.05, 1.5, 1.95):
        law = stable_offspring(alpha)
        n = 20_000
        p = rescale(encode_tree(sample_conditioned_tree(law, n, rng)),
                    law.scaling_constant(n))
        times = rng.integers(0, n, size=300)
        want = [climb_root_distance(p, int(t)) for t in times]
        assert distance_from_root(p, times).tolist() == want
        assert [distance_from_root(p, int(t)) for t in times[:50]] == want[:50]


def test_distance_is_the_window_minimum_climb_bit_for_bit(rng_factory):
    rng = rng_factory(37)
    for _ in range(150):
        p = random_jump_path(rng, int(rng.integers(2, 40)),
                             float_steps=bool(rng.integers(0, 2)))
        for s in range(p.n):
            for t in range(p.n):
                assert looptree_distance(p, s, t) == \
                    window_min_looptree_distance(p, s, t)
    for alpha in (1.05, 1.5, 1.95):
        law = stable_offspring(alpha)
        for n in (64, 4096, 32_768):
            lp = encode_tree(sample_conditioned_tree(law, n, rng))
            for p in (rescale(lp, 1.0), rescale(lp, law.scaling_constant(n))):
                for s, t in rng.integers(0, n, size=(1000, 2)).tolist():
                    assert looptree_distance(p, s, t) == \
                        window_min_looptree_distance(p, s, t)


def test_root_distance_shapes_and_validation():
    p = rescale(encode_tree(PlaneTree([2, 2, 0, 0, 0])), 1.0)
    one = distance_from_root(p, 3)
    assert isinstance(one, float)
    assert one == pytest.approx(looptree_distance(p, 0, 3), rel=1e-12)
    grid = distance_from_root(p, np.array([[0, 1], [2, 4]]))
    assert grid.shape == (2, 2)
    assert grid[1, 1] == distance_from_root(p, 4)
    assert distance_from_root(p, np.array([], dtype=np.int64)).shape == (0,)
    with pytest.raises(IndexError):
        distance_from_root(p, np.array([1, 5]))
    with pytest.raises(TypeError):
        distance_from_root(p, np.array([1.0]))


# ---- metric structure ----

def test_pseudo_metric_and_root_formula(rng_factory):
    rng = rng_factory(33)
    law = stable_offspring(1.5)
    for _ in range(15):
        n = int(rng.integers(3, 200))
        tree = sample_conditioned_tree(law, n, rng)
        lp = encode_tree(tree)
        p = rescale(lp, law.scaling_constant(n))
        for a, b, c in rng.integers(0, p.n, size=(20, 3)):
            a, b, c = int(a), int(b), int(c)
            dab = looptree_distance(p, a, b)
            assert dab == looptree_distance(p, b, a)
            assert dab <= looptree_distance(p, a, c) + looptree_distance(p, c, b) + 1e-12
        for t in rng.integers(0, p.n, size=12):
            t = int(t)
            d1 = distance_from_root(p, t)
            d2 = looptree_distance(p, 0, t)
            assert abs(d1 - d2) <= 1e-12 * max(1.0, d2)
        # positive homogeneity: doubling the scale halves distances
        p2 = rescale(lp, 2 * p.scale)
        for _ in range(8):
            s, t = (int(x) for x in rng.integers(0, p.n, size=2))
            assert abs(2 * looptree_distance(p2, s, t)
                       - looptree_distance(p, s, t)) < 1e-12


def test_ancestor_case_is_a_chain_sum(rng_factory):
    # when s is an ancestor of t the distance is the plain descent sum
    rng = rng_factory(34)
    law = stable_offspring(1.5)
    for _ in range(10):
        n = int(rng.integers(5, 150))
        tree = sample_conditioned_tree(law, n, rng)
        p = rescale(encode_tree(tree), 1.0)
        v, lim = p.values, p.left_limits
        for t in range(1, p.n):
            anc = brute_ancestors(p, t)
            s = anc[len(anc) // 2]
            want = brute_gap(brute_x(p, s, t), p.jumps[s]) + sum(
                brute_gap(brute_x(p, r, t), p.jumps[r])
                for r in anc
                if s < r <= t
            )
            assert abs(looptree_distance(p, s, t) - want) < 1e-12


# ---- the two comparison bounds ----

def test_chain_lower_and_window_upper_bounds(rng_factory):
    rng = rng_factory(35)
    law = stable_offspring(1.5)
    lower_checked = 0
    for _ in range(25):
        n = int(rng.integers(10, 300))
        tree = sample_conditioned_tree(law, n, rng)
        p = rescale(encode_tree(tree), law.scaling_constant(n))
        v, lim = p.values, p.left_limits
        for _ in range(40):
            s, t = sorted(int(x) for x in rng.integers(0, p.n, size=2))
            if s == t:
                continue
            d = looptree_distance(p, s, t)
            win = v[s:t + 1].min()
            assert d <= v[s] + lim[t] - 2 * win + 1e-9
            if lim[s] <= win:  # s is an ancestor of t
                for r in brute_ancestors(p, t):
                    if s < r < t:
                        lower_checked += 1
                        g = brute_gap(brute_x(p, r, t), p.jumps[r])
                        assert d >= g - 1e-9
    assert lower_checked > 100


def test_discrete_continuous_gap_is_bounded(small_trees):
    # at scale 1 on the same walk, the graph distance dominates the
    # continuous one and the gap stays below twice the height plus two
    for tree in small_trees:
        if not 2 <= tree.size <= 7:
            continue
        path = encode_tree(tree)
        depth = path._ensure_index().depth
        height = int(depth.max())
        jp = rescale(path, 1.0)
        w = path.values
        for i in range(tree.size):
            for j in range(i + 1, tree.size):
                disc = loop_prime_distance(path, i, j)
                cont = looptree_distance(jp, i, j)
                diff = disc - cont
                assert -1e-9 <= diff <= 2 * height + 2 + 1e-9
                if w[i:j + 1].min() == w[i]:
                    # ancestor pairs: the gap is exactly the depth gap
                    assert diff == pytest.approx(depth[j] - depth[i])


def test_unary_chains_push_gap_past_height_plus_two():
    # two long unary chains make the discrete/continuous gap approach twice
    # the height, so a height-plus-two envelope would be wrong
    k = 10
    tree = PlaneTree([2] + [1] * k + [0] + [1] * k + [0])
    path = encode_tree(tree)
    height = int(path._ensure_index().depth.max())
    jp = rescale(path, 1.0)
    worst = 0.0
    n = tree.size
    for i in range(n):
        for j in range(i + 1, n):
            diff = loop_prime_distance(path, i, j) - looptree_distance(jp, i, j)
            worst = max(worst, diff)
    assert worst > height + 2
    assert worst <= 2 * height + 2
