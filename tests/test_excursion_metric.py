"""Continuous-convention looptree pseudo-metric on rescaled walks."""

from __future__ import annotations

import math

import numpy as np
import pytest

from looptrees.excursion_metric import (
    distance_from_root,
    looptree_distance,
    rescale,
)
from looptrees.gw_tree import (
    LukasiewiczPath,
    PlaneTree,
    encode_tree,
    sample_conditioned_tree,
    stable_offspring,
)
from looptrees.looptree import loop_prime_distance

from conftest import float_looptree_distance, left_limits, stack_parent


# ---- brute-force reference, straight from the defining formulas ----

def brute_ancestors(path, t):
    v, lim = path.values, left_limits(path)
    return [s for s in range(t + 1) if lim[s] <= v[s:t + 1].min()]


def brute_x(path, r, t):
    return path.values[r:t + 1].min() - left_limits(path)[r]


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


# ---- the float climb that tells ancestor pairs apart another way ----

def window_min_looptree_distance(path, s, t, parent):
    """looptree_distance in floats on the stack genealogy ``parent``, telling
    ancestor pairs apart by the window minimum of the values between s and
    t."""
    if s == t:
        return 0.0
    if s > t:
        s, t = t, s
    v, lim, jump = path.values, left_limits(path), path.jumps

    def gap(width, cycle):
        return min(width, cycle - width)

    def climb(cur, stop):
        total, running = 0.0, math.inf
        while cur > stop:
            x = min(v[cur], running) - lim[cur]
            total += gap(x, jump[cur])
            running = min(running, v[cur])
            cur = int(parent[cur])
        return total, cur, running

    window_min = float(v[s:t + 1].min())
    if lim[s] <= window_min:
        return gap(window_min - lim[s], jump[s]) + climb(t, s)[0]
    sum_t, meet, running = climb(t, s)
    x_t = min(v[meet], running) - lim[meet]
    sum_s, _, running = climb(s, meet)
    x_s = min(v[meet], running) - lim[meet]
    return sum_s + sum_t + gap(abs(x_t - x_s), jump[meet])


def random_walk(rng, n_max):
    """The walk of a conditioned stable tree of random index and size, with
    its scaling constant."""
    law = stable_offspring(float(rng.uniform(1.05, 1.95)))
    n = int(rng.integers(2, n_max))
    return encode_tree(sample_conditioned_tree(law, n, rng)), law.scaling_constant(n)


# ---- construction and simple exports ----

def test_index_validation():
    p = rescale(LukasiewiczPath([0, -1]), 1.0)
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
    assert jp2.jumps.max() * 2 == jp1.jumps.max()
    assert jp1.jumps.max() == path.steps.max()
    with pytest.raises(ValueError):
        rescale(path, 0.0)


@pytest.mark.parametrize("scale", [float("nan"), float("inf")])
def test_rescale_rejects_a_non_finite_scale(scale):
    # nan scaled every value to nan and inf every value to 0
    with pytest.raises(ValueError, match=r"^scale must be positive and finite, got "):
        rescale(encode_tree(PlaneTree([2, 0, 0])), scale)


def test_walk_view_and_csv():
    walk = LukasiewiczPath([1, 1, -1, -1, -1])
    w = rescale(walk, 1.0)
    assert w.n == 5 and w.walk is walk
    assert list(w.values) == [0, 1, 2, 1, 0, -1]
    assert w._jumps is None  # computed on the first read only
    assert list(w.jumps) == [0, 1, 1, 0, 0, 0]
    assert w.jumps is w.jumps
    csv = w.to_csv()
    lines = csv.splitlines()
    assert lines[0] == "time,value,jump"
    assert len(lines) == 7
    assert "np." not in csv


# ---- agreement with the brute-force formulas ----

def test_parent_array_matches_brute_force(rng_factory):
    # at scale 1 the float stack is exact, and it is the walk's genealogy:
    # t - 1 after a step >= 0, one past the tree parent after a -1 step
    rng = rng_factory(30)
    for _ in range(120):
        walk, _ = random_walk(rng, 40)
        p = rescale(walk, 1.0)
        par = stack_parent(p)
        for t in range(p.n):
            anc = brute_ancestors(p, t)
            assert par[t] == max([s for s in anc if s < t], default=-1)
        t = np.arange(1, p.n)
        tree_parent = walk._ensure_index().parent[1:]
        assert par[1:].tolist() == np.where(walk.steps[:-1] >= 0, t - 1,
                                            tree_parent + 1).tolist()


def test_distance_matches_brute_force(rng_factory):
    rng = rng_factory(31)
    for _ in range(200):
        walk, b = random_walk(rng, 35)
        p = rescale(walk, (1.0, b, float(rng.uniform(0.1, 10.0)))[rng.integers(0, 3)])
        for _ in range(30):
            s, t = (int(x) for x in rng.integers(0, p.n, size=2))
            want = brute_distance(p, s, t)
            assert abs(looptree_distance(p, s, t) - want) <= 1e-12 * max(1, want)


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
    # the lockstep root row, the same row one time at a time, and the pair
    # climb from time 0 are one number
    rng = rng_factory(36)
    paths = []
    for _ in range(60):
        walk, b = random_walk(rng, 60)
        paths.append((rescale(walk, b), np.arange(walk.n)))
    for alpha in (1.05, 1.5, 1.95):
        law = stable_offspring(alpha)
        n = 20_000
        p = rescale(encode_tree(sample_conditioned_tree(law, n, rng)),
                    law.scaling_constant(n))
        paths.append((p, rng.integers(0, n, size=300)))
    for p, times in paths:
        want = [looptree_distance(p, 0, int(t)) for t in times]
        assert distance_from_root(p, times).tolist() == want
        assert [distance_from_root(p, int(t)) for t in times] == want


def test_looptree_distance_on_arrays_is_its_pair_form_bit_for_bit(rng_factory):
    rng = rng_factory(39)
    for _ in range(30):
        walk, b = random_walk(rng, 60)
        p = rescale(walk, b)
        v = np.arange(walk.n)
        want = [[looptree_distance(p, s, t) for t in range(walk.n)]
                for s in range(walk.n)]
        assert looptree_distance(p, v[:, None], v[None, :]).tolist() == want
        assert looptree_distance(p, v[::-1], v).tolist() == \
            [want[walk.n - 1 - t][t] for t in range(walk.n)]


def test_distance_is_the_window_minimum_climb_bit_for_bit(rng_factory):
    # at scale 1 every float in the climbs is an integer, so the float
    # climbs on the stack genealogy are exact
    rng = rng_factory(37)
    for _ in range(150):
        p = rescale(random_walk(rng, 40)[0], 1.0)
        parent = stack_parent(p)
        for s in range(p.n):
            for t in range(p.n):
                want = window_min_looptree_distance(p, s, t, parent)
                assert looptree_distance(p, s, t) == want
                assert float_looptree_distance(p, s, t, parent) == want
    for alpha in (1.05, 1.5, 1.95):
        law = stable_offspring(alpha)
        for n in (64, 4096, 32_768):
            p = rescale(encode_tree(sample_conditioned_tree(law, n, rng)), 1.0)
            parent = stack_parent(p)
            for s, t in rng.integers(0, n, size=(1000, 2)).tolist():
                assert looptree_distance(p, s, t) == \
                    window_min_looptree_distance(p, s, t, parent)


def test_distances_are_the_integer_climb_over_the_scale(rng_factory):
    # at B_n both distances are the exact scale-1 climb divided by B_n, bit
    # for bit, and the float climb at B_n agrees to rounding
    rng = rng_factory(38)
    for alpha in (1.05, 1.5, 1.95):
        law = stable_offspring(alpha)
        for n in (64, 4096, 32_768):
            lp = encode_tree(sample_conditioned_tree(law, n, rng))
            b = law.scaling_constant(n)
            p1, p = rescale(lp, 1.0), rescale(lp, b)
            parent1, parent = stack_parent(p1), stack_parent(p)
            pairs = rng.integers(0, n, size=(300, 2)).tolist()
            for s, t in pairs:
                exact = float_looptree_distance(p1, s, t, parent1)
                assert exact == round(exact)
                got = looptree_distance(p, s, t)
                assert got == exact / b
                assert abs(float_looptree_distance(p, s, t, parent) - got) \
                    <= 1e-12 * max(1.0, got)
            times = np.array([t for _, t in pairs])
            exact = [float_looptree_distance(p1, 0, t, parent1) for t in times]
            assert distance_from_root(p, times).tolist() == [e / b for e in exact]


def test_tie_point_is_at_distance_exactly_zero():
    # time 4 is the last child of vertex 1, which is the first child of the
    # root on a loop of length 1, so time 4 is the root's point.  At scale
    # 1.9 the float left limit of time 2 (value minus jump) rounds one ulp
    # below the value at time 4, which would put time 4 inside that jump
    p = rescale(encode_tree(PlaneTree([2, 3, 0, 0, 0, 0])), 1.9)
    assert left_limits(p)[2] < p.values[4] == p.values[1]
    assert distance_from_root(p, 4) == 0.0
    assert distance_from_root(p, np.arange(6))[4] == 0.0
    for s in (0, 1, 2, 5):
        assert looptree_distance(p, s, 4) == 0.0


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
        v, lim = p.values, left_limits(p)
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
        v, lim = p.values, left_limits(p)
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
