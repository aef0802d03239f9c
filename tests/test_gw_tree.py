"""Offspring laws, conditioned sampling, walk coding, descent sweeps."""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import zeta

from looptrees import gw_tree
from looptrees._bridge import cache_info, sample_conditioned_steps
from looptrees.experiments import circle_gap_bound
from looptrees.gw_tree import (
    LukasiewiczPath,
    OffspringLaw,
    PlaneTree,
    _cycle_shift,
    decode_tree,
    descent,
    encode_tree,
    sample_conditioned_tree,
    stable_offspring,
    tree_stats,
)
from looptrees.layout import looptree_layout
from looptrees.looptree import build_loop, build_loop_prime

from conftest import ORACLE_TABLE, invert_tail, sample_offspring


def tree_from_seeds(seeds: list[int]) -> PlaneTree:
    """Repair an arbitrary list of child counts into a valid tree."""
    counts = []
    w = 0
    for c in seeds:
        counts.append(c)
        w += c - 1
        if w == -1:
            break
    while w > -1:
        counts.append(0)
        w -= 1
    return PlaneTree(counts)


tree_strategy = st.lists(
    st.integers(min_value=0, max_value=6), min_size=0, max_size=60
).map(tree_from_seeds)


def stack_index(values: np.ndarray):
    """Oracle genealogy: parent[k] is the previous index whose value is <=
    every value on the way, found with the usual monotone stack."""
    n = values.size - 1
    w = values[:n].tolist()
    parent = [0] * n
    depth = [0] * n
    parent[0] = -1
    stack = [0]
    for k in range(1, n):
        wk = w[k]
        while w[stack[-1]] > wk:
            stack.pop()
        p = stack[-1]
        parent[k] = p
        depth[k] = depth[p] + 1
        stack.append(k)
    return parent, depth


# ---- law construction ----

def test_stable_offspring_criticality_and_tail():
    rows = []
    for alpha in (1.05, 1.2, 1.5, 1.8, 1.95):
        for variant in ("generic", "no-unary"):
            law = stable_offspring(alpha, variant)
            assert abs(law.mean() - 1.0) < 1e-9
            k = 10**6
            ratio = law.tail(k) * k**alpha / law.tail_constant
            rows.append((alpha, variant, ratio))
            assert abs(ratio - 1.0) < 2e-5


def test_stable_offspring_generic_shape():
    law = stable_offspring(1.5)
    # criticality: sum k * theta * k**(-1-alpha) = theta * zeta(alpha) = 1
    theta = 1.0 / zeta(1.5)
    assert law.pmf(1) == pytest.approx(theta, rel=1e-12)
    assert law.pmf(3) == pytest.approx(theta * 3.0**-2.5, rel=1e-12)
    assert 0.0 < law.pmf(0) < 1.0
    assert law.tail_constant == pytest.approx(theta / 1.5, rel=1e-12)
    # tail times k^alpha approaches the constant, checked at a far point
    k = 2**16
    assert law.tail(k) * k**1.5 == pytest.approx(law.tail_constant, rel=0.01)


def test_stable_offspring_no_unary_shape():
    law = stable_offspring(1.5, "no-unary")
    assert law.forbids_unary
    assert law.pmf(1) == 0.0
    assert law.pmf(0) == pytest.approx(0.78820858, abs=1e-8)
    assert law.pmf(2) == pytest.approx(0.10963743, abs=1e-8)


def test_stable_offspring_no_unary_support():
    law = stable_offspring(1.3, "no-unary")
    assert law.pmf(1) == 0.0
    assert law.pmf(0) > 0 and law.pmf(2) > 0 and law.pmf(3) > 0


def test_sampling_matches_pmf():
    law = stable_offspring(1.5)
    rng = np.random.default_rng(5150)
    n = 10**6
    draws = sample_offspring(law, n, rng)
    for k in range(6):
        emp = np.mean(draws == k)
        exp = law.pmf(k)
        z = (emp - exp) / np.sqrt(exp * (1 - exp) / n)
        assert abs(z) < 4.5, (k, emp, exp)
    tail_emp = np.mean(draws >= 50)
    tail_exact = law.tail(50)
    assert abs(tail_emp - tail_exact) < 4.5 * np.sqrt(tail_exact / n)


def test_tail_inversion_beyond_table():
    law = stable_offspring(1.5)
    u = 1.0 - law.tail(ORACLE_TABLE + 37) * 0.5
    k = invert_tail(law, u)
    assert k >= ORACLE_TABLE
    resid = 1.0 - u
    assert law.tail(k) >= resid > law.tail(k + 1)


@pytest.mark.parametrize("variant", ["generic", "no-unary"])
@pytest.mark.parametrize("alpha", [1.05, 1.5, 1.95])
def test_stable_offspring_cutoff_changes_no_value(alpha, variant):
    # the stored table is a cache of the formula: every cutoff gives the
    # same pmf and tail bit for bit, with mu_1 = 0 kept past a short table
    ks = np.arange(10**6 + 1)
    tail_ks = np.r_[np.arange(1001), 10**6]
    laws = [stable_offspring(alpha, variant, cutoff=c) for c in (1, 2, 64, 2**20)]
    pmf, tail = laws[-1].pmf(ks), laws[-1].tail(tail_ks)
    assert (pmf[1] == 0.0) == (variant == "no-unary")
    np.testing.assert_allclose(tail[:1001], 1.0 - np.r_[0.0, np.cumsum(pmf[:1000])],
                               rtol=0.0, atol=1e-12)
    for law in laws[:-1]:
        assert np.array_equal(law.pmf(ks), pmf), law.probabilities.size
        assert np.array_equal(law.tail(tail_ks), tail), law.probabilities.size


def test_default_stable_law_holds_no_table():
    # pmf and tail are formulas past mu_0 (and mu_1 = 0), so a default law
    # stores a few bytes, and building one adds no bridge table to the
    # shared cache until a draw needs one
    for variant in ("generic", "no-unary"):
        before = cache_info()["entries"]
        law = stable_offspring(1.5, variant)
        assert law.probabilities.nbytes <= 64
        assert cache_info()["entries"] == before


@pytest.mark.parametrize("variant", ["generic", "no-unary"])
@pytest.mark.parametrize("alpha", [1.05, 1.5, 1.95])
def test_stable_law_works_out_its_flags(alpha, variant):
    law = stable_offspring(alpha, variant)
    theta = 1.0 / float(zeta(alpha, 1 if variant == "generic" else 2))
    assert law.tail_constant == theta / alpha
    assert law.forbids_unary == (variant == "no-unary")


def test_offspring_law_validation():
    with pytest.raises(ValueError):
        OffspringLaw.from_probabilities([0.5, 0.5, 0.5])
    with pytest.raises(ValueError):
        OffspringLaw.from_probabilities([0.9, 0.1])  # mean 0.1, not critical
    with pytest.raises(ValueError, match="cutoff"):
        stable_offspring(1.5, cutoff=0)


def test_a_nan_law_fails_at_construction():
    # NaN compares false with every tolerance, so the checks are written to fail on it
    for atoms in ([np.nan, 1.0], [0.5, np.nan, 0.5]):
        with pytest.raises(ValueError, match=r"^probabilities sum to nan, not 1$"):
            OffspringLaw(atoms)


# ---- tree and walk types ----

def test_plane_tree_validation():
    # a tree is checked as its walk, so its messages are the walk's
    with pytest.raises(ValueError, match=r"^walk ends at 0, expected -1$"):
        PlaneTree([2, 0])
    with pytest.raises(ValueError, match=r"^walk ends at -2, expected -1$"):
        PlaneTree([0, 0])
    with pytest.raises(ValueError,
                       match=r"^walk goes negative before the end \(at index 2\)$"):
        PlaneTree([1, 0, 0, 2])
    with pytest.raises(ValueError, match=r"^steps must be a nonempty 1-d sequence$"):
        PlaneTree([])
    PlaneTree([0])


def test_lukasiewicz_validation():
    with pytest.raises(ValueError):
        LukasiewiczPath([1, -1, -1, 1, -1])  # dips below 0 before the end
    with pytest.raises(ValueError):
        LukasiewiczPath([1, -1])  # ends at 0, not -1
    with pytest.raises(ValueError):
        LukasiewiczPath([-2])  # step below -1
    LukasiewiczPath([1, 0, -1, -1])


def test_encode_example():
    t = PlaneTree([2, 2, 0, 0, 0])
    p = encode_tree(t)
    walk = np.concatenate([[0], np.cumsum(p.steps)])
    assert walk.tolist() == [0, 1, 2, 1, 0, -1]
    single = encode_tree(PlaneTree([0]))
    w1 = np.concatenate([[0], np.cumsum(single.steps)])
    assert w1.tolist() == [0, -1]


def test_consumers_of_one_tree_share_one_genealogy(monkeypatch, rng_factory):
    built = []
    real = gw_tree._TreeIndex
    monkeypatch.setattr(gw_tree, "_TreeIndex",
                        lambda *args: built.append(1) or real(*args))
    law = stable_offspring(1.5)
    tree = sample_conditioned_tree(law, 500, rng_factory(17))
    assert encode_tree(tree) is encode_tree(tree)
    build_loop(tree)
    build_loop_prime(tree)
    tree_stats(tree)
    looptree_layout(tree)
    circle_gap_bound(tree, law.scaling_constant(500), 16)
    assert len(built) == 1


def test_json_round_trips():
    t = PlaneTree([2, 2, 0, 0, 0])
    assert PlaneTree.from_json(t.to_json()) == t
    p = encode_tree(t)
    assert LukasiewiczPath.from_json(p.to_json()) == p


@settings(max_examples=150, deadline=None)
@given(tree_strategy)
def test_encode_decode_round_trip(tree):
    path = encode_tree(tree)
    assert decode_tree(path) == tree
    assert encode_tree(decode_tree(path)) == path


def test_round_trip_exhaustive(small_trees):
    for tree in small_trees:
        assert decode_tree(encode_tree(tree)) == tree


# ---- descent ----

def test_descent_hand_example():
    p = encode_tree(PlaneTree([2, 2, 0, 0, 0]))
    assert descent(p, 0) == []
    assert descent(p, 2) == [(0, 2), (1, 2)]
    assert descent(p, 3) == [(0, 2), (1, 1)]
    assert descent(p, 4) == [(0, 1)]


def test_descent_rejects_bad_index():
    p = encode_tree(PlaneTree([2, 2, 0, 0, 0]))
    with pytest.raises(IndexError):
        descent(p, 5)
    with pytest.raises(IndexError):
        descent(p, -1)


@settings(max_examples=120, deadline=None)
@given(tree_strategy)
def test_descent_matches_defining_infimum(tree):
    path = encode_tree(tree)
    w = np.concatenate([[0], np.cumsum(path.steps)])
    n = tree.size
    for j in range(n):
        got = descent(path, j)
        # brute-force ancestors: i < j with min(W[i..j]) == W[i]
        anc = [i for i in range(j) if w[i:j + 1].min() == w[i]]
        assert [k for k, _ in got] == anc
        for k, x in got:
            want = int(w[k + 1:j + 1].min() - w[k] + 1)
            assert x == want
            assert 1 <= x <= path.steps[k] + 1


@settings(max_examples=120, deadline=None)
@given(tree_strategy)
def test_descent_sum_identity(tree):
    # sum of cycle positions over the descent equals depth plus walk value
    path = encode_tree(tree)
    w = np.concatenate([[0], np.cumsum(path.steps)])
    depth = path._ensure_index().depth
    for j in range(tree.size):
        total = sum(x for _, x in descent(path, j))
        assert total == depth[j] + w[j]


def test_parent_and_depth_against_stack_walk(rng_factory):
    rng = rng_factory(1)

    def brute_parent(counts):
        parent = [-1] * len(counts)
        stack = [(0, counts[0])]
        nxt = 1
        while nxt < len(counts):
            v, rem = stack[-1]
            if rem == 0:
                stack.pop()
                continue
            stack[-1] = (v, rem - 1)
            parent[nxt] = v
            stack.append((nxt, counts[nxt]))
            nxt += 1
        return parent

    law = OffspringLaw.from_probabilities([0.5, 0.1, 0.3, 0.1])
    for _ in range(120):
        n = int(rng.integers(1, 40))
        tree = sample_conditioned_tree(law, n, rng)
        idx = encode_tree(tree)._ensure_index()
        assert idx.parent.tolist() == brute_parent(tree.children_counts.tolist())
        for v in range(1, n):
            assert idx.depth[v] == idx.depth[idx.parent[v]] + 1


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    tree_strategy,
    # all-unary chains, the deepest trees of their size
    st.integers(min_value=1, max_value=200).map(
        lambda n: PlaneTree([1] * (n - 1) + [0])),
    # wide trees: jumps that open many levels at once
    st.lists(st.integers(min_value=0, max_value=40), max_size=30)
    .map(tree_from_seeds),
))
def test_genealogy_matches_stack_oracle(tree):
    path = encode_tree(tree)
    idx = path._ensure_index()
    parent, depth = stack_index(path.values)
    assert idx.parent.tolist() == parent
    assert idx.depth.tolist() == depth


def subtree_sizes(parent: np.ndarray) -> np.ndarray:
    """Oracle subtree sizes: add each vertex into its parent, last first."""
    sizes = np.ones(parent.size, dtype=np.int64)
    for v in range(parent.size - 1, 0, -1):
        sizes[parent[v]] += sizes[v]
    return sizes


@settings(max_examples=200, deadline=None)
@given(tree_strategy)
@example(PlaneTree([0]))
@example(PlaneTree([1, 1, 1, 1, 0]))  # a unary chain
@example(PlaneTree([2, 1, 1, 0, 1, 0]))
def test_subtree_end_matches_size_oracle(tree):
    idx = encode_tree(tree)._ensure_index()
    assert np.array_equal(idx.end - np.arange(tree.size), subtree_sizes(idx.parent))


def test_genealogy_matches_stack_oracle_on_sampled_trees(rng_factory):
    rng = rng_factory(3)
    for alpha in (1.05, 1.5, 1.95):
        law = stable_offspring(alpha)
        for n in (2, 3, 17, 300, 5000):
            path = encode_tree(sample_conditioned_tree(law, n, rng))
            idx = path._ensure_index()
            parent, depth = stack_index(path.values)
            assert idx.parent.tolist() == parent
            assert idx.depth.tolist() == depth
            assert np.array_equal(idx.end - np.arange(n), subtree_sizes(idx.parent))


# ---- tree_stats ----

def test_tree_stats_examples():
    assert tree_stats(PlaneTree([0])) == (1, 1, 0)
    assert tree_stats(PlaneTree([2, 2, 0, 0, 0])) == (5, 3, 2)
    assert tree_stats(PlaneTree([1, 1, 1, 0])) == (4, 1, 3)


def test_height_scaling_concentrates(rng_factory):
    # H(tree) * B_n / n should be order one at large n, neither tiny nor huge
    law = stable_offspring(1.5)
    b = law.scaling_constant(100_000)
    rng = rng_factory(2)
    vals = []
    for _ in range(6):
        tree = sample_conditioned_tree(law, 100_000, rng)
        vals.append(tree_stats(tree).height * b / 100_000)
    assert all(0.05 < v < 50.0 for v in vals)


# ---- conditioned sampling ----

def test_sample_size_one_is_single_vertex():
    law = stable_offspring(1.5)
    rng = np.random.default_rng(3)
    for _ in range(5):
        assert sample_conditioned_tree(law, 1, rng) == PlaneTree([0])


def test_non_integer_input_fails_fast():
    with pytest.raises(ValueError, match=r"^children counts must be integers, got 2\.5$"):
        PlaneTree([2.5, 0, 0])
    with pytest.raises(ValueError, match=r"^children counts must be integers, got '2'$"):
        PlaneTree(["2", 0, 0])
    with pytest.raises(ValueError, match=r"^children counts must be integers, got nan$"):
        PlaneTree([np.nan, 0])
    with pytest.raises(ValueError, match=r"^steps must be integers, got 0\.9$"):
        LukasiewiczPath([0.9, -1])
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        sample_conditioned_tree(stable_offspring(1.5), 3.5, np.random.default_rng(3))
    # integral floats and numpy integers are integers
    assert PlaneTree([2.0, 0.0, 0.0]) == PlaneTree([2, 0, 0])
    assert LukasiewiczPath(np.array([1, -1, -1], dtype=np.int8)).n == 3
    assert sample_conditioned_tree(stable_offspring(1.5), np.int32(3),
                                   np.random.default_rng(3)).size == 3


def test_a_bool_among_integers_fails_fast():
    # numpy would cast [True, 0] to [1, 0]
    with pytest.raises(ValueError, match=r"^children counts must be integers, got True$"):
        PlaneTree([True, 0])
    with pytest.raises(ValueError, match=r"^steps must be integers, got False$"):
        LukasiewiczPath([1, False, -1, -1])
    with pytest.raises(ValueError, match=r"^steps must be integers, got np\.True_$"):
        LukasiewiczPath([np.True_, -1, -1])
    # integer arrays, as the samplers pass them, are taken as they are
    assert PlaneTree(np.array([1, 0])) == PlaneTree([1, 0])


def test_law_values_take_integer_counts_only():
    law = stable_offspring(1.5)
    for values in (law.pmf, law.tail):
        with pytest.raises(ValueError, match=r"^k must be integers, got 2\.5$"):
            values(2.5)
        with pytest.raises(ValueError, match=r"^k must be integers, got 0\.5$"):
            values([1, 0.5])
        assert values(3.0) == values(np.int8(3)) == values(3)


def test_sample_rejects_bad_size():
    law = stable_offspring(1.5)
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError):
        sample_conditioned_tree(law, 0, rng)


def test_unattainable_size_raises_value_error():
    # the no-unary family cannot make a 2-vertex tree
    law = stable_offspring(1.5, "no-unary")
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError, match="unattainable"):
        sample_conditioned_tree(law, 2, rng)


def rejection_conditioned(law: OffspringLaw, n: int,
                          rng: np.random.Generator) -> PlaneTree:
    """Oracle for sample_conditioned_tree: draw i.i.d. offspring vectors
    until one sums to n-1, then cycle-shift it.  Slow for large n, exact."""
    if law.tail_constant is not None:
        scale = law.scaling_constant(n)
    else:
        scale = float(n)  # no tail info: generous fallback
    cap = 10_000 * math.ceil(scale)
    batch = int(min(max(16, 2.0 * scale), max(16, 4_000_000 // n)))
    drawn = 0
    while drawn < cap:
        rows = min(batch, cap - drawn)
        xi = sample_offspring(law, rows * n, rng).reshape(rows, n)
        hits = np.flatnonzero(xi.sum(axis=1) == n - 1)
        drawn += rows
        if hits.size:
            return decode_tree(LukasiewiczPath(_cycle_shift(xi[hits[0]] - 1)))
    raise RuntimeError(f"no step vector with total {n - 1} in {cap} attempts")


def _critical_law(weights) -> OffspringLaw:
    """Critical law with mu_k proportional to weights[k-1] for k >= 1."""
    w = np.asarray(weights, dtype=float)
    scale = 1.0 / float(np.dot(np.arange(1, w.size + 1), w))
    mu0 = max(0.0, 1.0 - scale * w.sum())
    return OffspringLaw.from_probabilities(np.concatenate([[mu0], scale * w]))


def _size_attainable(support: list[int], n: int) -> bool:
    """Some tree has n vertices iff n degrees from the support sum to n - 1
    (the cycle lemma turns any such vector into exactly one tree)."""
    totals = {0}
    for _ in range(n):
        totals = {t + k for t in totals for k in support if t + k <= n - 1}
    return n - 1 in totals


@settings(max_examples=80, deadline=None)
@given(
    weights=st.lists(st.integers(0, 9), min_size=1, max_size=6).filter(any),
    n=st.integers(2, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_conditioned_property_on_finite_laws(weights, n, seed):
    law = _critical_law(weights)
    support = [k for k in range(law.probabilities.size) if law.pmf(k) > 0]
    rng = np.random.default_rng(seed)
    if not _size_attainable(support, n):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="unattainable"):
            sample_conditioned_tree(law, n, rng)
        assert time.perf_counter() - t0 < 1.0
        return
    tree = sample_conditioned_tree(law, n, rng)
    assert tree.size == n
    assert set(tree.children_counts.tolist()) <= set(support)


@settings(max_examples=120, deadline=None)
@given(
    weights=st.lists(st.integers(0, 9), min_size=1, max_size=6).filter(any),
    n=st.integers(2, 40),
    seed=st.integers(0, 2**32 - 1),
)
@example(weights=[0, 1], n=4, seed=0)  # support {0, 2}: even n is unattainable
@example(weights=[0, 0, 0, 0, 0, 1], n=7, seed=0)  # support {0, 6}
def test_bridge_totals_property(weights, n, seed):
    law = _critical_law(weights)
    support = [k for k in range(law.probabilities.size) if law.pmf(k) > 0]
    rng = np.random.default_rng(seed)
    if not _size_attainable(support, n):
        with pytest.raises(ValueError, match="unattainable"):
            sample_conditioned_steps(law, n, rng)
        return
    xi = sample_conditioned_steps(law, n, rng)
    assert xi.shape == (n,)
    assert int(xi.sum()) == n - 1
    assert set(xi.tolist()) <= set(support)


# n - 1 balls in n bins, minus one: every vector of n steps >= -1 summing to
# -1, with runs of -1 steps that tie the minimum of the partial sums
step_vectors = st.integers(1, 60).flatmap(
    lambda n: st.lists(st.integers(0, n - 1), min_size=n - 1, max_size=n - 1)
    .map(lambda balls: np.bincount(balls, minlength=n) - 1)
)


@settings(max_examples=200, deadline=None)
@given(step_vectors)
@example([0, -1, 1, -1])  # partial sums 0, -1, 0, -1: the minimum is tied
def test_cycle_lemma_property(steps):
    steps = np.asarray(steps, dtype=np.int64)
    valid = []
    for r in range(steps.size):
        partial = np.cumsum(np.roll(steps, -r))
        if partial[-1] == -1 and partial[:-1].min(initial=0) >= 0:
            valid.append(np.roll(steps, -r))
    assert len(valid) == 1
    assert np.array_equal(_cycle_shift(steps), valid[0])


def test_binary_law_uniform_on_five_vertices(rng_factory):
    # mu on {0,2}: both 5-vertex binary trees are equally likely
    law = OffspringLaw.from_probabilities([0.5, 0.0, 0.5])
    rng = rng_factory(3)
    seen = {}
    reps = 4000
    for _ in range(reps):
        tree = sample_conditioned_tree(law, 5, rng)
        key = tuple(tree.children_counts.tolist())
        seen[key] = seen.get(key, 0) + 1
    assert set(seen) == {(2, 2, 0, 0, 0), (2, 0, 2, 0, 0)}
    # two-cell chi-square, 1 df; 10.8 is the 0.001 tail
    counts = np.array(list(seen.values()), dtype=float)
    chi2 = float(((counts - reps / 2) ** 2 / (reps / 2)).sum())
    assert chi2 < 10.8


def test_conditioned_law_exact_at_six_vertices(small_trees, rng_factory):
    # the sampler and the rejection oracle against the exact weighted
    # enumeration at n=6
    law = stable_offspring(1.5)
    trees6 = [t for t in small_trees if t.size == 6]
    assert len(trees6) == 42
    weights = {}
    for t in trees6:
        w = 1.0
        for k in t.children_counts.tolist():
            w *= law.pmf(k)
        weights[tuple(t.children_counts.tolist())] = w
    z = sum(weights.values())
    exact = {c: w / z for c, w in weights.items()}

    reps = 20_000
    for lane, sampler in enumerate((rejection_conditioned, sample_conditioned_tree)):
        rng = rng_factory(10 + lane)
        seen = {}
        for _ in range(reps):
            tr = sampler(law, 6, rng)
            key = tuple(tr.children_counts.tolist())
            seen[key] = seen.get(key, 0) + 1
        assert set(seen) <= set(exact)
        chi2 = 0.0
        for c, p in exact.items():
            e = reps * p
            chi2 += (seen.get(c, 0) - e) ** 2 / e
        # df = 41: mean 41, sd about 9; stay below a 5-sigma excursion
        assert chi2 < 95.0, (sampler.__name__, chi2)


def test_bridge_and_rejection_heights_agree(rng_factory):
    # same height law from the sampler and the rejection oracle
    law = stable_offspring(1.5)
    rng = rng_factory(4)
    h_rej = [
        tree_stats(rejection_conditioned(law, 64, rng)).height
        for _ in range(400)
    ]
    h_bri = [
        tree_stats(sample_conditioned_tree(law, 64, rng)).height
        for _ in range(400)
    ]
    from scipy import stats as sps

    ks = sps.ks_2samp(h_rej, h_bri)
    assert ks.pvalue > 1e-3


def test_bridge_large_size_smoke(rng_factory):
    law = stable_offspring(1.5)
    rng = rng_factory(5)
    tree = sample_conditioned_tree(law, 100_000, rng)
    assert tree.size == 100_000
    path = encode_tree(tree)
    walk = np.concatenate([[0], np.cumsum(path.steps)])
    assert walk[-1] == -1
    assert walk[:-1].min() >= 0
