"""Polygon dissections, the dual-tree bijection, and the metric sandwich."""

from __future__ import annotations

import itertools
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2_contingency, chisquare

from looptrees.dissection import (
    Dissection,
    _block_pmf,
    _check_crossings,
    _dual_with_regions,
    dual_tree,
    from_dual,
    gh_gap_check,
    sample_boltzmann,
)
from looptrees.experiments import stream
from looptrees.gw_tree import (
    LukasiewiczPath,
    OffspringLaw,
    PlaneTree,
    stable_offspring,
    tree_stats,
)

from conftest import (dual_by_chord_walk, enumerate_no_unary_trees,
                      polygon_by_loop_graph, sample_offspring)


@pytest.mark.parametrize("bad,word", [
    ((4, [(0, 2), (1, 3)]), "cross"),
    ((4, [(0, 1)]), "adjacent"),
    ((4, [(1, 1)]), "adjacent"),
    ((4, [(0, 2), (2, 0)]), "duplicate"),
    ((4, [(0, 4)]), "outside"),
    ((2, []), "3"),
])
def test_constructor_validation(bad, word):
    with pytest.raises(ValueError, match=word):
        Dissection(*bad)


def pairwise_crossings(chords: np.ndarray) -> None:
    """Quadratic oracle for _check_crossings: compare every pair of chords."""
    m = chords.shape[0]
    for i in range(m):
        a, b = int(chords[i, 0]), int(chords[i, 1])
        for j in range(i + 1, m):
            c, d = int(chords[j, 0]), int(chords[j, 1])
            if (a < c < b < d) or (c < a < d < b):
                raise ValueError(f"chords ({a}, {b}) and ({c}, {d}) cross")


def _names_a_real_fault(chords: np.ndarray, message: str) -> bool:
    """Whether ``message`` names a repeated chord or a crossing pair of
    ``chords``."""
    rows = chords.tolist()
    nums = list(map(int, re.findall(r"\d+", message)))
    if message.startswith("duplicate chord"):
        return rows.count(nums) >= 2
    a, b, c, d = nums
    return ([a, b] in rows and [c, d] in rows
            and ((a < c < b < d) or (c < a < d < b)))


def test_check_crossings_matches_pairwise_oracle(rng_factory):
    rng = rng_factory(44)
    law = stable_offspring(1.5, "no-unary")
    outcomes = {True: 0, False: 0}
    repeats = 0
    for trial in range(400):
        n = int(rng.integers(4, 40))
        if trial % 4 == 0:
            # a sampled dissection's chords, which never cross
            chords = sample_boltzmann(law, n - 1, rng).chords
        else:
            pts = np.sort(rng.integers(0, n, size=(int(rng.integers(1, n)), 2)), axis=1)
            chords = np.unique(pts[pts[:, 1] - pts[:, 0] >= 2], axis=0)
        try:
            pairwise_crossings(chords)
            crossing = False
        except ValueError:
            crossing = True
        outcomes[crossing] += 1
        if not crossing:
            _check_crossings(chords)
        else:
            with pytest.raises(ValueError, match="cross") as info:
                _check_crossings(chords)
            assert _names_a_real_fault(chords, str(info.value))
        if not chords.size:
            continue
        # the same chords with one of them repeated
        k = int(rng.integers(len(chords)))
        twice = np.insert(chords, int(rng.integers(len(chords) + 1)), chords[k], axis=0)
        with pytest.raises(ValueError) as info:
            _check_crossings(twice)
        assert _names_a_real_fault(twice, str(info.value))
        if not crossing:
            assert str(info.value) == f"duplicate chord ({chords[k, 0]}, {chords[k, 1]})"
            repeats += 1
    assert min(outcomes.values()) > 100 and repeats > 100


def test_chords_may_come_as_an_int64_array(rng_factory):
    chords = np.array([(3, 1), (0, 3), (4, 6)], dtype=np.int64)
    d = Dissection(7, chords)
    assert d == Dissection(7, chords.tolist())
    assert d.chords.tolist() == [[0, 3], [1, 3], [4, 6]]
    chords[0] = (2, 4)  # the dissection keeps its own copy
    assert d.chords.tolist() == [[0, 3], [1, 3], [4, 6]]
    drawn = sample_boltzmann(stable_offspring(1.5, "no-unary"), 60, rng_factory(45))
    assert Dissection(drawn.n_sides, drawn.chords) == drawn
    assert Dissection(drawn.n_sides, drawn.chords.tolist()) == drawn


def test_square_duals():
    assert dual_tree(Dissection(4)) == PlaneTree([3, 0, 0, 0])
    assert dual_tree(Dissection(4, [(1, 3)])) == PlaneTree([2, 2, 0, 0, 0])
    assert dual_tree(Dissection(4, [(0, 2)])) == PlaneTree([2, 0, 2, 0, 0])
    assert dual_tree(Dissection(3)) == PlaneTree([2, 0, 0])


def test_fan_triangulation_round_trip():
    fan = Dissection(6, [(0, 2), (0, 3), (0, 4)])
    tree = dual_tree(fan)
    assert tree_stats(tree).leaf_count == 5
    assert tree.size == 9
    assert from_dual(tree) == fan


def _tree_from_draws(root: int, draws) -> PlaneTree:
    """Plane tree with ``root`` children at the root and ``draws`` as the
    next children counts in depth-first order, cut where the walk closes or
    padded with leaves until it does."""
    counts, walk = [root], root - 1
    for c in draws:
        if walk < 0:
            break
        counts.append(c)
        walk += c - 1
    return PlaneTree(counts + [0] * (walk + 1))


def _sampled_dissection(alpha: float, n_leaves: int, seed: int) -> Dissection:
    law = stable_offspring(alpha, "no-unary")
    return sample_boltzmann(law, n_leaves, np.random.default_rng(seed))


dissections = st.one_of(
    st.builds(_sampled_dissection, st.floats(1.05, 1.95),
              st.integers(2, 300), st.integers(0, 2**32 - 1)),
    st.sampled_from([Dissection(3), Dissection(4)]),
    # a fan from polygon vertex 0, which is walk coordinate n
    st.integers(4, 40).map(lambda n: Dissection(n, [(0, k) for k in range(2, n - 1)])),
    st.builds(_tree_from_draws, st.integers(2, 6),
              st.lists(st.sampled_from([0, 0, 2, 3, 7]), max_size=80)).map(from_dual),
)


@settings(max_examples=300, deadline=None)
@given(d=dissections)
def test_dual_with_regions_matches_chord_walk_oracle(d):
    counts, regions, depth, parent = _dual_with_regions(d)
    want_counts, want_regions = dual_by_chord_walk(d)
    assert np.array_equal(counts, want_counts)
    # the parents _dual_gap hands to the walk's genealogy in place of its own
    want_parent = LukasiewiczPath(counts - 1)._ensure_index().parent
    assert parent.dtype == want_parent.dtype and np.array_equal(parent, want_parent)
    assert regions.tolist() == [list(r) for r in want_regions]
    assert depth.max() == tree_stats(dual_tree(d)).height


def test_from_dual_rejects_bad_trees():
    with pytest.raises(ValueError, match="one child"):
        from_dual(PlaneTree([1, 0]))
    with pytest.raises(ValueError):
        from_dual(PlaneTree([0]))


def test_round_trip_exhaustive(no_unary_by_leaves):
    seen = set()
    for k in range(2, 8):
        for tree in no_unary_by_leaves[k]:
            d = from_dual(tree)
            assert d.n_sides == k + 1
            assert dual_tree(d) == tree
            key = (d.n_sides, d.chords.tobytes())
            assert key not in seen
            seen.add(key)
    assert len(seen) == 1 + 3 + 11 + 45 + 197 + 903


def test_edge_count_euler_relation(no_unary_by_leaves):
    # chords = internal vertices - 1: every internal face adds one dual edge
    for tree in no_unary_by_leaves[6][:80]:
        d = from_dual(tree)
        internal = int(np.count_nonzero(tree.children_counts > 0))
        assert d.chord_count == internal - 1


@pytest.mark.parametrize("cls,text,word", [
    (Dissection, '{"n_sides": 5}', "no key 'chords'"),
    (Dissection, '{"chords": []}', "no key 'n_sides'"),
    (Dissection, '[1, 2]', "JSON object, got list"),
    (Dissection, '{"n_sides": "5", "chords": []}', "'n_sides' must be an integer, got str"),
    (Dissection, '{"n_sides": true, "chords": []}', "'n_sides' must be an integer, got bool"),
    (Dissection, '{"n_sides": 5, "chords": 3}', "'chords' must be an array, got int"),
    (PlaneTree, '{"steps": [0, -1]}', "no key 'children_counts'"),
    (PlaneTree, '{"children_counts": null}', "'children_counts' must be an array, got NoneType"),
    (PlaneTree, '"tree"', "JSON object, got str"),
    (LukasiewiczPath, '{}', "no key 'steps'"),
    (LukasiewiczPath, '{"steps": {"0": -1}}', "'steps' must be an array, got dict"),
    (LukasiewiczPath, '[[-1]]', "JSON object, got list"),
])
def test_from_json_names_the_missing_or_ill_typed_key(cls, text, word):
    with pytest.raises(ValueError) as info:
        cls.from_json(text)
    message = str(info.value)
    assert word in message and "\n" not in message


def test_json_and_svg_round_trip(no_unary_by_leaves):
    d = from_dual(no_unary_by_leaves[6][17])
    assert Dissection.from_json(d.to_json()) == d
    svg = Dissection(4, [(1, 3)]).to_svg(header_lines=["check"])
    assert svg.startswith("<!-- check -->")
    assert "<line" in svg and "<svg" in svg


@pytest.fixture(scope="module")
def small_and_drawn() -> list:
    """The duals of every dissection with 3-9 sides, then 300 Boltzmann
    draws with 2-300 leaves at three alpha, each as (tree or None, d)."""
    out = [(t, from_dual(t))
           for trees in enumerate_no_unary_trees(8).values() for t in trees]
    assert len(out) == sum([1, 3, 11, 45, 197, 903, 4279])
    for i in range(300):
        rng = stream(22, i)
        law = stable_offspring((1.1, 1.5, 1.9)[i % 3], "no-unary")
        out.append((None, sample_boltzmann(law, int(rng.integers(2, 301)), rng)))
    return out


def test_polygon_distances_match_the_generic_loop_graph(small_and_drawn):
    for _, d in small_and_drawn:
        want = polygon_by_loop_graph(d)
        got = d.graph_distances()
        assert got.dtype == want.dtype and np.array_equal(got, want), d


def test_from_dual_equals_the_checking_constructor(small_and_drawn):
    for tree, d in small_and_drawn:
        checked = Dissection(d.n_sides, d.chords)
        assert d == checked
        assert d.chords.dtype == checked.chords.dtype
        assert d.chords.shape == checked.chords.shape
        if tree is not None:
            assert dual_tree(d) == tree


def test_graph_distances_square():
    d = Dissection(4).graph_distances()
    assert d.shape == (4, 4)
    assert d[0, 1] == 1 and d[0, 2] == 2 and d[0, 3] == 1
    dd = Dissection(4, [(1, 3)]).graph_distances()
    assert dd[1, 3] == 1  # the diagonal is an edge


def test_boltzmann_on_square_is_uniform(rng_factory):
    law = OffspringLaw.from_probabilities([0.5, 0.0, 0.5])
    assert law.forbids_unary
    rng = rng_factory(40)
    counts = {}
    for _ in range(4000):
        d = sample_boltzmann(law, 3, rng)
        counts[d.chords.tobytes()] = counts.get(d.chords.tobytes(), 0) + 1
    # the binary law puts zero mass on the chordless square, leaving the two
    # single-diagonal dissections with equal weight
    assert len(counts) == 2
    stat, p = chisquare(sorted(counts.values()))
    assert p > 0.001


def test_boltzmann_takes_a_law_made_from_its_values(rng_factory):
    # mu_1 = 0 alone makes a law unary-free, whichever way it was built
    law = OffspringLaw([0.5, 0.0, 0.5])
    assert law.forbids_unary and law.tail_constant is None
    same = OffspringLaw.from_probabilities([0.5, 0.0, 0.5])
    for n_leaves in (3, 5, 12):
        got = sample_boltzmann(law, n_leaves, rng_factory(43))
        want = sample_boltzmann(same, n_leaves, rng_factory(43))
        assert np.array_equal(got.chords, want.chords)


def test_boltzmann_validation(rng_factory):
    rng = rng_factory(41)
    with pytest.raises(ValueError, match="unary"):
        sample_boltzmann(stable_offspring(1.5), 5, rng)
    with pytest.raises(ValueError):
        sample_boltzmann(stable_offspring(1.5, "no-unary"), 1, rng)


def test_non_integer_input_fails_fast(rng_factory):
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        Dissection(4.9, [(0, 2)])
    with pytest.raises(ValueError, match=r"^chord endpoints must be integers, got 0\.5$"):
        Dissection(4, [(0.5, 2.7)])
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        sample_boltzmann(stable_offspring(1.5, "no-unary"), 3.9, rng_factory(41))
    # an empty chord list is float to numpy, and still no chord at all
    assert Dissection(4, []).chord_count == 0
    assert Dissection(np.int64(4), np.array([[0, 2]])).chord_count == 1
    assert Dissection(4, [(0.0, 2.0)]) == Dissection(4, [(0, 2)])


def test_boltzmann_leaf_counts_exact(rng_factory):
    rng = rng_factory(42)
    law = stable_offspring(1.5, variant="no-unary")
    for n_leaves in (2, 3, 10, 40):
        d = sample_boltzmann(law, n_leaves, rng)
        t = dual_tree(d)
        assert tree_stats(t).leaf_count == n_leaves
        assert not np.any(t.children_counts == 1)
        assert d.n_sides == n_leaves + 1


def test_gh_gap_check_examples(rng_factory):
    ok, obs = gh_gap_check(Dissection(4))
    assert ok
    assert obs <= 3.0  # star dual has height 1

    rng = rng_factory(43)
    for _ in range(25):
        n_leaves = int(rng.integers(2, 60))
        alpha = float(rng.uniform(1.1, 1.9))
        law = stable_offspring(alpha, variant="no-unary")
        d = sample_boltzmann(law, n_leaves, rng)
        ok, obs = gh_gap_check(d)
        assert ok, (n_leaves, alpha, obs)


def rejection_boltzmann(law: OffspringLaw, n_leaves: int,
                        rng: np.random.Generator) -> Dissection:
    """Oracle for sample_boltzmann: grow unconditioned trees until one has
    exactly ``n_leaves`` leaves.  Slow (roughly n_leaves**2.9), exact."""
    # a tree without unary vertices and n leaves has at most 2n-1 vertices
    row = 2 * n_leaves - 1
    batch = 256
    while True:
        xi = sample_offspring(law, batch * row, rng).reshape(batch, row)
        walk = np.cumsum(xi - 1, axis=1)
        hit = walk == -1
        first = np.argmax(hit, axis=1)
        zeros = np.cumsum(xi == 0, axis=1)
        ok = hit.any(axis=1) & (zeros[np.arange(batch), first] == n_leaves)
        if ok.any():
            r = int(np.argmax(ok))
            return from_dual(PlaneTree(xi[r, : first[r] + 1]))
        batch = min(2 * batch, 8192)


def _no_unary_law(weights) -> OffspringLaw:
    """Critical law with mu_k proportional to weights[k-2] for k >= 2."""
    w = np.asarray(weights, dtype=float)
    scale = 1.0 / float(np.dot(np.arange(2, w.size + 2), w))
    return OffspringLaw.from_probabilities(
        np.concatenate([[1.0 - scale * w.sum(), 0.0], scale * w])
    )


def _reachable(law: OffspringLaw, n_leaves: int) -> bool:
    """Some tree has n_leaves leaves iff n_leaves - 1 is a sum of (k - 1)
    over degrees k >= 2 of the law."""
    ups = [k - 1 for k in range(2, law.probabilities.size) if law.pmf(k) > 0]
    ok = np.zeros(n_leaves, dtype=bool)
    ok[0] = True
    for s in range(1, n_leaves):
        ok[s] = any(z <= s and ok[s - z] for z in ups)
    return bool(ok[n_leaves - 1])


@settings(max_examples=60, deadline=None)
@given(
    weights=st.lists(st.integers(0, 9), min_size=1, max_size=5).filter(any),
    n_leaves=st.integers(2, 60),
    seed=st.integers(0, 2**32 - 1),
)
def test_boltzmann_property_on_finite_laws(weights, n_leaves, seed):
    law = _no_unary_law(weights)
    rng = np.random.default_rng(seed)
    if not _reachable(law, n_leaves):
        with pytest.raises(ValueError, match="unattainable"):
            sample_boltzmann(law, n_leaves, rng)
        return
    d = sample_boltzmann(law, n_leaves, rng)
    tree = dual_tree(d)
    counts = tree.children_counts
    assert tree_stats(tree).leaf_count == n_leaves
    assert not np.any(counts == 1)
    assert np.all(law.pmf(counts) > 0)
    assert from_dual(tree) == d


def _brute_block_pmf(mu: np.ndarray, s_max: int) -> np.ndarray:
    """Sum mu_0 * prod mu_{z+1} over every composition z of each total s."""
    out = np.zeros(s_max + 1)
    out[0] = mu[0]
    for s in range(1, s_max + 1):
        for r in range(s):
            for cuts in itertools.combinations(range(1, s), r):
                parts = np.diff([0, *cuts, s])
                out[s] += mu[0] * np.prod(mu[parts + 1])
    return out


@pytest.mark.parametrize("law", [
    stable_offspring(1.5, variant="no-unary"),
    stable_offspring(1.1, variant="no-unary"),
    _no_unary_law([0.3, 0.0, 0.5, 0.2]),
], ids=["stable-1.5", "stable-1.1", "finite"])
def test_block_pmf_matches_brute_force(law):
    mu = law.pmf(np.arange(14))
    np.testing.assert_allclose(_block_pmf(mu), _brute_block_pmf(mu, 12),
                               rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("law", [
    stable_offspring(1.5, variant="no-unary"),
    OffspringLaw.from_probabilities([0.5, 0.0, 0.5]),
], ids=["stable-1.5", "binary"])
def test_boltzmann_matches_enumerated_law(law, no_unary_by_leaves, rng_factory):
    rng = rng_factory(45)
    draws = 2000
    for k in range(2, 8):
        trees = no_unary_by_leaves[k]
        weight = np.array([np.prod(law.pmf(t.children_counts)) for t in trees])
        index = {t.children_counts.tobytes(): i for i, t in enumerate(trees)}
        seen = np.zeros(len(trees))
        for _ in range(draws):
            seen[index[dual_tree(sample_boltzmann(law, k, rng)).children_counts.tobytes()]] += 1
        assert not np.any(seen[weight == 0.0])
        expected = draws * weight / weight.sum()
        # pool the cells too light for the chi-square approximation
        light = expected < 5.0
        obs = np.append(seen[~light], seen[light].sum())
        exp = np.append(expected[~light], expected[light].sum())
        keep = exp > 0
        if keep.sum() < 2:
            assert seen[weight > 0].sum() == draws
            continue
        p = chisquare(obs[keep], exp[keep]).pvalue
        assert p > 0.001, (k, p)


def test_boltzmann_agrees_with_rejection_oracle(rng_factory):
    # beyond the enumerated sizes: chord counts and dual heights at 12 leaves
    law = stable_offspring(1.5, variant="no-unary")
    rng = rng_factory(46)
    draws = 2000
    samples = {"exact": [], "oracle": []}
    for _ in range(draws):
        for name, fn in (("exact", sample_boltzmann), ("oracle", rejection_boltzmann)):
            d = fn(law, 12, rng)
            samples[name].append((d.chord_count, tree_stats(dual_tree(d)).height))
    features = {name: np.array(rows) for name, rows in samples.items()}
    for f in (0, 1):
        top = max(v[:, f].max() for v in features.values()) + 1
        table = np.array([np.bincount(v[:, f], minlength=top)
                          for v in features.values()])
        # pool sparse columns into their neighbours so every cell is usable
        cols, acc = [], np.zeros(2)
        for col in table.T:
            acc = acc + col
            if acc.min() >= 10:
                cols.append(acc)
                acc = np.zeros(2)
        cols[-1] = cols[-1] + acc
        p = chi2_contingency(np.array(cols).T).pvalue
        assert p > 0.001, (f, p)


def test_unreachable_leaf_count_fails_fast(rng_factory):
    law = OffspringLaw.from_probabilities([2 / 3, 0.0, 0.0, 1 / 3])
    rng = rng_factory(47)
    assert dual_tree(sample_boltzmann(law, 5, rng)).size == 7
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="unattainable"):
        sample_boltzmann(law, 4, rng)
    assert time.perf_counter() - t0 < 1.0
