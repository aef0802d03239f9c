"""Acceptance suite: one test per shipping criterion, one printed verdict each.

Every test exercises the criterion at its stated scale and tolerance and
prints a single PASS/FAIL line on the real terminal stream, so the verdicts
survive pytest's output capture.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from looptrees.dissection import Dissection, dual_tree, from_dual, sample_boltzmann
from looptrees.excursion_metric import looptree_distance, rescale
from looptrees.experiments import (
    dimension_experiment,
    gh_sandwich,
    interpolation_circle,
    interpolation_crt,
    laplace_check,
    max_jump_experiment,
    stream,
)
from looptrees.gw_tree import (
    LukasiewiczPath,
    OffspringLaw,
    PlaneTree,
    decode_tree,
    descent,
    encode_tree,
    sample_conditioned_tree,
    stable_offspring,
)
from looptrees.looptree import build_loop, build_loop_prime, loop_prime_distance
from looptrees.stable_law import StableParams, beta_root

from conftest import gh_upper_bound, left_limits, stack_parent


_capture = None


@pytest.fixture(autouse=True)
def _real_terminal(capsys):
    # pytest redirects fd 1 itself, so plain prints (even to sys.__stdout__)
    # never reach the terminal; stash capsys so _verdict can suspend capture
    global _capture
    _capture = capsys
    yield
    _capture = None


def _verdict(num: int, ok: bool, detail: str, started: float) -> None:
    line = (f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} "
            f"({time.time() - started:5.1f}s) {detail}")
    with _capture.disabled():
        print(line, flush=True)


def test_criterion_01_walk_distance_equals_bfs(small_trees):
    t0 = time.time()
    checked = 0
    for tree in small_trees:
        path = encode_tree(tree)
        d = build_loop_prime(tree).distances()
        n = tree.size
        for i in range(n):
            for j in range(i, n):
                assert loop_prime_distance(path, i, j) == d[i, j]
                checked += 1
    rng = stream(101, 0)
    law = stable_offspring(1.5)
    for _ in range(300):
        n = int(rng.integers(2, 201))
        tree = sample_conditioned_tree(law, n, rng)
        path = encode_tree(tree)
        d = build_loop_prime(tree).distances()
        for i in range(n):
            for j in range(i, n):
                assert loop_prime_distance(path, i, j) == d[i, j]
                checked += 1
    elapsed = time.time() - t0
    _verdict(1, True, f"exact on {checked} pairs, 626 small + 300 random trees",
             t0)
    assert elapsed < 60.0


def test_criterion_02_descent_sum_identity():
    t0 = time.time()
    rng = stream(102, 0)
    law = stable_offspring(1.5)
    vertices = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 101))
        tree = sample_conditioned_tree(law, n, rng)
        path = encode_tree(tree)
        w = path.values
        depth = path._ensure_index().depth
        for j in range(n):
            assert sum(x for _, x in descent(path, j)) == depth[j] + w[j]
            vertices += 1
    elapsed = time.time() - t0
    _verdict(2, True, f"descent sums exact on {vertices} vertices "
             "across 10000 trees", t0)
    assert elapsed < 60.0


def test_criterion_03_chain_bounds_on_rescaled_paths():
    t0 = time.time()
    law = stable_offspring(1.5)
    b = law.scaling_constant(10_000)
    lower_checked = 0
    upper_checked = 0
    for rep in range(100):
        rng = stream(103, rep)
        tree = sample_conditioned_tree(law, 10_000, rng)
        p = rescale(encode_tree(tree), b)
        v, lim = p.values, left_limits(p)
        parent = stack_parent(p)
        for _ in range(50):
            s, t = sorted(int(x) for x in rng.integers(0, p.n, size=2))
            if s == t:
                continue
            d = looptree_distance(p, s, t)
            win = v[s:t + 1].min()
            assert d <= v[s] + lim[t] - 2 * win + 1e-9
            upper_checked += 1
            if lim[s] > win:
                continue
            # s is an ancestor of t: every strict chain element gives a
            # lower bound min(x, jump - x)
            cur = t
            running = v[t]
            while True:
                a = int(parent[cur])
                if a <= s:
                    break
                running = min(running, v[cur])
                x = min(running, v[a]) - lim[a]
                gap = min(x, p.jumps[a] - x)
                assert d >= gap - 1e-9
                lower_checked += 1
                cur = a
    elapsed = time.time() - t0
    _verdict(3, True, f"upper bound on {upper_checked} pairs, lower bound on "
             f"{lower_checked} chain elements, tol 1e-9", t0)
    assert elapsed < 120.0


def test_criterion_04_gh_sandwiches(small_trees):
    t0 = time.time()
    for tree in small_trees:
        n = tree.size
        if n == 1:
            continue
        dl = build_loop(tree).distances()
        dp = build_loop_prime(tree).distances()
        px = np.concatenate([[0], np.arange(1, n) - 1])
        corr = np.column_stack([px, np.arange(n)])
        assert gh_upper_bound(corr, dl, dp) <= 2.0
    report = gh_sandwich(alpha=1.5, n_dissections=200, max_leaves=300, seed=6)
    ok = report["pass"]
    worst_pair = max(r["loop_pair_gh_bound"] for r in report["rows"])
    worst_slack = max(r["observed"] - r["height"] for r in report["rows"])
    elapsed = time.time() - t0
    _verdict(4, ok, f"pairing bound <= 2 on 626 trees (worst sampled "
             f"{worst_pair}); height bound on 200 dissections "
             f"(worst observed-height {worst_slack:.1f})", t0)
    assert ok
    assert elapsed < 300.0


def test_criterion_05_laplace_contract():
    t0 = time.time()
    report = laplace_check(alphas=(1.2, 1.5, 1.8), lams=(0.1, 0.5, 1.0),
                           n_samples=10**6, seed=11)
    elapsed = time.time() - t0
    _verdict(5, report["pass"],
             f"worst |z| = {report['worst_z']:.2f} over 9 cells (gate 4.0)", t0)
    assert report["pass"]
    assert elapsed < 120.0


def test_criterion_06_max_jump_mean_and_root():
    t0 = time.time()
    report = max_jump_experiment(alpha=1.5, n=10**5, replicates=500, seed=3,
                                 tolerance=0.05)

    # independent dense scan of the alternating series at step 1e-4
    def series(beta: float) -> float:
        total, term, k = 0.0, 1.0, 0
        while term > 1e-30:
            total += (-1.0) ** k * term / (k - 1.5)
            k += 1
            term *= beta / k
        return total

    grid = np.arange(1e-4, 1.0, 1e-4)
    vals = np.array([series(b) for b in grid])
    k = int(np.flatnonzero(np.diff(np.sign(vals)) > 0)[0])
    crossing = 0.5 * (grid[k] + grid[k + 1])
    root_ok = abs(beta_root(StableParams(1.5)) - crossing) < 1e-3
    ok = report["pass"] and root_ok
    elapsed = time.time() - t0
    _verdict(6, ok, f"rel err {report['rel_error']:.4f} over 500 samples "
             f"(gate 0.05); grid-scan root gap "
             f"{abs(beta_root(StableParams(1.5)) - crossing):.2e}", t0)
    assert ok
    assert elapsed < 600.0


def test_criterion_07_dimension_slope():
    t0 = time.time()
    report = dimension_experiment(alpha=1.5, n=10**6, trees=10,
                                  centers_per_tree=2, seed=9, tolerance=0.15)
    elapsed = time.time() - t0
    _verdict(7, report["pass"], f"slope {report['slope']:.3f} "
             f"+- {report['stderr']:.3f} from 20 centers (gate 1.5 +- 0.15)",
             t0)
    assert report["pass"]
    assert elapsed < 900.0


def test_criterion_08_interpolation_both_ends():
    t0 = time.time()
    circle = interpolation_circle(alpha=1.05, n=10**5, replicates=50, seed=2)
    crt = interpolation_crt(alpha=1.95, n=10**5, paths=50, draws=1000,
                            seed=5, tolerance=0.05)
    ok = circle["pass"] and crt["pass"]
    elapsed = time.time() - t0
    _verdict(8, ok, f"alpha 1.05: median jump {circle['median_max_jump']:.3f} "
             f"(> 0.9), median circle bound {circle['median_gh_bound']:.3f} "
             f"(< 0.1); alpha 1.95: mean ratio {crt['mean_ratio']:.3f} "
             f"(0.50 +- 0.05)", t0)
    assert ok
    assert elapsed < 900.0


def test_criterion_09_round_trips(small_trees, no_unary_by_leaves):
    t0 = time.time()
    for tree in small_trees:
        path = encode_tree(tree)
        assert decode_tree(path) == tree
        assert encode_tree(decode_tree(path)) == path
        assert PlaneTree.from_json(tree.to_json()) == tree
        assert LukasiewiczPath.from_json(path.to_json()) == path
    trees_rt = len(small_trees)
    dissections_rt = 0
    for k in range(2, 8):
        for tree in no_unary_by_leaves[k]:
            d = from_dual(tree)
            assert dual_tree(d) == tree
            assert Dissection.from_json(d.to_json()) == d
            dissections_rt += 1
    rng = stream(109, 0)
    law = stable_offspring(1.5)
    for _ in range(200):
        n = int(rng.integers(2, 2001))
        tree = sample_conditioned_tree(law, n, rng)
        assert decode_tree(encode_tree(tree)) == tree
        trees_rt += 1
    law_nu = stable_offspring(1.5, variant="no-unary")
    for _ in range(50):
        d = sample_boltzmann(law_nu, int(rng.integers(2, 120)), rng)
        assert from_dual(dual_tree(d)) == d
        dissections_rt += 1
    elapsed = time.time() - t0
    _verdict(9, True, f"exact round-trips on {trees_rt} trees and "
             f"{dissections_rt} dissections", t0)
    assert elapsed < 60.0


def test_criterion_10_boltzmann_exactness():
    t0 = time.time()
    law = OffspringLaw.from_probabilities([0.5, 0.0, 0.5])
    rng = np.random.default_rng(42)
    # weighted enumeration of the square's dissections: the chordless one
    # carries a face of degree 4 and hence weight mu_3 = 0; each diagonal
    # dissection weighs mu_2^2, so the law is uniform on the two diagonals
    counts: dict[tuple, int] = {}
    reps = 10**5
    for _ in range(reps):
        d = sample_boltzmann(law, 3, rng)
        key = tuple(map(tuple, d.chords.tolist()))
        counts[key] = counts.get(key, 0) + 1
    assert set(counts) == {((1, 3),), ((0, 2),)}
    obs = np.array(sorted(counts.values()), dtype=float)
    chi2 = float(((obs - reps / 2) ** 2 / (reps / 2)).sum())
    from scipy.stats import chi2 as chi2_dist

    pval = float(chi2_dist.sf(chi2, df=1))
    ok = pval > 0.01
    elapsed = time.time() - t0
    _verdict(10, ok, f"split {sorted(counts.values())}, chi2 p = {pval:.3f} "
             "(gate 0.01); zero-weight class absent", t0)
    assert ok
    assert elapsed < 120.0
