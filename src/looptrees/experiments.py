"""Named statistical experiments behind the command-line drivers.

Every experiment takes a seed and derives one counter-based stream per
replicate (Philox keyed by (seed, replicate index)), so results do not
depend on how many workers run them.  Reports are plain dicts ready for
JSON serialization; heavy per-replicate work can fan out over a thread
pool capped by the LOOPTREE_THREADS environment variable.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.sparse.csgraph import dijkstra

from ._bridge import sample_conditioned_max
from .dissection import _dual_gap, sample_boltzmann
from .excursion_metric import distance_from_root, rescale
from .gw_tree import encode_tree, sample_conditioned_tree, stable_offspring
from .looptree import build_loop, loop_distances
from .metric_analysis import MIN_CENTERS, ball_volume_profile, dimension_estimate
from .stable_law import StableParams, expected_max_jump, sample_increment

__all__ = [
    "ConfigError",
    "stream",
    "laplace_check",
    "max_jump_experiment",
    "dimension_experiment",
    "interpolation_circle",
    "interpolation_crt",
    "gh_sandwich",
]


class ConfigError(ValueError):
    """Arguments an experiment cannot run with, raised before any sampling.

    ``param`` names the keyword argument at fault.
    """

    def __init__(self, param: str, message: str):
        super().__init__(message)
        self.param = param


def _check_counts(**counts: int) -> None:
    """Raise a ConfigError naming the first count below 1."""
    for param, value in counts.items():
        if value < 1:
            raise ConfigError(param, f"{param} must be at least 1, got {value}")


def stream(seed: int, index: int) -> np.random.Generator:
    """Independent reproducible substream for one replicate."""
    return np.random.Generator(np.random.Philox(key=[seed, index]))


def _pool_size() -> int:
    raw = os.environ.get("LOOPTREE_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError("LOOPTREE_THREADS", "LOOPTREE_THREADS must be an "
                          f"integer of at least 1, got {raw!r}")
    return workers


def _map_replicates(fn, count: int):
    """Ordered results of fn(replicate_index), possibly in parallel.  Workers
    that miss the bridge-table cache together build the tables once."""
    workers = _pool_size()
    if workers == 1 or count <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(count)))


def _stderr(vals: np.ndarray):
    """Standard error of the mean, or None (JSON null) below two values."""
    if vals.size < 2:
        return None
    return float(vals.std(ddof=1) / math.sqrt(vals.size))


def laplace_check(alphas=(1.2, 1.5, 1.8), lams=(0.1, 0.5, 1.0),
                  n_samples: int = 10**6, seed: int = 0) -> dict:
    """Monte-Carlo check of E[exp(-lam X_1)] = exp(lam^alpha)."""
    _check_counts(n_samples=n_samples)

    def one(k: int) -> list:
        alpha = alphas[k]
        x = sample_increment(StableParams(alpha), 1.0, size=n_samples,
                             rng=stream(seed, k))
        rows = []
        for lam in lams:
            vals = np.exp(-lam * x)
            est = float(vals.mean())
            se = _stderr(vals)
            target = float(np.exp(lam ** alpha))
            z = None if se is None else abs(est - target) / se
            rows.append(
                {
                    "alpha": alpha,
                    "lam": lam,
                    "estimate": est,
                    "target": target,
                    "stderr": se,
                    "z": z,
                }
            )
        return rows

    rows = [row for chunk in _map_replicates(one, len(alphas)) for row in chunk]
    zs = [row["z"] for row in rows if row["z"] is not None]
    return {
        "experiment": "laplace-check",
        "n_samples": n_samples,
        "rows": rows,
        "worst_z": max(zs) if zs else None,
        "pass": bool(zs) and max(zs) <= 4.0,
    }


def max_jump_experiment(alpha: float = 1.5, n: int = 10**5,
                        replicates: int = 500, seed: int = 0,
                        tolerance: float = 0.05) -> dict:
    """Mean largest rescaled jump against the analytic target."""
    _check_counts(replicates=replicates)
    if n < 2:
        raise ConfigError("n", f"a tree of one vertex has no jump; n must be "
                          f"at least 2, got {n}")
    law = stable_offspring(alpha)
    b = law.scaling_constant(n)

    def one(i: int) -> float:
        # the cycle shift only rotates the steps, so it keeps their maximum
        return float(sample_conditioned_max(law, n, stream(seed, i)) - 1) / b

    vals = np.array(_map_replicates(one, replicates))
    est = float(vals.mean())
    target = float(expected_max_jump(StableParams(alpha)))
    rel = abs(est - target) / target
    return {
        "experiment": "max-jump",
        "alpha": alpha,
        "n": n,
        "replicates": replicates,
        "estimate": est,
        "target": target,
        "rel_error": rel,
        "stderr": _stderr(vals),
        "median": float(np.median(vals)),
        "values": vals.tolist(),
        "pass": bool(rel <= tolerance),
    }


def default_window(alpha: float, n: int) -> tuple[float, float]:
    """Fit window sitting above lattice effects, below saturation."""
    return 2.0 * n ** (1.0 / (2.0 * alpha)), n ** (1.0 / alpha) / 4.0


def dimension_experiment(alpha: float = 1.5, n: int = 10**6,
                         trees: int = 10, centers_per_tree: int = 2,
                         window=None, seed: int = 0,
                         tolerance: float = 0.15) -> dict:
    """Volume-growth slope of big looptrees, pooled over many centers."""
    _check_counts(centers_per_tree=centers_per_tree)
    if trees * centers_per_tree < MIN_CENTERS:
        raise ConfigError(
            "trees",
            f"a pooled fit needs at least {MIN_CENTERS} centers, but {trees} "
            f"trees with {centers_per_tree} centers each give "
            f"{trees * centers_per_tree}"
        )
    # a default window that cannot be fitted is the fault of n
    if window is None:
        culprit, window = "n", default_window(alpha, n)
        where = f"the default fit window for n = {n}"
    else:
        culprit, where = "window", "the fit window"
    r_lo, r_hi = window
    if not (0 < r_lo < r_hi < math.inf):
        raise ConfigError(culprit, f"{where}, [{r_lo:g}, {r_hi:g}], is not "
                          "an interval 0 < rmin < rmax < inf")
    radii = np.unique(
        np.rint(np.geomspace(max(1.0, r_lo / 2.0), r_hi * 1.5, 30))
    ).astype(np.int64)
    inside = int(np.count_nonzero((radii >= r_lo) & (radii <= r_hi)))
    if inside < 2:
        raise ConfigError(culprit, f"{where}, [{r_lo:g}, {r_hi:g}], holds "
                          f"{inside} of the sampled radii; a fit needs 2")
    law = stable_offspring(alpha)

    def one(i: int):
        rng = stream(seed, i)
        tree = sample_conditioned_tree(law, n, rng)
        graph = build_loop(tree)
        out = []
        for _ in range(centers_per_tree):
            center = int(rng.integers(0, graph.vertex_count))
            out.append((radii, ball_volume_profile(graph, center, radii)))
        return out

    profiles = [p for chunk in _map_replicates(one, trees) for p in chunk]
    slope, stderr = dimension_estimate(profiles, window)
    return {
        "experiment": "dimension",
        "alpha": alpha,
        "n": n,
        "centers": len(profiles),
        "window": [float(r_lo), float(r_hi)],
        "slope": slope,
        "stderr": stderr,
        "target": alpha,
        "profiles": [
            {"radii": r.tolist(), "counts": c.tolist()} for r, c in profiles
        ],
        "pass": bool(abs(slope - alpha) <= tolerance),
    }


def circle_gap_bound(tree, b: float, anchors: int = 128) -> float:
    """Gromov-Hausdorff upper bound between the rescaled loop graph and the
    circle of circumference 1, through the time parametrization.

    Anchor vertices at m equally spaced walk positions are paired with the
    m circle points; the anchor distortion plus both covering radii bound
    the full-correspondence distortion.  Distances between anchors come
    from the walk (loop_distances); the graph's covering radius comes from
    one search started at all anchors at once.
    """
    n = tree.size
    graph = build_loop(tree)
    m = min(anchors, graph.vertex_count)
    ids = np.rint(np.arange(m) * (n - 1) / m).astype(np.int64)
    ids = np.clip(ids - 1, 0, graph.vertex_count - 1)  # tree vertex k's corner
    nearest = dijkstra(graph.adjacency(), unweighted=True, indices=ids,
                       min_only=True)
    eps_graph = float(nearest.max())
    da = loop_distances(encode_tree(tree), ids[:, None], ids[None, :]) / b
    k = np.arange(m)
    gap = np.abs(k[:, None] - k[None, :])
    dc = np.minimum(gap, m - gap) / m
    dis = float(np.abs(da - dc).max())
    return dis / 2.0 + eps_graph / b + 1.0 / (2.0 * m)


def interpolation_circle(alpha: float = 1.05, n: int = 10**5,
                         replicates: int = 50, gh_paths=None,
                         anchors: int = 128, seed: int = 0) -> dict:
    """Near alpha = 1 the looptree is dominated by one macroscopic loop:
    the largest jump carries most of the mass and the space looks like a
    circle of circumference 1."""
    limit = replicates if gh_paths is None else gh_paths
    _check_counts(replicates=replicates, gh_paths=limit, anchors=anchors)
    law = stable_offspring(alpha)
    b = law.scaling_constant(n)

    def one(i: int):
        rng = stream(seed, i)
        if i >= limit and n > 1:
            # the tree's largest children count is its steps' largest, as
            # the cycle shift only rotates them
            return float(sample_conditioned_max(law, n, rng) - 1) / b, None
        tree = sample_conditioned_tree(law, n, rng)
        mj = float(tree.children_counts.max() - 1) / b
        gh = circle_gap_bound(tree, b, anchors) if i < limit else None
        return mj, gh

    results = _map_replicates(one, replicates)
    jumps = np.array([r[0] for r in results])
    gh_bounds = np.array([r[1] for r in results if r[1] is not None])
    return {
        "experiment": "interpolation-circle",
        "alpha": alpha,
        "n": n,
        "replicates": replicates,
        "median_max_jump": float(np.median(jumps)),
        "max_jumps": jumps.tolist(),
        "gh_bounds": gh_bounds.tolist(),
        "median_gh_bound": float(np.median(gh_bounds)),
        "pass": bool(
            np.median(jumps) > 0.9 and np.median(gh_bounds) < 0.1
        ),
    }


def interpolation_crt(alpha: float = 1.95, n: int = 10**5,
                      paths: int = 50, draws: int = 1000,
                      seed: int = 0, tolerance: float = 0.05) -> dict:
    """Near alpha = 2 loops degenerate and distances halve: the distance
    from the root to a uniform time is about half the walk value there."""
    _check_counts(paths=paths, draws=draws)
    if n < 3:
        raise ConfigError(
            "n", f"needs n >= 3, so that some time in 1..n-1 can have a "
            f"positive walk value, got {n}"
        )
    law = stable_offspring(alpha)
    b = law.scaling_constant(n)

    def one(i: int) -> float:
        rng = stream(seed, i)
        tree = sample_conditioned_tree(law, n, rng)
        jp = rescale(encode_tree(tree), b)
        if not (jp.values[1:n] > 0).any():
            raise ValueError(
                f"path {i} (seed {seed}) has no time in 1..{n - 1} with a "
                "positive walk value: the tree is a chain of unary vertices"
            )
        times = []
        while len(times) < draws:
            t = int(rng.integers(1, n))
            if jp.values[t] > 0:
                times.append(t)
        times = np.array(times, dtype=np.int64)
        return float(np.mean(distance_from_root(jp, times) / jp.values[times]))

    means = np.array(_map_replicates(one, paths))
    grand = float(means.mean())
    return {
        "experiment": "interpolation-crt",
        "alpha": alpha,
        "n": n,
        "paths": paths,
        "draws": draws,
        "mean_ratio": grand,
        "path_means": means.tolist(),
        "target": 0.5,
        "pass": bool(abs(grand - 0.5) <= tolerance),
    }


def gh_sandwich(alpha: float = 1.5, n_dissections: int = 200,
                max_leaves: int = 300, seed: int = 0) -> dict:
    """Height bound for dissections against their dual looptrees, plus the
    Loop/Loop' corner correspondence on the same trees.  Both loop matrices
    of a dual tree come from _dual_gap, out of one climb of its walk."""
    _check_counts(n_dissections=n_dissections)
    if max_leaves < 2:
        raise ConfigError("max_leaves",
                          f"a dissection needs at least 2 leaves, got {max_leaves}")
    law = stable_offspring(alpha, variant="no-unary")

    def one(i: int):
        rng = stream(seed, i)
        n_leaves = int(rng.integers(2, max_leaves + 1))
        d = sample_boltzmann(law, n_leaves, rng)
        ok, observed, height, dp, dl = _dual_gap(d)
        # corner pairing between Loop and Loop': the root goes with the
        # first corner, row 0 of the corner matrix
        px = np.concatenate([[0], np.arange(dl.shape[0])])
        dis = int(np.abs(dl[px][:, px] - dp).max())
        return {
            "n_leaves": n_leaves,
            "height": height,
            "observed": observed,
            "height_bound_ok": bool(ok),
            "loop_pair_gh_bound": dis / 2.0,
        }

    rows = _map_replicates(one, n_dissections)
    all_height_ok = all(r["height_bound_ok"] for r in rows)
    worst_pair = max(r["loop_pair_gh_bound"] for r in rows)
    return {
        "experiment": "gh-sandwich",
        "alpha": alpha,
        "n_dissections": n_dissections,
        "max_leaves": max_leaves,
        "rows": rows,
        "worst_loop_pair_gh_bound": worst_pair,
        "pass": bool(all_height_ok and worst_pair <= 2.0),
    }
