"""Finite-metric utilities: BFS metrics, Gromov-Hausdorff upper bounds from
explicit correspondences, reference spaces, and volume-growth dimension fits.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.csgraph import dijkstra

from .gw_tree import PlaneTree, encode_tree
from .looptree import LoopGraph

__all__ = [
    "FiniteMetric",
    "bfs_metric",
    "gh_upper_bound",
    "circle_metric",
    "tree_metric",
    "crt_comparator",
    "ball_volume_profile",
    "dimension_estimate",
]

# fewest ball profiles a pooled dimension fit accepts
MIN_CENTERS = 10


class FiniteMetric:
    """Dense distance matrix with the metric axioms checked on construction.

    The triangle check is exact (all triples, vectorized one opposite point
    at a time), which keeps construction O(m^3); fine for the few-hundred
    point spaces used here.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix, check_triangle: bool = True):
        m = np.asarray(matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"distance matrix must be square, got {m.shape}")
        if not np.all(np.isfinite(m)) or m.min() < 0:
            raise ValueError("distances must be finite and nonnegative")
        if np.any(np.diag(m) != 0):
            raise ValueError("diagonal must be zero")
        if not np.array_equal(m, m.T):
            raise ValueError("matrix must be symmetric")
        if check_triangle:
            for k in range(m.shape[0]):
                slack = m - (m[:, k, None] + m[None, k, :])
                if slack.max() > 1e-9 * max(1.0, m.max()):
                    i, j = np.unravel_index(np.argmax(slack), slack.shape)
                    raise ValueError(
                        f"triangle inequality fails: d({i},{j}) > "
                        f"d({i},{k}) + d({k},{j})"
                    )
        self.matrix = m

    @property
    def point_count(self) -> int:
        return int(self.matrix.shape[0])

    def distance(self, i: int, j: int) -> float:
        return float(self.matrix[i, j])

    def diameter(self) -> float:
        return float(self.matrix.max())

    def rescaled(self, factor: float) -> "FiniteMetric":
        return FiniteMetric(self.matrix * factor, check_triangle=False)

    @classmethod
    def from_graph(cls, graph: LoopGraph) -> "FiniteMetric":
        return cls(graph.distances().astype(np.float64), check_triangle=False)

    def to_csv(self) -> str:
        lines = [",".join(repr(float(x)) for x in row) for row in self.matrix]
        return "\n".join(lines) + "\n"


def bfs_metric(graph: LoopGraph, sources=None) -> np.ndarray:
    """Unweighted shortest-path rows from each source vertex.

    With sources=None all vertices are used and the result is the full
    square distance matrix.  Raises on a disconnected graph, naming one
    vertex that cannot be reached.
    """
    return graph.distances(sources)


def gh_upper_bound(corr, dX: FiniteMetric, dY: FiniteMetric) -> float:
    """Half the distortion of an explicit correspondence.

    ``corr`` is a sequence of (i, j) index pairs; every point of both spaces
    must appear in at least one pair, otherwise the uncovered points are
    listed in the error.
    """
    pairs = np.asarray(list(corr), dtype=np.int64).reshape(-1, 2)
    if pairs.size == 0:
        raise ValueError("empty correspondence")
    for side, metric, name in ((0, dX, "left"), (1, dY, "right")):
        seen = np.zeros(metric.point_count, dtype=bool)
        col = pairs[:, side]
        if col.min() < 0 or col.max() >= metric.point_count:
            raise ValueError(f"{name} index out of range")
        seen[col] = True
        if not seen.all():
            missing = np.flatnonzero(~seen)
            head = ", ".join(str(int(x)) for x in missing[:8])
            more = "" if missing.size <= 8 else f" (+{missing.size - 8} more)"
            raise ValueError(
                f"correspondence misses {name}-side points: {head}{more}"
            )
    a = pairs[:, 0]
    b = pairs[:, 1]
    dis = np.abs(
        dX.matrix[np.ix_(a, a)] - dY.matrix[np.ix_(b, b)]
    ).max()
    return float(dis) / 2.0


def circle_metric(m: int) -> FiniteMetric:
    """m equally spaced points on the circle of total circumference 1."""
    if m < 3:
        raise ValueError(f"need at least 3 points, got {m}")
    k = np.arange(m)
    gap = np.abs(k[:, None] - k[None, :])
    d = np.minimum(gap, m - gap) / m
    return FiniteMetric(d, check_triangle=False)


def tree_metric(tree: PlaneTree) -> FiniteMetric:
    """Exact graph metric of a plane tree from its depths in preorder:
    d(i,j) = dep_i + dep_j - 2 dep_a, where for i < j the common ancestor a
    has depth min(dep[i+1..j]) - 1."""
    dep = encode_tree(tree)._ensure_index().depth
    n = tree.size
    d = np.empty((n, n))
    for i in range(n):
        # dep_i + 1 stands in for the empty window at j = i
        meet = np.minimum.accumulate(np.r_[dep[i] + 1, dep[i + 1:]]) - 1
        d[i, i:] = dep[i] + dep[i:] - 2.0 * meet
        d[i:, i] = d[i, i:]
    return FiniteMetric(d, check_triangle=False)


def crt_comparator(m: int, rng: np.random.Generator) -> FiniteMetric:
    """Tree metric of a geometric(1/2) branching tree conditioned to m
    vertices, divided by sqrt(m).

    The offspring law has variance 2, so the rescaled tree approximates the
    real tree coded by sqrt(2) times the normalized Brownian excursion; half
    of this metric is the alpha -> 2 looptree limit.
    """
    from .gw_tree import OffspringLaw, sample_conditioned_tree

    if m < 2:
        raise ValueError(f"need at least 2 vertices, got {m}")
    probs = 0.5 ** (np.arange(4 * int(np.log2(max(m, 2))) + 40) + 1)
    law = OffspringLaw.from_probabilities(probs / probs.sum())
    tree = sample_conditioned_tree(law, m, rng)
    base = tree_metric(tree)
    return base.rescaled(1.0 / np.sqrt(m))


def ball_volume_profile(graph: LoopGraph, center: int, radii) -> np.ndarray:
    """Vertex counts of balls around one center, one truncated search."""
    r = np.asarray(radii, dtype=np.int64)
    if r.size == 0 or np.any(np.diff(r) <= 0) or r[0] < 0:
        raise ValueError("radii must be strictly increasing and nonnegative")
    dist = dijkstra(
        graph.adjacency(), unweighted=True, indices=center, limit=float(r[-1])
    )
    dist = dist[np.isfinite(dist)]
    return np.searchsorted(np.sort(dist), r, side="right").astype(np.int64)


def dimension_estimate(profiles, window) -> tuple[float, float]:
    """Pooled log-log slope of ball volume against radius.

    ``profiles`` is a list of (radii, counts) pairs, one per center; the fit
    uses every point with radius inside [window[0], window[1]] and a
    positive count.  Returns (slope, standard error).
    """
    if len(profiles) < MIN_CENTERS:
        raise ValueError(
            f"need at least {MIN_CENTERS} centers for a pooled fit, "
            f"got {len(profiles)}"
        )
    r_min, r_max = window
    if not (0 < r_min < r_max):
        raise ValueError(f"bad window {window!r}")
    xs, ys = [], []
    for radii, counts in profiles:
        radii = np.asarray(radii, dtype=np.float64)
        counts = np.asarray(counts, dtype=np.float64)
        keep = (radii >= r_min) & (radii <= r_max) & (counts > 0)
        xs.append(np.log(radii[keep]))
        ys.append(np.log(counts[keep]))
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    if np.unique(x).size < 2:
        raise ValueError("window contains too few radii to fit")
    design = np.column_stack([np.ones_like(x), x])
    coef, res, _, _ = np.linalg.lstsq(design, y, rcond=None)
    dof = max(x.size - 2, 1)
    sigma2 = (res[0] if res.size else ((y - design @ coef) ** 2).sum()) / dof
    cov = sigma2 * np.linalg.inv(design.T @ design)
    return float(coef[1]), float(np.sqrt(cov[1, 1]))

