"""Volume growth of loop graphs: ball profiles from one truncated search per
center, and the pooled log-log fit that turns them into a dimension estimate.
"""

from __future__ import annotations

import operator

import numpy as np
from scipy.sparse.csgraph import dijkstra

from .gw_tree import _integers
from .looptree import LoopGraph

__all__ = ["ball_volume_profile", "dimension_estimate"]

# fewest ball profiles a pooled dimension fit accepts
MIN_CENTERS = 10


def ball_volume_profile(graph: LoopGraph, center: int, radii) -> np.ndarray:
    """Vertex counts of balls around one center, one truncated search."""
    r = _integers(radii, "radii")
    if r.size == 0 or np.any(np.diff(r) <= 0) or r[0] < 0:
        raise ValueError("radii must be strictly increasing and nonnegative")
    c = operator.index(center)
    if not 0 <= c < graph.vertex_count:  # dijkstra would read -k from the end
        raise IndexError(f"vertex index {c} out of range [0, {graph.vertex_count})")
    dist = dijkstra(graph.adjacency(), unweighted=True, indices=c, limit=float(r[-1]))
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

