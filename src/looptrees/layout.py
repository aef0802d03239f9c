"""Presentational layout of looptrees as tangent circles.  A dissection
draws its own disk and chords (dissection.Dissection.to_svg).

Nothing here feeds back into any metric computation.  The looptree
drawing gives every tree vertex a circle whose radius grows with its
degree, places each child circle tangent to its parent, and splits the
available angle according to subtree sizes, so the picture is a
deterministic function of the tree alone.
"""

from __future__ import annotations

import math

import numpy as np

from .gw_tree import PlaneTree, encode_tree

__all__ = ["looptree_layout", "looptree_svg"]


def looptree_layout(tree: PlaneTree):
    """Circle centers and radii for every tree vertex.

    Returns (centers, radii) with centers an (n, 2) float array.  The root
    sits at the origin; the circle of a child is tangent to the circle of
    its parent.
    """
    counts = tree.children_counts
    n = tree.size
    idx = encode_tree(tree)._ensure_index()
    parent = idx.parent
    sizes = idx.end - np.arange(n)

    # degree = children plus one edge toward the parent (root has none),
    # floored so leaves still get a visible dot of a circle
    degree = counts.astype(np.float64).copy()
    degree[1:] += 1.0
    radii = np.maximum(degree, 1.0) / (2.0 * math.pi)

    centers = np.zeros((n, 2))
    # inbound[v] = direction from v's circle center back toward its parent
    inbound = np.zeros(n)
    inbound[0] = math.pi  # pretend the root was entered from the left
    weight_done = np.zeros(n)
    for v in range(1, n):
        p = parent[v]
        total = float(sizes[p] - 1)
        # fraction of the parent's angular budget used by earlier siblings,
        # plus half of this child's own share: children spread over the arc
        # away from the parent's inbound direction
        share = sizes[v] / total
        frac = weight_done[p] + share / 2.0
        weight_done[p] += share
        span = 2.0 * math.pi * (1.0 if p == 0 else 5.0 / 6.0)
        theta = inbound[p] + math.pi - span / 2.0 + frac * span
        dist = radii[p] + radii[v]
        centers[v] = centers[p] + dist * np.array(
            [math.cos(theta), math.sin(theta)]
        )
        inbound[v] = theta + math.pi
    return centers, radii


def looptree_svg(tree: PlaneTree, size: int = 600, header_lines=()) -> str:
    """Standalone SVG of the tangent-circle drawing, scaled to fit."""
    centers, radii = looptree_layout(tree)
    lo = (centers - radii[:, None]).min(axis=0)
    hi = (centers + radii[:, None]).max(axis=0)
    extent = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-9))
    pad = 0.03 * extent
    scale = size / (extent + 2 * pad)

    def sx(x):
        return (x - lo[0] + pad) * scale

    def sy(y):
        return size - (y - lo[1] + pad) * scale

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">'
    ]
    for line in header_lines:
        out.append(f"<!-- {line} -->")
    out.append(f'<rect width="{size}" height="{size}" fill="white"/>')
    order = np.argsort(-radii)  # big circles first so small ones stay visible
    for v in order:
        r = max(radii[v] * scale, 0.75)
        out.append(
            f'<circle cx="{sx(centers[v, 0]):.2f}" cy="{sy(centers[v, 1]):.2f}" '
            f'r="{r:.2f}" fill="none" stroke="black" stroke-width="1"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
