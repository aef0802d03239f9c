"""The looptree pseudo-metric of a rescaled Lukasiewicz walk.

A JumpPath is the walk W of a plane tree divided by a scale B.  Its looptree
turns each jump into a loop of that length (Curien-Kortchemski), so a vertex
with k children is a loop of length k - 1 that carries its children at the
integer positions 0..k-1.  Every distance is therefore an integer divided by
B, and the integer is the one climb of ``looptree`` in the third of its
conventions, _LOOPTREE.  The distances take integer time indices, or
integer arrays of them broadcast against each other.
"""

from __future__ import annotations

import math

import numpy as np

from .gw_tree import LukasiewiczPath
from .looptree import _LOOPTREE, _walk_distance

__all__ = [
    "JumpPath",
    "rescale",
    "looptree_distance",
    "distance_from_root",
]


class JumpPath:
    """A Lukasiewicz walk at scale B, queried at indices 0..n-1.

    ``values`` is W / B, with n+1 entries; the final one records the endpoint
    -1 / B of the excursion and is not a queryable time.
    """

    __slots__ = ("walk", "scale", "values", "_jumps")

    def __init__(self, walk: LukasiewiczPath, scale: float):
        if not 0 < scale < math.inf:  # nan fails too
            raise ValueError(f"scale must be positive and finite, got {scale!r}")
        self.walk = walk
        self.scale = float(scale)
        self.values = walk.values / scale
        self._jumps = None

    @property
    def jumps(self) -> np.ndarray:
        """The upward part of each increment of ``values``, at the time it
        arrives; computed on the first read, since few callers need it."""
        if self._jumps is None:
            self._jumps = np.concatenate(([0.0], np.maximum(np.diff(self.values), 0.0)))
        return self._jumps

    @property
    def n(self) -> int:
        """Number of queryable time indices (0..n-1)."""
        return self.walk.n

    def __repr__(self) -> str:
        return f"JumpPath(n={self.n}, scale={self.scale})"

    def to_csv(self) -> str:
        times = np.arange(self.n + 1) / self.n
        lines = ["time,value,jump"]
        lines.extend(
            f"{float(times[k])!r},{float(self.values[k])!r},"
            f"{float(self.jumps[k])!r}"
            for k in range(self.values.size)
        )
        return "\n".join(lines)


def rescale(path: LukasiewiczPath, scale: float) -> JumpPath:
    """Walk values divided by ``scale``, placed at times k/n."""
    return JumpPath(path, scale)


def looptree_distance(path: JumpPath, s, t):
    """Pseudo-metric between time indices s and t: both climb to their most
    recent common ancestor, and every loop on the way adds the shorter arc
    between two integer positions."""
    return _walk_distance(path.walk, s, t, _LOOPTREE) / path.scale


def distance_from_root(path: JumpPath, t):
    """Distance to time 0."""
    return looptree_distance(path, 0, t)
