"""The loop pseudo-metric of a nonnegative jump path.

A JumpPath is a finite excursion-like step function: values at times k/n,
with the upward part of each increment recorded as the jump at that time and
the left limit defined as value minus jump.  The pseudo-metric sums, over
the ancestors r of the query times, the circular gap inside the jump of r,
where "ancestor" means the left limit at r lies below the running minimum
up to the query time.  Downward moves never carry a jump, so they
contribute nothing to any distance.
"""

from __future__ import annotations

import math

import numpy as np

from .gw_tree import LukasiewiczPath

__all__ = [
    "JumpPath",
    "rescale",
    "looptree_distance",
    "distance_from_root",
    "max_jump",
]


class JumpPath:
    """Step path with nonnegative jumps, queried at indices 0..n-1.

    ``values`` has n+1 entries; the final one records the endpoint of the
    excursion (it may dip below zero after rescaling a walk that ends at -1)
    and is not a queryable time.  ``scale`` and ``source_size`` remember the
    normalization the path was produced with.
    """

    __slots__ = ("values", "jumps", "left_limits", "scale", "source_size",
                 "_parent")

    def __init__(self, values, scale: float = 1.0):
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError("values must be a 1-d sequence of length >= 2")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        if vals[0] != 0.0:
            raise ValueError("the path must start at 0")
        if vals.size > 2 and vals[1:-1].min() < 0.0:
            raise ValueError("values must be nonnegative before the endpoint")
        n = vals.size - 1
        self.values = vals
        self.jumps = np.concatenate(([0.0], np.maximum(np.diff(vals), 0.0)))
        self.left_limits = self.values - self.jumps
        self.scale = float(scale)
        self.source_size = n
        self._parent = None

    @property
    def n(self) -> int:
        """Number of queryable time indices (0..n-1)."""
        return self.source_size

    def _ensure_parent(self) -> np.ndarray:
        """Genealogy on indices 0..n-1: the parent of t is the latest earlier
        index whose left limit stays below everything up to t."""
        if self._parent is None:
            n = self.n
            v = self.values[:n].tolist()
            lim = self.left_limits[:n].tolist()
            parent = [-1] * n
            stack = [0]
            for t in range(1, n):
                vt = v[t]
                while lim[stack[-1]] > vt:
                    stack.pop()
                parent[t] = stack[-1]
                stack.append(t)
            self._parent = np.array(parent, dtype=np.int64)
        return self._parent

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
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale!r}")
    return JumpPath(path.values / scale, scale=scale)


def _gap(width: float, cycle: float) -> float:
    """Distance between two points at arc offset ``width`` on a cycle of
    length ``cycle`` (zero when there is no cycle)."""
    return min(width, cycle - width)


def _validate_index(path: JumpPath, t: int) -> None:
    if not (0 <= t < path.n):
        raise IndexError(
            f"time index {t} out of range [0, {path.n}); the final entry is "
            "the excursion endpoint and cannot be queried"
        )


def _branch(path: JumpPath, cur: int, stop: int):
    """Climb from cur while it lies after stop: the summed loop gaps of the
    chain elements left behind, the element reached, and the running
    minimum of the values climbed through."""
    parent = path._ensure_parent()
    v, lim, jump = path.values, path.left_limits, path.jumps
    total = 0.0
    running = math.inf
    while cur > stop:
        x = min(v[cur], running) - lim[cur]
        total += _gap(x, jump[cur])
        running = min(running, v[cur])
        cur = int(parent[cur])
    return total, cur, running


def looptree_distance(path: JumpPath, s: int, t: int) -> float:
    """Loop pseudo-metric between time indices s and t.

    The t-branch climbs to its first chain element at or before s, which is
    the most recent common ancestor (every chain element of t after s is not
    an ancestor of s).  When that is s itself, the entry gap inside the jump
    of s closes the sum; otherwise the s-branch climbs to the same ancestor,
    whose jump contributes the circular gap between the two descent
    positions.
    """
    _validate_index(path, s)
    _validate_index(path, t)
    if s == t:
        return 0.0
    if s > t:
        s, t = t, s
    v, lim, jump = path.values, path.left_limits, path.jumps
    sum_t, meet, running = _branch(path, t, s)
    x_t = min(v[meet], running) - lim[meet]
    if meet == s:
        return _gap(x_t, jump[s]) + sum_t
    sum_s, _, running = _branch(path, s, meet)
    x_s = min(v[meet], running) - lim[meet]
    return sum_s + sum_t + _gap(abs(x_t - x_s), jump[meet])


def distance_from_root(path: JumpPath, t):
    """Distance to time 0 through the jump-fraction form: each ancestor
    contributes its jump times min(u, 1-u), u being the relative position
    of the descent inside that jump.

    ``t`` is one time index, which gives a float, or an integer array of
    them, which gives an array of the same shape.  All times climb in
    lockstep, one ancestor per round.
    """
    times = np.asarray(t)
    if times.dtype.kind not in "iu":
        raise TypeError(f"time indices must be integers, got {times.dtype}")
    bad = (times < 0) | (times >= path.n)
    if bad.any():
        _validate_index(path, int(times[bad].flat[0]))
    # time 0 carries no jump, so a time that reached it may stay there
    up = path._ensure_parent().copy()
    up[0] = 0
    v, lim, jump = path.values, path.left_limits, path.jumps
    cur = times.astype(np.int64)
    total = np.zeros(cur.shape)
    running = np.full(cur.shape, math.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        while cur.any():
            jc, vc = jump[cur], v[cur]
            u = (np.minimum(vc, running) - lim[cur]) / jc
            # adding +0.0 where there is no jump leaves the sum unchanged
            total += np.where(jc > 0.0, jc * np.minimum(u, 1.0 - u), 0.0)
            running = np.minimum(running, vc)
            cur = up[cur]
    return total if times.ndim else float(total)


def max_jump(path: JumpPath) -> float:
    """Largest jump of the path, the length of its longest loop."""
    return float(path.jumps.max())
