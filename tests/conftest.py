"""Shared fixtures: exhaustive tree enumerations used across test modules,
the i.i.d. offspring sampler that the rejection oracles draw from, the
chord-walk oracle for the dual tree of a dissection, the generic loop-graph
oracle for its polygon distances, the level-by-level
oracle for the bridge and the search oracle for its split sizes, the Gromov-Hausdorff bound of an explicit
correspondence between distance matrices, and the float stack genealogy and
float climb of a jump path."""

from __future__ import annotations

import bisect
import math
import weakref

import numpy as np
import pytest

from looptrees.dissection import Dissection
from looptrees.gw_tree import OffspringLaw, PlaneTree
from looptrees.looptree import LoopGraph

# atoms the oracle tabulates for inverse-transform sampling; a draw beyond
# them inverts the law's analytic tail
ORACLE_TABLE = 2**20

_cdfs: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def sample_offspring(law: OffspringLaw, size: int,
                     rng: np.random.Generator) -> np.ndarray:
    """``size`` i.i.d. offspring counts of a polynomial-tail law by inverse
    transform, exact at every k: the unconditioned draws that the rejection
    oracles filter.  The CDF table is built once per law."""
    cdf = _cdfs.get(law)
    if cdf is None:
        cdf = _cdfs[law] = np.cumsum(law.pmf(np.arange(ORACLE_TABLE)))
    u = rng.random(size)
    out = np.searchsorted(cdf, u, side="right").astype(np.int64)
    for i in np.flatnonzero(out >= ORACLE_TABLE):
        out[i] = invert_tail(law, float(u[i]))
    return out


def invert_tail(law: OffspringLaw, u: float) -> int:
    """Smallest k with P(offspring <= k) >= u, for u beyond the oracle's
    table of a polynomial-tail law."""
    residual = 1.0 - u  # = target tail mass
    alpha, theta = law.alpha, law._theta
    # power-law guess from tail(k) ~ (theta/alpha) k**-alpha, then walk
    # with the exact Hurwitz tail until tail(k+1) < residual <= tail(k)
    k = max(ORACLE_TABLE, int((alpha * residual / theta) ** (-1.0 / alpha)))
    while law.tail(k) < residual:
        k -= 1
    while law.tail(k + 1) >= residual:
        k += 1
    return int(k)


def walk_adjacency(d: Dissection):
    """Sorted higher-endpoint neighbor lists in walk coordinates 1..n.

    Walk coordinate n stands for polygon vertex 0.  The root side (0, 1) is
    omitted on purpose: it is the removed dual edge.
    """
    n = d.n_sides
    nbr = [[] for _ in range(n + 1)]
    for v in range(1, n):
        nbr[v].append(v + 1)  # sides (v, v+1), including (n-1, n)
    for a, b in d.chords.tolist():
        wa = a if a >= 1 else n
        wb = b if b >= 1 else n
        lo, hi = min(wa, wb), max(wa, wb)
        nbr[lo].append(hi)
    for v in range(1, n + 1):
        nbr[v].sort()
    return nbr


def polygon_by_loop_graph(d: Dissection) -> np.ndarray:
    """Oracle for Dissection.graph_distances: BFS on the generic LoopGraph
    of the polygon's sides and chords."""
    n = d.n_sides
    k = np.arange(n)
    sides = np.column_stack([k, (k + 1) % n])
    return LoopGraph(n, np.concatenate([sides, d.chords]), k).distances()


def dual_by_chord_walk(d: Dissection):
    """Oracle for dissection._dual_with_regions: children counts of the dual
    tree plus each vertex's region (a, b), from a depth-first search that
    walks each face counterclockwise along its sides and chords."""
    n = d.n_sides
    nbr = walk_adjacency(d)
    counts = []
    regions = []
    stack = [(1, n)]
    while stack:
        a, b = stack.pop()
        regions.append((a, b))
        if b == a + 1:
            counts.append(0)
            continue
        corners = [a]
        z = a
        while z != b:
            cand = nbr[z]
            k = bisect.bisect_right(cand, b) - 1
            w = cand[k]
            if w == b and z == a:
                # the delimiting chord itself; take the next one down
                w = cand[k - 1]
            corners.append(w)
            z = w
        counts.append(len(corners) - 1)
        for t in range(len(corners) - 1, 0, -1):
            stack.append((corners[t - 1], corners[t]))
    return np.array(counts, dtype=np.int64), regions


def bridge_by_levels(tables: dict, rng: np.random.Generator) -> np.ndarray:
    """Oracle for _bridge._bridge, which it equals draw for draw: the exact
    per-segment inverse CDF, finding each level's segment sizes and order
    again on every call.  Each group of equal-size segments takes one
    uniform u per segment, and each segment draws the first j whose own
    cumulative weight reaches u times its total.  Gives n i.i.d. draws from
    the pmf window ``tables[1]`` (of length n >= 2) conditioned to sum to
    n-1; ``tables`` comes from _sum_pmf_tables."""
    n = tables[1].size
    if tables[n] <= 0.0:
        raise ValueError(
            f"total {n - 1} is unattainable by {n} draws from this law"
        )

    out = np.zeros(n, dtype=np.int64)
    size = np.array([n], dtype=np.int64)
    total = np.array([n - 1], dtype=np.int64)
    start = np.zeros(1, dtype=np.int64)

    while size.size:
        leaves = size == 1
        if np.any(leaves):
            out[start[leaves]] = total[leaves]
        active = np.flatnonzero(~leaves)
        if active.size == 0:
            break
        sz = size[active]
        next_size = []
        next_total = []
        next_start = []
        # at most two distinct sizes occur per level, so this loop is short
        for m in np.unique(sz):
            sel = active[sz == m]
            a = int((m + 1) // 2)
            b = int(m - a)
            pa, pb = tables[a], tables[b]
            t = total[sel]
            u = rng.random(sel.size)
            j = np.empty(sel.size, dtype=np.int64)
            for i, ti in enumerate(t.tolist()):
                cdf = np.cumsum(pa[:ti + 1] * pb[ti::-1])
                if not cdf[-1] > 0.0:
                    raise RuntimeError(
                        "a conditional draw has no admissible value; "
                        "the convolution table lost too much precision"
                    )
                j[i] = np.searchsorted(cdf, u[i] * cdf[-1])
            next_size.append(np.full(sel.size, a, dtype=np.int64))
            next_total.append(j)
            next_start.append(start[sel])
            next_size.append(np.full(sel.size, b, dtype=np.int64))
            next_total.append(t - j)
            next_start.append(start[sel] + a)
        size = np.concatenate(next_size)
        total = np.concatenate(next_total)
        start = np.concatenate(next_start)

    return out


def half_sizes_by_search(n: int) -> list:
    """Oracle for _bridge._half_sizes: every distinct segment size of the
    dyadic split of n, found by a breadth-first search over the sizes that
    halving reaches, ascending."""
    sizes = {n}
    frontier = {n}
    while frontier:
        nxt = set()
        for m in frontier:
            if m >= 2:
                a = (m + 1) // 2
                for s in (a, m - a):
                    if s not in sizes:
                        sizes.add(s)
                        nxt.add(s)
        frontier = nxt
    return sorted(sizes)


def gh_upper_bound(corr, dX, dY) -> float:
    """Half the distortion of an explicit correspondence between the finite
    metric spaces with distance matrices ``dX`` and ``dY``.

    ``corr`` is a sequence of (i, j) index pairs; every point of both spaces
    must appear in at least one pair, otherwise the uncovered points are
    listed in the error.
    """
    dX = np.asarray(dX, dtype=np.float64)
    dY = np.asarray(dY, dtype=np.float64)
    pairs = np.asarray(list(corr), dtype=np.int64).reshape(-1, 2)
    if pairs.size == 0:
        raise ValueError("empty correspondence")
    for side, d, name in ((0, dX, "left"), (1, dY, "right")):
        seen = np.zeros(d.shape[0], dtype=bool)
        col = pairs[:, side]
        if col.min() < 0 or col.max() >= d.shape[0]:
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
    return float(np.abs(dX[np.ix_(a, a)] - dY[np.ix_(b, b)]).max()) / 2.0


def left_limits(path) -> np.ndarray:
    """Value minus jump at every time of a jump path, in floats."""
    return path.values - path.jumps


def stack_parent(path) -> np.ndarray:
    """Oracle for the genealogy of a jump path, read from its float values
    alone: the parent of t is the latest earlier index whose left limit
    stays below everything up to t, found by one stack pass."""
    n = path.n
    v = path.values[:n].tolist()
    lim = left_limits(path)[:n].tolist()
    parent = [-1] * n
    stack = [0]
    for t in range(1, n):
        vt = v[t]
        while lim[stack[-1]] > vt:
            stack.pop()
        parent[t] = stack[-1]
        stack.append(t)
    return np.array(parent, dtype=np.int64)


def float_looptree_distance(path, s: int, t: int, parent=None) -> float:
    """Oracle for excursion_metric.looptree_distance in floats, on the stack
    genealogy: each branch climbs to the most recent common ancestor, adding
    the circular gap inside the jump of every chain element it leaves; the
    position inside a jump is the running minimum minus the left limit."""
    if s == t:
        return 0.0
    if s > t:
        s, t = t, s
    if parent is None:
        parent = stack_parent(path)
    v, lim, jump = path.values, left_limits(path), path.jumps

    def gap(width, cycle):
        return min(width, cycle - width)

    def branch(cur, stop):
        total, running = 0.0, math.inf
        while cur > stop:
            x = min(v[cur], running) - lim[cur]
            total += gap(x, jump[cur])
            running = min(running, v[cur])
            cur = int(parent[cur])
        return total, cur, running

    sum_t, meet, running = branch(t, s)
    x_t = min(v[meet], running) - lim[meet]
    if meet == s:
        return gap(x_t, jump[s]) + sum_t
    sum_s, _, running = branch(s, meet)
    x_s = min(v[meet], running) - lim[meet]
    return sum_s + sum_t + gap(abs(x_t - x_s), jump[meet])


def enumerate_plane_trees(n: int) -> list[PlaneTree]:
    """Every plane tree with exactly n vertices, in DFS count encoding."""
    out: list[PlaneTree] = []

    def rec(counts: list[int], w: int) -> None:
        t = len(counts)
        if t == n:
            if w == -1:
                out.append(PlaneTree(list(counts)))
            return
        cmax = n - t - 1 - w
        for c in range(0, cmax + 1):
            w2 = w + c - 1
            if t + 1 < n and w2 < 0:
                continue
            if t + 1 == n and w2 != -1:
                continue
            counts.append(c)
            rec(counts, w2)
            counts.pop()

    rec([], 0)
    return out


def enumerate_no_unary_trees(max_leaves: int) -> dict[int, list[PlaneTree]]:
    """All plane trees without unary vertices, grouped by leaf count."""
    by_leaves: dict[int, list[PlaneTree]] = {
        k: [] for k in range(2, max_leaves + 1)
    }
    max_size = 2 * max_leaves - 1

    def rec(counts: list[int], w: int, leaves: int) -> None:
        t = len(counts)
        if t > 0 and w == -1:
            if 2 <= leaves <= max_leaves:
                by_leaves[leaves].append(PlaneTree(list(counts)))
            return
        # finishing needs w+1 more down-steps, each one a leaf
        if t + w + 1 > max_size or leaves + w + 1 > max_leaves:
            return
        for c in [0] + list(range(2, max_size - t + 1)):
            w2 = w + c - 1
            if w2 < -1:
                continue
            counts.append(c)
            rec(counts, w2, leaves + (c == 0))
            counts.pop()

    rec([], 0, 0)
    return by_leaves


@pytest.fixture(scope="session")
def small_trees() -> list[PlaneTree]:
    """All 626 plane trees with at most 8 vertices."""
    trees = [t for n in range(1, 9) for t in enumerate_plane_trees(n)]
    assert len(trees) == sum([1, 1, 2, 5, 14, 42, 132, 429])
    return trees


@pytest.fixture(scope="session")
def no_unary_by_leaves() -> dict[int, list[PlaneTree]]:
    """No-unary plane trees keyed by leaf count, for 2..7 leaves."""
    groups = enumerate_no_unary_trees(7)
    assert [len(groups[k]) for k in range(2, 8)] == [1, 3, 11, 45, 197, 903]
    return groups


@pytest.fixture(scope="session")
def rng_factory():
    """Fresh deterministic generator per call, varied by label."""

    def make(label: int) -> np.random.Generator:
        return np.random.default_rng(np.random.Philox(key=[99, label]))

    return make
