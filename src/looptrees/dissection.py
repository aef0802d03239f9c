"""Polygon dissections, their dual trees, and Boltzmann sampling.

Polygon vertices are 0..n_sides-1 counterclockwise.  The side from 0 to 1 is
the root side: the face containing it becomes the root of the dual tree, and
walking a face counterclockwise lists the sub-regions that become its
children in order.  A region is the part of the polygon beyond one side or
chord.  Internally the walk uses coordinates 1..n with vertex n standing for
polygon vertex 0, so every region is an increasing pair (lo, hi).  The
regions nest like intervals, so one sort of them gives the dual tree.
"""

from __future__ import annotations

import json
import math
import operator

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from ._bridge import _conditioned, _draw_in_segments, _refuse_unattainable
from .gw_tree import (LukasiewiczPath, OffspringLaw, PlaneTree, _cycle_shift,
                      _integers, _json_fields, _TreeIndex)
from .looptree import _prime_and_corner

__all__ = [
    "Dissection",
    "dual_tree",
    "from_dual",
    "sample_boltzmann",
    "gh_gap_check",
]


class Dissection:
    """Non-crossing chord set of a convex polygon; the sides are implicit.
    ``chords`` holds one int64 row (lo, hi), lo < hi, per chord, in
    lexicographic order."""

    __slots__ = ("n_sides", "chords")

    def __init__(self, n_sides: int, chords=()):
        n = operator.index(n_sides)
        if n < 3:
            raise ValueError(f"a polygon needs at least 3 sides, got {n}")
        arr = _integers(chords, "chord endpoints").reshape(-1, 2)
        if arr.size:
            if arr.min() < 0 or arr.max() >= n:
                raise ValueError("chord endpoint outside the polygon")
            lo = np.minimum(arr[:, 0], arr[:, 1])
            hi = np.maximum(arr[:, 0], arr[:, 1])
            gap = np.minimum(hi - lo, n - (hi - lo))
            if np.any(gap < 2):
                k = int(np.argmax(gap < 2))
                raise ValueError(
                    f"chord ({arr[k, 0]}, {arr[k, 1]}) does not join two "
                    "non-adjacent vertices"
                )
            arr = np.column_stack([lo, hi])
            arr = arr[np.lexsort((arr[:, 1], arr[:, 0]))]
            _check_crossings(arr)
        self.n_sides = n
        self.chords = arr

    @property
    def chord_count(self) -> int:
        return int(self.chords.shape[0])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Dissection)
            and self.n_sides == other.n_sides
            and np.array_equal(self.chords, other.chords)
        )

    def __hash__(self):
        return hash((self.n_sides, self.chords.tobytes()))

    def __repr__(self) -> str:
        return f"Dissection(n_sides={self.n_sides}, chords={self.chord_count})"

    def to_json(self) -> str:
        return json.dumps(
            {"n_sides": self.n_sides, "chords": self.chords.tolist()},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "Dissection":
        return cls(*_json_fields(text, "dissection", n_sides=int, chords=list))

    @classmethod
    def _unchecked(cls, n_sides: int, chords: np.ndarray) -> "Dissection":
        """A dissection of chords already normalised to (lo, hi), lexsorted
        and non-crossing, as from_dual's sweep builds them."""
        d = cls.__new__(cls)
        d.n_sides = n_sides
        d.chords = chords
        return d

    def graph_distances(self) -> np.ndarray:
        """All-pairs BFS distances of the polygon-plus-chords graph.

        The graph is simple (no chord repeats a side or a chord), so its CSR
        adjacency is written directly: vertex i's neighbours are i - 1,
        i + 1 (mod n) and its chords' other ends.  int32 indices are the
        ones scipy's searches read without a copy."""
        n = self.n_sides
        k = np.arange(n, dtype=np.int32)
        a, b = self.chords[:, 0], self.chords[:, 1]
        src = np.concatenate((k, k, a, b), dtype=np.int32)
        dst = np.concatenate((k[-1:], k[:-1], k[1:], k[:1], b, a), dtype=np.int32)
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        adj = csr_matrix((np.ones(src.size), dst[np.argsort(src, kind="stable")],
                          indptr), shape=(n, n))
        return dijkstra(adj, unweighted=True).astype(np.int64)

    def to_svg(self, size: int = 400, header_lines=()) -> str:
        """Unit-disk drawing: polygon outline plus chords."""
        n = self.n_sides
        r = size * 0.46
        cx = cy = size / 2
        angle = 2.0 * math.pi / n
        pts = [
            (cx + r * math.cos(angle * k), cy - r * math.sin(angle * k))
            for k in range(n)
        ]
        lines = [f"<!-- {line} -->" for line in header_lines]
        lines.append(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
            f'height="{size}" viewBox="0 0 {size} {size}">'
        )
        outline = " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
        lines.append(
            f'<polygon points="{outline}" fill="none" stroke="black" stroke-width="1.5"/>'
        )
        for a, b in self.chords.tolist():
            x1, y1 = pts[a]
            x2, y2 = pts[b]
            lines.append(
                f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
                'stroke="steelblue" stroke-width="1"/>'
            )
        lines.append("</svg>")
        return "\n".join(lines)


def _check_crossings(chords: np.ndarray) -> None:
    """Chords are normalized (lo, hi) rows; raise naming one crossing pair
    or one repeated chord.

    Sweeps the chords by increasing lo, longer first, keeping the chords
    still open on a stack.  Non-crossing chords nest, so a new chord crosses
    some open chord exactly when it crosses the innermost one, and a copy of
    a chord comes right after it, while it is the innermost.
    """
    order = np.lexsort((-chords[:, 1], chords[:, 0]))
    stack = [(-1, math.inf)]  # encloses every chord, so it is never popped
    for c, d in chords[order].tolist():
        while stack[-1][1] <= c:
            stack.pop()
        a, b = stack[-1]
        if b < d:
            raise ValueError(f"chords ({a}, {b}) and ({c}, {d}) cross")
        if a == c and b == d:
            raise ValueError(f"duplicate chord ({c}, {d})")
        stack.append((c, d))


def _dual_with_regions(d: Dissection):
    """Children counts of the dual tree, each vertex's region as a row
    (lo, hi) of walk coordinates, each vertex's depth and each vertex's
    parent (-1 at the root), in depth-first order.

    The regions are the root side (1, n), the other sides and the chords.
    They nest, so depth-first order sorts them by lo, the longer first.
    """
    n = d.n_sides
    a, b = d.chords[:, 0], d.chords[:, 1]
    side = np.arange(1, n)
    lo = np.concatenate(([1], side, np.where(a == 0, b, a)))
    hi = np.concatenate(([n], side + 1, np.where(a == 0, n, b)))
    order = np.lexsort((-hi, lo))
    lo, hi = lo[order], hi[order]
    m = lo.size
    t = np.arange(m)
    # every earlier region is an ancestor or ends at or before lo
    depth = t - np.searchsorted(np.sort(hi), lo, side="right")
    # the parent of t is the latest earlier region one level up
    keys = np.sort(depth * m + t)
    parent = np.empty(m, dtype=np.int64)
    parent[0] = -1
    parent[1:] = keys[np.searchsorted(keys, (depth[1:] - 1) * m + t[1:]) - 1] % m
    counts = np.bincount(parent[1:], minlength=m)
    return counts, np.column_stack([lo, hi]), depth, parent


def dual_tree(d: Dissection) -> PlaneTree:
    """Plane tree of the faces: the face at the root side becomes the root,
    a face of degree k an internal vertex with k-1 children, and each
    polygon side other than the root side a leaf."""
    return PlaneTree(_dual_with_regions(d)[0])


def from_dual(tree: PlaneTree) -> Dissection:
    """Dissection whose dual is ``tree``; needs >= 2 leaves and no unary
    vertex.  The k-th leaf in depth-first order becomes the polygon side
    (k, k+1) and every other non-root vertex the chord spanning its leaves."""
    chords = []
    # depth-first sweep; each open vertex remembers its first leaf's rank.
    # sample_boltzmann calls this once per draw, mostly on a few leaves,
    # where a loop costs less than the fixed cost of array calls
    leaf_rank = 0
    stack = []  # entries [vertex, first_leaf_rank, children_left]
    for v, k in enumerate(tree.children_counts.tolist()):
        if k > 1:
            stack.append([v, leaf_rank + 1, k])
            continue
        if k == 1:
            raise ValueError(f"vertex {v} has exactly one child; no dual dissection")
        leaf_rank += 1
        # a completed subtree closes one slot of each ancestor in turn
        while stack:
            stack[-1][2] -= 1
            if stack[-1][2] > 0:
                break
            v_done, first, _ = stack.pop()
            if v_done != 0:
                chords.append((first, leaf_rank + 1))
    if leaf_rank < 2:
        raise ValueError("the dual construction needs at least 2 leaves")
    n = leaf_rank + 1
    # a chord that ends at walk coordinate n ends at polygon vertex 0; the
    # chords come out nested and distinct, so none needs checking again
    chords = sorted((0, a) if b == n else (a, b) for a, b in chords)
    return Dissection._unchecked(n, np.array(chords, dtype=np.int64).reshape(-1, 2))


def _block_pmf(mu: np.ndarray) -> np.ndarray:
    """pmf h on [0, n-1] of a block's up-total, from the offspring pmf mu on
    [0, n] with mu_1 = 0.

    A block is a run of internal vertices closed by one leaf, and its
    up-total is the sum of (children - 1) over its internal vertices, so
    h(0) = mu_0 and h(s) = sum_{z=1..s} mu_{z+1} h(s-z).
    """
    n = mu.size - 1
    rev = np.ascontiguousarray(mu[::-1])  # rev[n-s-1+j] = mu_{s-j+1}
    h = np.empty(n)
    h[0] = mu[0]
    for s in range(1, n):
        # np.dot takes the BLAS dot product; 1-d matmul is several times slower
        h[s] = np.dot(h[:s], rev[n - s - 1:n - 1])
    return h


def _expand_blocks(totals: np.ndarray, mu: np.ndarray, h: np.ndarray,
                   rng: np.random.Generator) -> np.ndarray:
    """Children counts of blocks with the given positive-sum up-totals.

    Each block draws its internal vertices front to back: with r still to
    place, the next vertex has z + 1 children with probability
    mu_{z+1} h(r-z) / h(r), until r is used up; its leaf comes last.  All
    blocks draw their k-th internal vertex in one vectorized round.
    """
    rem = totals.copy()
    who, rank, ups = [], [], []
    active = np.flatnonzero(rem)
    k = 0
    while active.size:
        r = rem[active]
        offsets = np.concatenate(([0], np.cumsum(r)))
        r_flat = np.repeat(r, r)
        z_flat = np.arange(1, offsets[-1] + 1) - np.repeat(offsets[:-1], r)
        w = mu[z_flat + 1] * h[r_flat - z_flat]
        z = _draw_in_segments(w, offsets, r, rng.random(active.size), active.size) + 1
        who.append(active)
        rank.append(np.full(active.size, k, dtype=np.int64))
        ups.append(z)
        rem[active] -= z
        active = active[rem[active] > 0]
        k += 1
    who = np.concatenate(who)
    internal = np.bincount(who, minlength=totals.size)
    start = np.cumsum(internal + 1) - (internal + 1)
    counts = np.zeros(totals.size + who.size, dtype=np.int64)
    counts[start[who] + np.concatenate(rank)] = np.concatenate(ups) + 1
    return counts


def sample_boltzmann(law: OffspringLaw, n_leaves: int,
                     rng: np.random.Generator) -> Dissection:
    """Random dissection weighted by the product of face terms mu_(deg-1).

    Equivalent to the dual of a branching-process tree conditioned to have
    exactly ``n_leaves`` leaves, which is sampled exactly and without
    rejection.  Cutting the tree's Lukasiewicz walk after every leaf gives
    ``n_leaves`` i.i.d. blocks (see _block_pmf) whose up-totals sum to
    ``n_leaves - 1``; those totals come from the size-conditioned bridge run
    on the block pmf, each block is then expanded given its total, and the
    cycle lemma rotates whole blocks into the tree.  Raises ValueError when
    no tree of this law has ``n_leaves`` leaves.
    """
    if not law.forbids_unary:
        raise ValueError("the offspring law must give unary vertices zero mass")
    n = operator.index(n_leaves)
    if n < 2:
        raise ValueError(f"n_leaves must be >= 2, got {n}")
    mu = law.pmf(np.arange(n + 1))
    # a block's up-total sums k - 1 over internal vertices of k >= 2
    # children, so every total is a multiple of the gcd of those k - 1
    _refuse_unattainable(n, 0, int(np.gcd.reduce(np.flatnonzero(mu[2:]) + 1)))
    # the block tables share the bridge's cache with the law's own, under a
    # key of their own, so laws of equal values build them once per n;
    # tables[1] is the block pmf
    totals, tables = _conditioned(("blocks", law._table_key), n,
                                  lambda: _block_pmf(mu), rng)
    counts = _expand_blocks(totals, mu, tables[1], rng)
    # the walk's first minimum follows a leaf, so the shift moves whole blocks
    return from_dual(PlaneTree(_cycle_shift(counts - 1) + 1))


def gh_gap_check(d: Dissection):
    """Compare the dissection metric with its dual looptree metric.

    Pairs every non-root dual-tree vertex's graph image with both endpoints
    of its polygon edge (its side for a leaf, its chord otherwise), computes
    the distortion of that correspondence from exact metrics, and tests
    the resulting bound against the dual tree's height plus two.  Returns
    (bound_holds, distortion/2).
    """
    return _dual_gap(d)[:2]


def _dual_gap(d: Dissection):
    """gh_gap_check's two results, then the dual tree's height and the two
    loop matrices of the dual tree, both from one climb of its walk: the
    build_loop_prime distances between its vertices, and the build_loop
    distances between the corners of vertices 1..n-1."""
    counts, regions, depth, parent = _dual_with_regions(d)
    path = LukasiewiczPath(counts - 1)
    path._index = _TreeIndex(path.steps, path.values, parent)  # no second sort
    prime, corner = _prime_and_corner(path)
    poly_dist = d.graph_distances()
    # endpoints in polygon labels, lo ends then hi ends; skip the root (its
    # region is the root side).  Both halves pair with the corners in order,
    # so the gathered block, cut into 2 x 2 tiles, meets the corner matrix
    # in every tile.  The distances are far below 2**31, and in int32 the
    # block passes take half the time they take in int64
    px = (regions[1:] % d.n_sides).T.ravel()
    m = corner.shape[0]
    tiles = poly_dist.astype(np.int32)[px][:, px].reshape(2, m, 2, m)
    dis = np.abs(tiles - corner.astype(np.int32)[:, None, :]).max()
    height = int(depth.max())
    observed = dis / 2.0
    return observed <= height + 2, float(observed), height, prime, corner
