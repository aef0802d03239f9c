"""Loop graphs of plane trees and their exact graph distances.

Two constructions are provided.  In the first (build_loop) every tree vertex
of degree d becomes a discrete cycle of d graph vertices and neighboring
cycles share exactly one graph vertex; leaf cycles degenerate to that shared
vertex, so a path of two tree vertices collapses to a single graph vertex.
In the second (build_loop_prime) the graph keeps all tree vertices and joins
consecutive siblings, each parent to its first child, and each parent to its
last child; a unary vertex is joined to its child by two parallel edges.

Distances in both graphs also come in closed form from the Lukasiewicz
walk, so neither graph has to be built to measure them.  Both vertices of
a pair climb the walk's genealogy to their most recent common ancestor, and
every cycle on the way adds the circular gap between two slots.  One climb
serves three conventions, each written once below: the two graphs and the
continuous looptree of excursion_metric.  Each distance function takes a
pair of integers or integer arrays, numbered like its own graph.  The
distances from one vertex to all others need no climb per pair: they are
root sums of the same gaps, spread over subtrees (_source_distances).
"""

from __future__ import annotations

import json
import operator

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .gw_tree import LukasiewiczPath, PlaneTree, _integers, encode_tree

__all__ = [
    "LoopGraph",
    "build_loop",
    "build_loop_prime",
    "loop_prime_distance",
    "loop_distances",
]


class LoopGraph:
    """Undirected multigraph with a record of where each vertex came from.

    ``edges`` keeps parallel edges as repeated rows; shortest paths ignore
    multiplicity, so BFS runs on the simple projection.  ``origin`` maps each
    graph vertex back to the tree: a plain vertex array when tree vertices
    are kept as-is, or an (n, 2) array of (tree vertex, corner) pairs when
    cycles share their corner vertices (corner 0 marks the attachment point
    to the parent's cycle).
    """

    __slots__ = ("vertex_count", "edges", "origin", "_adjacency")

    def __init__(self, vertex_count: int, edges, origin):
        self.vertex_count = operator.index(vertex_count)
        arr = _integers(edges, "edge endpoints").reshape(-1, 2)
        if arr.size and (arr.min() < 0 or arr.max() >= vertex_count):
            raise ValueError("edge endpoint out of range")
        self.edges = arr
        self.origin = _integers(origin, "origins")
        self._adjacency = None

    @property
    def edge_count(self) -> int:
        """Number of edges counted with multiplicity."""
        return int(self.edges.shape[0])

    def adjacency(self) -> csr_matrix:
        """Symmetric 0/1 adjacency of the simple projection, in float64: the
        dtype scipy's searches work in, so they read it without a copy."""
        if self._adjacency is None:
            v = self.vertex_count
            if self.edges.size:
                u, w = self.edges[:, 0], self.edges[:, 1]
                data = np.ones(2 * len(u), dtype=np.int8)
                mat = csr_matrix(
                    (data, (np.concatenate([u, w]), np.concatenate([w, u]))),
                    shape=(v, v),
                )
                # built from triplets, the matrix has its duplicates summed;
                # its entries become float64 ones only now, so parallel
                # edges collapse to 1 and no float64 triplets are ever held
                mat.data = np.ones(mat.data.size)
            else:
                mat = csr_matrix((v, v))
            self._adjacency = mat
        return self._adjacency

    def distances(self, sources=None) -> np.ndarray:
        """BFS distances, one row per source (all vertices when omitted).

        Raises IndexError on a source outside [0, vertex_count), and
        RuntimeError on a disconnected graph, naming one vertex that cannot
        be reached and its source.
        """
        if sources is None:
            idx = np.arange(self.vertex_count, dtype=np.int64)
        else:
            idx = np.atleast_1d(_integers(sources, "sources"))
            # dijkstra would read -k as the k-th vertex from the end
            bad = idx[(idx < 0) | (idx >= self.vertex_count)]
            if bad.size:
                raise IndexError(f"vertex index {int(bad[0])} out of range "
                                 f"[0, {self.vertex_count})")
        dist = dijkstra(self.adjacency(), unweighted=True, indices=idx)
        if np.isinf(dist).any():
            row, col = np.argwhere(np.isinf(dist))[0]
            raise RuntimeError(
                f"graph is not connected: vertex {int(col)} unreachable "
                f"from vertex {int(idx[row])}"
            )
        return dist.astype(np.int64)

    def _sorted_edges(self) -> list:
        """The edges as [u, v] with u <= v, sorted; multiplicity kept."""
        rows = np.sort(self.edges, axis=1)
        return rows[np.lexsort((rows[:, 1], rows[:, 0]))].tolist()

    def to_edge_list(self) -> str:
        """One 'u v' line per edge with u <= v, sorted; multiplicity kept."""
        return "\n".join(f"{u} {v}" for u, v in self._sorted_edges())

    def to_json(self) -> str:
        return json.dumps(
            {
                "vertex_count": self.vertex_count,
                "edges": self._sorted_edges(),
                "origin": self.origin.tolist(),
            },
            sort_keys=True,
        )

    def __repr__(self) -> str:
        return f"LoopGraph(vertices={self.vertex_count}, edges={self.edge_count})"


def _grouped_children(tree: PlaneTree):
    """Non-root vertices sorted by parent (stable, so siblings keep order)."""
    path = encode_tree(tree)
    parent = path._ensure_index().parent
    order = np.argsort(parent[1:], kind="stable") + 1
    grouped_parent = parent[order]
    starts = np.flatnonzero(np.r_[True, grouped_parent[1:] != grouped_parent[:-1]])
    ends = np.r_[starts[1:], grouped_parent.size] - 1
    return order, grouped_parent, starts, ends


def build_loop(tree: PlaneTree) -> LoopGraph:
    """Cycle-per-vertex graph with shared corner vertices.

    Graph vertex v-1 stands for the corner where the cycle of tree vertex v
    meets the cycle of its parent; the cycle of a vertex with k children
    therefore runs through its own corner followed by its children's corners
    in sibling order (the root cycle has no own corner).  Degenerate cycles
    of length one contribute no edge, length two yields a double edge.
    """
    n = tree.size
    if n == 1:
        return LoopGraph(1, np.empty((0, 2), dtype=np.int64), np.array([[0, 0]]))
    order, grouped_parent, starts, ends = _grouped_children(tree)
    sibling = grouped_parent[1:] == grouped_parent[:-1]
    edge_u = [order[:-1][sibling] - 1]
    edge_v = [order[1:][sibling] - 1]
    firsts = order[starts]
    lasts = order[ends]
    parents = grouped_parent[starts]
    nonroot = parents != 0
    # non-root u: close the cycle through u's own corner on both sides
    edge_u.append(parents[nonroot] - 1)
    edge_v.append(firsts[nonroot] - 1)
    edge_u.append(lasts[nonroot] - 1)
    edge_v.append(parents[nonroot] - 1)
    # root: wrap last child to first child, except the degenerate 1-cycle
    if not nonroot[0] and ends[0] > starts[0]:
        edge_u.append(lasts[:1] - 1)
        edge_v.append(firsts[:1] - 1)
    edges = np.column_stack([np.concatenate(edge_u), np.concatenate(edge_v)])
    origin = np.column_stack([
        np.arange(1, n, dtype=np.int64),
        np.zeros(n - 1, dtype=np.int64),
    ])
    return LoopGraph(n - 1, edges, origin)


def build_loop_prime(tree: PlaneTree) -> LoopGraph:
    """Graph on all tree vertices: sibling edges plus first/last child edges."""
    n = tree.size
    if n == 1:
        return LoopGraph(1, np.empty((0, 2), dtype=np.int64), np.zeros(1, dtype=np.int64))
    order, grouped_parent, starts, ends = _grouped_children(tree)
    sibling = grouped_parent[1:] == grouped_parent[:-1]
    firsts = order[starts]
    lasts = order[ends]
    parents = grouped_parent[starts]
    edges = np.column_stack([
        np.concatenate([order[:-1][sibling], parents, lasts]),
        np.concatenate([order[1:][sibling], firsts, parents]),
    ])
    return LoopGraph(n, edges, np.arange(n, dtype=np.int64))


# The three conventions, each as (slot shift, extra slots per cycle, extra
# slots at the root, first tree vertex): a vertex v > 0 sits at slot
# pos[v] + shift of its parent's cycle, which has steps + extra slots
# (steps + root extra at the root), and graph vertex g is tree vertex
# g + first.
_PRIME = (0, 2, 2, 0)  # build_loop_prime
_CORNER = (0, 2, 1, 1)  # build_loop: the root has no corner of its own
_LOOPTREE = (-1, 0, 0, 0)  # excursion_metric: a loop of length k - 1
_INT = (int, np.integer)


def _walk_distance(path: LukasiewiczPath, i, j, convention):
    """Exact distance between graph vertices i and j of one convention,
    straight from the walk: an int for a pair of integers, and for integer
    arrays (broadcast against each other) an array of their shape.

    Both vertices climb to their most recent common ancestor, adding the
    gap from slot 0 on each cycle they cross, and the two branch slots add
    their gap on the meeting cycle; lo's own slot is 0 when lo is that
    ancestor.  Arrays climb in lockstep, one parent step per round.
    """
    shift, extra, root_extra, first = convention
    n = path.n
    count = n - first or 1  # the corner graph of a one-vertex tree is its root
    idx = path._ensure_index()
    if isinstance(i, _INT) and isinstance(j, _INT):
        if not (0 <= i < count and 0 <= j < count):
            raise IndexError(f"vertex pair ({i}, {j}) out of range [0, {count})")
        if i == j:
            return 0
        lo, hi = min(i, j) + first, max(i, j) + first
        parent, pos, steps = idx.parent, idx.pos, path.steps
        total = 0
        meet = int(parent[hi])
        while meet > lo:
            x = int(pos[hi]) + shift
            total += min(x, int(steps[meet]) + extra - x)
            hi, meet = meet, int(parent[meet])
        x_lo = 0
        if meet != lo:
            a = int(parent[lo])
            while a > meet:
                x = int(pos[lo]) + shift
                total += min(x, int(steps[a]) + extra - x)
                lo, a = a, int(parent[a])
            x_lo = int(pos[lo]) + shift
        width = abs(int(pos[hi]) + shift - x_lo)
        cycle = int(steps[meet]) + (extra if meet else root_extra)
        return total + min(width, cycle - width)
    a, b = np.asarray(i), np.asarray(j)
    if a.dtype.kind not in "iu" or b.dtype.kind not in "iu":
        raise TypeError(f"vertex indices must be integers, got {a.dtype} "
                        f"and {b.dtype}")
    a, b = np.broadcast_arrays(a.astype(np.int64, copy=False),
                               b.astype(np.int64, copy=False))
    lo = np.minimum(a, b).ravel()
    hi = np.maximum(a, b).ravel()
    if lo.size and (lo.min() < 0 or hi.max() >= count):
        raise IndexError(f"vertex index out of range [0, {count})")
    lo += n - count  # first, but 0 on a one-vertex tree
    hi += n - count
    out = _meeting_term(path, _pair_climb(path, lo, hi, convention), convention)
    out[lo == hi] = 0
    return out.reshape(a.shape)


def _pair_climb(path: LukasiewiczPath, lo: np.ndarray, hi: np.ndarray,
                convention):
    """The lockstep climb of tree vertices lo <= hi (flat int64 arrays) in
    one convention: the gaps summed on the way up, the width between the two
    branch slots on the meeting cycle, and the meeting vertex.

    Only the slot shift and the extra slots per cycle enter: a vertex's gap
    is summed only when its parent lies after the stop, which is never
    before the root, so no gap on the root cycle is summed.  Conventions
    that share both therefore share one climb.
    """
    parent = path._ensure_index().parent
    slot, step_up = _step_up(path, convention)
    c_hi, sum_hi = _climb(parent, step_up, hi, lo)
    meet = parent[c_hi]  # lo itself when lo is an ancestor of hi
    c_lo, sum_lo = _climb(parent, step_up, lo, meet)
    width = np.abs(slot[c_hi] - np.where(lo == meet, 0, slot[c_lo]))
    return sum_lo + sum_hi, width, meet


def _step_up(path: LukasiewiczPath, convention):
    """Each vertex's slot on its parent's cycle and its gap from slot 0 there,
    the cost of one step up; the root's entries mean nothing."""
    shift, extra = convention[:2]
    idx = path._ensure_index()
    slot = idx.pos + shift
    return slot, np.minimum(slot, path.steps[idx.parent] + extra - slot)


def _meeting_term(path: LukasiewiczPath, climb, convention) -> np.ndarray:
    """A climb's distances: its sum plus the gap of the two branch slots on
    the meeting cycle, whose length is the one place where the root extra
    enters."""
    total, width, meet = climb
    extra, root_extra = convention[1:3]
    cycle = path.steps[meet] + extra
    cycle[meet == 0] += root_extra - extra
    return total + np.minimum(width, cycle - width)


def _prime_and_corner(path: LukasiewiczPath):
    """All-pairs distance matrices of build_loop_prime's and build_loop's
    graphs, from one climb over every pair of tree vertices: the corner
    graph is the prime graph's [1:, 1:] block with one slot fewer on the
    root cycle."""
    n = path.n
    v = np.arange(n)
    lo = np.minimum.outer(v, v).ravel()
    hi = np.maximum.outer(v, v).ravel()
    climb = _pair_climb(path, lo, hi, _PRIME)
    prime = _meeting_term(path, climb, _PRIME).reshape(n, n)
    prime[0, 0] = 0  # the root has no parent to meet at
    if n == 1:
        return prime, prime  # the corner graph of a one-vertex tree is its root
    return prime, _meeting_term(path, climb, _CORNER).reshape(n, n)[1:, 1:]


def _source_distances(path: LukasiewiczPath, sources, convention) -> np.ndarray:
    """Exact distances from each graph vertex in ``sources`` to every graph
    vertex of one convention, one row per source: the rows of the graph's
    BFS, with no graph and no climb per pair.

    up[v], the gaps summed from v to the root, comes from one difference
    array over the subtrees [v, end[v]).  From a source c, a vertex y off
    c's chain of ancestors lies under a child x, off the chain, of a chain
    vertex a; d(c, y) = up[y] - up[x] plus c's climb to a and the gap on a's
    cycle between x and c's branch (slot 0 when a is c).  All but up[y] is
    constant on x's subtree, so a second difference array spreads it.  A
    chain vertex adds the gap between its own slot 0 and c's branch.
    """
    extra, root_extra, first = convention[1:]
    n = path.n
    count = n - first or 1  # the corner graph of a one-vertex tree is its root
    src = np.atleast_1d(_integers(sources, "sources"))
    bad = src[(src < 0) | (src >= count)]
    if bad.size:
        raise IndexError(f"vertex index {int(bad[0])} out of range [0, {count})")
    idx = path._ensure_index()
    parent, end = idx.parent, idx.end
    slot, step_up = _step_up(path, convention)
    diff = np.zeros(n + 1, dtype=np.int64)
    diff[1:n] = step_up[1:]
    np.subtract.at(diff, end[1:], step_up[1:])
    up = np.cumsum(diff[:n])
    out = np.empty((src.size, n), dtype=np.int64)
    for dist, c in zip(out, src + (n - count)):
        chain = np.flatnonzero(end[:c + 1] > c)  # the root first, c last
        below = chain[1:]
        cost = np.append(up[c] - up[below], 0)  # c's climb to each
        entry = np.append(slot[below], 0)  # c's branch on each cycle
        cycle = path.steps[chain] + extra
        cycle[0] += root_extra - extra
        on = np.zeros(n, dtype=bool)
        on[chain] = True
        x = np.flatnonzero(on[parent[1:]] & ~on[1:]) + 1
        k = np.searchsorted(chain, parent[x])
        w = np.abs(slot[x] - entry[k])
        term = cost[k] - up[x] + np.minimum(w, cycle[k] - w)
        diff[:] = 0
        diff[x] = term
        diff[end[x]] -= term  # the subtrees are disjoint, so their ends differ
        np.cumsum(diff[:n], out=dist)
        dist += up
        dist[chain] = cost + np.minimum(entry, cycle - entry)
        dist[c] = 0
    return out[:, n - count:]


def _climb(parent: np.ndarray, weight: np.ndarray, cur: np.ndarray,
           stop: np.ndarray):
    """Move every cur[k] up while its parent lies after stop[k], all in
    lockstep; returns the vertices reached and the summed weight of the
    vertices left behind."""
    cur = cur.copy()
    total = np.zeros(cur.size, dtype=weight.dtype)
    live = np.flatnonzero(parent[cur] > stop)
    while live.size:
        c = cur[live]
        total[live] += weight[c]
        cur[live] = parent[c]
        live = live[parent[cur[live]] > stop[live]]
    return cur, total


def loop_prime_distance(path: LukasiewiczPath, i, j):
    """Distances in build_loop_prime's graph, numbered like it: tree vertices."""
    return _walk_distance(path, i, j, _PRIME)


def loop_distances(path: LukasiewiczPath, i, j):
    """Distances in build_loop's graph, numbered like it: vertex g is the
    corner of tree vertex g + 1."""
    return _walk_distance(path, i, j, _CORNER)
