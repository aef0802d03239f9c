"""Critical heavy-tailed offspring laws and size-conditioned plane trees.

A plane tree is stored as its DFS sequence of children counts and keeps the
equivalent Lukasiewicz walk (steps = count - 1), the object every distance
formula works on.  Conditioned sampling draws the step vector directly, by
dyadic splitting of convolution tables of the offspring law (see _bridge),
and then applies the cycle shift.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from collections import namedtuple

import numpy as np
from scipy.special import zeta as _hurwitz_zeta

from ._bridge import _TABLES, sample_conditioned_steps

__all__ = [
    "OffspringLaw",
    "PlaneTree",
    "LukasiewiczPath",
    "stable_offspring",
    "sample_conditioned_tree",
    "encode_tree",
    "decode_tree",
    "descent",
    "tree_stats",
    "TreeStats",
]

# loose enough to absorb float error from million-term tables plus the
# Hurwitz zeta evaluations, tight enough to catch any wrong constant
_PMF_SUM_TOL = 1e-9
_MEAN_TOL = 1e-9


class OffspringLaw:
    """Offspring distribution of a critical branching process.

    ``probabilities`` holds the pmf up to a cutoff.  The built-in
    polynomial-tail family stores only the atoms its formula does not give
    and carries every other atom analytically (Hurwitz zeta values for the
    tail), so ``pmf`` and ``tail`` are exact to float precision at every k.

    Attributes
    ----------
    alpha : float or None
        Tail exponent when the law has a polynomial tail.
    tail_constant : float or None
        c with P(offspring >= k) ~ c * k**(-alpha): theta / alpha for the
        polynomial-tail family, None for a law without an analytic tail.
    forbids_unary : bool
        True when mu_1 = 0 (every internal vertex has >= 2 children).

    ``forbids_unary`` and ``tail_constant`` are worked out from the values,
    so no law can claim one that its atoms contradict.
    """

    def __init__(self, probabilities, *, alpha=None, _theta=None,
                 _support_start=1):
        pmf = np.asarray(probabilities, dtype=float)
        if pmf.ndim != 1 or pmf.size == 0:
            raise ValueError("probabilities must be a nonempty 1-d sequence")
        if np.any(pmf < 0):
            raise ValueError("probabilities must be nonnegative")
        self._pmf = pmf
        self.alpha = None if alpha is None else float(alpha)
        # theta, support_start describe the analytic continuation: beyond the
        # table mu_k = 0 below support_start and theta * k**(-1-alpha) from
        # there on; inside the table, entries from support_start on must
        # follow the same formula, since tail reads only the formula
        self._theta = _theta
        self._support_start = _support_start
        total = float(pmf.sum()) + self._beyond_table(0)
        if not abs(total - 1.0) <= _PMF_SUM_TOL:  # NaN fails too
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        mean = self.mean()
        if not abs(mean - 1.0) <= _MEAN_TOL:
            raise ValueError(f"offspring mean is {mean!r}; the law must be critical")
        self.forbids_unary = self.pmf(1) == 0.0
        self.tail_constant = None if _theta is None else _theta / self.alpha
        # the values that fix every atom: laws with equal keys have equal
        # pmfs, so they share bridge tables (see _bridge)
        self._table_key = (self.alpha, self._theta, self._support_start,
                           hashlib.blake2b(pmf.tobytes(), digest_size=16).digest())

    def _beyond_table(self, moment: int) -> float:
        """Sum of k**moment * mu_k over the atoms k past the stored table
        (0 for a plain finite law)."""
        if self._theta is None:
            return 0.0
        lo = max(self._pmf.size, self._support_start)
        return float(self._theta * _hurwitz_zeta(self.alpha + (1 - moment), lo))

    @property
    def _bridge_tables(self) -> dict:
        """{n: tables} cached for this law's values; the benchmark's tracer
        reads it."""
        return _TABLES.by_length(self._table_key)

    # -- public surface -------------------------------------------------------

    @classmethod
    def from_probabilities(cls, probabilities):
        """The finite law with these atoms mu_0, mu_1, ..."""
        return cls(probabilities)

    @property
    def probabilities(self) -> np.ndarray:
        view = self._pmf.view()
        view.flags.writeable = False
        return view

    def pmf(self, k):
        """P(offspring = k), exact also beyond the stored table."""
        arr = _integers(k, "k")
        out = np.zeros(arr.shape, dtype=float)
        inside = (arr >= 0) & (arr < self._pmf.size)
        out[inside] = self._pmf[arr[inside]]
        if self._theta is not None:
            beyond = arr >= max(self._pmf.size, self._support_start)
            out[beyond] = self._theta * arr[beyond].astype(float) ** (-1.0 - self.alpha)
        return out if out.ndim else float(out)

    def tail(self, k):
        """P(offspring >= k)."""
        arr = _integers(k, "k")
        if self._theta is not None:
            # mu_k = 0 on [1, support_start), so those k share one tail
            out = self._theta * _hurwitz_zeta(
                1.0 + self.alpha, np.maximum(arr, self._support_start))
        else:
            last = self._pmf.size - 1
            cdf = np.cumsum(self._pmf)
            out = np.where(arr > last, 0.0, 1.0 - cdf[np.clip(arr - 1, 0, last)])
        out = np.where(arr <= 0, 1.0, out)
        return out if out.ndim else float(out)

    def mean(self) -> float:
        return float(np.sum(np.arange(self._pmf.size) * self._pmf)) + \
            self._beyond_table(1)

    def scaling_constant(self, n: int) -> float:
        """B_n = (c * |Gamma(1-alpha)| * n)**(1/alpha), the walk's spatial scale."""
        if self.tail_constant is None or self.alpha is None:
            raise ValueError("scaling constant requires a polynomial-tail law")
        alpha = self.alpha
        gamma_abs = math.gamma(2.0 - alpha) / (alpha - 1.0)
        return (self.tail_constant * gamma_abs * n) ** (1.0 / alpha)

    def __repr__(self) -> str:
        kind = "no-unary" if self.forbids_unary else "generic"
        if self.alpha is not None:
            return f"OffspringLaw(alpha={self.alpha}, {kind})"
        return f"OffspringLaw(finite support {self._pmf.size}, {kind})"


def stable_offspring(alpha: float, variant: str = "generic",
                     cutoff: int | None = None) -> OffspringLaw:
    """Critical offspring law mu_k proportional to k**(-1-alpha).

    ``variant`` is "generic" (support {0, 1, 2, ...}) or "no-unary"
    (support {0, 2, 3, ...}).  The normalizing constant is pinned by
    criticality, mu_0 takes whatever mass is left, and the tail constant is
    theta/alpha.  Raises if alpha leaves no room for mu_0.  The stored
    table holds only mu_0, and mu_1 = 0 for "no-unary"; a ``cutoff`` of at
    least 1 stores the first ``cutoff`` atoms instead, which changes no
    value of ``pmf`` or ``tail``.
    """
    if not (1.0 < alpha < 2.0):
        raise ValueError(f"alpha must lie strictly inside (1, 2), got {alpha!r}")
    if variant not in ("generic", "no-unary"):
        raise ValueError(f"variant must be 'generic' or 'no-unary', got {variant!r}")
    start = 1 if variant == "generic" else 2
    if cutoff is None:
        cutoff = start
    elif cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff!r}")
    # criticality: theta * sum_{k>=start} k**(1-1-alpha) * k = theta * zeta(alpha, start) = 1
    theta = 1.0 / float(_hurwitz_zeta(alpha, start))
    mass_positive = theta * float(_hurwitz_zeta(1.0 + alpha, start))
    mu0 = 1.0 - mass_positive
    if mu0 <= 0.0:
        raise ValueError(f"no mass left for mu_0 at alpha={alpha} ({variant})")
    k = np.arange(cutoff, dtype=float)
    pmf = np.zeros(cutoff)
    pmf[0] = mu0
    pmf[start:] = theta * k[start:] ** (-1.0 - alpha)
    return OffspringLaw(pmf, alpha=alpha, _theta=theta, _support_start=start)


def _integers(values, what: str) -> np.ndarray:
    """``values`` as an int64 array; raises ValueError naming the first of
    them that is not an integer (a float such as 2.0 is one, a bool is
    not)."""
    arr = np.asarray(values)
    # numpy casts [True, 0] to [1, 0], so given values are searched for a
    # bool; an integer array holds none and is taken as it is
    if arr.dtype.kind in "iu" and (
            isinstance(values, np.ndarray)
            or not any(isinstance(x, (bool, np.bool_))
                       for x in np.asarray(values, dtype=object).flat)):
        return arr.astype(np.int64, copy=False)
    if arr.dtype.kind == "f":
        with np.errstate(invalid="ignore"):
            out = arr.astype(np.int64)
        if np.array_equal(out, arr):
            return out
        bad = arr[out != arr].ravel()[0].item()
    else:
        # numpy turns [0, "a"] into strings and [0, None] into objects, so
        # the values are searched as given
        given = np.asarray(values, dtype=object).ravel()
        bad = next((x for x in given if not _integral(x)), given[0])
    raise ValueError(f"{what} must be integers, got {bad!r}")


def _integral(x) -> bool:
    """Whether one value given to _integers is an integer."""
    if isinstance(x, (bool, np.bool_)):
        return False
    if isinstance(x, (int, np.integer)):
        return True
    return isinstance(x, (float, np.floating)) and float(x).is_integer()


_JSON_TYPES = {int: "an integer", list: "an array"}


def _json_fields(text: str, what: str, **types) -> list:
    """The values of the keys of a JSON object, in the order of ``types``,
    which maps each key to the Python type its value must have; raises a
    one-line ValueError naming a missing or ill-typed key."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError(f"a {what} must be a JSON object, got {type(data).__name__}")
    values = []
    for key, kind in types.items():
        if key not in data:
            raise ValueError(f"the {what} JSON has no key {key!r}")
        value = data[key]
        # JSON true and false load as bools, which are ints to Python and
        # which numpy casts to 1 and 0 in an array of integers
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ValueError(f"the {what} JSON key {key!r} must be "
                             f"{_JSON_TYPES[kind]}, got {type(value).__name__}")
        if kind is list and _holds_bool(value):
            raise ValueError(f"the {what} JSON key {key!r} must hold integers, "
                             "got a bool")
        values.append(value)
    return values


def _holds_bool(value) -> bool:
    """Whether a bool sits anywhere in a nest of lists."""
    if isinstance(value, list):
        return any(map(_holds_bool, value))
    return isinstance(value, bool)


class PlaneTree:
    """Rooted plane tree given by DFS-ordered children counts.

    The tree holds its Lukasiewicz walk (see encode_tree), whose checks are
    the tree's own, and through it the one genealogy every consumer of the
    tree shares.
    """

    __slots__ = ("children_counts", "_path")

    def __init__(self, children_counts):
        arr = _integers(children_counts, "children counts")
        self._path = LukasiewiczPath(arr - 1)
        self.children_counts = arr

    @property
    def size(self) -> int:
        return int(self.children_counts.size)

    def __len__(self) -> int:
        return self.size

    def __eq__(self, other) -> bool:
        return isinstance(other, PlaneTree) and np.array_equal(
            self.children_counts, other.children_counts
        )

    def __hash__(self):
        return hash(self.children_counts.tobytes())

    def __repr__(self) -> str:
        if self.size <= 12:
            return f"PlaneTree({self.children_counts.tolist()})"
        return f"PlaneTree(size={self.size})"

    def to_json(self) -> str:
        return json.dumps({"children_counts": self.children_counts.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "PlaneTree":
        return cls(*_json_fields(text, "tree", children_counts=list))


class LukasiewiczPath:
    """Integer walk W_0=0, steps >= -1, staying >= 0 until the final hit of -1."""

    __slots__ = ("steps", "values", "_index")

    def __init__(self, steps):
        arr = _integers(steps, "steps")
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("steps must be a nonempty 1-d sequence")
        if arr.min() < -1:
            raise ValueError("steps must be >= -1")
        values = np.empty(arr.size + 1, dtype=np.int64)
        values[0] = 0
        np.cumsum(arr, out=values[1:])
        if values[-1] != -1:
            raise ValueError(f"walk ends at {int(values[-1])}, expected -1")
        if arr.size > 1 and values[1:-1].min() < 0:
            k = int(np.argmax(values[1:-1] < 0)) + 1
            raise ValueError(f"walk goes negative before the end (at index {k})")
        self.steps = arr
        self.values = values
        self._index = None

    @property
    def n(self) -> int:
        """Number of steps = number of tree vertices."""
        return int(self.steps.size)

    def _ensure_index(self) -> "_TreeIndex":
        if self._index is None:
            self._index = _TreeIndex(self.steps, self.values)
        return self._index

    def __eq__(self, other) -> bool:
        return isinstance(other, LukasiewiczPath) and np.array_equal(self.steps, other.steps)

    def __hash__(self):
        return hash(self.steps.tobytes())

    def __repr__(self) -> str:
        if self.n <= 12:
            return f"LukasiewiczPath({self.steps.tolist()})"
        return f"LukasiewiczPath(n={self.n})"

    def to_json(self) -> str:
        return json.dumps({"steps": self.steps.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "LukasiewiczPath":
        return cls(*_json_fields(text, "path", steps=list))


class _TreeIndex:
    """Parent and depth arrays for the vertices u_0..u_{n-1} of a walk.

    parent[k] is the latest j < k with W_j <= W_k, and -1 for the root.  A
    vertex entered by a step >= 0 is the first child of its predecessor.  A
    vertex entered by a -1 step fills a level h, and its parent is the latest
    vertex whose jump opened h (crossed from <= h to > h).  At every level
    the opens and the fills alternate in time, so once both are sorted by
    (level, time) the i-th fill belongs to the i-th open.  depth is computed
    on first use, by pointer jumping along parent, and so are pos and end:
    pos[k] is the slot of k on its parent's cycle, W_k - W_parent + 1 (slot
    0 is the parent's own), and 0 at the root; the subtree of k is the
    range [k, end[k]), where end[k] is the first time after k at which the
    walk steps below W_k.
    """

    __slots__ = ("parent", "_values", "_depth", "_pos", "_end")

    def __init__(self, steps: np.ndarray, values: np.ndarray, parent=None):
        """``parent``, when a caller has found it already, is taken as it
        is."""
        if parent is None:
            n = steps.size
            parent = np.arange(-1, n - 1)
            fill = np.flatnonzero(steps[:-1] < 0) + 1
            if fill.size:
                up = np.flatnonzero(steps > 0)
                width = steps[up]
                opener = np.repeat(up, width)
                # vertex j opens the levels W_j .. W_{j+1} - 1
                level = np.repeat(values[up] - (np.cumsum(width) - width), width)
                level += np.arange(opener.size)
                parent[fill[np.argsort(values[fill] * n + fill)]] = \
                    opener[np.argsort(level * n + opener)]
        self.parent = parent
        self._values = values
        self._depth = None
        self._pos = None
        self._end = None

    @property
    def depth(self) -> np.ndarray:
        if self._depth is None:
            # invariant: depth[k] edges separate k from anc[k]; each round
            # doubles the reach, until every anc is the root
            anc = self.parent.copy()
            anc[0] = 0
            depth = np.ones(anc.size, dtype=np.int64)
            depth[0] = 0
            while anc.any():
                depth += depth[anc]
                anc = anc[anc]
            self._depth = depth
        return self._depth

    @property
    def pos(self) -> np.ndarray:
        if self._pos is None:
            w = self._values
            pos = np.zeros(self.parent.size, dtype=np.int64)
            pos[1:] = w[1:-1] - w[self.parent[1:]] + 1
            self._pos = pos
        return self._pos

    @property
    def end(self) -> np.ndarray:
        if self._end is None:
            # down steps are -1, so the walk leaves [W_k, inf) at level
            # W_k - 1; sort every time by (level + 1, time) and take the
            # first key past (W_k, k), which is on that level after k
            w = self._values
            m = w.size
            t = np.arange(m)
            keys = np.sort((w + 1) * m + t)
            self._end = keys[np.searchsorted(keys, w[:-1] * m + t[:-1], side="right")] % m
        return self._end


def encode_tree(tree: PlaneTree) -> LukasiewiczPath:
    """Lukasiewicz walk of a tree: steps are children counts minus one.  This
    is the tree's own walk, so calls on one tree share its genealogy."""
    return tree._path


def decode_tree(path: LukasiewiczPath) -> PlaneTree:
    """Inverse of encode_tree."""
    return PlaneTree(path.steps + 1)


def _cycle_shift(steps: np.ndarray) -> np.ndarray:
    """Unique rotation of a total -1 step vector into a valid walk.

    Rotates so the walk restarts right after the first global minimum of the
    partial sums (the cycle lemma).
    """
    partial = np.cumsum(steps)
    m = int(np.argmin(partial))  # first index attaining the minimum
    return np.concatenate((steps[m + 1:], steps[:m + 1]))


def sample_conditioned_tree(law: OffspringLaw, n: int,
                            rng: np.random.Generator) -> PlaneTree:
    """Tree of the branching process conditioned to have exactly n vertices.

    The n children counts come from the dyadic bridge (i.i.d. offspring
    conditioned to sum to n-1, see _bridge), and the cycle lemma rotates
    them into the unique valid walk.  Raises ValueError when no tree of this
    law has n vertices.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return PlaneTree(np.zeros(1, dtype=np.int64))
    xi = sample_conditioned_steps(law, n, rng)
    return PlaneTree(_cycle_shift(xi - 1) + 1)


def descent(path: LukasiewiczPath, j: int):
    """Strict ancestors of u_j with their cycle positions, root first.

    Returns a list of pairs (k, x) over the ancestors u_k of u_j, where
    x = min(W[k+1..j]) - W[k] + 1 is the position of the branch toward u_j
    on the cycle of u_k.  That minimum is W_c for the child u_c of u_k on
    the way to u_j, so x is pos[c].  Empty for the root.
    """
    n = path.n
    if not (0 <= j < n):
        raise IndexError(f"vertex index {j} out of range [0, {n})")
    idx = path._ensure_index()
    parent, pos = idx.parent, idx.pos
    out = []
    cur = j
    while cur != 0:
        a = int(parent[cur])
        out.append((a, int(pos[cur])))
        cur = a
    out.reverse()
    return out


TreeStats = namedtuple("TreeStats", ["size", "leaf_count", "height"])


def tree_stats(tree: PlaneTree) -> TreeStats:
    """Size, number of leaves, and height (max depth) of a tree."""
    counts = tree.children_counts
    leaves = int(np.count_nonzero(counts == 0))
    path = encode_tree(tree)
    height = int(path._ensure_index().depth.max())
    return TreeStats(size=tree.size, leaf_count=leaves, height=height)
