"""Direct sampling of i.i.d. offspring vectors conditioned on their total.

Splits the vector dyadically: the total of the left half given the overall
total has a density proportional to p_a(j) * p_b(T - j), where p_m is the pmf
of a sum of m offspring.  Those pmfs are computed by convolution on the window
[0, n-1], which is exact there because offspring counts are nonnegative and
every conditional total stays <= n-1.  Only the ~2*log2(n) distinct half
sizes ever appear, so the tables of one (law, n) are small and each sample
costs O(n log n).  They are built once and kept in one cache shared by all
laws: laws with equal values share an entry (see OffspringLaw._table_key),
and the cache holds at most _TABLE_CACHE_BYTES, least recently used out
first.

The split itself (each level's segment sizes, their grouping by size and
their order) depends on n alone.  It is built once per n as a split plan,
kept in the same cache under a key of n alone and so shared by every law and
by the block tables of sample_boltzmann; a sample then only computes the
segment totals and draws.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

__all__ = ["sample_conditioned_steps"]

# below this the quadratic convolution is cheap and exact to the last bit,
# which the small-size distribution tests rely on
_EXACT_CONV_LIMIT = 4096
# bytes of bridge tables and split plans kept across calls; the newest entry
# stays even when it alone is larger, so any n still samples
_TABLE_CACHE_BYTES = 128 * 2**20
# a group of segments at least this long on average forms its weights slice
# by slice; shorter ones gather them through index arrays
_LONG_SEGMENTS = 128


class _TableCache:
    """Bridge tables by (law key, n), and split plans by (None, n), dropping
    the least recently used entry while they hold more than ``limit`` bytes.
    A miss builds under the lock, so threads that miss together build
    once."""

    def __init__(self, limit: int):
        self.limit = limit
        self._entries: OrderedDict = OrderedDict()  # key -> (tables, bytes)
        self._lock = threading.Lock()
        self.hits = self.misses = self.bytes = 0
        self._last_plan = (0, None)  # (n, plan) of the size asked last

    def get(self, key, build):
        """The tables under ``key``, from ``build()`` on a miss."""
        with self._lock:
            return self._get(key, build)

    def plan(self, n: int) -> list:
        """The split plan of n (see _split_plan).  The plan of the size asked
        last stays held here after tables that alone fill the cache push its
        entry out, so that the two do not evict each other on every sample
        of one size."""
        with self._lock:
            if self._last_plan[0] == n:
                self.hits += 1
            else:
                self._last_plan = (n, self._get((None, n), lambda: _split_plan(n)))
            return self._last_plan[1]

    def _get(self, key, build):
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return entry[0]
        self.misses += 1
        tables = build()
        size = _nbytes(tables)
        self._entries[key] = (tables, size)
        self.bytes += size
        while self.bytes > self.limit and len(self._entries) > 1:
            self.bytes -= self._entries.popitem(last=False)[1][1]
        return tables

    def by_length(self, law_key) -> dict:
        """{n: tables} of the entries cached for one law key."""
        with self._lock:
            return {k[1]: e[0] for k, e in self._entries.items() if k[0] == law_key}

    def info(self) -> dict:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "entries": len(self._entries), "bytes": self.bytes}

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = self.misses = self.bytes = 0
            self._last_plan = (0, None)


_TABLES = _TableCache(_TABLE_CACHE_BYTES)


def _nbytes(obj) -> int:
    """Bytes of the arrays and numpy scalars in a nest of dicts, lists and
    tuples."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(map(_nbytes, obj))
    return getattr(obj, "nbytes", 0)


def cache_info() -> dict:
    """Hits, misses, entries and bytes of the shared bridge-table cache."""
    return _TABLES.info()


def _half_sizes(n: int) -> list:
    """All distinct sizes appearing in the dyadic split tree of n, ascending."""
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


def _convolve_window(pa: np.ndarray, pb: np.ndarray, n: int) -> np.ndarray:
    """First n terms of the convolution of pa and pb, in an array of its own
    (a slice would pin the whole length-(2n - 1) result)."""
    if n <= _EXACT_CONV_LIMIT:
        return np.convolve(pa, pb)[:n].copy()
    # the transforms scipy.signal.fftconvolve runs, bit for bit
    f = next_fast_len(pa.size + pb.size - 1, True)
    spec = rfft(pa, f)
    spec *= spec if pb is pa else rfft(pb, f)
    out = irfft(spec, f)[:n].copy()
    np.clip(out, 0.0, None, out=out)
    return out


def _sum_pmf_tables(window: np.ndarray) -> dict:
    """pmf of S_m on [0, n-1] for every half size m < n, built by
    convolution from ``window``, the single-draw pmf on [0, n-1].  Of S_n the
    bridge reads only P(S_n = n-1), so ``tables[n]`` holds that one value:
    0.0 when no n draws sum to n-1."""
    n = window.size
    tables = {1: window}
    for m in _half_sizes(n)[:-1]:
        if m == 1:
            continue
        a = (m + 1) // 2
        tables[m] = _convolve_window(tables[a], tables[m - a], n)
    a = (n + 1) // 2
    tables[n] = np.dot(tables[a], tables[n - a][::-1])
    # FFT tables hold float noise where exact zeros belong, so that sum
    # misses the gaps of a lattice law; every total of n draws is a
    # multiple of the gcd of the law's positive support points
    if n > _EXACT_CONV_LIMIT and (n - 1) % np.gcd.reduce(np.flatnonzero(window[1:]) + 1):
        tables[n] = np.float64(0.0)
    return tables


def sample_conditioned_steps(law, n: int, rng: np.random.Generator) -> np.ndarray:
    """One vector of n i.i.d. offspring counts conditioned to sum to n-1."""
    if n < 2:
        raise ValueError(f"bridge sampling needs n >= 2, got {n}")
    # the plan first: tables that alone fill the cache then push out its
    # entry, which the cache still holds as the plan of the size asked last
    plan = _TABLES.plan(n)
    tables = _TABLES.get((law._table_key, n),
                         lambda: _sum_pmf_tables(law.pmf(np.arange(n))))
    return _bridge(tables, plan, rng)


def _draw_in_segments(w: np.ndarray, offsets: np.ndarray,
                      rng: np.random.Generator) -> np.ndarray:
    """One draw per segment w[offsets[i]:offsets[i+1]] with probabilities
    proportional to w, as an index relative to the segment's start."""
    cum = np.cumsum(w)
    ends = offsets[1:] - 1
    seg_sum = np.add.reduceat(w, offsets[:-1])
    if np.any(seg_sum <= 0.0):
        raise RuntimeError(
            "a conditional draw has no admissible value; "
            "the convolution table lost too much precision"
        )
    target = (cum[ends] - seg_sum) + rng.random(ends.size) * seg_sum
    g = np.searchsorted(cum, target, side="left")
    return np.clip(g, offsets[:-1], ends) - offsets[:-1]


def _split_plan(n: int) -> list:
    """The dyadic split of n positions, level by level: everything about it
    that depends on n alone.  Each level is (leaf_at, leaf_out, groups):
    the level's size-1 segments, as indices into its totals, and their
    positions in the output; then one (a, b, sel) per segment size m >= 2,
    ascending, where sel indexes the level's segments of size m and a + b = m
    are the sizes of their halves.  The next level's segments are the lefts
    and then the rights of each group in turn."""
    levels = []
    size = np.array([n])
    start = np.zeros(1, dtype=np.int32)
    while size.size:
        leaves = np.flatnonzero(size == 1)
        groups, next_size, next_start = [], [], []
        # at most two distinct sizes occur per level, so this loop is short
        for m in np.unique(size[size > 1]).tolist():
            sel = np.flatnonzero(size == m)
            a = (m + 1) // 2
            groups.append((a, m - a, sel.astype(np.int32)))
            next_size += [np.full(sel.size, a), np.full(sel.size, m - a)]
            next_start += [start[sel], start[sel] + a]
        levels.append((leaves.astype(np.int32), start[leaves], groups))
        if not groups:
            break
        size = np.concatenate(next_size)
        start = np.concatenate(next_start)
    return levels


def _segment_weights(pa: np.ndarray, pb: np.ndarray, t: np.ndarray,
                     ramp: np.ndarray):
    """The weights pa[j] * pb[t_i - j], j = 0..t_i, of every segment i laid
    end to end, and the segments' offsets into them."""
    lengths = t + 1
    offsets = np.zeros(t.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    flat = int(offsets[-1])
    if flat >= _LONG_SEGMENTS * t.size:
        # few long segments: a product of two slices each, with no indices
        w = np.empty(flat)
        for o, ti in zip(offsets.tolist(), t.tolist()):
            np.multiply(pa[:ti + 1], pb[ti::-1], out=w[o:o + ti + 1])
        return w, offsets
    j = ramp[:flat] - np.repeat(offsets[:-1], lengths)
    return pa[j] * pb[np.repeat(t, lengths) - j], offsets


def _bridge(tables: dict, plan: list, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. draws from the pmf window ``tables[1]`` (of length n >= 2)
    conditioned to sum to n-1; ``tables`` comes from _sum_pmf_tables and
    ``plan`` from _split_plan(n)."""
    n = tables[1].size
    if tables[n] <= 0.0:
        raise ValueError(
            f"total {n - 1} is unattainable by {n} draws from this law"
        )
    out = np.empty(n, dtype=np.int64)
    total = np.array([n - 1], dtype=np.int64)
    ramp = np.arange(2 * n)
    for leaf_at, leaf_out, groups in plan:
        if leaf_at.size:
            out[leaf_out] = total[leaf_at]
        parts = []
        for a, b, sel in groups:
            t = total[sel]
            w, offsets = _segment_weights(tables[a], tables[b], t, ramp)
            j = _draw_in_segments(w, offsets, rng)
            parts += [j, t - j]
        if parts:
            total = np.concatenate(parts)
    return out
