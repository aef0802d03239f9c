"""Direct sampling of i.i.d. offspring vectors conditioned on their total.

Splits the vector dyadically: the total of the left half given the overall
total has a density proportional to p_a(j) * p_b(T - j), where p_m is the pmf
of a sum of m offspring.  Those pmfs are computed once per (law, length) by
convolution on the window [0, n-1], which is exact there because offspring
counts are nonnegative and every conditional total stays <= n-1.  Only the
~2*log2(n) distinct half sizes ever appear, so the table is small and each
sample costs O(n log n).
"""

from __future__ import annotations

import numpy as np
from scipy.signal import fftconvolve

__all__ = ["sample_conditioned_steps"]

# below this the quadratic convolution is cheap and exact to the last bit,
# which the small-size distribution tests rely on
_EXACT_CONV_LIMIT = 4096


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
    if n <= _EXACT_CONV_LIMIT:
        out = np.convolve(pa, pb)[:n]
    else:
        out = fftconvolve(pa, pb)[:n]
        np.clip(out, 0.0, None, out=out)
    return np.ascontiguousarray(out)


def _sum_pmf_tables(window: np.ndarray) -> dict:
    """pmf of S_m on [0, n-1] for every half size m, built by convolution;
    ``window`` is the single-draw pmf on [0, n-1]."""
    n = window.size
    tables = {1: window}
    for m in _half_sizes(n):
        if m == 1 or m in tables:
            continue
        a = (m + 1) // 2
        tables[m] = _convolve_window(tables[a], tables[m - a], n)
    return tables


def sample_conditioned_steps(law, n: int, rng: np.random.Generator) -> np.ndarray:
    """One vector of n i.i.d. offspring counts conditioned to sum to n-1."""
    if n < 2:
        raise ValueError(f"bridge sampling needs n >= 2, got {n}")
    tables = law._bridge_tables.get(n)
    if tables is None:
        tables = _sum_pmf_tables(law.pmf(np.arange(n)))
        law._bridge_tables[n] = tables
    return _bridge(tables, rng)


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


def _bridge(tables: dict, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. draws from the pmf window ``tables[1]`` (of length n >= 2)
    conditioned to sum to n-1; ``tables`` comes from _sum_pmf_tables."""
    n = tables[1].size
    if tables[n][n - 1] <= 0.0:
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
            lengths = t + 1
            offsets = np.concatenate(([0], np.cumsum(lengths)))
            j_flat = np.arange(offsets[-1]) - np.repeat(offsets[:-1], lengths)
            t_flat = np.repeat(t, lengths)
            w = pa[j_flat] * pb[t_flat - j_flat]
            j = _draw_in_segments(w, offsets, rng)
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
