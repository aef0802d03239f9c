"""Direct sampling of i.i.d. offspring vectors conditioned on their total.

Splits the vector dyadically: the total of the left half given the overall
total has a density proportional to p_a(j) * p_b(T - j), where p_m is the pmf
of a sum of m offspring.  Those pmfs are computed by convolution on the window
[0, n-1], which is exact there because offspring counts are nonnegative and
every conditional total stays <= n-1.  Only the ~2*log2(n) distinct half
sizes ever appear, so the tables of one (law, n) are small and each sample
costs O(n log n).

A draw reads a half's table only on [0, t], t its segment's total, and the
total of a segment of size m stays near m + O(B_n).  So above
_EXACT_CONV_LIMIT the cached tables of a law with a polynomial tail keep
only prefixes: the table of half size k, which serves segments of sizes up
to 2k + 1, keeps W(k) = min(n, 2(2k + 1) + 4 B_n) entries (_kept_width,
with reach = _SLACK * B_n, B_n the law's scaling_constant(n)).  Laws
without one and the block pmfs of sample_boltzmann keep all n, as do
tables[1], both halves of n (which tables[n] reads) and every table at or
below the limit; the CDF rows are built as before.  _fft_tables builds
every table at full width, so each transform and each kept float is a full
build's, and cuts a table to its prefix right after its own transform.
Over 300 samples per alpha at n = 10**5 (seeds 0..299) the largest
(t - 2(2k + 1)) / B_n over every table read was 1.29, 2.31 and 1.03 at
alpha = 1.05, 1.5 and 1.95, so no draw overflowed; it is about the
sample's largest step over B_n, and conditioning on the total makes large
steps rare.  At 10**6 one cache entry takes 59 MB at alpha = 1.5 and
53 MB at 1.95, against 264 MB at full width.

A prefix is a correctness matter, since a slice past it would come out
short without an error.  Before any read, _draw_group checks its largest
total against both halves' kept lengths and raises _Overflow past them.
_conditioned then restores rng's state from before the draw, has the cache
replace the entry, under its lock, by one built with the reach
max(2 * reach, t + 1), which covers that total and every total inside its
segment, and draws again: the same uniforms on the same floats, so the
same draws.  cache_info() counts these widenings.

The split itself (each level's segment sizes, their grouping by size and
their order) depends on n alone, and is built as a split plan.  One cache
entry per (source key, n) holds everything a draw of size n needs: the
tables, the plan and the reach its tables were kept to.  _conditioned is the one way in, for the offspring
laws of sample_conditioned_steps and sample_conditioned_max (laws with equal
values share an entry, see OffspringLaw._table_key) and for the block pmfs
of sample_boltzmann.  Entries of one size share one plan object, and the
cache holds at most _TABLE_CACHE_BYTES, least recently used out first.  A
warm sample only computes the segment totals and draws.

A sample takes its n - 1 uniforms, one per segment of size >= 2, in one call
rng.random(n - 1), before any draw: level by level, group by group within a
level and in plan order within a group.  Each segment inverts its own
conditional CDF at its uniform, in one of three forms, chosen by its total
and by the number of segments in its group of the plan (its group's size):

* CDF rows.  A segment of total t <= _ROW_TOTAL in a group of at least
  _ROW_SEGMENTS segments draws from rows built with the tables: row t holds
  t + P(J <= j | t), j = 0..t, so the rows laid end to end ascend and a
  search of t + u finds the draw.  A guide of the draws at _GUIDE cell edges
  of u spares most of the searches.  Row values lie below _ROW_TOTAL + 2,
  where floats are 2**-46 apart, so a row holds its CDF to about 2**-46 of
  its mass.
* Alone.  A segment of total t >= _ALONE_TOTAL is drawn by itself: a
  cumulative sum over the sums of blocks of _BLOCK weights finds the block,
  and a cumulative sum inside that block the draw.  Both sums start from 0,
  so the CDF is held to about (t / _BLOCK + _BLOCK) * 2**-53 of its mass,
  under 1e-12 for t < 10**6.
* Shared.  The other segments drawn together share one cumulative sum.
  Each is first scaled to 2**e integer units, e = 62 - bit_length(size of
  its group), and the sum runs in int64, so it is exact and cannot
  overflow.  Truncating the t + 1 <= _ALONE_TOTAL weights to whole units
  moves the CDF by less than (t + 1) * 2**-e of the segment's mass, and
  float rounding adds about (t + 1) * 2**-52.  A group has at most n/2
  segments, so for n <= 10**6 that is below 2**12 * 2**-43 = 2**-31
  (4.7e-10).

So every draw inverts its own segment's CDF to within 1e-9 of that segment's
mass for every n up to 10**6, however small that mass is next to the other
segments of its group (a mass below 2**-960 gets fewer units), and no draw
lands on a value of zero weight.  A draw depends on nothing but its
segment's size, total and uniform and its group's size: not on which other
segments are drawn with it.

That is what makes sample_conditioned_max exact.  Every value inside a
segment is at most the segment's total, so a segment whose total is at most
a value already drawn cannot hold a larger one, and the maximum skips it
with all it contains.  The segments it does draw take the uniforms and the
draws that the full sample gives them, so it returns the full sample's
maximum bit for bit and leaves rng in the same state.
"""

from __future__ import annotations

import math
import operator
import threading
import weakref
from collections import OrderedDict

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

__all__ = ["sample_conditioned_max", "sample_conditioned_steps"]

# below this the quadratic convolution is cheap and exact to the last bit,
# which the small-size distribution tests rely on
_EXACT_CONV_LIMIT = 4096
# bytes of bridge tables and split plans kept across calls (see _TableCache)
_TABLE_CACHE_BYTES = 128 * 2**20
# the segments of totals <= _ROW_TOTAL in a group of at least _ROW_SEGMENTS
# segments draw from CDF rows; the tables hold rows for every segment size
# that some level of the split holds that often, so n < 2 * _ROW_SEGMENTS
# builds none;
# the rows of a size hold (_ROW_TOTAL + 1) * (_ROW_TOTAL + 2) / 2 floats
_ROW_TOTAL = 64
_ROW_SEGMENTS = 1024
# the guide of the rows of a size splits the u of each row into _GUIDE cells
# and holds the draw at every cell edge (see _draw_rows), as int8: a draw is
# at most _ROW_TOTAL + 1
_GUIDE = 128
# a segment of at least this total is drawn alone, by blocks of _BLOCK weights
_ALONE_TOTAL = 4096
_BLOCK = 256
# segments at least this long on average form their weights slice by slice;
# shorter ones gather them through index arrays
_LONG_SEGMENTS = 128
# a cached FFT table of a law with a polynomial tail keeps the totals up to
# twice the sizes of the segments that read it plus _SLACK * B_n (see
# _kept_width)
_SLACK = 4.0

_ROW_K = np.arange(_ROW_TOTAL + 1)
# where row t starts, and the largest float below t + 1, which caps the
# search value of row t when t + u rounds up to t + 1
_ROW_START = _ROW_K * (_ROW_K + 1) // 2
_ROW_CAP = np.nextafter(_ROW_K + 1.0, 0.0)

_NO_VALUE = ("a conditional draw has no admissible value; "
             "the convolution table lost too much precision")


class _TableCache:
    """What a conditioned draw of size n needs, by (source key, n): the
    tables built from the source's window and the split plan of n.  Entries
    of one size share one plan object, and each counts the plan's bytes as
    its own, so a shared plan is counted once per entry that holds it and
    the cache errs toward evicting early.  While the entries hold more than
    ``limit`` bytes the least recently used goes, but the newest stays even
    when it alone is larger, so any n still samples.  A miss builds under
    the lock, so threads that miss together build once."""

    def __init__(self, limit: int):
        self.limit = limit
        self._entries: OrderedDict = OrderedDict()  # key -> (value, bytes)
        # n -> the plan that the entries of size n share; it leaves with the
        # last entry (or draw in progress) that holds it
        self._plans = weakref.WeakValueDictionary()
        self._lock = threading.Lock()
        self.hits = self.misses = self.widened = self.bytes = 0

    def get(self, key, build):
        """The value under ``key``, from ``build()`` on a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return entry[0]
            self.misses += 1
            return self._put(key, build())

    def widen(self, key, seen, build):
        """The value under ``key`` once a draw from ``seen`` overflowed:
        ``build()`` in place of ``seen``, or the value that already replaced
        it, so threads that overflow one entry together widen it once."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0] is not seen:
                return entry[0]
            self.widened += 1
            return self._put(key, build())

    def _put(self, key, value):
        old = self._entries.pop(key, None)
        if old is not None:
            self.bytes -= old[1]
        size = _nbytes(value)
        self._entries[key] = (value, size)
        self.bytes += size
        while self.bytes > self.limit and len(self._entries) > 1:
            self.bytes -= self._entries.popitem(last=False)[1][1]
        return value

    def _shared_plan(self, n: int) -> list:
        """The split plan that live entries of size n hold, else a new one; a
        build calls it, under the lock."""
        plan = self._plans.get(n)
        if plan is None:
            plan = self._plans[n] = _split_plan(n)
        return plan

    def by_length(self, key) -> dict:
        """{n: tables} of the entries cached for one source key."""
        with self._lock:
            return {k[1]: e[0][0] for k, e in self._entries.items() if k[0] == key}

    def info(self) -> dict:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "widened": self.widened, "entries": len(self._entries),
                    "bytes": self.bytes}

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._plans.clear()
            self.hits = self.misses = self.widened = self.bytes = 0


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
    """Hits, misses, widened entries (see _conditioned), entries and bytes
    of the shared bridge-table cache."""
    return _TABLES.info()


def _level_sizes(n: int):
    """(size, count) of the segments of each level k of the split of n with
    2**k <= n: n mod 2**k segments of size ceil(n / 2**k) and the rest of
    size floor(n / 2**k).  Later levels hold only size 1, which the last of
    these levels holds too."""
    k = 1
    while k <= n:
        q, r = divmod(n, k)
        if r:
            yield q + 1, r
        yield q, k - r
        k *= 2


def _half_sizes(n: int) -> list:
    """All distinct sizes appearing in the dyadic split tree of n, ascending."""
    return sorted({m for m, _ in _level_sizes(n)})


def _row_sizes(n: int) -> list:
    """Segment sizes m >= 2 that some level of the split of n holds at least
    _ROW_SEGMENTS times."""
    return sorted({m for m, count in _level_sizes(n)
                   if m >= 2 and count >= _ROW_SEGMENTS})


def _sum_pmf_tables(window: np.ndarray, reach=None) -> dict:
    """pmf of S_m on [0, n-1] for every half size m < n, built by
    convolution from ``window``, the single-draw pmf on [0, n-1].  Of S_n the
    bridge reads only P(S_n = n-1), so ``tables[n]`` holds that one value:
    0.0 when no n draws sum to n-1.  For each segment size m in
    _row_sizes(n), ``tables[("rows", m)]`` and ``tables[("guide", m)]`` hold
    its CDF rows and their guide (see _cdf_rows).  Above _EXACT_CONV_LIMIT
    a ``reach`` other than None keeps only the prefix _kept_width(m, n,
    reach) of each table m."""
    n = window.size
    tables = {1: window}
    sizes = [m for m in _half_sizes(n)[:-1] if m > 1]
    if n <= _EXACT_CONV_LIMIT:
        for m in sizes:
            a = (m + 1) // 2
            tables[m] = np.convolve(tables[a], tables[m - a])[:n].copy()
    else:
        _fft_tables(tables, sizes, n, reach)
    a = (n + 1) // 2
    tables[n] = np.dot(tables[a], tables[n - a][::-1])
    # FFT tables hold float noise where exact zeros belong, so that sum
    # misses the gaps of a lattice law; every total of n draws is a
    # multiple of the gcd of the law's positive support points
    if n > _EXACT_CONV_LIMIT and (n - 1) % np.gcd.reduce(np.flatnonzero(window[1:]) + 1):
        tables[n] = np.float64(0.0)
    for m in _row_sizes(n):
        a = (m + 1) // 2
        tables[("rows", m)], tables[("guide", m)] = _cdf_rows(tables[a], tables[m - a])
    return tables


def _kept_width(k: int, n: int, reach) -> int:
    """W(k), the entries kept of the table of half size k: it serves
    segments of sizes up to 2k + 1, so min(n, 2(2k + 1) + reach), and all n
    for a reach of None.  Both halves of n keep all n, which tables[n]
    reads."""
    return n if reach is None else min(n, 2 * (2 * k + 1) + reach)


def _fft_tables(tables: dict, sizes: list, n: int, reach) -> None:
    """Add to ``tables`` the first n terms of the convolution of the two
    halves of each size in ``sizes`` (ascending), each in an array of its own
    and clipped at 0.  These are the transforms scipy.signal.fftconvolve
    runs, bit for bit, except that each table is transformed once and its
    spectrum freed after its last use.

    Every table is built at full width, so every transform takes the same
    input whatever ``reach`` is.  A table m with _kept_width(m, n, reach) <
    n is then cut to that prefix right after its own transform, the last
    read of its full width; its kept entries are the same floats."""
    f = next_fast_len(2 * n - 1, True)
    last_use = {}
    for m in sizes:
        a = (m + 1) // 2
        last_use[a] = last_use[m - a] = m
    width = {m: _kept_width(m, n, reach) for m in sizes}
    # every table that stays full is allocated before the first transform,
    # so those tables lie together and the transforms leave no holes
    # between them; allocated one at a time, they raised the peak RSS of a
    # cold sample at alpha = 1.05 and 10**6 from 421 to 457 MB
    for m in sizes:
        if width[m] == n:
            tables[m] = np.empty(n)
    spectra = {}
    for m in sizes:
        a = (m + 1) // 2
        for k in (a, m - a):
            if k not in spectra:
                spectra[k] = rfft(tables[k], f)
                if width.get(k, n) < n:
                    tables[k] = tables[k][:width[k]].copy()
        tables[m] = np.clip(irfft(spectra[a] * spectra[m - a], f)[:n], 0.0, None,
                            out=tables.get(m))
        for k in (a, m - a):
            if last_use[k] == m:
                spectra.pop(k, None)


def _cdf_rows(pa: np.ndarray, pb: np.ndarray):
    """The CDF rows of the segments whose halves have pmfs pa and pb, and
    their guide (see _draw_rows).  Row t, t = 0.._ROW_TOTAL, starts at
    _ROW_START[t] and holds t + P(J <= j | t), j = 0..t, for the left half's
    total J, summed on its own.  A row that no pair of totals reaches holds
    t throughout, so the rows still ascend; a draw from it is an error.  The
    guide holds, for each row, the draw at each of the _GUIDE + 1 cell edges
    g / _GUIDE of u."""
    k = _ROW_K
    lower = k[:, None] >= k  # j <= t
    w = np.where(lower, pa[k] * pb[np.abs(k[:, None] - k)], 0.0)
    cdf = np.cumsum(w, axis=1)
    mass = cdf[:, -1:]
    np.divide(cdf, mass, out=cdf, where=mass > 0.0)
    rows = (cdf + k[:, None])[lower]
    edges = np.minimum(k[:, None] + np.arange(_GUIDE + 1) / _GUIDE, _ROW_CAP[:, None])
    guide = np.searchsorted(rows, edges, side="right") - _ROW_START[:, None]
    return rows, guide.astype(np.int8).ravel()


def sample_conditioned_steps(law, n: int, rng: np.random.Generator) -> np.ndarray:
    """One vector of n i.i.d. offspring counts conditioned to sum to n-1."""
    return _law_sample(law, n, rng, _bridge)


def sample_conditioned_max(law, n: int, rng: np.random.Generator) -> int:
    """max(sample_conditioned_steps(law, n, rng)), bit for bit, leaving rng
    in the same state, without drawing the segments of the split that cannot
    hold it (see the module docstring).

    It raises the ValueError of an unattainable n as the full sample does.
    A segment it skips cannot raise, though: where the tables have lost all
    the mass of some segment's draw, the full sample raises RuntimeError,
    and this raises it only when that segment is one it draws.  Otherwise it
    returns the largest of the values it did draw, each of which the full
    sample would have given too."""
    return _law_sample(law, n, rng, _bridge_max)


def _law_sample(law, n: int, rng: np.random.Generator, draw):
    """``draw`` (_bridge or _bridge_max) on the cache entry of (law, n)."""
    n = operator.index(n)
    if n < 2:
        raise ValueError(f"bridge sampling needs n >= 2, got {n}")
    # a law with a polynomial tail keeps table prefixes; a reach of at least
    # _ROW_TOTAL + 1 keeps every entry that the CDF rows read
    reach = None
    if law.tail_constant is not None:
        reach = max(math.ceil(_SLACK * law.scaling_constant(n)), _ROW_TOTAL + 1)
    return _conditioned(law._table_key, n, lambda: law.pmf(np.arange(n)), rng,
                        draw, reach)[0]


def _draw_in_segments(w: np.ndarray, offsets: np.ndarray, lengths: np.ndarray,
                      u: np.ndarray, group: int) -> np.ndarray:
    """One draw per segment w[offsets[i]:offsets[i+1]], of length
    lengths[i], with probabilities proportional to w, by inverting its CDF
    at u[i], as an index relative to the segment's start.  The segments
    share one exact int64 cumulative sum of 2**e units each, e = 62 -
    bit_length(group), where ``group`` is at least the number of segments
    (see the module docstring); the draw is the first j whose cumulative
    count exceeds u[i] times the segment's.  Scales ``w`` in place."""
    starts = offsets[:-1]
    mass = np.add.reduceat(w, starts)
    smallest = mass.min()
    if not smallest > 2.0**-960:
        if not smallest > 0.0:
            raise RuntimeError(_NO_VALUE)
        # a smaller mass would take the scale past the float range; such a
        # segment gets fewer units
        mass = np.maximum(mass, 2.0**-960)
    w *= (2.0 ** (62 - group.bit_length()) / mass).repeat(lengths)
    # cast, then sum in place: the same integers as cumsum(dtype=np.int64),
    # which is slower on long inputs
    cum = w.astype(np.int64)
    cum.cumsum(out=cum)
    edge = cum[offsets - 1]  # the count before each segment, then the total
    edge[0] = 0
    lo = edge[:-1]
    # for u <= 1 - 2**-53 the float product rounds to at most the segment's
    # count minus 1, so the search stays inside the segment
    target = lo + (u * (edge[1:] - lo)).astype(np.int64)
    return cum.searchsorted(target, side="right") - starts


def _draw_rows(rows: np.ndarray, guide: np.ndarray, t: np.ndarray,
               u: np.ndarray) -> np.ndarray:
    """The draws of segments of totals t <= _ROW_TOTAL at uniforms u, from
    the CDF rows of their size: the first j whose row value exceeds t + u.
    The draw is monotone in u, so where the guide holds one draw at both
    edges of the cell of u that is the draw; only the other u are searched,
    with the same values as the guide."""
    cell = (u * _GUIDE).astype(np.int64)
    cell += t * (_GUIDE + 1)
    j = guide[cell]
    odd = np.flatnonzero(j != guide[cell + 1])
    if odd.size:
        to = t[odd]
        j[odd] = np.searchsorted(rows, np.minimum(to + u[odd], _ROW_CAP[to]),
                                 side="right") - _ROW_START[to]
    if np.any(j > t):  # a row of zero mass
        raise RuntimeError(_NO_VALUE)
    return j


def _draw_alone(pa: np.ndarray, pb: np.ndarray, t: int, u: float,
                ramp: np.ndarray) -> int:
    """The draw of one segment of total t at uniform u: the block of _BLOCK
    weights where the CDF crosses u, then the place inside it."""
    w = pa[:t + 1] * pb[t::-1]
    blocks = np.cumsum(np.add.reduceat(w, ramp[:t + 1:_BLOCK]))
    total = float(blocks[-1])
    if not total > 0.0:
        raise RuntimeError(_NO_VALUE)
    # at least the least positive float, so that u = 0 takes the first
    # value of positive weight
    target = max(u * total, 5e-324)
    k = int(np.searchsorted(blocks, target))
    if k:
        target -= float(blocks[k - 1])
    inner = np.cumsum(w[k * _BLOCK:(k + 1) * _BLOCK])
    return k * _BLOCK + int(np.searchsorted(inner, min(target, float(inner[-1]))))


class _Overflow(Exception):
    """A segment's total, args[0], reaches past a kept table prefix."""


def _draw_group(tables: dict, a: int, b: int, t: np.ndarray, u: np.ndarray,
                ramp: np.ndarray, group: int) -> np.ndarray:
    """The left-half totals of segments of size a + b with totals t, drawn
    at the uniforms u.  ``group``, the number of segments in their group of
    the plan, sets the forms and the units, so each segment draws the same
    whichever others of its group come with it.  Raises _Overflow when a
    total reaches past a half's kept prefix, where a slice would silently
    come out short."""
    top = int(t.max())
    if top >= min(tables[a].size, tables[b].size):
        raise _Overflow(top)
    if group >= _ROW_SEGMENTS:
        # the tables hold rows for every size that a level holds this often
        small = t <= _ROW_TOTAL
        j = np.empty_like(t)
        j[small] = _draw_rows(tables[("rows", a + b)], tables[("guide", a + b)],
                              t[small], u[small])
        rest = np.flatnonzero(~small)
        if rest.size:
            j[rest] = _draw_weighted(tables[a], tables[b], t[rest], u[rest], ramp, group)
        return j
    return _draw_weighted(tables[a], tables[b], t, u, ramp, group)


def _draw_weighted(pa: np.ndarray, pb: np.ndarray, t: np.ndarray,
                   u: np.ndarray, ramp: np.ndarray, group: int) -> np.ndarray:
    """The left-half totals of segments with totals t and halves of pmfs pa
    and pb, drawn at the uniforms u from their weights: alone for totals of
    at least _ALONE_TOTAL, the others on one shared cumulative sum in the
    units of a group of ``group`` segments."""
    lengths = t + 1
    offsets = np.zeros(t.size + 1, dtype=np.int64)
    lengths.cumsum(out=offsets[1:])
    if offsets[-1] > _ALONE_TOTAL:
        alone = np.flatnonzero(t >= _ALONE_TOTAL)
        if alone.size:
            j = np.empty_like(t)
            for i in alone.tolist():
                j[i] = _draw_alone(pa, pb, int(t[i]), float(u[i]), ramp)
            shared = np.flatnonzero(t < _ALONE_TOTAL)
            if shared.size:
                j[shared] = _draw_weighted(pa, pb, t[shared], u[shared], ramp, group)
            return j
    w = _segment_weights(pa, pb, t, offsets, ramp)
    return _draw_in_segments(w, offsets, lengths, u, group)


def _segment_weights(pa: np.ndarray, pb: np.ndarray, t: np.ndarray,
                     offsets: np.ndarray, ramp: np.ndarray) -> np.ndarray:
    """The weights pa[j] * pb[t_i - j], j = 0..t_i, of every segment i laid
    end to end from offsets[i]."""
    flat = int(offsets[-1])
    if flat >= _LONG_SEGMENTS * t.size:
        # few long segments: a product of two slices each, with no indices
        w = np.empty(flat)
        for o, ti in zip(offsets.tolist(), t.tolist()):
            np.multiply(pa[:ti + 1], pb[ti::-1], out=w[o:o + ti + 1])
        return w
    # j and t - j of every weight, each in one buffer of its own
    lengths = t + 1
    j = offsets[:-1].repeat(lengths)
    np.subtract(ramp[:flat], j, out=j)
    rest = (t + offsets[:-1]).repeat(lengths)
    rest -= ramp[:flat]
    w = pa[j]
    w *= pb[rest]
    return w


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
        # leaves are placed on every sample, so their indices are of the
        # type numpy indexes with, which spares a conversion each time
        levels.append((leaves, start[leaves].astype(np.intp), groups))
        if not groups:
            break
        size = np.concatenate(next_size)
        start = np.concatenate(next_start)
    return _Plan(levels)


class _Plan(list):
    """The levels of a split plan, in a list that a weak reference can
    name, so the cache finds the plan of a size without a scan."""


def _attained(tables: dict) -> int:
    """n, the length of the window ``tables[1]``, once n draws from it are
    known to reach the total n - 1."""
    n = tables[1].size
    if tables[n] <= 0.0:
        raise ValueError(
            f"total {n - 1} is unattainable by {n} draws from this law"
        )
    return n


def _bridge(tables: dict, plan: list, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. draws from the pmf window ``tables[1]`` (of length n >= 2)
    conditioned to sum to n-1; ``tables`` comes from _sum_pmf_tables and
    ``plan`` from _split_plan(n).  The n - 1 uniforms come from one
    rng.random call before any draw, and each group reads its own slice of
    them, in plan order."""
    n = _attained(tables)
    u = rng.random(n - 1)
    out = np.empty(n, dtype=np.int64)
    total = np.array([n - 1], dtype=np.int64)
    ramp = np.arange(2 * n)
    first = 0  # the uniform of the next group's first segment
    for leaf_at, leaf_out, groups in plan:
        if leaf_at.size:
            out[leaf_out] = total[leaf_at]
        parts = []
        for a, b, sel in groups:
            t = total[sel]
            j = _draw_group(tables, a, b, t, u[first:first + sel.size], ramp, sel.size)
            first += sel.size
            parts += [j, t - j]
        if parts:
            total = np.concatenate(parts)
    return out


def _bridge_max(tables: dict, plan: list, rng: np.random.Generator) -> int:
    """max(_bridge(tables, plan, rng)), bit for bit, with the same uniforms
    taken from rng, drawing only the segments that may hold it.

    A greedy descent draws one segment per level, always into the half of
    larger total, down to one value: the first lower bound.  Then the levels
    are walked as _bridge walks them, keeping only the live segments, those
    whose totals exceed the largest value found so far; a live segment that
    the descent drew keeps the halves it drew there."""
    n = _attained(tables)
    u = rng.random(n - 1)
    ramp = np.arange(2 * n)
    # the uniform of each level's first segment
    firsts = np.cumsum([0] + [sum(sel.size for *_, sel in groups)
                              for *_, groups in plan]).tolist()

    def split(level: int, at, total, size) -> list:
        """The halves of the segments of a level at level indices ``at``, of
        totals ``total`` and sizes ``size``: (indices, totals, sizes) in the
        next level, per group and side.  The r-th segment of a group takes
        the uniform at the group's first plus r, and its halves have level
        indices 2 * (the group's first segment in its level) + r and that
        plus the group's size."""
        parts, before = [], 0
        for a, b, sel in plan[level][2]:
            mine = np.flatnonzero(size == a + b)
            if mine.size:
                r = np.searchsorted(sel, at[mine])
                t = total[mine]
                j = _draw_group(tables, a, b, t, u[firsts[level] + before + r],
                                ramp, sel.size)
                left = 2 * before + r
                parts += [(left, j, np.full(r.size, a)),
                          (left + sel.size, t - j, np.full(r.size, b))]
            before += sel.size
        return parts

    at, total, size = root = (np.zeros(1, dtype=np.int64),
                              np.array([n - 1], dtype=np.int64), np.array([n]))
    descent = []  # per level: the segment it drew and that segment's halves
    while size[0] > 1:
        parts = split(len(descent), at, total, size)
        descent.append((at[0], parts))
        left, right = parts
        at, total, size = left if left[1][0] >= right[1][0] else right
    best = int(total[0])

    at, total, size = root  # the live segments of the level
    for level in range(len(plan)):
        live = total > best
        if not live.any():
            break
        at, total, size = at[live], total[live], size[live]
        parts = []
        if level < len(descent):
            drawn = at == descent[level][0]
            if drawn.any():
                parts += descent[level][1]
                at, total, size = at[~drawn], total[~drawn], size[~drawn]
        parts += split(level, at, total, size)
        at, total, size = (np.concatenate(x) for x in zip(*parts))
        leaf = size == 1
        if leaf.any():  # values, which then are at most best: never live
            best = max(best, int(total[leaf].max()))
    return best


def _conditioned(key, n: int, window, rng: np.random.Generator, draw=_bridge,
                 reach=None):
    """``draw`` (_bridge or _bridge_max) of n i.i.d. draws from the pmf
    ``window()`` on [0, n-1] conditioned to sum to n-1, and the tables they
    came from (``tables[1]`` is the window).  The entry of (key, n) is built
    from ``window()`` on a miss, so equal keys must give equal windows, and
    keeps the table prefixes that ``reach`` sets (see _kept_width).

    A draw whose total overflows a prefix starts again from rng's state
    before it, on the entry rebuilt with the reach doubled and past that
    total, which covers it and every total inside its segment."""
    def build(reach):
        return _sum_pmf_tables(window(), reach), _TABLES._shared_plan(n), reach

    entry = _TABLES.get((key, n), lambda: build(reach))
    # only kept prefixes can overflow; full tables never need the snapshot
    state = None if entry[2] is None else rng.bit_generator.state
    while True:
        tables, plan, reach = entry
        try:
            return draw(tables, plan, rng), tables
        except _Overflow as over:
            rng.bit_generator.state = state
            wider = max(2 * reach, over.args[0] + 1)
            entry = _TABLES.widen((key, n), entry, lambda: build(wider))
