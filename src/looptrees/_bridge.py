"""Direct sampling of i.i.d. offspring vectors conditioned on their total.

Splits the vector dyadically: the total of the left half given the overall
total has a density proportional to p_a(j) * p_b(T - j), where p_m is the pmf
of a sum of m offspring.  Those pmfs are computed by convolution on the window
[0, n-1], which is exact there because offspring counts are nonnegative and
every conditional total stays <= n-1.  The tables are built for the segment
sizes that the split plan of n holds (below), only the ~2*log2(n) distinct
half sizes, so the tables of one (law, n) are small and each sample costs
O(n log n).

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
_conditioned then has the cache replace the entry, under its lock, by one
built with the reach max(2 * reach, t + 1), which covers that total and
every total inside its segment, and runs the draw again on the uniforms it
already took: the same uniforms on the same floats, so the same draws, and
rng is read once.  cache_info() counts these widenings.

The split itself (each level's segment sizes, their grouping by size and
their order) depends on n alone, and is built as a split plan.  A level of
the plan holds its segments by size, so each group of equal sizes is a
slice of the level's totals, and the plan keeps no index arrays but the
output positions of the leaves.  One cache entry per (source key, n) holds
everything a draw of size n needs: the tables, the plan and the reach its
tables were kept to.  _conditioned is the one way in, for the offspring
laws of sample_conditioned_steps and sample_conditioned_max (laws with
equal values share an entry, see OffspringLaw._table_key) and for the block
pmfs of sample_boltzmann.  A build takes its plan from a held entry of the
same size if there is one, so the entries of one size share one plan
object (see _TableCache).  An entry is admitted only when
its key is reused: a fresh build stays only until the next build, unless a
hit admits it, and a key built before is admitted at once (see
_TableCache).  So a size drawn once, as most sizes of a sweep over n are,
leaves nothing behind but its key.  The admitted entries hold at most
_TABLE_CACHE_BYTES, least recently used out first, and the newest build
comes on top of them.  What a draw reads does not depend on any of this.
A warm sample only computes the segment totals and draws.

_conditioned checks that n draws can reach the total n - 1, and then takes
the sample's n - 1 uniforms, one per segment of size >= 2, in one call
rng.random(n - 1), before any draw: level by level, group by group within a
level and in plan order within a group.  Each segment inverts its own
conditional CDF at its uniform, in one of three forms, which _draw_group
chooses by its total and by the number of segments in its group of the plan
(its group's size):

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
from collections import OrderedDict
from itertools import groupby
from typing import NamedTuple

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

__all__ = ["sample_conditioned_max", "sample_conditioned_steps"]

# below this the quadratic convolution is cheap and exact to the last bit,
# which the small-size distribution tests rely on
_EXACT_CONV_LIMIT = 4096
# bytes of admitted bridge tables and split plans kept across calls, and the
# number of built keys remembered for admission (see _TableCache)
_TABLE_CACHE_BYTES = 128 * 2**20
_BUILT_KEYS = 4096
# the segments of totals <= _ROW_TOTAL in a group of at least _ROW_SEGMENTS
# segments draw from CDF rows; the tables hold rows for the size of every
# group of the split plan that holds that many, so n < 2 * _ROW_SEGMENTS
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
    tables built from the source's window and the split plan of n.  A build
    finds its plan among the held entries of its size, so they share one
    plan object, and each counts the plan's bytes as its own: a shared plan
    is counted once per entry that holds it, and the cache errs toward
    evicting early.  Once an entry is evicted, a draw in flight may hold the
    only reference to its plan, which the scan then misses; a build of that
    size meanwhile makes a second plan, which costs memory and changes no
    draw.  A miss builds under the lock, so threads that miss together
    build once.

    An entry is admitted only once its key has been reused, as the
    doorkeeper of TinyLFU (Einziger, Friedman and Manes, ACM TOS 2017)
    admits: most sizes are drawn once, and a reused key costs at most one
    extra build.  A fresh build starts out provisional, and stays only while
    it is the newest build: the next build drops it unread.  A hit admits
    it, and a key that the cache remembers building is admitted at once.
    The cache remembers the last _BUILT_KEYS keys it built, keys only.

    While the admitted entries hold more than ``limit`` bytes the least
    recently used goes, but the most recent stays even when it alone is
    larger, so any n still samples; the provisional entry does not count
    toward ``limit``, so one-off builds push out no admitted entry.  So the
    cache holds up to ``limit`` bytes of admitted entries (more only when
    the most recent alone is larger) plus the newest build, whatever its
    size.  The provisional entry is kept last in ``_entries``, behind the
    admitted ones in least recently used order."""

    def __init__(self, limit: int):
        self.limit = limit
        self._entries: OrderedDict = OrderedDict()  # key -> (value, bytes)
        self._trial = None  # the key of the provisional entry, if there is one
        self._built: dict = {}  # the keys built, oldest first; values unused
        self._lock = threading.Lock()
        self._reset_counts()

    def _reset_counts(self) -> None:
        self.hits = self.misses = self.widened = self.bytes = 0
        self.admitted = self.dropped = 0

    def get(self, key, build):
        """The value under ``key``, from ``build()`` on a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
                if key == self._trial:
                    self._trial = None
                    self.admitted += 1
                    self._evict()
                else:
                    self._touch(key)
                return entry[0]
            self.misses += 1
            return self._put(key, build())

    def widen(self, key, seen, build):
        """The value under ``key`` once a draw from ``seen`` overflowed:
        ``build()`` in place of ``seen``, or the value that already replaced
        it, so threads that overflow one entry together widen it once.  The
        entry keeps its status; one that has left meanwhile comes back as a
        build of a remembered key."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0] is not seen:
                return entry[0]
            self.widened += 1
            value = build()
            if entry is None:
                return self._put(key, value)
            size = _nbytes(value)
            self._entries[key] = (value, size)
            self.bytes += size - entry[1]
            if key != self._trial:
                self._touch(key)
                self._evict()
            return value

    def _put(self, key, value):
        """Hold a fresh build of ``key``, which drops the provisional entry
        before it: admitted when the key was built before, else provisional."""
        if self._trial is not None:
            self.bytes -= self._entries.pop(self._trial)[1]
            self._trial = None
            self.dropped += 1
        size = _nbytes(value)
        self._entries[key] = (value, size)
        self.bytes += size
        if key in self._built:
            self.admitted += 1
            self._evict()
            del self._built[key]
        else:
            self._trial = key
        self._built[key] = None
        if len(self._built) > _BUILT_KEYS:
            del self._built[next(iter(self._built))]
        return value

    def _touch(self, key) -> None:
        """Make the admitted entry ``key`` the most recently used."""
        self._entries.move_to_end(key)
        if self._trial is not None:
            self._entries.move_to_end(self._trial)

    def _evict(self) -> None:
        """Drop the least recently used admitted entries while the admitted
        ones hold more than ``limit`` bytes, down to the most recent one."""
        held, keep = self.bytes, 1
        if self._trial is not None:
            held -= self._entries[self._trial][1]
            keep = 2
        while held > self.limit and len(self._entries) > keep:
            size = self._entries.popitem(last=False)[1][1]
            held -= size
            self.bytes -= size

    def _shared_plan(self, n: int) -> _Plan:
        """The split plan that a held entry of size n holds, found by a scan
        of the entries, else a new one; a build calls it, under the lock."""
        for (_, m), (value, _) in self._entries.items():
            if m == n:
                return value[1]
        return _split_plan(n)

    def by_length(self, key) -> dict:
        """{n: tables} of the entries cached for one source key."""
        with self._lock:
            return {k[1]: e[0][0] for k, e in self._entries.items() if k[0] == key}

    def info(self) -> dict:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "widened": self.widened, "admitted": self.admitted,
                    "dropped": self.dropped, "remembered": len(self._built),
                    "entries": len(self._entries), "bytes": self.bytes}

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._built.clear()
            self._trial = None
            self._reset_counts()


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
    """Counts of the shared bridge-table cache (see _TableCache): hits,
    misses, widened entries (see _conditioned), entries admitted, provisional
    entries dropped unread, keys remembered as built, and the entries held
    and their bytes, the provisional entry's included."""
    return _TABLES.info()


def _sum_pmf_tables(window: np.ndarray, plan: _Plan, reach=None) -> dict:
    """pmf of S_m on [0, n-1] for every segment size m < n that ``plan``,
    the split plan of n, holds, built by convolution from ``window``, the
    single-draw pmf on [0, n-1].  Of S_n the bridge reads only
    P(S_n = n-1), so ``tables[n]`` holds that one value: 0.0 when no n draws
    sum to n-1.  For each size m of a group of at least _ROW_SEGMENTS
    segments in the plan, ``tables[("rows", m)]`` and ``tables[("guide",
    m)]`` hold its CDF rows and their guide (see _cdf_rows).  Above
    _EXACT_CONV_LIMIT a ``reach`` other than None keeps only the prefix
    _kept_width(m, n, reach) of each table m."""
    n = window.size
    tables = {1: window}
    held = [(a + b, count) for *_, groups in plan.levels
            for a, b, _, count, *_ in groups]
    sizes = sorted({m for m, _ in held} - {n})
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
    for m in sorted({m for m, count in held if count >= _ROW_SEGMENTS}):
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
    at the uniforms u, each in the form that its total and ``group``, the
    number of segments in their group of the plan, choose: CDF rows, alone or
    the shared sum (see the module docstring).  ``group`` also sets the
    shared sum's units, so each segment draws the same whichever others of
    its group come with it.  Raises _Overflow when a total reaches past a
    half's kept prefix, where a slice would silently come out short."""
    pa, pb = tables[a], tables[b]
    top = int(t.max())
    if top >= min(pa.size, pb.size):
        raise _Overflow(top)
    rows = group >= _ROW_SEGMENTS  # the plan gave this size rows
    if not rows and top < _ALONE_TOTAL:
        return _draw_shared(pa, pb, t, u, ramp, group)
    j = np.empty_like(t)
    shared = np.ones(t.size, dtype=bool)
    if rows:
        small = t <= _ROW_TOTAL
        j[small] = _draw_rows(tables[("rows", a + b)], tables[("guide", a + b)],
                              t[small], u[small])
        shared = ~small
    if top >= _ALONE_TOTAL:
        alone = t >= _ALONE_TOTAL
        for i in np.flatnonzero(alone).tolist():
            j[i] = _draw_alone(pa, pb, int(t[i]), float(u[i]), ramp)
        shared &= ~alone
    rest = np.flatnonzero(shared)
    if rest.size:
        j[rest] = _draw_shared(pa, pb, t[rest], u[rest], ramp, group)
    return j


def _draw_shared(pa: np.ndarray, pb: np.ndarray, t: np.ndarray, u: np.ndarray,
                 ramp: np.ndarray, group: int) -> np.ndarray:
    """The left-half totals of segments with totals t and halves of pmfs pa
    and pb, drawn at the uniforms u on one shared cumulative sum in the units
    of a group of ``group`` segments, from the weights pa[j] * pb[t_i - j],
    j = 0..t_i, of every segment i laid end to end."""
    lengths = t + 1
    offsets = np.zeros(t.size + 1, dtype=np.int64)
    lengths.cumsum(out=offsets[1:])
    flat = int(offsets[-1])
    if flat >= _LONG_SEGMENTS * t.size:
        # few long segments: a product of two slices each, with no indices
        w = np.empty(flat)
        for o, ti in zip(offsets.tolist(), t.tolist()):
            np.multiply(pa[:ti + 1], pb[ti::-1], out=w[o:o + ti + 1])
    else:
        # j and t - j of every weight, each in one buffer of its own
        j = offsets[:-1].repeat(lengths)
        np.subtract(ramp[:flat], j, out=j)
        rest = (t + offsets[:-1]).repeat(lengths)
        rest -= ramp[:flat]
        w = pa[j]
        w *= pb[rest]
    return _draw_in_segments(w, offsets, lengths, u, group)


class _Plan(NamedTuple):
    """A split plan (see _split_plan) and ``ramp``, np.arange(2 * n), which
    draws slice their indices from.  Made once per plan, the ramp spares
    each sample an allocation of 16n bytes, which at n = 1e5 the allocator
    may map and unmap again on every sample."""

    levels: list
    ramp: np.ndarray


def _split_plan(n: int) -> _Plan:
    """The dyadic split of n positions, level by level: everything about it
    that depends on n alone.  A level holds its segments by size: the size-1
    segments first, then one run per size m >= 2, ascending, and each run in
    the order the level above gives it.  So each group of equal sizes is a
    slice of the level, and only the leaves need indices.  A build makes
    one only when no held cache entry of size n has one (see _TableCache).

    Each level is (leaf_out, shift, groups): the output positions of its
    first leaf_out.size segments, those of size 1; the shift that makes
    u[shift + p] the uniform of its segment p >= leaf_out.size; then one
    (a, b, at, count, left, right) per run: its halves have sizes a + b = m,
    it holds the level's segments at..at + count - 1, and the halves of its
    r-th segment are the next level's segments left + r and right + r.  The
    next level holds the halves of its runs by size, and those of one size
    in the order of the runs, the left halves of a run before its right
    ones."""
    levels, size, first = [], operator.itemgetter(0), 0
    runs = [(n, np.zeros(1, dtype=np.intp))]  # (size, output starts) per run
    while runs:
        leaf_out = runs.pop(0)[1] if runs[0][0] == 1 else np.zeros(0, dtype=np.intp)
        groups, halves, at = [], [], leaf_out.size
        for m, start in runs:
            a = (m + 1) // 2
            groups.append((a, m - a, at, start.size))
            halves += [(a, len(halves), start), (m - a, len(halves) + 1, start + a)]
            at += start.size
        shift, first = first - leaf_out.size, first + at - leaf_out.size
        halves.sort(key=size)  # stable: one size's halves keep their order
        place, at = [0] * len(halves), 0
        for _, h, start in halves:
            place[h], at = at, at + start.size
        levels.append((leaf_out, shift, [(*g, place[2 * i], place[2 * i + 1])
                                         for i, g in enumerate(groups)]))
        runs = [(m, np.concatenate([h[2] for h in hs]))
                for m, hs in groupby(halves, size)]
    ramp = np.arange(2 * n)
    ramp.flags.writeable = False  # shared by every draw of size n
    return _Plan(levels, ramp)


def _bridge(tables: dict, plan: _Plan, u: np.ndarray) -> np.ndarray:
    """n i.i.d. draws from the pmf window ``tables[1]`` (of length n >= 2)
    conditioned to sum to n-1; ``tables`` comes from _sum_pmf_tables and
    ``plan`` from _split_plan(n).  Each group reads its own slice of the n - 1
    uniforms ``u``, in plan order."""
    n = tables[1].size
    out = np.empty(n, dtype=np.int64)
    total = np.array([n - 1], dtype=np.int64)
    for leaf_out, shift, groups in plan.levels:
        out[leaf_out] = total[:leaf_out.size]
        halves = np.empty(2 * (total.size - leaf_out.size), dtype=np.int64)
        for a, b, at, count, left, right in groups:
            t = total[at:at + count]
            j = _draw_group(tables, a, b, t, u[shift + at:shift + at + count],
                            plan.ramp, count)
            halves[left:left + count] = j
            np.subtract(t, j, out=halves[right:right + count])
        total = halves
    return out


def _bridge_max(tables: dict, plan: _Plan, u: np.ndarray) -> int:
    """max(_bridge(tables, plan, u)), bit for bit, drawing only the segments
    that may hold it, each at the uniform _bridge gives it.

    A greedy descent draws one segment per level, always into the half of
    larger total, down to one value: the first lower bound.  Then the levels
    are walked as _bridge walks them, keeping only the live segments, those
    whose totals exceed the largest value found so far; a live segment that
    the descent drew keeps the halves it drew there.  A segment is known by
    its level and its position in that level."""
    n = tables[1].size
    levels = plan.levels

    def split(level: int, at, total) -> list:
        """The halves of the segments at positions ``at`` of a level, of
        totals ``total``: (positions, totals) in the next level, per group
        and side."""
        _, shift, groups = levels[level]
        parts = []
        for a, b, k, count, left, right in groups:
            mine = np.flatnonzero((at >= k) & (at < k + count))
            if mine.size:
                p, t = at[mine], total[mine]
                j = _draw_group(tables, a, b, t, u[shift + p], plan.ramp, count)
                parts += [(left - k + p, j), (right - k + p, t - j)]
        return parts

    at, total = root = np.zeros(1, dtype=np.int64), np.array([n - 1], dtype=np.int64)
    descent = []  # per level: the segment it drew and that segment's halves
    while at[0] >= levels[len(descent)][0].size:  # down to a leaf
        parts = split(len(descent), at, total)
        descent.append((at[0], parts))
        left, right = parts
        at, total = left if left[1][0] >= right[1][0] else right
    best = int(total[0])

    at, total = root  # the live segments of the level
    for level in range(len(levels)):
        live = total > best
        if not live.any():
            break
        at, total = at[live], total[live]
        parts = []
        if level < len(descent):
            drawn = at == descent[level][0]
            if drawn.any():
                parts += descent[level][1]
                at, total = at[~drawn], total[~drawn]
        parts += split(level, at, total)
        at, total = (np.concatenate(x) for x in zip(*parts))
        leaf = at < levels[level + 1][0].size
        if leaf.any():  # values, which then are at most best: never live
            best = max(best, int(total[leaf].max()))
    return best


def _conditioned(key, n: int, window, rng: np.random.Generator, draw=_bridge,
                 reach=None):
    """``draw`` (_bridge or _bridge_max) of n i.i.d. draws from the pmf
    ``window()`` on [0, n-1] conditioned to sum to n-1, and the tables they
    came from (``tables[1]`` is the window).  The entry of (key, n) is built
    from ``window()`` on a miss, so equal keys must give equal windows: the
    tables of the sizes its split plan holds, kept to the prefixes that
    ``reach`` sets (see _kept_width).

    Once n - 1 is known to be attainable, the sample takes its n - 1
    uniforms from one rng.random call before any draw.  A draw whose total
    overflows a prefix runs again on the same uniforms, on the entry rebuilt
    with the reach doubled and past that total, which covers it and every
    total inside its segment."""
    def build(reach):
        plan = _TABLES._shared_plan(n)
        return _sum_pmf_tables(window(), plan, reach), plan, reach

    entry = _TABLES.get((key, n), lambda: build(reach))
    if entry[0][n] <= 0.0:
        raise ValueError(f"total {n - 1} is unattainable by {n} draws from this law")
    u = rng.random(n - 1)
    while True:
        tables, plan, reach = entry
        try:
            return draw(tables, plan, u), tables
        except _Overflow as over:
            wider = max(2 * reach, over.args[0] + 1)
            entry = _TABLES.widen((key, n), entry, lambda: build(wider))
