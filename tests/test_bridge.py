"""The bridge's shared table cache, its split plan, its draws, its FFT
convolution and its attainability check."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

import looptrees
from looptrees import _bridge
from looptrees._bridge import (
    _ALONE_TOTAL,
    _EXACT_CONV_LIMIT,
    _ROW_SEGMENTS,
    _ROW_TOTAL,
    _TableCache,
    _draw_in_segments,
    _nbytes,
    _split_plan,
    _sum_pmf_tables,
    cache_info,
    sample_conditioned_max,
    sample_conditioned_steps,
)
from looptrees.dissection import _block_pmf, sample_boltzmann
from looptrees.gw_tree import OffspringLaw, sample_conditioned_tree, stable_offspring

from conftest import bridge_by_levels, half_sizes_by_search


@pytest.fixture
def fresh_cache():
    _bridge._TABLES.clear()
    yield
    _bridge._TABLES.clear()


def _entry(floats: int):
    return lambda: {1: np.zeros(floats)}


def _refuse():
    raise AssertionError("a cached key was built again")


# ---- the shared cache ----

def _entry_bytes(tables: dict, plan: list) -> int:
    return sum(t.nbytes for t in tables.values()) + _nbytes(plan)


def test_equal_laws_share_one_entry(fresh_cache):
    a, b = stable_offspring(1.5), stable_offspring(1.5)
    assert a is not b and a._table_key == b._table_key
    xa = sample_conditioned_steps(a, 300, np.random.default_rng(1))
    xb = sample_conditioned_steps(b, 300, np.random.default_rng(1))
    # one lookup per sample: the entry holds the tables and the plan
    info = cache_info()
    assert (info["hits"], info["misses"], info["entries"]) == (1, 1, 1)
    assert np.array_equal(xa, xb)
    tables = a._bridge_tables
    assert list(tables) == [300]
    assert info["bytes"] == _entry_bytes(tables[300], _split_plan(300))
    # a longer stored table is another key, with the same values; each key
    # is sampled twice, so its entry is admitted and the next build keeps it
    c = stable_offspring(1.5, cutoff=64)
    assert c._table_key != a._table_key
    for seed in (1, 2):
        xc = sample_conditioned_steps(c, 300, np.random.default_rng(seed))
        if seed == 1:
            assert np.array_equal(xa, xc)
    assert cache_info()["entries"] == 2
    assert stable_offspring(1.5, "no-unary")._table_key != a._table_key
    # stored tables of one length but other values are other keys
    for probs in ([0.5, 0.0, 0.5], [0.25, 0.5, 0.25]):
        for seed in (1, 2):
            x = sample_conditioned_steps(OffspringLaw.from_probabilities(probs), 301,
                                         np.random.default_rng(seed))
            assert set(x.tolist()) <= {k for k, p in enumerate(probs) if p > 0}
    assert cache_info()["entries"] == 4


def test_second_law_at_one_size_builds_no_second_plan(fresh_cache, monkeypatch):
    # _split_plan runs once per size: two laws at one n, and the block
    # tables of sample_boltzmann at that n, hold one plan object; each key
    # is drawn twice, so its entry is admitted and outlives the next build
    plans = []

    def counting(n):
        plans.append(n)
        return _split_plan(n)

    monkeypatch.setattr(_bridge, "_split_plan", counting)
    n, m = 2000, 300
    first, second = stable_offspring(1.5), stable_offspring(1.2, "no-unary")
    for law, size in ((first, n), (first, m), (second, n)):
        for seed in range(2):
            sample_conditioned_steps(law, size, np.random.default_rng(seed))
    for seed in range(2):
        sample_boltzmann(second, n, np.random.default_rng(seed))
    assert plans == [n, m]
    info = cache_info()
    assert (info["hits"], info["misses"], info["entries"]) == (4, 4, 4)
    entries = _bridge._TABLES._entries
    keys = [(first._table_key, n), (second._table_key, n),
            (("blocks", second._table_key), n)]
    plan = entries[keys[0]][0][1]
    assert all(entries[key][0][1] is plan for key in keys)
    assert entries[(first._table_key, m)][0][1] is not plan
    # block entries are no law's tables
    assert sorted(first._bridge_tables) == [m, n]
    assert list(second._bridge_tables) == [n]


def test_shared_plan_counts_in_every_entry_that_holds_it(fresh_cache):
    # each entry counts its plan's bytes as its own, so a plan shared by k
    # entries counts k times and the cache errs toward evicting early
    n = 2000
    laws = [stable_offspring(1.5), stable_offspring(1.2)]
    for law in laws:
        for seed in range(2):  # reused, so admitted
            sample_conditioned_steps(law, n, np.random.default_rng(seed))
    plan = _bridge._TABLES._entries[(laws[0]._table_key, n)][0][1]
    assert cache_info()["bytes"] == sum(_entry_bytes(law._bridge_tables[n], plan)
                                        for law in laws)


def test_tables_that_fill_the_cache_keep_their_plan(fresh_cache, monkeypatch):
    # an entry larger than the bound is built once and stays the only entry,
    # plan included, however often its size is sampled
    monkeypatch.setattr(_bridge._TABLES, "limit", 2**20)
    builds = []

    def counting(window, plan, reach=None):
        builds.append(window.size)
        return _sum_pmf_tables(window, plan, reach)

    monkeypatch.setattr(_bridge, "_sum_pmf_tables", counting)
    sample_conditioned_steps(stable_offspring(1.2), 300, np.random.default_rng(0))
    law, n = stable_offspring(1.5), 20000
    for seed in range(3):
        sample_conditioned_steps(law, n, np.random.default_rng(seed))
    assert builds == [300, n]
    info = cache_info()
    assert (info["hits"], info["misses"], info["entries"]) == (2, 2, 1)
    assert info["bytes"] > 2**20 and list(law._bridge_tables) == [n]
    assert info["bytes"] == _entry_bytes(law._bridge_tables[n], _split_plan(n))


def test_boltzmann_builds_block_tables_once_per_law_values_and_size(fresh_cache,
                                                                    monkeypatch):
    from looptrees import dissection

    blocks, builds = [], []

    def counting_blocks(mu):
        blocks.append(mu.size - 1)
        return _block_pmf(mu)

    def counting_tables(window, plan, reach=None):
        builds.append(window.size)
        return _sum_pmf_tables(window, plan, reach)

    monkeypatch.setattr(dissection, "_block_pmf", counting_blocks)
    monkeypatch.setattr(_bridge, "_sum_pmf_tables", counting_tables)
    # each size is drawn three times in a row, so its entry is admitted at
    # the first hit; a size drawn once would be dropped by the next build
    for n in (3, 40):
        for seed in range(3):
            law = stable_offspring(1.5, "no-unary")  # a new object each time
            want = sample_boltzmann(law, n, np.random.default_rng(seed))
            assert want.n_sides == n + 1
    sample_boltzmann(stable_offspring(1.2, "no-unary"), 40, np.random.default_rng(0))
    assert blocks == builds == [3, 40, 40]
    # the cached tables draw what freshly built ones drew
    _bridge._TABLES.clear()
    assert sample_boltzmann(law, 40, np.random.default_rng(2)) == want


def test_eviction_drops_least_recently_used_bytes_first():
    # the order among admitted entries; each is read once after its build,
    # which admits it
    cache = _TableCache(limit=3 * 800)
    for key in "abc":
        cache.get(key, _entry(100))  # 800 bytes each
        cache.get(key, _refuse)
    cache.get("a", _refuse)  # a is now the most recent
    cache.get("d", _entry(100))  # provisional: it pushes out nothing
    assert list(cache._entries) == ["b", "c", "a", "d"]
    cache.get("d", _refuse)  # admitted: b, the least recently used, goes
    assert list(cache._entries) == ["c", "a", "d"]
    assert cache.info() == {"hits": 5, "misses": 4, "widened": 0, "admitted": 4,
                            "dropped": 0, "remembered": 4, "entries": 3,
                            "bytes": 2400}
    cache.get("e", _entry(200))
    cache.get("e", _refuse)  # 1600 bytes push out c and then a
    assert list(cache._entries) == ["d", "e"]
    assert cache.info()["bytes"] == 2400


def test_oversized_newest_entry_is_kept():
    cache = _TableCache(limit=1000)
    cache.get("small", _entry(100))
    big = cache.get("big", _entry(1000))
    assert list(cache._entries) == ["big"] and cache.info()["bytes"] == 8000
    assert cache.get("big", _refuse) is big
    cache.get("small", _entry(100))
    assert list(cache._entries) == ["small"] and cache.info()["bytes"] == 800


def test_one_off_sizes_leave_only_the_newest_entry(fresh_cache):
    law, sizes = stable_offspring(1.5), range(2, 202)
    for n in sizes:
        sample_conditioned_steps(law, n, np.random.default_rng(n))
    info = cache_info()
    assert (info["misses"], info["hits"], info["admitted"]) == (200, 0, 0)
    assert (info["dropped"], info["remembered"], info["entries"]) == (199, 200, 1)
    n = sizes[-1]
    assert list(law._bridge_tables) == [n]
    assert info["bytes"] == _entry_bytes(law._bridge_tables[n], _split_plan(n))


def test_a_hit_or_a_second_build_admits_an_entry():
    cache = _TableCache(limit=10**6)
    cache.get("a", _entry(100))
    cache.get("b", _entry(100))  # drops a, which was never read again
    assert list(cache._entries) == ["b"]
    assert (cache.info()["admitted"], cache.info()["dropped"]) == (0, 1)
    cache.get("b", _refuse)  # a hit admits b
    cache.get("c", _entry(100))  # provisional, behind b
    assert list(cache._entries) == ["b", "c"]
    again = cache.get("a", _entry(100))  # a second build is admitted at once
    assert list(cache._entries) == ["b", "a"]
    cache.get("d", _entry(100))  # which the next build leaves in place
    assert list(cache._entries) == ["b", "a", "d"]
    assert cache.get("a", _refuse) is again
    info = cache.info()
    assert (info["hits"], info["misses"]) == (2, 5)
    assert (info["admitted"], info["dropped"], info["remembered"]) == (2, 2, 4)
    assert info["bytes"] == 3 * 800


def test_admitted_entry_survives_one_off_builds_past_the_limit():
    cache = _TableCache(limit=1000)
    kept = cache.get("kept", _entry(100))
    cache.get("kept", _refuse)
    for k in range(5):  # each one-off alone is 8000 bytes, eight times the limit
        cache.get(k, _entry(1000))
        assert list(cache._entries) == ["kept", k]
        assert cache.info()["bytes"] == 800 + 8000
    assert cache.get("kept", _refuse) is kept
    info = cache.info()
    assert (info["admitted"], info["dropped"], info["entries"]) == (1, 4, 2)


def test_cache_holds_its_limit_plus_the_newest_build():
    # the worst case: admitted entries fill the limit, and a one-off build of
    # any size comes on top of them
    cache = _TableCache(limit=2 * 800)
    for key in "ab":
        cache.get(key, _entry(100))
        cache.get(key, _refuse)
    cache.get("big", _entry(10**4))
    assert list(cache._entries) == ["a", "b", "big"]
    assert cache.info()["bytes"] == cache.limit + 8 * 10**4
    cache.get("big", _refuse)  # admitted, it alone stays
    assert list(cache._entries) == ["big"]
    assert cache.info()["bytes"] == 8 * 10**4


def test_widen_keeps_an_entrys_status():
    cache = _TableCache(limit=10**6)
    cache.get("a", _entry(100))
    cache.get("a", _refuse)  # admitted
    narrow = cache.get("p", _entry(100))  # provisional
    wide = cache.widen("p", narrow, _entry(300))
    assert cache.widen("p", narrow, _refuse) is wide  # widened once
    cache.get("q", _entry(100))  # the widened provisional entry goes unread
    assert list(cache._entries) == ["a", "q"]
    seen = cache.get("q", _refuse)  # admitted
    cache.get("a", _refuse)
    cache.get("r", _entry(100))  # provisional
    assert list(cache._entries) == ["q", "a", "r"]
    cache.widen("q", seen, _entry(200))  # stays admitted, now the most recent
    assert list(cache._entries) == ["a", "q", "r"]
    cache.get("s", _entry(100))
    assert list(cache._entries) == ["a", "q", "s"]
    info = cache.info()
    assert (info["widened"], info["admitted"], info["dropped"]) == (2, 2, 2)
    assert info["bytes"] == (100 + 200 + 100) * 8


def test_record_of_built_keys_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(_bridge, "_BUILT_KEYS", 3)
    cache = _TableCache(limit=10**6)
    for k in range(10):
        cache.get(k, _entry(1))
        assert cache.info()["remembered"] == min(k + 1, 3)
    assert list(cache._built) == [7, 8, 9]
    cache.get(0, _entry(1))  # forgotten: provisional again
    assert cache.info()["admitted"] == 0
    cache.get(8, _entry(1))  # remembered: admitted at once
    assert cache.info()["admitted"] == 1
    assert list(cache._built) == [9, 0, 8]
    assert list(cache._entries) == [8]


def test_threads_that_miss_together_build_once(fresh_cache, monkeypatch):
    builds = []

    def counting(window, plan, reach=None):
        builds.append(window.size)
        return _sum_pmf_tables(window, plan, reach)

    monkeypatch.setattr(_bridge, "_sum_pmf_tables", counting)
    law = stable_offspring(1.5)
    n, workers = 5000, 4
    barrier = threading.Barrier(workers, timeout=60)
    out = [None] * workers

    def draw(i):
        barrier.wait()
        out[i] = sample_conditioned_steps(law, n, np.random.default_rng(i))

    threads = [threading.Thread(target=draw, args=(i,)) for i in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert builds == [n]
    # one miss, and a hit for every other thread, the first of which admits
    # the entry
    info = cache_info()
    assert (info["hits"], info["misses"]) == (workers - 1, 1)
    assert (info["admitted"], info["dropped"], info["entries"]) == (1, 0, 1)
    for i, x in enumerate(out):
        assert np.array_equal(x, sample_conditioned_steps(law, n, np.random.default_rng(i)))


# ---- the split plan ----

def _critical_law(weights):
    """The critical law with masses proportional to ``weights`` on 1, 2, ...
    and the rest at 0."""
    w = np.asarray(weights, dtype=float)
    scale = 1.0 / float(np.dot(np.arange(1, w.size + 1), w))
    return OffspringLaw.from_probabilities(np.concatenate([[1.0 - scale * w.sum()],
                                                           scale * w]))


_laws = st.one_of(
    # finite laws, lattice ones such as {0, 3} included; mass at 2 or more
    st.builds(lambda w1, rest: _critical_law([w1] + rest), st.integers(0, 9),
              st.lists(st.integers(0, 9), min_size=1, max_size=5).filter(any)),
    st.builds(stable_offspring, st.sampled_from([1.05, 1.5, 1.95]),
              st.sampled_from(["generic", "no-unary"])),
)
# small sizes, sizes 2**k - 1, 2**k, 2**k + 1 and sizes either side of
# the exact-convolution limit
_sizes = st.one_of(
    st.integers(2, 300),
    st.sampled_from(sorted({2**k + d for k in range(1, 13) for d in (-1, 0, 1)} - {1})),
    st.integers(2, 6000),
)


def _outcome(draw):
    """The draws, or the type and message of the error they raise."""
    try:
        return draw()
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(law=_laws, n=_sizes, blocks=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(law=OffspringLaw.from_probabilities([2 / 3, 0, 0, 1 / 3]), n=4096,
         blocks=False, seed=0)
@example(law=OffspringLaw.from_probabilities([2 / 3, 0, 0, 1 / 3]), n=4097,
         blocks=True, seed=1)
@example(law=stable_offspring(1.5, "no-unary"), n=_EXACT_CONV_LIMIT + 1,
         blocks=True, seed=2)
def test_bridge_equals_level_oracle(law, n, blocks, seed):
    # the same draws bit for bit, and the same uniforms taken from rng: the
    # oracle takes one rng.random call per group, the bridge one per sample
    if blocks and law.forbids_unary:
        window = _block_pmf(law.pmf(np.arange(n + 1)))
    else:
        window = law.pmf(np.arange(n))
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    key = object()  # full tables of this window alone
    got = _outcome(lambda: _bridge._conditioned(key, n, lambda: window, rng)[0])
    tables = _bridge._TABLES._entries[(key, n)][0][0]
    want = _outcome(lambda: bridge_by_levels(tables, oracle_rng))
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert int(got.sum()) == n - 1
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(law=_laws, n=_sizes, seed=st.integers(0, 2**32 - 1))
@example(law=OffspringLaw.from_probabilities([2 / 3, 0, 0, 1 / 3]), n=4096, seed=0)
@example(law=OffspringLaw.from_probabilities([2 / 3, 0, 0, 1 / 3]), n=4097, seed=1)
def test_maximum_equals_the_full_samples(law, n, seed):
    # the largest step bit for bit, the same uniforms taken from rng, and
    # the same ValueError for an unattainable size; a precision error of
    # the full sample is raised again only if the maximum draws its segment
    rng, full_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _outcome(lambda: sample_conditioned_max(law, n, rng))
    want = _outcome(lambda: int(sample_conditioned_steps(law, n, full_rng).max()))
    if isinstance(want, tuple) and want[0] is RuntimeError:
        assert got == want or type(got) is int
    else:
        assert got == want and type(got) is type(want)
    assert rng.bit_generator.state == full_rng.bit_generator.state


def test_maximum_skips_a_segment_whose_draw_would_fail():
    # mu on {0, 100, 101} at n = 9901 (attainable): the FFT tables give a
    # size-2 segment a total that no two values make, so every full sample
    # below raises the precision error.  At seed 0 the maximum draws that
    # segment and raises it too; at seed 5 every such segment has a total
    # of at most 101, which the maximum finds first and so skips them all.
    law = OffspringLaw.from_probabilities([1 - 2 / 201] + [0] * 99 + [1 / 201] * 2)
    n = 9901
    for seed in (0, 5):
        with pytest.raises(RuntimeError, match="lost too much precision"):
            sample_conditioned_steps(law, n, np.random.default_rng(seed))
    with pytest.raises(RuntimeError, match="lost too much precision"):
        sample_conditioned_max(law, n, np.random.default_rng(0))
    rng, full_rng = np.random.default_rng(5), np.random.default_rng(5)
    assert sample_conditioned_max(law, n, rng) == 101
    # both took the sample's n - 1 uniforms before any draw
    full_rng.random(n - 1)
    assert rng.bit_generator.state == full_rng.bit_generator.state


@pytest.mark.parametrize("n", [2, 3, 4, 5, 17, 100, 4097])
def test_split_plan_covers_every_position_once(n):
    levels = _split_plan(n).levels
    placed = np.concatenate([leaf_out for leaf_out, *_ in levels])
    assert np.array_equal(np.sort(placed), np.arange(n))
    # one output position per leaf, and no other index array
    assert _nbytes(levels) == 8 * n
    (a, b, at, count, _, _), = levels[0][2]
    assert (a, b, at, count) == ((n + 1) // 2, n // 2, 0, 1)
    width, first = 1, 0  # the segments of the level, and its first uniform
    for leaf_out, shift, groups in levels:
        sizes = [a + b for a, b, *_ in groups]
        assert sizes == sorted(set(sizes)) and min(sizes, default=2) >= 2
        # the leaves and then the runs, one after the other, fill the level,
        # whose segments of size >= 2 read the next uniforms in level order
        ends = [leaf_out.size] + [at + count for _, _, at, count, _, _ in groups]
        assert [at for _, _, at, *_ in groups] == ends[:-1] and ends[-1] == width
        assert shift + leaf_out.size == first
        first += width - leaf_out.size
        # the halves of the runs fill the next level
        width = 0
        for side, count in sorted((side, count) for *_, count, left, right in groups
                                  for side in (left, right)):
            assert side == width
            width += count
    assert width == 0 and first == n - 1  # the last level holds leaves alone


def test_split_plan_keeps_one_read_only_ramp_and_counts_it():
    # draws slice their indices from it, so no sample makes its own
    n = 300
    plan = _split_plan(n)
    assert np.array_equal(plan.ramp, np.arange(2 * n))
    assert not plan.ramp.flags.writeable
    assert _nbytes(plan) == _nbytes(plan.levels) + 16 * n


def _planned(n):
    # the sizes the plan's groups hold, and those of at least _ROW_SEGMENTS
    # segments, which get CDF rows and their guide
    levels = _split_plan(n).levels
    assert _nbytes(levels) == 8 * n, n
    groups = [(a + b, count) for *_, gs in levels for a, b, _, count, _, _ in gs]
    return {m for m, _ in groups}, {m for m, count in groups if count >= _ROW_SEGMENTS}


def _assert_tables_hold_the_plan(n):
    _, often = _planned(n)
    window = stable_offspring(1.5).pmf(np.arange(n))
    keys = set(_sum_pmf_tables(window, _split_plan(n)))
    assert keys == {*half_sizes_by_search(n),
                    *((kind, m) for m in often for kind in ("rows", "guide"))}, n


def test_level_sizes_match_the_search_and_the_plan():
    # the plan's groups hold every size the halving reaches, and the tables
    # built from the plan hold those sizes.  Tables are built where that is
    # cheap; past that the plan's sizes are checked alone
    for n in [*range(2, 5000), 10**5, 10**5 + 7, 2**17, 999_983, 10**6]:
        sizes, often = _planned(n)
        assert sorted({1} | sizes) == half_sizes_by_search(n), n
        assert n >= 2 * _ROW_SEGMENTS or not often, n
    for n in [*range(2, 301), 1000, 4096]:
        _assert_tables_hold_the_plan(n)


@pytest.mark.parametrize("n", [2, 2047, 2048, 4097, 30001, 10**5])
def test_rows_cover_the_sizes_a_level_holds_often(n):
    # rows exist exactly for the segment sizes some level of the plan holds
    # at least _ROW_SEGMENTS times, so n < 2 * _ROW_SEGMENTS builds none
    _, often = _planned(n)
    assert bool(often) == (n >= 2 * _ROW_SEGMENTS)
    _assert_tables_hold_the_plan(n)


# ---- the draws ----

def test_tiny_segment_behind_many_is_drawn_from_its_own_cdf():
    # a segment of mass 1e-13 behind 1000 segments of mass 1: one cumulative
    # sum of the raw weights resolves it to about 1e-13 and drew j = 0 with
    # probability 0.567 in place of 0.3
    w = np.concatenate([np.full(2000, 0.5), [0.3e-13, 0.7e-13]])
    offsets = np.arange(0, w.size + 1, 2)
    rng = np.random.default_rng(14)
    draws = 4000
    lengths = np.diff(offsets)
    last = [_draw_in_segments(w.copy(), offsets, lengths, rng.random(lengths.size),
                                lengths.size)[-1]
            for _ in range(draws)]
    zeros = last.count(0)
    sigma = (0.3 * 0.7 / draws) ** 0.5
    assert abs(zeros / draws - 0.3) < 4 * sigma


@pytest.mark.parametrize("segments", [5, 3000])
def test_shared_draws_invert_each_segment_within_budget(segments):
    # segments of masses from 1e-250 to 1e250 and up to _ALONE_TOTAL weights,
    # some zero, in one group: each draw is its own segment's inverse CDF at
    # u to within 1e-9 of that segment's mass, and never a value of weight
    # 0; a group of few segments takes units above 2**53
    rng = np.random.default_rng(segments)
    lengths = np.concatenate([rng.integers(1, 60, segments), [_ALONE_TOTAL - 1, 1, 2]])
    rng.shuffle(lengths)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    w = rng.random(offsets[-1]) * (rng.random(offsets[-1]) < 0.7)
    w[offsets[1:] - 1] += 1e-3  # every segment has some mass
    w *= np.repeat(10.0 ** rng.uniform(-250, 250, lengths.size), lengths)
    u = rng.random(lengths.size)
    u[::4] = 0.0
    u[1::4] = 1.0 - 2.0**-53
    j = _draw_in_segments(w.copy(), offsets, lengths, u, lengths.size)
    for i, (o, length) in enumerate(zip(offsets[:-1].tolist(), lengths.tolist())):
        own = w[o:o + length]
        cdf = np.cumsum(own / own.sum())
        k = int(j[i])
        assert 0 <= k < length and own[k] > 0.0
        assert cdf[k] >= u[i] - 1e-9
        assert k == 0 or cdf[k - 1] <= u[i] + 1e-9


def test_a_draw_depends_on_its_own_segment_alone():
    # each segment's draw is the same whichever others of its group are
    # drawn with it, in all three forms: rows (totals <= _ROW_TOTAL in a
    # group of at least _ROW_SEGMENTS), alone (totals >= _ALONE_TOTAL) and
    # the shared sum, whose units the group's size sets.  Half the uniforms
    # sit on a step of their segment's CDF, where forms and units that are
    # each within budget still part ways
    n = 20000
    tables = _sum_pmf_tables(stable_offspring(1.5).pmf(np.arange(n)), _split_plan(n))
    ramp = np.arange(2 * n)
    rng = np.random.default_rng(3)
    rows = sorted(k[1] for k in tables if isinstance(k, tuple) and k[0] == "rows")
    big = half_sizes_by_search(n)[-5]
    for m, group in [(rows[0], 4000), (rows[-1], 4000), (rows[0], 600), (big, 600)]:
        a = (m + 1) // 2
        t = np.concatenate([rng.integers(1, _ROW_TOTAL + 1, _ROW_SEGMENTS + 200),
                            rng.integers(_ROW_TOTAL + 1, _ALONE_TOTAL, 200),
                            rng.integers(_ALONE_TOTAL, n, 2)])
        rng.shuffle(t)
        u = rng.random(t.size)
        for i in range(0, t.size, 2):
            w = tables[a][:t[i] + 1] * tables[m - a][t[i]::-1]
            u[i] = min((np.cumsum(w) / w.sum())[rng.integers(t[i])], 1.0 - 2.0**-53)
        whole = _bridge._draw_group(tables, a, m - a, t, u, ramp, group)
        assert np.all((whole >= 0) & (whole <= t))
        for part in (np.arange(0, t.size, 2), np.arange(1, t.size, 7),
                     *np.arange(0, t.size, 25)[:, None]):
            got = _bridge._draw_group(tables, a, m - a, t[part], u[part], ramp, group)
            assert np.array_equal(got, whole[part]), (m, group)


def test_largest_uniform_stays_in_a_lone_segment():
    # one segment takes about 2**61 units, where floats are 2**8 apart; u
    # times that count still rounds to less than it
    rng = np.random.default_rng(5)
    for length in rng.integers(600, _ALONE_TOTAL, 40).tolist():
        w = rng.random(length)
        j = _draw_in_segments(w, np.array([0, length]), np.array([length]),
                              np.array([1.0 - 2.0**-53]), 1)
        assert j.tolist() == [length - 1]


def test_extreme_uniforms_take_the_first_and_last_positive_weight():
    # support {0, 3}: u = 0 and the largest u below 1 must take a segment's
    # first and last values of positive weight, past zero weights at either
    # end, in the rows and alone
    law = OffspringLaw.from_probabilities([2 / 3, 0, 0, 1 / 3])
    n = 3 * _ROW_SEGMENTS
    tables = _sum_pmf_tables(law.pmf(np.arange(n)), _split_plan(n))
    # segments of size 3 split into 2 + 1: S_2 is in {0, 3, 6}, S_1 in {0, 3}
    t = np.array([3, 3, 6, 6, 9, 9])
    u = np.tile([0.0, 1.0 - 2.0**-53], 3)
    j = _bridge._draw_rows(tables[("rows", 3)], tables[("guide", 3)], t, u)
    assert j.tolist() == [0, 3, 3, 6, 6, 6]
    # a last weight of 1e-4 of the mass puts a step of row 1 in the last
    # cell of the guide, so the largest u is searched, and 1 + u rounds to 2
    pa, pb = np.ones(_ROW_TOTAL + 1), np.ones(_ROW_TOTAL + 1)
    pa[1] = 1e-4
    rows, guide = _bridge._cdf_rows(pa, pb)
    u = np.array([0.0, 1.0 - 2.0**-53])
    j = _bridge._draw_rows(rows, guide, np.array([1, 1]), u)
    assert j.tolist() == [0, 1]
    # alone: pa = S_4098 and pb = S_1 leave j = t - 3 and j = t only
    t = _ALONE_TOTAL + 2
    k = np.arange(t // 3 + 1)
    pa = np.zeros(t + 1)
    pa[3 * k] = binom.pmf(k, t, 1 / 3)
    pb = law.pmf(np.arange(t + 1))
    ramp = np.arange(2 * (t + 1))
    assert [_bridge._draw_alone(pa, pb, t, ui, ramp)
            for ui in (0.0, 1.0 - 2.0**-53)] == [t - 3, t]


# ---- the convolution tables ----

@pytest.mark.parametrize("variant", ["generic", "no-unary"])
@pytest.mark.parametrize("alpha", [1.05, 1.5, 1.95])
def test_fft_convolution_matches_fftconvolve(alpha, variant):
    from scipy.signal import fftconvolve  # the oracle; the package avoids it

    law = stable_offspring(alpha, variant)
    # 2 * 5063 - 1 = 3**4 * 5**3 is itself a fast length
    for n in (_EXACT_CONV_LIMIT + 1, 5063, 30001):
        tables = _sum_pmf_tables(law.pmf(np.arange(n)), _split_plan(n))
        for m in half_sizes_by_search(n)[1:-1]:
            table = tables[m]
            a = (m + 1) // 2
            want = np.clip(fftconvolve(tables[a], tables[m - a])[:n], 0.0, None)
            assert np.array_equal(table, want), (n, m)
            assert table.base is None  # owns its memory; pins no larger buffer


def test_fft_tables_transform_each_table_once(monkeypatch):
    # each table is transformed once, however many sizes take it as a half,
    # and each table above the limit comes from one inverse transform
    counts = {"rfft": 0, "irfft": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(_bridge, "rfft", counting("rfft", _bridge.rfft))
    monkeypatch.setattr(_bridge, "irfft", counting("irfft", _bridge.irfft))
    n = 30001
    _sum_pmf_tables(stable_offspring(1.5).pmf(np.arange(n)), _split_plan(n))
    sizes = half_sizes_by_search(n)[1:-1]
    halves = {h for m in sizes for h in ((m + 1) // 2, m // 2)}
    assert counts == {"rfft": len(halves), "irfft": len(sizes)}
    assert len(halves) < sum(2 - (m % 2 == 0) for m in sizes)  # the old count


@pytest.mark.parametrize("n", [2, 3, 64, 1000, _EXACT_CONV_LIMIT])
def test_total_matches_full_table(n):
    # tables[n] is the one value of S_n's pmf that the bridge reads, summed
    # in another order than the full convolution
    law = stable_offspring(1.5, "no-unary")
    mu = law.pmf(np.arange(n + 1))
    for window in (law.pmf(np.arange(n)), _block_pmf(mu)):
        tables = _sum_pmf_tables(window, _split_plan(n))
        a = (n + 1) // 2
        full = np.convolve(tables[a], tables[n - a])[n - 1]
        assert tables[n] == pytest.approx(full, rel=1e-12, abs=0.0)


def test_import_leaves_scipy_signal_out():
    code = "import sys, looptrees; print('scipy.signal' in sys.modules)"
    src = str(Path(looptrees.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "False"


# ---- kept table prefixes above the exact-convolution limit ----

def _full_width(law, n: int, seeds) -> dict:
    """What each seed gives from full-width tables of (law, n), drawn
    through _conditioned under a key of their own: per seed and draw
    (_bridge or _bridge_max), the values or the error, and rng's state
    after it."""
    window = law.pmf(np.arange(n))
    key = ("full width", law._table_key)
    out = {}
    for seed in seeds:
        for draw in (_bridge._bridge, _bridge._bridge_max):
            rng = np.random.default_rng(seed)
            got = _outcome(
                lambda: _bridge._conditioned(key, n, lambda: window, rng, draw)[0])
            out[seed, draw] = got, rng.bit_generator.state
    return out


def _same_as_full_width(law, n: int, seed: int, full) -> None:
    # the cached (cropped) entry against full-width tables: the same values
    # or the same error, and the same uniforms taken from rng
    for sample, draw in ((sample_conditioned_steps, _bridge._bridge),
                         (sample_conditioned_max, _bridge._bridge_max)):
        rng = np.random.default_rng(seed)
        got = _outcome(lambda: sample(law, n, rng))
        want, state = full[seed, draw]
        if isinstance(want, tuple):
            assert got == want
        else:
            assert np.array_equal(got, want)
        assert rng.bit_generator.state == state


# a finite law of variance 1
_FINITE = OffspringLaw.from_probabilities([0.4, 0.3, 0.2, 0.1])


@pytest.mark.parametrize("n", [3000, _EXACT_CONV_LIMIT, _EXACT_CONV_LIMIT + 1, 30001])
@pytest.mark.parametrize("law", [stable_offspring(1.05), stable_offspring(1.5),
                                 stable_offspring(1.95, "no-unary"), _FINITE],
                         ids=repr)
def test_kept_prefixes_draw_as_full_tables_do(fresh_cache, law, n):
    full = _full_width(law, n, range(4))
    for seed in range(4):
        _same_as_full_width(law, n, seed, full)
    assert cache_info()["widened"] == 0


def test_lattice_law_draws_as_full_tables_do(fresh_cache):
    # a finite law keeps prefixes at every n, exact convolution or FFT;
    # 4097 and 5000 are unattainable for the support {0, 3} and build
    # nothing, 3001, 4096 and 5002 are attainable
    law = OffspringLaw.from_probabilities([2 / 3, 0, 0, 1 / 3])
    for n in (3001, _EXACT_CONV_LIMIT, _EXACT_CONV_LIMIT + 1, 5000, 5002):
        full = _full_width(law, n, [0])
        _same_as_full_width(law, n, 0, full)
        entry = _bridge._TABLES._entries.get((law._table_key, n))
        if (n - 1) % 3:
            assert entry is None
            continue
        tables, _, reach = entry[0]
        assert reach == math.ceil(_bridge._SLACK * math.sqrt(2 * n))  # sigma**2 = 2
        assert all(tables[m].size == _bridge._kept_width(m, n, reach)
                   for m in half_sizes_by_search(n)[:-1])
        assert tables[2].size < n


def test_kept_prefixes_are_full_width_prefixes(fresh_cache):
    # (law, n, the largest share of a full build's bytes the tables keep)
    for law, n, share in ((stable_offspring(1.5), 30001, 0.35),
                          (stable_offspring(1.5), 3000, 0.45),
                          (stable_offspring(1.5), _EXACT_CONV_LIMIT, 0.55),
                          (_FINITE, 3000, 0.3),
                          (_FINITE, _EXACT_CONV_LIMIT, 0.4),
                          (_FINITE, _EXACT_CONV_LIMIT + 1, 0.35),
                          (_FINITE, 30001, 0.3)):
        _bridge._TABLES.clear()
        full = _sum_pmf_tables(law.pmf(np.arange(n)), _split_plan(n))
        sample_conditioned_steps(law, n, np.random.default_rng(0))
        (tables, plan, reach), size = _bridge._TABLES._entries[(law._table_key, n)]
        # the spread: B_n for the tail, sigma * sqrt(n) with sigma = 1 for _FINITE
        spread = law.scaling_constant(n) if law.alpha else math.sqrt(n)
        assert reach == math.ceil(_bridge._SLACK * spread) > _ROW_TOTAL
        assert tables.keys() == full.keys()
        for key, table in tables.items():
            width = _bridge._kept_width(key, n, reach) if key in range(1, n) else None
            want = full[key] if width is None else full[key][:width]
            assert np.array_equal(table, want), (n, key)
        assert tables[(n + 1) // 2].size == tables[n // 2].size == n
        assert tables[1].size < n and tables[2].size < n
        # cache_info counts the kept bytes: 0.33 of a full build's at alpha =
        # 1.5 and 30001, since both halves of n and the tables of the next
        # level keep all n
        assert cache_info()["bytes"] == size == _nbytes(tables) + _nbytes(plan)
        assert _nbytes(tables) <= share * _nbytes(full), (law, n)


def test_overflow_widens_the_entry_once_and_draws_the_same(fresh_cache, monkeypatch):
    # with no slack a segment's total overflows a prefix; the draw runs
    # again on the same uniforms, on an entry widened past that total
    monkeypatch.setattr(_bridge, "_SLACK", 0.0)
    law, n = stable_offspring(1.5), 30001
    full = _full_width(law, n, range(3))
    for seed in range(3):
        _bridge._TABLES.clear()
        _same_as_full_width(law, n, seed, full)
        info = cache_info()
        assert (info["misses"], info["widened"]) == (1, 1)
        (tables, plan, reach), size = _bridge._TABLES._entries[(law._table_key, n)]
        assert info["bytes"] == size == _nbytes(tables) + _nbytes(plan)
        assert _bridge._ROW_TOTAL + 1 < reach < n
        # the widened entry replaced the narrow one: drawing again widens nothing
        _same_as_full_width(law, n, seed, full)
        assert cache_info()["widened"] == 1


class _NoSnapshot:
    """A generator that draws uniforms but refuses to show its state."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng

    def random(self, *args, **kwargs):
        return self._rng.random(*args, **kwargs)

    @property
    def bit_generator(self):
        raise AssertionError("a draw from full tables read the rng state")


def test_full_tables_draw_without_an_rng_snapshot(fresh_cache):
    # the block tables keep full windows, so no draw from them can overflow
    law = stable_offspring(1.5, "no-unary")
    for n in (3, 80, _EXACT_CONV_LIMIT + 1):
        for seed in range(2):
            got = sample_boltzmann(law, n, _NoSnapshot(np.random.default_rng(seed)))
            assert got == sample_boltzmann(law, n, np.random.default_rng(seed))


def test_threads_that_overflow_one_entry_widen_it_once(fresh_cache, monkeypatch):
    monkeypatch.setattr(_bridge, "_SLACK", 0.0)
    builds = []

    def counting(window, plan, reach=None):
        builds.append(reach)
        return _sum_pmf_tables(window, plan, reach)

    monkeypatch.setattr(_bridge, "_sum_pmf_tables", counting)
    workers = 2
    barrier = threading.Barrier(workers, timeout=60)
    widen = _bridge._TABLES.widen

    def widen_together(*args):
        barrier.wait()  # both draws overflowed the narrow entry
        return widen(*args)

    monkeypatch.setattr(_bridge._TABLES, "widen", widen_together)
    law, n = stable_offspring(1.5), 30001
    out = [None] * workers

    def draw(i):
        out[i] = sample_conditioned_steps(law, n, np.random.default_rng(0))

    threads = [threading.Thread(target=draw, args=(i,)) for i in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert len(builds) == 2 and builds[0] < builds[1]
    info = cache_info()
    assert (info["hits"], info["misses"], info["widened"]) == (1, 1, 1)
    want = _full_width(law, n, [0])[0, _bridge._bridge][0]
    assert all(np.array_equal(x, want) for x in out)


# ---- attainability above the exact-convolution limit ----

def test_bridge_size_must_be_an_integer():
    law = stable_offspring(1.5)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        sample_conditioned_steps(law, 3.5, np.random.default_rng(0))
    assert sample_conditioned_steps(law, np.int16(3), np.random.default_rng(0)).sum() == 2


def test_lattice_law_unattainable_above_limit():
    # support {0, 3}: n draws sum to n - 1 only when 3 divides n - 1, and the
    # FFT tables alone hold float noise where those zeros belong
    law = OffspringLaw.from_probabilities([2 / 3, 0, 0, 1 / 3])
    for n in (_EXACT_CONV_LIMIT + 1, 5000):
        with pytest.raises(ValueError, match="unattainable"):
            sample_conditioned_steps(law, n, np.random.default_rng(n))
    x = sample_conditioned_steps(law, 5002, np.random.default_rng(0))
    assert int(x.sum()) == 5001 and set(x.tolist()) <= {0, 3}


def test_lattice_boltzmann_unattainable_above_limit(fresh_cache):
    # blocks of the same law carry even up-totals, so n_leaves - 1 must be
    # even, which is known before any block pmf is built
    law = OffspringLaw.from_probabilities([2 / 3, 0, 0, 1 / 3])
    with pytest.raises(ValueError, match="unattainable"):
        sample_boltzmann(law, 5000, np.random.default_rng(0))
    assert (cache_info()["misses"], cache_info()["entries"]) == (0, 0)
    d = sample_boltzmann(law, 5001, np.random.default_rng(0))
    assert d.n_sides == 5002


@pytest.mark.parametrize(("probabilities", "n"), [
    ([0.5, 0, 0.5], 4),  # support {0, 2}: n - 1 must be even
    ([0.5, 0, 0.5], 10**6),
    ([2 / 3, 0, 0, 1 / 3], _EXACT_CONV_LIMIT + 1),  # {0, 3}: 3 must divide n - 1
    ([2 / 3, 0, 0, 1 / 3], 5000),
    ([0, 1], 2),  # {1}: n draws sum to n
    ([0, 1], 5000),
])
def test_unattainable_lattice_size_raises_before_any_build(fresh_cache, probabilities, n):
    law = OffspringLaw.from_probabilities(probabilities)
    sample_conditioned_steps(stable_offspring(1.5), 50, np.random.default_rng(0))
    before = cache_info()
    for sample in (sample_conditioned_steps, sample_conditioned_max,
                   sample_conditioned_tree):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"^total {n - 1} is unattainable by {n} "):
            sample(law, n, rng)
        assert rng.bit_generator.state == state
        assert cache_info() == before
