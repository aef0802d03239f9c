"""Tests of the benchmark itself: inputs, trace arithmetic, output checks.

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import compare  # noqa: E402
import looptrees as lt  # noqa: E402
import looptrees._bridge  # noqa: E402,F401  (loaded before the tracer wraps it)
import looptrees.experiments  # noqa: E402,F401
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    a = workloads.make_plan(name, 7, jobs=200)
    b = workloads.make_plan(name, 7, jobs=200)
    c = workloads.make_plan(name, 8, jobs=200)
    assert a.keys() == b.keys()
    for key in a:
        assert np.array_equal(a[key], b[key])
    assert not np.array_equal(a["job_seeds"], c["job_seeds"])
    longer = workloads.make_plan(name, 7, jobs=500)
    for key in a:
        assert np.array_equal(a[key], longer[key][:200])


def test_mixed_sizes_cover_every_octave_in_each_block():
    plan = workloads.make_plan("mixed-sizes", 3, jobs=140)
    lo, hi = workloads.MIXED_LOG2_RANGE
    octave = np.floor(np.log2(plan["sizes"]) - lo).clip(0, hi - lo - 1)
    for block in octave.reshape(-1, hi - lo):
        # rounding can move a size across an octave edge by one step
        assert len(set(block.tolist())) >= hi - lo - 2
    assert plan["sizes"].min() >= 2 and plan["sizes"].max() <= 2**hi + 10
    big = workloads.make_plan("mixed-sizes", 3, jobs=5000)["sizes"]
    for start in range(0, big.size, workloads.MIXED_ROUND_JOBS):
        chunk = big[start:start + workloads.MIXED_ROUND_JOBS]
        chunk = chunk[chunk > workloads.MIXED_DISTINCT_ABOVE]
        assert np.unique(chunk).size == chunk.size
    assert np.all(plan["pairs"] < plan["sizes"][:, None, None])


def _span(name, start, end, parent, job=0):
    return [name, start, end, parent, job, 0, 0]


def test_self_time_on_nested_trace():
    spans = [
        _span("a", 0.0, 10.0, -1),   # children cover [1, 4] and [5, 9]
        _span("b", 1.0, 4.0, 0),     # child covers [2, 3]
        _span("c", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),     # two overlapping children cover [5, 8]
        _span("d", 5.0, 7.0, 3),
        _span("d", 6.0, 8.0, 3),
        _span("a", 11.0, 12.0, -1),
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.0, 2.0, 2.0, 1.0])
    assert tracer.busy_times(spans) == pytest.approx({"a": 11.0, "b": 7.0, "c": 1.0, "d": 4.0})
    # job 0 ran over [0, 13]: the top-level spans leave [10, 11] and [12, 13]
    assert tracer.unattributed(spans, [(0, 0.0, 13.0)]) == pytest.approx(2.0)


def test_busy_time_does_not_count_nested_same_name_twice():
    spans = [_span("f", 0.0, 4.0, -1), _span("g", 1.0, 3.0, 0), _span("f", 1.5, 2.5, 1)]
    assert tracer.busy_times(spans)["f"] == pytest.approx(4.0)


def test_draws_go_to_innermost_open_span_and_tracer_restores():
    law = lt.gw_tree.stable_offspring(1.5)
    original = lt.gw_tree.sample_conditioned_tree
    tr = tracer.Tracer()
    tr.install()
    try:
        assert lt.gw_tree.sample_conditioned_tree is not original
        assert lt.sample_conditioned_tree is lt.gw_tree.sample_conditioned_tree
        with tr.job(0):
            tree = lt.gw_tree.sample_conditioned_tree(law, 50, np.random.default_rng(1))
            with tr.paused():
                lt.gw_tree.sample_conditioned_tree(law, 50, np.random.default_rng(2))
    finally:
        tr.uninstall()
    assert lt.gw_tree.sample_conditioned_tree is original
    names = [s[0] for s in tr.spans]
    assert names.count("gw_tree.sample_conditioned_tree") == 1
    draws = sum(s[tracer.ITEMS] for s in tr.spans if s[0] == "gw_tree.OffspringLaw.sample")
    top = tr.spans[names.index("gw_tree.sample_conditioned_tree")]
    assert draws > 0 and top[tracer.DRAWS] == draws and top[tracer.ITEMS] == tree.size
    metrics = tracer.layer_metrics(tr, 0.0)
    assert set(metrics) == {name for name, _, _ in tracer.PER_LAYER}
    assert metrics["gw_tree.draws_per_vertex"] == pytest.approx(draws / 50)
    assert metrics["trace.unattributed_s"] >= 0.0


def test_bridge_first_and_repeat_calls():
    law = lt.gw_tree.stable_offspring(1.5)
    tr = tracer.Tracer()
    tr.install()
    try:
        for seed in (1, 2):
            lt.gw_tree.sample_conditioned_tree(law, 5000, np.random.default_rng(seed))
    finally:
        tr.uninstall()
    m = tracer.layer_metrics(tr, 0.0)
    assert (m["bridge.first_calls"], m["bridge.repeat_calls"]) == (1, 1)
    assert m["bridge.table_mb"] > 0 and m["bridge.repeat_p50_ms"] > 0


# -- output checks fire on doctored reports ------------------------------------

@pytest.fixture(scope="module")
def small_reports():
    ex = lt.experiments
    return {
        "dimension": ex.dimension_experiment(alpha=1.5, n=3000, trees=5, seed=1),
        "circle": ex.interpolation_circle(alpha=1.05, n=3000, replicates=3, gh_paths=1, seed=1),
        "crt": ex.interpolation_crt(alpha=1.95, n=3000, paths=2, draws=20, seed=1),
        "max-jump": ex.max_jump_experiment(alpha=1.5, n=3000, replicates=3, seed=1),
        "gh": ex.gh_sandwich(alpha=1.5, n_dissections=3, max_leaves=20, seed=1),
    }


def _doctored(report, edit):
    bad = copy.deepcopy(report)
    edit(bad)
    return bad


@pytest.mark.parametrize("key, edit", [
    ("dimension", lambda r: r["profiles"][0]["counts"].__setitem__(-1, 0)),
    ("dimension", lambda r: r["profiles"][1]["counts"].__setitem__(-1, r["n"])),
    ("circle", lambda r: r["gh_bounds"].__setitem__(0, 0.001)),
    ("circle", lambda r: r["max_jumps"].__setitem__(0, 0.0)),
    ("crt", lambda r: r["path_means"].__setitem__(1, 1.5)),
    ("max-jump", lambda r: r["values"].__setitem__(0, 1e9)),
])
def test_geometry_checks_fire(small_reports, key, edit):
    report = small_reports[key]
    assert workloads.check_geometry(lt, report) == []
    assert workloads.check_geometry(lt, _doctored(report, edit))


@pytest.mark.parametrize("edit", [
    lambda r: r["rows"][0].__setitem__("height_bound_ok", False),
    lambda r: r["rows"][1].__setitem__("loop_pair_gh_bound", 2.5),
    lambda r: r["rows"][2].__setitem__("n_leaves", 1),
])
def test_dissection_checks_fire(small_reports, edit):
    report = small_reports["gh"]
    assert workloads.check_dissections(lt, report) == []
    assert workloads.check_dissections(lt, _doctored(report, edit))


def test_mixed_size_checks_fire():
    ctx = workloads.Context(lt, "mixed-sizes", 5)
    i = int(np.argmax(ctx.plan["sizes"] > 100))
    report, trees, tree = workloads.run_job(ctx, i)
    assert trees == 1 and workloads.check_mixed(lt, report, tree) == []

    def off_by_one(r):
        r["loop_prime"][3] += 1

    assert workloads.check_mixed(lt, _doctored(report, off_by_one), tree)
    assert workloads.check_mixed(lt, _doctored(report, lambda r: r.__setitem__("size", 7)), tree)


# -- comparison ----------------------------------------------------------------

def _result(workload, seed, value, source="a", digests=("x", "y")):
    return {"workload": {"name": workload}, "seed": seed, "trace": 0, "source": source,
            "metrics": {"trees_per_s": {"value": value, "unit": "1/s"}},
            "jobs": [{"job": k, "digest": d} for k, d in enumerate(digests)]}


def test_compare_verdicts_and_stream_flag():
    bounds = {"trees_per_s": ("higher", 0.1)}
    base = [_result("w", s, v) for s, v in enumerate([10.0, 10.2, 9.9, 10.1, 10.0])]
    faster = [_result("w", s, v * 1.5, source="b") for s, v in enumerate([10.0, 10.2, 9.9, 10.1, 10.0])]
    same = [_result("w", s, v) for s, v in enumerate([10.1, 10.0, 10.0, 9.9, 10.2])]
    assert compare.compare(base, faster, bounds)[0]["verdict"] == "better"
    assert compare.compare(faster, base, bounds)[0]["verdict"] == "worse"
    assert compare.compare(base, same, bounds)[0]["verdict"] == "unresolved"

    moved = [_result("w", 0, 10.0, source="b", digests=("x", "z"))]
    assert compare.determinism(base[:1], moved) == [("w", 0, "random stream moved")]
    broken = [_result("w", 0, 10.0, source="a", digests=("x", "z"))]
    assert compare.determinism(base[:1], broken) == [("w", 0, "NONDETERMINISTIC")]
    assert compare.determinism(base, same) == []


def test_benchmark_json_matches_the_code():
    import run

    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.PER_LAYER
