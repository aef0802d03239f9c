"""Outside-in span tracer for the looptrees package.

The tracer rebinds every public function and method of the loaded
``looptrees.*`` modules to a wrapper that records one span per call.  Nothing
under ``src/`` changes: the wrappers live here and are removed again by
``uninstall``.  A span is a row ``[name, start, end, parent, job, draws,
items]``; ``parent`` is the index of the enclosing span (-1 at top level),
``draws`` counts offspring values drawn directly inside the span and
``items`` is what the call produced (tree vertices, draws requested).

All spans stay in memory and are summarised or written out when the run
ends.  Self time is a span's duration minus the union of its children.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
import weakref
from contextlib import contextmanager

FIELDS = ("name", "start", "end", "parent", "job", "draws", "items")
NAME, START, END, PARENT, JOB, DRAWS, ITEMS = range(len(FIELDS))

# per-layer metrics in the order BENCHMARK.json lists them; (name, unit, better)
PER_LAYER = [
    ("gw_tree.stable_offspring.calls", "count", "higher"),
    ("gw_tree.stable_offspring.busy_s", "s", "lower"),
    ("gw_tree.sample_conditioned_tree.calls", "count", "higher"),
    ("gw_tree.sample_conditioned_tree.busy_s", "s", "lower"),
    ("gw_tree.sample_conditioned_tree.self_s", "s", "lower"),
    ("gw_tree.OffspringLaw.sample.draws", "count", "lower"),
    ("gw_tree.draws_per_vertex", "draws/vertex", "lower"),
    ("gw_tree.tree_stats.busy_s", "s", "lower"),
    ("bridge.sample_conditioned_steps.calls", "count", "higher"),
    ("bridge.sample_conditioned_steps.busy_s", "s", "lower"),
    ("bridge.first_calls", "count", "higher"),
    ("bridge.repeat_calls", "count", "higher"),
    ("bridge.first_busy_s", "s", "lower"),
    ("bridge.repeat_p50_ms", "ms", "lower"),
    ("bridge.table_mb", "MB", "lower"),
    ("looptree.build_loop.calls", "count", "higher"),
    ("looptree.build_loop.busy_s", "s", "lower"),
    ("looptree.LoopGraph.distances.calls", "count", "higher"),
    ("looptree.LoopGraph.distances.busy_s", "s", "lower"),
    ("looptree.loop_prime_distance.calls", "count", "higher"),
    ("looptree.loop_prime_distance.busy_s", "s", "lower"),
    ("excursion_metric.distance_from_root.calls", "count", "higher"),
    ("excursion_metric.distance_from_root.busy_s", "s", "lower"),
    ("excursion_metric.distance_from_root.first_call_s", "s", "lower"),
    ("excursion_metric.looptree_distance.calls", "count", "higher"),
    ("excursion_metric.looptree_distance.busy_s", "s", "lower"),
    ("excursion_metric.rescale.busy_s", "s", "lower"),
    ("metric_analysis.ball_volume_profile.calls", "count", "higher"),
    ("metric_analysis.ball_volume_profile.busy_s", "s", "lower"),
    ("dissection.sample_boltzmann.calls", "count", "higher"),
    ("dissection.sample_boltzmann.busy_s", "s", "lower"),
    ("dissection.sample_boltzmann.self_s", "s", "lower"),
    ("dissection.draws_per_vertex", "draws/vertex", "lower"),
    ("dissection.gh_gap_check.busy_s", "s", "lower"),
    ("dissection.from_dual.busy_s", "s", "lower"),
    ("dissection.dual_tree.busy_s", "s", "lower"),
    ("experiments.dimension_experiment.self_s", "s", "lower"),
    ("experiments.interpolation_circle.self_s", "s", "lower"),
    ("experiments.interpolation_crt.self_s", "s", "lower"),
    ("experiments.max_jump_experiment.self_s", "s", "lower"),
    ("experiments.gh_sandwich.self_s", "s", "lower"),
    ("experiments.circle_gap_bound.calls", "count", "higher"),
    ("experiments.circle_gap_bound.busy_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
]


def span_name(module: str, qualname: str) -> str:
    """``looptrees._bridge`` + ``f`` -> ``bridge.f``; names start with a letter."""
    return module.split(".", 1)[1].lstrip("_") + "." + qualname


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._paused = 0
        self._job = -1
        self._restore: list[tuple] = []
        # bridge bookkeeping: which (law, n) pairs were seen, and table bytes
        self._bridge_seen = weakref.WeakKeyDictionary()
        self.bridge_first: list[float] = []
        self.bridge_repeat: list[float] = []
        self.table_bytes_max: int | None = 0
        # distance_from_root: paths queried in the current job, by identity
        self._paths_seen: dict[int, object] = {}
        self.first_query_s = 0.0
        self.jobs: list[tuple[int, float, float]] = []

    # -- recording -----------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._job, 0, 0])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def add_draws(self, count: int) -> None:
        """Credit drawn values to the innermost open span."""
        if self._stack:
            self.spans[self._stack[-1]][DRAWS] += int(count)

    @contextmanager
    def job(self, job_id: int):
        """Mark the spans recorded inside as belonging to one job."""
        self._job = job_id
        self._paths_seen.clear()
        start = time.perf_counter()
        try:
            yield
        finally:
            self.jobs.append((job_id, start, time.perf_counter()))
            self._job = -1
            self._paths_seen.clear()

    @contextmanager
    def paused(self):
        """Calls made inside run unrecorded (used for the correctness oracle)."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name: str):
        pre, post = _HOOKS.get(name, (None, None))
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            state = pre(tracer, args, kwargs) if pre else None
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if post:
                post(tracer, tracer.spans[idx], args, kwargs, result, state)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap public functions and methods wherever loaded looptrees
        modules (and the package namespace) bind them."""
        mods = {k: m for k, m in sys.modules.items()
                if m is not None and (k == "looptrees" or k.startswith("looptrees."))}
        wrapped: dict[int, object] = {}

        def wrapper_for(fn):
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self._wrap(fn, span_name(fn.__module__, fn.__qualname__))
            return wrapped[id(fn)]

        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(val) and val.__module__ in mods:
                    self._rebind(mod, attr, wrapper_for(val))
                elif inspect.isclass(val) and val.__module__ == mod.__name__:
                    for m_attr, m_val in list(vars(val).items()):
                        if m_attr.startswith("_"):
                            continue
                        if inspect.isfunction(m_val):
                            self._rebind(val, m_attr, wrapper_for(m_val))
                        elif isinstance(m_val, (classmethod, staticmethod)):
                            self._rebind(val, m_attr, type(m_val)(wrapper_for(m_val.__func__)))

    def _rebind(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._restore):
            setattr(owner, attr, old)
        self._restore.clear()


# -- per-layer hooks: pre(tracer, args, kwargs) -> state, run before the span
# opens; post(tracer, span, args, kwargs, result, state), run after it closes

def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _law_sample_pre(tracer, args, kwargs):
    # the caller is still the innermost open span here
    tracer.add_draws(_arg(args, kwargs, 1, "size"))


def _law_sample_post(tracer, span, args, kwargs, result, state):
    span[ITEMS] = int(_arg(args, kwargs, 1, "size"))


def _tree_size_post(tracer, span, args, kwargs, result, state):
    span[ITEMS] = int(result.size)


def _dissection_size_post(tracer, span, args, kwargs, result, state):
    # the dual tree has one vertex per face plus one per non-root side
    span[ITEMS] = int(result.n_sides + result.chord_count)


def _bridge_pre(tracer, args, kwargs):
    law, n = _arg(args, kwargs, 0, "law"), int(_arg(args, kwargs, 1, "n"))
    seen = tracer._bridge_seen.setdefault(law, set())
    first = n not in seen
    seen.add(n)
    return first


def _bridge_post(tracer, span, args, kwargs, result, first):
    (tracer.bridge_first if first else tracer.bridge_repeat).append(span[END] - span[START])
    if tracer.table_bytes_max is None:
        return
    total = 0
    for live in list(tracer._bridge_seen.keys()):
        tables = getattr(live, "_bridge_tables", None)
        if not isinstance(tables, dict):
            tracer.table_bytes_max = None  # the package no longer exposes them
            return
        total += sum(arr.nbytes for per_n in tables.values() for arr in per_n.values())
    tracer.table_bytes_max = max(tracer.table_bytes_max, total)


def _first_query_pre(tracer, args, kwargs):
    path = _arg(args, kwargs, 0, "path")
    first = id(path) not in tracer._paths_seen
    tracer._paths_seen[id(path)] = path  # held, so the id is not reused
    return first


def _first_query_post(tracer, span, args, kwargs, result, first):
    if first:
        tracer.first_query_s += span[END] - span[START]


_HOOKS = {
    "gw_tree.OffspringLaw.sample": (_law_sample_pre, _law_sample_post),
    "gw_tree.sample_conditioned_tree": (None, _tree_size_post),
    "dissection.sample_boltzmann": (None, _dissection_size_post),
    "bridge.sample_conditioned_steps": (_bridge_pre, _bridge_post),
    "excursion_metric.distance_from_root": (_first_query_pre, _first_query_post),
}


# -- arithmetic on recorded spans ---------------------------------------------

def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_a = cur_b = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    return [
        (s[END] - s[START]) - union_length(children.get(i, ()), s[START], s[END])
        for i, s in enumerate(spans)
    ]


def busy_times(spans) -> dict[str, float]:
    """Inclusive time per name, not counting a span nested in a span of the
    same name twice."""
    busy: dict[str, float] = {}
    for s in spans:
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != s[NAME]:
            p = spans[p][PARENT]
        if p < 0:
            busy[s[NAME]] = busy.get(s[NAME], 0.0) + (s[END] - s[START])
    return busy


def inclusive_draws(spans) -> list[int]:
    """Draws credited to each span or to any span nested in it."""
    out = [s[DRAWS] for s in spans]
    for i in range(len(spans) - 1, -1, -1):  # children come after parents
        p = spans[i][PARENT]
        if p >= 0:
            out[p] += out[i]
    return out


def unattributed(spans, jobs) -> float:
    """Job time covered by no top-level span."""
    top: dict[int, list] = {}
    for s in spans:
        if s[PARENT] < 0:
            top.setdefault(s[JOB], []).append((s[START], s[END]))
    return sum((b - a) - union_length(top.get(j, ()), a, b) for j, a, b in jobs)


def layer_metrics(tracer: Tracer, overhead_frac: float) -> dict[str, float | None]:
    """Every per-layer metric from the recorded spans."""
    spans = tracer.spans
    selfs = self_times(spans)
    busy = busy_times(spans)
    draws = inclusive_draws(spans)
    calls: dict[str, int] = {}
    self_by: dict[str, float] = {}
    draws_by: dict[str, int] = {}
    items_by: dict[str, int] = {}
    for s, st, dr in zip(spans, selfs, draws):
        name = s[NAME]
        calls[name] = calls.get(name, 0) + 1
        self_by[name] = self_by.get(name, 0.0) + st
        draws_by[name] = draws_by.get(name, 0) + dr
        items_by[name] = items_by.get(name, 0) + s[ITEMS]

    def per_vertex(name):
        return draws_by.get(name, 0) / items_by[name] if items_by.get(name) else 0.0

    out: dict[str, float | None] = {}
    for metric, _, _ in PER_LAYER:
        base, _, field = metric.rpartition(".")
        if field == "calls":
            out[metric] = calls.get(base, 0)
        elif field == "busy_s":
            out[metric] = busy.get(base, 0.0)
        elif field == "self_s":
            out[metric] = self_by.get(base, 0.0)
    out["gw_tree.OffspringLaw.sample.draws"] = items_by.get("gw_tree.OffspringLaw.sample", 0)
    out["gw_tree.draws_per_vertex"] = per_vertex("gw_tree.sample_conditioned_tree")
    out["dissection.draws_per_vertex"] = per_vertex("dissection.sample_boltzmann")
    out["bridge.first_calls"] = len(tracer.bridge_first)
    out["bridge.repeat_calls"] = len(tracer.bridge_repeat)
    out["bridge.first_busy_s"] = sum(tracer.bridge_first, 0.0)
    # 0 when no (law, n) pair was sampled twice
    out["bridge.repeat_p50_ms"] = (
        1e3 * statistics.median(tracer.bridge_repeat) if tracer.bridge_repeat else 0.0
    )
    out["bridge.table_mb"] = (
        None if tracer.table_bytes_max is None else tracer.table_bytes_max / 2**20
    )
    out["excursion_metric.distance_from_root.first_call_s"] = tracer.first_query_s
    out["trace.unattributed_s"] = unattributed(spans, tracer.jobs)
    out["trace.overhead_frac"] = overhead_frac
    return {name: out[name] for name, _, _ in PER_LAYER}
