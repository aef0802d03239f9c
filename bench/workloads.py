"""The benchmark's workloads: inputs made from a seed, the timed job, the
untimed output checks and the report digest.

Every job input is a pure function of the run seed and the job index, so
the same seed gives the same jobs on every commit.  The package is reached
only through module attributes at call time (``lt.experiments.gh_sandwich``
and so on), which lets the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

GEOMETRY_N = 10**5
GEOMETRY_CALLS = [
    # (experiment, keyword arguments besides n and seed, trees analysed)
    ("dimension_experiment", {"alpha": 1.5, "trees": 5, "centers_per_tree": 2}, 5),
    ("interpolation_circle", {"alpha": 1.05, "replicates": 8, "gh_paths": 2}, 8),
    ("interpolation_crt", {"alpha": 1.95, "paths": 8, "draws": 200}, 8),
    ("max_jump_experiment", {"alpha": 1.5, "replicates": 30}, 30),
]
CIRCLE_ANCHORS = 128  # interpolation_circle's default anchor count

DISSECTION_ARGS = {"alpha": 1.5, "n_dissections": 4, "max_leaves": 80}

MIXED_ALPHA = 1.5
MIXED_LOG2_RANGE = (1, 15)  # n = round(2**U), U uniform on this interval
MIXED_PAIRS = 20
# a fresh law every this many jobs, so the bridge-table cache grows through a
# round as it would for one long-lived law, yet peak memory does not grow
# with the number of jobs a faster commit completes in the run
MIXED_ROUND_JOBS = 140
# sizes above this are the ones the bridge serves at this commit; they are kept
# distinct within a round, so that every bridge call builds cold tables
MIXED_DISTINCT_ABOVE = 4096

# a run never gets near these; they only bound the input arrays made in set-up
PLAN_JOBS = {"geometry": 2000, "dissections": 2000, "mixed-sizes": 20_000}


@dataclass
class Workload:
    name: str
    why: str
    job: str
    params: dict
    # the run stops at a multiple of this many jobs, so every run sees whole
    # groups (the four experiments; one size per octave)
    block: int = 1


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="geometry",
            why="all three alpha regimes at n = 1e5: bridge sampling, root "
                "distances, loop graphs and ball profiles; no dissection work",
            job="one shipping experiment at n = 1e5 with its own seed, cycling "
                "dimension, interpolation-circle, interpolation-crt, max-jump",
            params={"n": GEOMETRY_N,
                    "calls": [[name, kw] for name, kw, _ in GEOMETRY_CALLS]},
            block=len(GEOMETRY_CALLS),
        ),
        Workload(
            name="dissections",
            why="Boltzmann rejection dominates and the bridge is never "
                "touched; leaf counts uniform on [2, 80] give a latency tail",
            job="gh_sandwich(alpha=1.5, n_dissections=4, max_leaves=80) with "
                "its own seed",
            params=dict(DISSECTION_ARGS),
        ),
        Workload(
            name="mixed-sizes",
            why="one law per 140 jobs, sizes 2 to 32768: mostly rejection, and "
                "every bridge call builds cold tables that stay cached",
            job="n = round(2**U), U uniform on [1, 15] (one U per octave in "
                "each block of 14, shuffled), one conditioned tree, 20 random "
                "pairs through loop_prime_distance and looptree_distance; a "
                "new law, built untimed, every 140 jobs",
            params={"alpha": MIXED_ALPHA, "log2_n": list(MIXED_LOG2_RANGE),
                    "pairs": MIXED_PAIRS},
            block=MIXED_LOG2_RANGE[1] - MIXED_LOG2_RANGE[0],
        ),
    ]
}


def make_plan(workload: str, seed: int, jobs: int | None = None) -> dict:
    """Inputs of the first ``jobs`` jobs of a run, from the run seed alone.

    Each array comes from its own stream, so a shorter plan is a prefix of a
    longer one.
    """
    jobs = PLAN_JOBS[workload] if jobs is None else jobs

    def rng(tag: int) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=[seed, 2**32 - 1 - tag]))

    plan = {"job_seeds": rng(0).integers(0, 2**31, size=jobs, dtype=np.int64)}
    if workload == "mixed-sizes":
        lo, hi = MIXED_LOG2_RANGE
        octaves = hi - lo
        blocks = -(-jobs // octaves)
        strata = rng(1).permuted(np.tile(np.arange(octaves), (blocks, 1)), axis=1)
        u = lo + strata.ravel()[:jobs] + rng(2).random(jobs)
        sizes = np.rint(2.0 ** u).astype(np.int64)
        for start in range(0, jobs, MIXED_ROUND_JOBS):
            seen = set()
            for k in np.flatnonzero(sizes[start:start + MIXED_ROUND_JOBS] > MIXED_DISTINCT_ABOVE):
                while sizes[start + k] in seen:
                    sizes[start + k] += 1
                seen.add(sizes[start + k])
        pairs = np.floor(rng(3).random((jobs, MIXED_PAIRS, 2)) * sizes[:, None, None])
        plan["sizes"] = sizes
        plan["pairs"] = pairs.astype(np.int64)
    return plan


class Context:
    """What set-up leaves for the jobs: the plan and any law built up front."""

    def __init__(self, lt, workload: str, seed: int):
        self.lt = lt
        self.workload = workload
        self.plan = make_plan(workload, seed)
        self.law = (lt.gw_tree.stable_offspring(MIXED_ALPHA)
                    if workload == "mixed-sizes" else None)

    @property
    def jobs(self) -> int:
        return len(self.plan["job_seeds"])

    def prepare(self, i: int) -> None:
        """Untimed work before job i."""
        if self.workload == "mixed-sizes" and i and i % MIXED_ROUND_JOBS == 0:
            self.law = None  # drop the old tables before building the next law
            self.law = self.lt.gw_tree.stable_offspring(MIXED_ALPHA)


def run_job(ctx: Context, i: int):
    """The timed part of job i: returns (report, trees analysed, extra),
    where ``extra`` holds what only the untimed checks need."""
    lt, seed = ctx.lt, int(ctx.plan["job_seeds"][i])
    if ctx.workload == "geometry":
        name, kwargs, trees = GEOMETRY_CALLS[i % len(GEOMETRY_CALLS)]
        report = getattr(lt.experiments, name)(n=GEOMETRY_N, seed=seed, **kwargs)
        return report, trees, None
    if ctx.workload == "dissections":
        report = lt.experiments.gh_sandwich(seed=seed, **DISSECTION_ARGS)
        return report, DISSECTION_ARGS["n_dissections"], None
    n = int(ctx.plan["sizes"][i])
    pairs = ctx.plan["pairs"][i].tolist()
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    tree = lt.gw_tree.sample_conditioned_tree(ctx.law, n, rng)
    path = lt.gw_tree.encode_tree(tree)
    jp = lt.excursion_metric.rescale(path, ctx.law.scaling_constant(n))
    report = {
        "n": n,
        "size": tree.size,
        "pairs": pairs,
        "loop_prime": [int(lt.looptree.loop_prime_distance(path, a, b)) for a, b in pairs],
        "looptree": [float(lt.excursion_metric.looptree_distance(jp, a, b)) for a, b in pairs],
        "tree_sha256": hashlib.sha256(tree.children_counts.tobytes()).hexdigest(),
    }
    return report, 1, tree


# -- output checks: properties that hold for every input ----------------------

def _scale(lt, alpha: float, n: int) -> float:
    # B_n depends only on the tail constant, so a short table gives it exactly
    return lt.gw_tree.stable_offspring(alpha, cutoff=64).scaling_constant(n)


def _check_jumps(lt, values, alpha: float, n: int, what: str) -> list[str]:
    top = (n - 1) / _scale(lt, alpha, n)
    bad = [v for v in values if not (0.0 < v <= top)]
    return [f"{what}: {len(bad)} value(s) outside (0, (n-1)/B_n = {top!r}]"] if bad else []


def check_geometry(lt, report: dict) -> list[str]:
    exp, n = report["experiment"], report["n"]
    out = []
    if exp == "dimension":
        for k, prof in enumerate(report["profiles"]):
            counts = prof["counts"]
            if any(b < a for a, b in zip(counts, counts[1:])):
                out.append(f"dimension: ball counts decrease with radius (center {k})")
            if max(counts) > n - 1:
                out.append(f"dimension: ball count {max(counts)} above n-1 (center {k})")
    elif exp == "interpolation-circle":
        floor = 1.0 / (2.0 * CIRCLE_ANCHORS)
        if any(g < floor for g in report["gh_bounds"]):
            out.append(f"interpolation-circle: circle bound below 1/(2*anchors) = {floor}")
        out += _check_jumps(lt, report["max_jumps"], report["alpha"], n,
                            "interpolation-circle max jumps")
    elif exp == "interpolation-crt":
        if any(not (0.0 <= m <= 1.0) for m in report["path_means"]):
            out.append("interpolation-crt: a path mean lies outside [0, 1]")
    elif exp == "max-jump":
        out += _check_jumps(lt, report["values"], report["alpha"], n, "max-jump values")
    else:
        out.append(f"unexpected experiment {exp!r}")
    return out


def check_dissections(lt, report: dict) -> list[str]:
    out = []
    hi = report["max_leaves"]
    for k, row in enumerate(report["rows"]):
        if row["height_bound_ok"] is not True:
            out.append(f"row {k}: height bound fails")
        if not row["loop_pair_gh_bound"] <= 2.0:
            out.append(f"row {k}: loop pair bound {row['loop_pair_gh_bound']} above 2")
        if not 2 <= row["n_leaves"] <= hi:
            out.append(f"row {k}: leaf count {row['n_leaves']} outside [2, {hi}]")
    return out


def check_mixed(lt, report: dict, tree) -> list[str]:
    out = []
    if report["size"] != report["n"] or tree.size != report["n"]:
        out.append(f"tree has {report['size']} vertices, expected {report['n']}")
    sources = sorted({a for a, _ in report["pairs"]})
    dist = lt.looptree.build_loop_prime(tree).distances(sources)
    row = {s: k for k, s in enumerate(sources)}
    wrong = sum(int(dist[row[a], b]) != d
                for (a, b), d in zip(report["pairs"], report["loop_prime"]))
    if wrong:
        out.append(f"loop_prime_distance disagrees with BFS on {wrong} pair(s)")
    return out


def check(ctx: Context, report: dict, extra) -> list[str]:
    if ctx.workload == "geometry":
        return check_geometry(ctx.lt, report)
    if ctx.workload == "dissections":
        return check_dissections(ctx.lt, report)
    return check_mixed(ctx.lt, report, extra)


def digest(report: dict) -> str:
    """Hash of a job's report; equal seeds on one commit must give equal hashes."""
    text = json.dumps(report, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]

