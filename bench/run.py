"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload geometry --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/`` next to
this directory.  Set-up (imports, inputs from the seed, any law built before
the jobs) is timed in ``SETUP_SAMPLES`` child processes that stop after it,
and ``setup_s`` is their median.  Jobs then run one after another on one
thread until ``--seconds`` have passed, stopping at the end of a block (see
``workloads.Workload.block``).  Each job's output is checked after its timer
stops.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` wraps the
package's public functions (see ``tracer``), runs jobs for half of
``--seconds``, replays the same jobs untraced to measure the tracing
overhead, and prints the per-layer metrics.  Both write a full record
(jobs, report digests, machine, spans) to ``bench/out/``.  The last line of
standard output is always one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import tracer as tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 3
P90_MIN_JOBS = 100  # ten jobs beyond the 90th percentile

END_TO_END = [
    ("setup_s", "s"),
    ("trees_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("peak_rss_mb", "MB"),
]


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="stop after set-up (used to time set-up in a child)")
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**32:
        p.error("--seed must lie in [0, 2**32)")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_package():
    """Import looptrees from this checkout's src/, never from elsewhere."""
    if not (SRC / "looptrees" / "__init__.py").is_file():
        raise SystemExit(f"error: no looptrees package under {SRC}")
    sys.path.insert(0, str(SRC))
    import looptrees
    import looptrees._bridge  # noqa: F401  (bound before the tracer installs)
    import looptrees.experiments  # noqa: F401

    if Path(looptrees.__file__).resolve().parent != (SRC / "looptrees").resolve():
        raise SystemExit(f"error: imported looptrees from {looptrees.__file__}")
    return looptrees


def setup(workload: str, seed: int):
    return workloads.Context(import_package(), workload, seed)


def time_setup(workload: str, seed: int) -> list[float]:
    """Wall time of child processes that start, set up, and exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    out = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL,
                       timeout=120)
        out.append(time.perf_counter() - t0)
    return out


def run_jobs(ctx, seconds: float, tracer=None, limit=None) -> list[dict]:
    """Jobs in plan order until ``seconds`` have passed at a block end, or
    until ``limit`` jobs have run."""
    block = workloads.WORKLOADS[ctx.workload].block
    rows = []
    start = time.perf_counter()
    for i in range(ctx.jobs if limit is None else min(limit, ctx.jobs)):
        if limit is None and i % block == 0 and time.perf_counter() - start >= seconds:
            break
        row = {"job": i, "seed": int(ctx.plan["job_seeds"][i])}
        try:
            ctx.prepare(i)
            with tracer.job(i) if tracer else nullcontext():
                t0 = time.perf_counter()
                report, trees, extra = workloads.run_job(ctx, i)
                row["latency_s"] = time.perf_counter() - t0
            with tracer.paused() if tracer else nullcontext():
                row["violations"] = workloads.check(ctx, report, extra)
            row["trees"] = trees
            row["digest"] = workloads.digest(report)
            row["pass"] = report.get("pass")  # the experiment's own verdict, only counted
        except Exception:  # a failed job is counted, and the run goes on
            row["error"] = traceback.format_exc()
        rows.append(row)
    return rows


def summarize(rows: list[dict]) -> dict:
    ok = [r for r in rows if "error" not in r]
    lat = [r["latency_s"] for r in ok]
    failed = sum(1 for r in rows if "error" in r or r["violations"])
    out = {
        "attempted": len(rows),
        "failed": failed,
        "failed_frac": failed / len(rows) if rows else 1.0,
        "timed_s": sum(lat),
        "trees": sum(r["trees"] for r in ok),
        "experiment_pass": sum(1 for r in ok if r["pass"] is True),
        "experiment_fail": sum(1 for r in ok if r["pass"] is False),
    }
    out["trees_per_s"] = out["trees"] / out["timed_s"] if lat else 0.0
    out["job_p50_s"] = statistics.median(lat) if lat else 0.0
    # reported only with at least ten jobs beyond the 90th percentile
    out["job_p90_s"] = (statistics.quantiles(lat, n=10)[-1]
                        if len(lat) >= P90_MIN_JOBS else None)
    return out


def machine() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "LOOPTREE_THREADS": os.environ.get("LOOPTREE_THREADS", "1")}


def source_digest() -> str:
    """Hash of the package sources, to tell commits apart in comparisons."""
    h = hashlib.sha256()
    for p in sorted((SRC / "looptrees").rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    args = parse_args(argv)
    ctx = setup(args.workload, args.seed)
    if args.setup_only:
        return 0
    setup_samples = time_setup(args.workload, args.seed)
    record = {"workload": dataclasses.asdict(workloads.WORKLOADS[args.workload]),
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "machine": machine(), "source": source_digest(),
              "setup_samples_s": setup_samples}

    if args.trace:
        tr = tracing.Tracer()
        tr.install()
        try:
            rows = run_jobs(ctx, args.seconds / 2, tracer=tr)
        finally:
            tr.uninstall()
        # the same jobs again, untraced, from a fresh set-up (cold caches as above)
        del ctx
        gc.collect()
        replay = run_jobs(setup(args.workload, args.seed), 0, limit=len(rows))
        for row, again in zip(rows, replay):
            if "error" not in row and row["digest"] != again.get("digest"):
                row["violations"].append("report differs between traced and untraced runs")
        summary = summarize(rows)
        untraced_s = summarize(replay)["timed_s"]
        overhead = 1.0 - untraced_s / summary["timed_s"] if summary["timed_s"] else 0.0
        values = tracing.layer_metrics(tr, overhead)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        record.update(span_fields=tracing.FIELDS, spans=tr.spans)
    else:
        rows = run_jobs(ctx, args.seconds)
        summary = summarize(rows)
        values = {
            "setup_s": statistics.median(setup_samples),
            "trees_per_s": summary["trees_per_s"],
            "job_p50_s": summary["job_p50_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    record.update(summary=summary, metrics=metrics, jobs=rows)

    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record))

    for k, m in metrics.items():
        print(f"{k:52s} {m['value']!r:>24} {m['unit']}")
    p90 = summary["job_p90_s"]
    print(f"jobs {summary['attempted']}, failed {summary['failed']} "
          f"(failed_frac {summary['failed_frac']!r}), job_p90_s "
          f"{'n/a (<%d jobs)' % P90_MIN_JOBS if p90 is None else repr(p90)}, "
          f"experiment pass {summary['experiment_pass']} / fail "
          f"{summary['experiment_fail']}; record in {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": summary["failed"] == 0,
                      "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
