"""Compare two sets of benchmark records (``bench/out/*.json``).

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Prints one row per workload and end-to-end metric: each side's median and
quartiles over its runs, the change in the median, and a verdict against the
bounds in BENCHMARK.json:

* ``worse``: the change's median is worse than the parent's by more than the
  metric's bound;
* ``better``: the medians differ by more than the parent's own quartile
  spread and the change wins at least nine tenths of the runs paired by seed;
* ``unresolved``: anything else.

It then compares the report digests of runs with the same workload and seed:
on the same sources they must agree, and a difference between different
sources is flagged as ``random stream moved`` for information.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def bounds_from(benchmark: Path) -> dict[str, tuple[str, float]]:
    spec = json.loads(benchmark.read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def _values(records, workload, metric) -> dict[int, float]:
    return {r["seed"]: r["metrics"][metric]["value"] for r in records
            if r["trace"] == 0 and r["workload"]["name"] == workload
            and metric in r["metrics"]}


def _quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(parent: list[dict], change: list[dict], bounds) -> list[dict]:
    workloads = sorted({r["workload"]["name"] for r in parent + change})
    rows = []
    for w in workloads:
        for metric, (better, bound) in bounds.items():
            a, b = _values(parent, w, metric), _values(change, w, metric)
            if not a or not b:
                continue
            qa, qb = _quartiles(list(a.values())), _quartiles(list(b.values()))
            sign = 1.0 if better == "higher" else -1.0
            gain = sign * (qb[1] - qa[1]) / qa[1]
            seeds = sorted(a.keys() & b.keys())
            pairs = ([(a[s], b[s]) for s in seeds] if seeds else
                     [(x, y) for x in a.values() for y in b.values()])
            wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
            if gain < -bound:
                verdict = "worse"
            elif abs(qb[1] - qa[1]) > qa[2] - qa[0] and gain > 0 and wins >= 0.9 * len(pairs):
                verdict = "better"
            else:
                verdict = "unresolved"
            rows.append({"workload": w, "metric": metric, "parent": qa, "change": qb,
                         "runs": (len(a), len(b)), "gain": gain, "bound": bound,
                         "verdict": verdict})
    return rows


def determinism(parent: list[dict], change: list[dict]) -> list[tuple]:
    """(workload, seed, flag) for each seed whose job digests differ."""
    def key(r):
        return r["workload"]["name"], r["seed"]

    side = {key(r): r for r in parent}
    out = []
    for r in change:
        p = side.get(key(r))
        if p is None:
            continue
        common = min(len(p["jobs"]), len(r["jobs"]))
        da = [j.get("digest") for j in p["jobs"][:common]]
        db = [j.get("digest") for j in r["jobs"][:common]]
        if da != db:
            flag = "NONDETERMINISTIC" if p["source"] == r["source"] else "random stream moved"
            out.append((*key(r), flag))
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent, change = (load(Path(p)) for p in argv)
    rows = compare(parent, change, bounds_from(ROOT / "BENCHMARK.json"))
    print(f"{'workload':12s} {'metric':12s} {'parent q1/med/q3':>30s} "
          f"{'change q1/med/q3':>30s} {'runs':>7s} {'change':>8s} {'bound':>6s}  verdict")
    for r in rows:
        pa = "/".join(f"{x:.4g}" for x in r["parent"])
        ch = "/".join(f"{x:.4g}" for x in r["change"])
        print(f"{r['workload']:12s} {r['metric']:12s} {pa:>30s} {ch:>30s} "
              f"{r['runs'][0]:>3d}/{r['runs'][1]:<3d} {100 * r['gain']:+7.1f}% "
              f"{r['bound']:6.2f}  {r['verdict']}")
    for w, seed, flag in determinism(parent, change):
        print(f"{w} seed {seed}: job digests differ ({flag})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
