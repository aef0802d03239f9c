"""Command-line drivers: sample objects, run named experiments, render
layouts.

Every emitted file starts with a header block (JSON key or comment lines)
echoing the artifact version, the seed, and the full configuration, so a
report can be traced back to the exact invocation.  Exit status is 0 when
all in-run checks pass and 1 otherwise; a bad option value, or an option the
chosen command does not take, fails in one line with status 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, experiments
from .dissection import Dissection, sample_boltzmann
from .excursion_metric import rescale
from .gw_tree import encode_tree, sample_conditioned_tree, stable_offspring
from .layout import looptree_svg
from .looptree import build_loop
from .gw_tree import PlaneTree

SAMPLE_KINDS = ("tree", "looptree", "dissection", "path")
# each experiment, and the keyword that each command-line option sets in it;
# an option left unset is not passed, so the experiment's own default holds
_RUNS = {
    "dimension": (experiments.dimension_experiment, {
        "alpha": "alpha", "n": "n", "replicates": "trees",
        "window": "window", "tolerance": "tolerance"}),
    "interpolation-circle": (experiments.interpolation_circle, {
        "alpha": "alpha", "n": "n", "replicates": "replicates"}),
    "interpolation-crt": (experiments.interpolation_crt, {
        "alpha": "alpha", "n": "n", "replicates": "paths",
        "tolerance": "tolerance"}),
    "max-jump": (experiments.max_jump_experiment, {
        "alpha": "alpha", "n": "n", "replicates": "replicates",
        "tolerance": "tolerance"}),
    "gh-sandwich": (experiments.gh_sandwich, {
        "alpha": "alpha", "n": "max_leaves", "replicates": "n_dissections"}),
    "laplace-check": (experiments.laplace_check, {"n": "n_samples"}),
}
EXPERIMENTS = tuple(_RUNS)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line on stderr and exits with status 2."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _stable_alpha(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {text!r}"
        ) from None
    if not 1.0 < value < 2.0:
        raise argparse.ArgumentTypeError(
            f"must lie strictly between 1 and 2, got {text}"
        )
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="looptrees",
        description="Samplers and experiments for stable looptrees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--alpha", type=_stable_alpha, default=None)
        p.add_argument("--n", type=_positive_int, default=None,
                       help="size parameter (vertices, or leaves for dissections)")
        p.add_argument("--replicates", type=_positive_int, default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out-dir", type=Path, default=Path("."))
        p.add_argument("--format", choices=("json", "csv", "edgelist", "svg"),
                       default="json")

    ps = sub.add_parser("sample", help="draw one object and write it out")
    ps.add_argument("kind", choices=SAMPLE_KINDS)
    common(ps)

    pe = sub.add_parser("experiment", help="run a named experiment")
    pe.add_argument("name", choices=EXPERIMENTS)
    common(pe)
    pe.add_argument("--window", type=float, nargs=2, default=None,
                    metavar=("RMIN", "RMAX"))
    pe.add_argument("--tolerance", type=float, default=None)

    pl = sub.add_parser("layout", help="render a saved object as SVG")
    pl.add_argument("input", type=Path)
    pl.add_argument("--out-dir", type=Path, default=Path("."))
    return parser


def _config_dict(args: argparse.Namespace) -> dict:
    skip = {"command", "out_dir", "input"}
    cfg = {}
    for key, val in sorted(vars(args).items()):
        if key in skip or val is None:
            continue
        cfg[key] = str(val) if isinstance(val, Path) else val
    return cfg


def _header(cfg: dict) -> dict:
    return {
        "artifact": "looptrees",
        "version": __version__,
        "seed": cfg.get("seed", 0),
        "config": cfg,
    }


def _comment_header(cfg: dict, prefix: str = "#") -> list[str]:
    pieces = ", ".join(f"{k}={v}" for k, v in cfg.items())
    return [
        f"{prefix} looptrees {__version__}",
        f"{prefix} seed: {cfg.get('seed', 0)}",
        f"{prefix} config: {pieces}",
    ]


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    print(f"wrote {path}")


def _json_out(payload: dict, cfg: dict) -> str:
    return json.dumps({"header": _header(cfg), **payload}, indent=1,
                      allow_nan=False) + "\n"


def _cmd_sample(args: argparse.Namespace) -> int:
    args.alpha = args.alpha if args.alpha is not None else 1.5
    args.n = args.n if args.n is not None else (
        50 if args.kind == "dissection" else 1000
    )
    cfg = _config_dict(args)
    out = args.out_dir
    rng = experiments.stream(args.seed, 0)
    fmt = args.format
    if args.kind == "dissection":
        if args.n < 2:
            print("dissection needs --n (leaves) at least 2", file=sys.stderr)
            return 1
        law = stable_offspring(args.alpha, variant="no-unary")
        d = sample_boltzmann(law, args.n, rng)
        payload = json.loads(d.to_json())
        _write(out / "dissection.json", _json_out(payload, cfg))
        _write(out / "dissection.svg",
               d.to_svg(header_lines=_comment_header(cfg, prefix="")))
        return 0

    law = stable_offspring(args.alpha)
    tree = sample_conditioned_tree(law, args.n, rng)
    if args.kind == "tree":
        if fmt == "csv":
            lines = _comment_header(cfg) + ["vertex,children"]
            lines += [f"{v},{c}" for v, c in enumerate(tree.children_counts)]
            _write(out / "tree.csv", "\n".join(lines) + "\n")
        else:
            payload = json.loads(tree.to_json())
            _write(out / "tree.json", _json_out(payload, cfg))
        return 0
    if args.kind == "looptree":
        graph = build_loop(tree)
        if fmt == "edgelist":
            lines = _comment_header(cfg)
            lines += graph.to_edge_list().splitlines()
            _write(out / "looptree_edges.txt", "\n".join(lines) + "\n")
            olines = _comment_header(cfg) + ["graph_vertex,tree_vertex,corner"]
            olines += [
                f"{i},{t},{c}" for i, (t, c) in enumerate(graph.origin)
            ]
            _write(out / "looptree_origin.csv", "\n".join(olines) + "\n")
        elif fmt == "svg":
            _write(out / "looptree.svg",
                   looptree_svg(tree, header_lines=_comment_header(cfg, "")))
        else:
            payload = json.loads(graph.to_json())
            # echo the tree so the layout subcommand can redraw the file
            payload["children_counts"] = tree.children_counts.tolist()
            _write(out / "looptree.json", _json_out(payload, cfg))
        return 0
    # path: the rescaled excursion encoding of the sampled tree
    jp = rescale(encode_tree(tree), law.scaling_constant(args.n))
    if fmt == "json":
        payload = {"values": jp.values.tolist()}
        _write(out / "path.json", _json_out(payload, cfg))
    else:
        body = jp.to_csv()
        _write(out / "path.csv",
               "\n".join(_comment_header(cfg)) + "\n" + body)
    return 0


def _experiment_report(args: argparse.Namespace) -> dict:
    run, keywords = _RUNS[args.name]
    kw = {key: getattr(args, opt) for opt, key in keywords.items()
          if getattr(args, opt) is not None}
    return run(seed=args.seed, **kw)


def _plot_rows(report: dict) -> list[str]:
    """Flatten whatever per-replicate data the report holds into CSV rows."""
    if "rows" in report:
        keys = sorted(report["rows"][0])
        lines = [",".join(keys)]
        lines += [
            ",".join(repr(row[k]) for k in keys) for row in report["rows"]
        ]
        return lines
    if "profiles" in report:
        lines = ["center,radius,count"]
        for i, prof in enumerate(report["profiles"]):
            for r, c in zip(prof["radii"], prof["counts"]):
                lines.append(f"{i},{r},{c}")
        return lines
    if "values" in report:
        return ["value"] + [repr(v) for v in report["values"]]
    if "max_jumps" in report:
        lines = ["replicate,max_jump,gh_bound"]
        gh = report.get("gh_bounds", [])
        for i, mj in enumerate(report["max_jumps"]):
            tail = repr(gh[i]) if i < len(gh) else ""
            lines.append(f"{i},{mj!r},{tail}")
        return lines
    if "path_means" in report:
        return ["path_mean"] + [repr(v) for v in report["path_means"]]
    return []


def _cmd_experiment(args: argparse.Namespace) -> int:
    cfg = _config_dict(args)
    report = _experiment_report(args)
    stem = args.name.replace("-", "_")
    _write(args.out_dir / f"{stem}_report.json", _json_out(report, cfg))
    rows = _plot_rows(report)
    if rows:
        text = "\n".join(_comment_header(cfg) + rows) + "\n"
        _write(args.out_dir / f"{stem}_data.csv", text)
    status = "PASS" if report.get("pass") else "FAIL"
    print(f"{args.name}: {status}")
    return 0 if report.get("pass") else 1


def _cmd_layout(args: argparse.Namespace) -> int:
    raw = args.input.read_text()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        print(f"cannot parse {args.input}: {exc}", file=sys.stderr)
        return 1
    cfg = {"input": str(args.input)}
    if "chords" in doc:
        d = Dissection(doc["n_sides"], doc["chords"])
        svg = d.to_svg(header_lines=_comment_header(cfg, ""))
    elif "children_counts" in doc:  # tree.json or looptree.json (tree echo)
        tree = PlaneTree(np.asarray(doc["children_counts"], dtype=np.int64))
        svg = looptree_svg(tree, header_lines=_comment_header(cfg, ""))
    else:
        print(
            f"{args.input} has neither chords nor children_counts",
            file=sys.stderr,
        )
        return 1
    _write(args.out_dir / (args.input.stem + "_layout.svg"), svg)
    return 0


def _reject_untaken(parser: argparse.ArgumentParser,
                    args: argparse.Namespace) -> None:
    """Fail on an option the chosen command would ignore."""
    if args.command == "sample":
        what, takes = args.kind, ("alpha", "n")
    elif args.command == "experiment":
        what, takes = args.name, _RUNS[args.name][1]
    else:
        return
    # the options that stay None unless given
    for opt in ("alpha", "n", "replicates", "window", "tolerance"):
        if getattr(args, opt, None) is not None and opt not in takes:
            parser.error(f"argument --{opt}: {args.command} {what} does not take it")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _reject_untaken(parser, args)
    if args.command == "sample":
        return _cmd_sample(args)
    if args.command == "experiment":
        try:
            return _cmd_experiment(args)
        except experiments.ConfigError as exc:
            flags = {key: "--" + opt for opt, key in _RUNS[args.name][1].items()}
            parser.error(f"argument {flags.get(exc.param, exc.param)}: {exc}")
    return _cmd_layout(args)


if __name__ == "__main__":
    sys.exit(main())
