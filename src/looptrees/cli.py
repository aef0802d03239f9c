"""Command-line drivers: sample objects, run named experiments, render
layouts.

Each sample kind and each experiment has its own parser, built from the
tables `_KINDS` and `_RUNS`, that offers only the options it uses.  Every
emitted file starts with a header block (JSON key or comment lines) echoing
the artifact version, the seed, and the full configuration, so a report can
be traced back to the exact invocation.  Exit status is 0 when all in-run
checks pass and 1 otherwise; a bad option value, or an option the chosen
command does not take, fails in one line with status 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__, experiments
from .dissection import Dissection, sample_boltzmann
from .excursion_metric import rescale
from .gw_tree import PlaneTree, encode_tree, sample_conditioned_tree, stable_offspring
from .layout import looptree_svg
from .looptree import build_loop


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line on stderr and exits with status 2."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        # an option ahead of the subcommand would be read as its name
        args = sys.argv[1:] if args is None else list(args)
        if self._subparsers and args[:1] and args[0] not in ("-h", "--help") \
                and args[0].startswith("-"):
            what = self._get_positional_actions()[0].dest
            self.error(f"option {args[0]} must follow the {what}")
        return super().parse_known_args(args, namespace)


def _int_at_least(low: int, below: int | None = None):
    """Option type for an integer no smaller than ``low``, and smaller than
    ``below`` when that is given."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}"
            ) from None
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}"
            )
        if below is not None and value >= below:
            raise argparse.ArgumentTypeError(f"must be below {below}, got {value}")
        return value

    return parse


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


# how each option is parsed, wherever a command takes it
_OPTIONS = {
    "alpha": {"type": _stable_alpha},
    "n": {"type": _int_at_least(1),
          "help": "size parameter (vertices, or leaves for dissections)"},
    "replicates": {"type": _int_at_least(1)},
    "window": {"type": float, "nargs": 2, "metavar": ("RMIN", "RMAX")},
    "tolerance": {"type": float},
}


def _config_dict(args: argparse.Namespace) -> dict:
    return {key: val for key, val in sorted(vars(args).items())
            if key not in ("command", "out_dir") and val is not None}


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
    header = {"artifact": "looptrees", "version": __version__,
              "seed": cfg.get("seed", 0), "config": cfg}
    return json.dumps({"header": header, **payload}, indent=1,
                      allow_nan=False) + "\n"


def _draw_tree(args: argparse.Namespace, rng):
    return sample_conditioned_tree(stable_offspring(args.alpha), args.n, rng)


def _draw_path(args: argparse.Namespace, rng):
    """The rescaled excursion encoding of a sampled tree."""
    law = stable_offspring(args.alpha)
    tree = sample_conditioned_tree(law, args.n, rng)
    return rescale(encode_tree(tree), law.scaling_constant(args.n))


def _draw_dissection(args: argparse.Namespace, rng):
    return sample_boltzmann(stable_offspring(args.alpha, variant="no-unary"),
                            args.n, rng)


def _tree_json(tree, cfg: dict, out: Path) -> None:
    _write(out / "tree.json", _json_out(json.loads(tree.to_json()), cfg))


def _tree_csv(tree, cfg: dict, out: Path) -> None:
    lines = _comment_header(cfg) + ["vertex,children"]
    lines += [f"{v},{c}" for v, c in enumerate(tree.children_counts)]
    _write(out / "tree.csv", "\n".join(lines) + "\n")


def _looptree_json(tree, cfg: dict, out: Path) -> None:
    payload = json.loads(build_loop(tree).to_json())
    # echo the tree so the layout subcommand can redraw the file
    payload["children_counts"] = tree.children_counts.tolist()
    _write(out / "looptree.json", _json_out(payload, cfg))


def _looptree_edgelist(tree, cfg: dict, out: Path) -> None:
    graph = build_loop(tree)
    lines = _comment_header(cfg) + graph.to_edge_list().splitlines()
    _write(out / "looptree_edges.txt", "\n".join(lines) + "\n")
    lines = _comment_header(cfg) + ["graph_vertex,tree_vertex,corner"]
    lines += [f"{i},{t},{c}" for i, (t, c) in enumerate(graph.origin)]
    _write(out / "looptree_origin.csv", "\n".join(lines) + "\n")


def _looptree_svg(tree, cfg: dict, out: Path) -> None:
    _write(out / "looptree.svg",
           looptree_svg(tree, header_lines=_comment_header(cfg, "")))


def _path_json(jp, cfg: dict, out: Path) -> None:
    _write(out / "path.json", _json_out({"values": jp.values.tolist()}, cfg))


def _path_csv(jp, cfg: dict, out: Path) -> None:
    _write(out / "path.csv",
           "\n".join(_comment_header(cfg)) + "\n" + jp.to_csv())


def _dissection_files(d, cfg: dict, out: Path) -> None:
    _write(out / "dissection.json", _json_out(json.loads(d.to_json()), cfg))
    _write(out / "dissection.svg",
           d.to_svg(header_lines=_comment_header(cfg, prefix="")))


# each sample kind: its default and smallest --n, how it is drawn, and its
# writer for each --format, the first being the default; the key None marks a
# kind that has one set of files and so no --format at all
_KINDS = {
    "tree": ((1000, 1), _draw_tree, {"json": _tree_json, "csv": _tree_csv}),
    "looptree": ((1000, 1), _draw_tree, {"json": _looptree_json,
                                         "edgelist": _looptree_edgelist,
                                         "svg": _looptree_svg}),
    "path": ((1000, 1), _draw_path, {"json": _path_json, "csv": _path_csv}),
    "dissection": ((50, 2), _draw_dissection, {None: _dissection_files}),
}


def _keyed_rows(report: dict) -> list[str]:
    rows = report["rows"]
    keys = sorted(rows[0])
    return [",".join(keys)] + [
        ",".join(repr(row[k]) for k in keys) for row in rows
    ]


def _profile_rows(report: dict) -> list[str]:
    return ["center,radius,count"] + [
        f"{i},{r},{c}" for i, prof in enumerate(report["profiles"])
        for r, c in zip(prof["radii"], prof["counts"])
    ]


def _jump_rows(report: dict) -> list[str]:
    # the Gromov-Hausdorff bound may cover only the first replicates
    gh = report["gh_bounds"]
    return ["replicate,max_jump,gh_bound"] + [
        f"{i},{mj!r}," + (repr(gh[i]) if i < len(gh) else "")
        for i, mj in enumerate(report["max_jumps"])
    ]


# each experiment, the keyword that each command-line option sets in it, and
# the CSV rows drawn from its report; an option left unset is not passed, so
# the experiment's own default holds
_RUNS = {
    "dimension": (experiments.dimension_experiment, {
        "alpha": "alpha", "n": "n", "replicates": "trees",
        "window": "window", "tolerance": "tolerance"}, _profile_rows),
    "interpolation-circle": (experiments.interpolation_circle, {
        "alpha": "alpha", "n": "n", "replicates": "replicates"}, _jump_rows),
    "interpolation-crt": (experiments.interpolation_crt, {
        "alpha": "alpha", "n": "n", "replicates": "paths",
        "tolerance": "tolerance"},
        lambda report: ["path_mean"] + [repr(v) for v in report["path_means"]]),
    "max-jump": (experiments.max_jump_experiment, {
        "alpha": "alpha", "n": "n", "replicates": "replicates",
        "tolerance": "tolerance"},
        lambda report: ["value"] + [repr(v) for v in report["values"]]),
    "gh-sandwich": (experiments.gh_sandwich, {
        "alpha": "alpha", "n": "max_leaves", "replicates": "n_dissections"},
        _keyed_rows),
    "laplace-check": (experiments.laplace_check, {"n": "n_samples"},
                      _keyed_rows),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="looptrees",
        description="Samplers and experiments for stable looptrees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    kinds = sub.add_parser("sample", help="draw one object and write it out")
    kinds = kinds.add_subparsers(dest="kind", required=True)
    for kind, ((n, low), _, writers) in _KINDS.items():
        p = kinds.add_parser(kind)
        p.add_argument("--alpha", **_OPTIONS["alpha"], default=1.5)
        p.add_argument("--n", **{**_OPTIONS["n"], "type": _int_at_least(low)},
                       default=n)
        if None not in writers:
            p.add_argument("--format", choices=tuple(writers),
                           default=next(iter(writers)))

    runs = sub.add_parser("experiment", help="run a named experiment")
    runs = runs.add_subparsers(dest="name", required=True)
    for name, (_, keywords, _) in _RUNS.items():
        p = runs.add_parser(name)
        for opt in keywords:
            p.add_argument("--" + opt, **_OPTIONS[opt], default=None)

    for p in (*kinds.choices.values(), *runs.choices.values()):
        p.add_argument("--seed", type=_int_at_least(0, below=experiments._SEED_END),
                       default=0)
        p.add_argument("--out-dir", type=Path, default=Path("."))

    pl = sub.add_parser("layout", help="render a saved object as SVG")
    pl.add_argument("input", type=Path)
    pl.add_argument("--out-dir", type=Path, default=Path("."))
    return parser


def _cmd_sample(args: argparse.Namespace) -> int:
    _, draw, writers = _KINDS[args.kind]
    obj = draw(args, experiments.stream(args.seed, 0))
    writers[getattr(args, "format", None)](obj, _config_dict(args), args.out_dir)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    run, keywords, rows = _RUNS[args.name]
    cfg = _config_dict(args)
    kw = {key: getattr(args, opt) for opt, key in keywords.items()
          if getattr(args, opt) is not None}
    report = run(seed=args.seed, **kw)
    stem = args.name.replace("-", "_")
    _write(args.out_dir / f"{stem}_report.json", _json_out(report, cfg))
    text = "\n".join(_comment_header(cfg) + rows(report)) + "\n"
    _write(args.out_dir / f"{stem}_data.csv", text)
    status = "PASS" if report.get("pass") else "FAIL"
    print(f"{args.name}: {status}")
    return 0 if report.get("pass") else 1


def _cmd_layout(args: argparse.Namespace) -> int:
    header = _comment_header({"input": str(args.input)}, "")
    try:
        text = args.input.read_text()
        doc = json.loads(text)
        keys = doc if isinstance(doc, dict) else {}
        if "chords" in keys:
            svg = Dissection.from_json(text).to_svg(header_lines=header)
        elif "children_counts" in keys:  # tree.json or looptree.json (tree echo)
            svg = looptree_svg(PlaneTree.from_json(text), header_lines=header)
        else:
            raise ValueError("has neither chords nor children_counts")
    except (OSError, ValueError, TypeError) as exc:
        problem = str(exc)
    else:
        _write(args.out_dir / (args.input.stem + "_layout.svg"), svg)
        return 0
    print(f"cannot lay out {args.input}: {problem}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "sample":
        return _cmd_sample(args)
    if args.command == "experiment":
        try:
            return _cmd_experiment(args)
        except experiments.ConfigError as exc:
            flags = {key: "--" + opt for opt, key in _RUNS[args.name][1].items()}
            flag = flags.get(exc.param)
            parser.error(f"argument {flag}: {exc}" if flag else str(exc))
    return _cmd_layout(args)


if __name__ == "__main__":
    sys.exit(main())
