"""End-to-end checks of the command line entry point."""

from __future__ import annotations

import hashlib
import inspect
import json

import pytest

from looptrees.cli import _KINDS, _OPTIONS, _RUNS, main


def run(tmp_path, *argv):
    return main([*argv, "--out-dir", str(tmp_path)])


def test_sample_tree_csv(tmp_path):
    assert run(tmp_path, "sample", "tree", "--n", "40", "--seed", "7",
               "--format", "csv") == 0
    text = (tmp_path / "tree.csv").read_text()
    lines = text.splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "# seed: 7"
    body = [l for l in lines if not l.startswith("#")]
    assert body[0] == "vertex,children"
    assert len(body) == 41


def test_sample_tree_json_header(tmp_path):
    assert run(tmp_path, "sample", "tree", "--n", "12", "--seed", "3") == 0
    doc = json.loads((tmp_path / "tree.json").read_text())
    head = doc["header"]
    assert head["artifact"] == "looptrees"
    assert head["seed"] == 3
    assert head["config"]["n"] == 12
    assert len(doc["children_counts"]) == 12


def test_sample_path_csv(tmp_path):
    assert run(tmp_path, "sample", "path", "--n", "50", "--seed", "1",
               "--format", "csv") == 0
    lines = (tmp_path / "path.csv").read_text().splitlines()
    body = [l for l in lines if not l.startswith("#")]
    assert body[0] == "time,value,jump"
    assert len(body) == 52  # header plus n+1 rows


def test_sample_looptree_edgelist_and_origin(tmp_path):
    assert run(tmp_path, "sample", "looptree", "--n", "30", "--seed", "2",
               "--format", "edgelist") == 0
    edges = (tmp_path / "looptree_edges.txt").read_text().splitlines()
    assert edges[0].startswith("#")
    body = [l for l in edges if not l.startswith("#")]
    assert body
    for line in body:
        u, v = map(int, line.split())
        assert 0 <= u <= v
    origin = (tmp_path / "looptree_origin.csv").read_text().splitlines()
    body = [l for l in origin if not l.startswith("#")]
    assert body[0] == "graph_vertex,tree_vertex,corner"


def test_sample_looptree_svg(tmp_path):
    assert run(tmp_path, "sample", "looptree", "--n", "25", "--seed", "2",
               "--format", "svg") == 0
    assert "<svg" in (tmp_path / "looptree.svg").read_text()


def test_sample_dissection_writes_json_and_svg(tmp_path):
    assert run(tmp_path, "sample", "dissection", "--n", "12", "--seed", "5") == 0
    doc = json.loads((tmp_path / "dissection.json").read_text())
    assert doc["n_sides"] == 13
    assert "<svg" in (tmp_path / "dissection.svg").read_text()


def test_layout_round_trip(tmp_path):
    assert run(tmp_path, "sample", "looptree", "--n", "20", "--seed", "9") == 0
    assert main(["layout", str(tmp_path / "looptree.json"),
                 "--out-dir", str(tmp_path)]) == 0
    assert "<svg" in (tmp_path / "looptree_layout.svg").read_text()

    assert run(tmp_path, "sample", "dissection", "--n", "8", "--seed", "9") == 0
    assert main(["layout", str(tmp_path / "dissection.json"),
                 "--out-dir", str(tmp_path)]) == 0
    assert "<svg" in (tmp_path / "dissection_layout.svg").read_text()


@pytest.mark.parametrize("text", [
    '{"something": 1}',
    None,
    "{not json",
    "5",
    '{"children_counts": [2, 0]}',
    '{"chords": [[0, 2]]}',
    '{"n_sides": 6, "chords": [[0, 2], [1, 3]]}',
    '{"children_counts": [true, 0]}',
], ids=["neither-key", "missing-file", "not-json", "scalar", "bad-counts",
        "no-n-sides", "crossing-chords", "bool-counts"])
def test_layout_rejects_unknown_document(tmp_path, capsys, text):
    bad = tmp_path / "junk.json"
    if text is not None:
        bad.write_text(text)
    assert main(["layout", str(bad), "--out-dir", str(tmp_path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and str(bad) in lines[0]
    assert not (tmp_path / "junk_layout.svg").exists()


def test_determinism_same_seed_same_bytes(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for d in (a, b):
        assert main(["sample", "path", "--n", "200", "--seed", "31",
                     "--alpha", "1.3", "--out-dir", str(d),
                     "--format", "csv"]) == 0
    assert (a / "path.csv").read_bytes() == (b / "path.csv").read_bytes()


# fixed-seed invocations, their exit codes and the SHA-256 prefix of every
# file each writes; all sizes are at most 4096, so every bridge table comes
# from exact convolution.  A change that moves a random stream on purpose
# updates these and says so.
_GOLDEN = [
    ("sample path --n 50 --seed 1 --format csv", 0,
     {"path.csv": "a9539527a1d2"}),
    ("sample tree --n 50 --seed 1 --format csv", 0,
     {"tree.csv": "eb77f02889a7"}),
    ("sample dissection --n 20 --seed 2", 0,
     {"dissection.json": "876ad2e8ab64", "dissection.svg": "9e026d611127"}),
    ("experiment max-jump --n 500 --replicates 8 --seed 1 --tolerance 0.0001", 1,
     {"max_jump_data.csv": "38dc274c1477", "max_jump_report.json": "2dbab02f41c5"}),
    ("experiment gh-sandwich --n 30 --replicates 6 --seed 3", 0,
     {"gh_sandwich_data.csv": "1d02f5a68297",
      "gh_sandwich_report.json": "5f92db481d24"}),
    ("experiment interpolation-crt --alpha 1.95 --n 2000 --replicates 3 --seed 5 "
     "--tolerance 0.1", 0,
     {"interpolation_crt_data.csv": "f106a4e6f1eb",
      "interpolation_crt_report.json": "4889f6c6b7ea"}),
    ("experiment interpolation-circle --alpha 1.05 --n 2000 --replicates 3 --seed 2", 1,
     {"interpolation_circle_data.csv": "cfb5a0e1d66d",
      "interpolation_circle_report.json": "d782526b7d08"}),
    ("experiment dimension --n 2000 --replicates 5 --seed 4", 0,
     {"dimension_data.csv": "83d98937046e",
      "dimension_report.json": "3e82107e6bbe"}),
]


def test_fixed_seed_outputs_keep_their_bytes(tmp_path):
    for k, (argv, code, files) in enumerate(_GOLDEN):
        out = tmp_path / str(k)
        assert run(out, *argv.split()) == code, argv
        got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()[:12]
               for f in out.iterdir()}
        assert set(got) == set(files), argv
        for name, prefix in files.items():
            assert got[name] == prefix, f"{argv}: {name}"


def test_experiment_laplace_small(tmp_path, capsys):
    rc = run(tmp_path, "experiment", "laplace-check", "--n", "20000",
             "--seed", "11")
    out = capsys.readouterr().out
    assert "laplace-check" in out
    report = json.loads((tmp_path / "laplace_check_report.json").read_text())
    assert rc == (0 if report["pass"] else 1)
    assert report["pass"]  # frozen seed, small n, z-scores are scale-free
    csv = (tmp_path / "laplace_check_data.csv").read_text()
    assert csv.splitlines()[0].startswith("#")


def test_experiment_exit_code_reflects_failure(tmp_path):
    # max-jump at a deliberately undersized run with a hair-thin tolerance:
    # the report must say fail and the process must exit nonzero
    rc = run(tmp_path, "experiment", "max-jump", "--n", "500",
             "--replicates", "8", "--seed", "1", "--tolerance", "0.0001")
    report = json.loads((tmp_path / "max_jump_report.json").read_text())
    assert not report["pass"]
    assert rc == 1


def test_experiment_gh_sandwich_small(tmp_path):
    rc = run(tmp_path, "experiment", "gh-sandwich", "--replicates", "6",
             "--n", "30", "--seed", "3")
    report = json.loads((tmp_path / "gh_sandwich_report.json").read_text())
    assert rc == 0 and report["pass"]
    # --n is the leaf cap
    run(tmp_path, "experiment", "gh-sandwich", "--replicates", "2", "--n", "6")
    report = json.loads((tmp_path / "gh_sandwich_report.json").read_text())
    assert report["max_leaves"] == 6
    assert all(2 <= row["n_leaves"] <= 6 for row in report["rows"])


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def test_reports_are_strict_json(tmp_path):
    # one replicate has no standard error; the report says null, not NaN
    run(tmp_path, "experiment", "max-jump", "--n", "200", "--replicates", "1",
        "--seed", "4")
    report = _strict_json((tmp_path / "max_jump_report.json").read_text())
    assert report["stderr"] is None
    run(tmp_path, "experiment", "laplace-check", "--n", "1", "--seed", "4")
    report = _strict_json((tmp_path / "laplace_check_report.json").read_text())
    assert report["worst_z"] is None and report["pass"] is False
    assert all(row["stderr"] is None and row["z"] is None for row in report["rows"])


@pytest.mark.parametrize("argv", [
    ("sample", "tree", "--n", "0"),
    ("sample", "tree", "--alpha", "2.5"),
    ("sample", "looptree", "--alpha", "one"),
    ("experiment", "dimension", "--replicates", "0"),
    ("experiment", "dimension", "--replicates", "2"),
    ("experiment", "dimension", "--n", "500"),
    ("experiment", "dimension", "--n", "600"),
    ("experiment", "dimension", "--window", "5", "4"),
    ("experiment", "interpolation-crt", "--n", "2"),
    ("experiment", "interpolation-crt", "--n", "1"),
    ("experiment", "gh-sandwich", "--n", "1"),
    # options the chosen command does not take
    ("experiment", "laplace-check", "--alpha", "1.3", "--replicates", "7"),
    ("experiment", "laplace-check", "--replicates", "7"),
    ("experiment", "laplace-check", "--tolerance", "0.01"),
    ("experiment", "laplace-check", "--window", "1", "2"),
    ("experiment", "gh-sandwich", "--tolerance", "0.01"),
    ("experiment", "interpolation-circle", "--window", "1", "2"),
    ("experiment", "max-jump", "--window", "1", "2"),
    ("sample", "tree", "--replicates", "5"),
    ("sample", "dissection", "--replicates", "5"),
    # a format the chosen command does not offer
    ("sample", "path", "--format", "edgelist"),
    ("sample", "tree", "--format", "svg"),
    ("sample", "dissection", "--format", "csv"),
    ("experiment", "laplace-check", "--format", "svg"),
    # a dissection needs at least two leaves
    ("sample", "dissection", "--n", "1"),
    # an option placed before the kind or the experiment name
    ("sample", "--n", "40", "tree"),
    ("experiment", "--seed", "3", "dimension"),
    # a tree of one vertex has no jump
    ("experiment", "max-jump", "--n", "1"),
    # a seed outside [0, 2**63)
    ("sample", "tree", "--seed", "-1"),
    ("sample", "tree", "--seed", str(2**64)),
    ("experiment", "max-jump", "--seed", str(2**63)),
])
def test_bad_arguments_exit_2_with_one_line(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as info:
        run(tmp_path, *argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    option = next(arg for arg in argv if arg.startswith("--"))
    assert len(lines) == 1 and option in lines[0]


def test_bad_thread_count_exits_2_naming_the_variable(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LOOPTREE_THREADS", "abc")
    with pytest.raises(SystemExit) as info:
        run(tmp_path, "experiment", "max-jump", "--n", "500", "--replicates", "2")
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "LOOPTREE_THREADS" in lines[0]
    assert not any(tmp_path.iterdir())


def test_laplace_check_reads_the_thread_count_before_sampling(tmp_path, capsys,
                                                             monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("laplace-check sampled")

    monkeypatch.setattr("looptrees.experiments.sample_increment", refuse)
    monkeypatch.setenv("LOOPTREE_THREADS", "abc")
    with pytest.raises(SystemExit) as info:
        run(tmp_path, "experiment", "laplace-check", "--n", "200")
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "LOOPTREE_THREADS" in lines[0]
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    (),
    *(("sample", kind) for kind in _KINDS),
    *(("experiment", name) for name in _RUNS),
], ids=lambda argv: "-".join(argv) or "looptrees")
def test_help_exits_0_and_lists_only_taken_options(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main([*argv, "--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    if argv[:1] == ("sample",):
        takes = {"alpha", "n"}
        assert ("--format " in out) == (None not in _KINDS[argv[1]][2])
    elif argv[:1] == ("experiment",):
        takes = set(_RUNS[argv[1]][1])
        assert "--format" not in out
    else:
        return
    for opt in _OPTIONS:
        assert (f"--{opt} " in out) == (opt in takes), opt


@pytest.mark.parametrize("name", _RUNS)
def test_run_table_keywords_are_experiment_parameters(name):
    run, keywords, _ = _RUNS[name]
    params = inspect.signature(run).parameters
    assert set(keywords.values()) <= set(params) - {"seed"}
    assert set(keywords) <= set(_OPTIONS)


# small runs of each experiment: keyword arguments, the CSV header line and
# the number of rows below it
_SMALL_RUNS = {
    "dimension": (dict(n=2000, trees=5, window=(2.0, 20.0)),
                  "center,radius,count", None),
    "interpolation-circle": (dict(alpha=1.05, n=500, replicates=3),
                             "replicate,max_jump,gh_bound", 3),
    "interpolation-crt": (dict(n=500, paths=3, draws=20), "path_mean", 3),
    "max-jump": (dict(n=500, replicates=4), "value", 4),
    "gh-sandwich": (dict(n_dissections=5, max_leaves=20),
                    "height,height_bound_ok,loop_pair_gh_bound,n_leaves,observed",
                    5),
    "laplace-check": (dict(n_samples=200), "alpha,estimate,lam,stderr,target,z",
                      9),
}


@pytest.mark.parametrize("name", _RUNS)
def test_run_table_csv_rows(name):
    run, _, rows = _RUNS[name]
    kwargs, header, count = _SMALL_RUNS[name]
    report = run(seed=1, **kwargs)
    lines = rows(report)
    assert lines[0] == header
    if count is None:  # one row per center and radius
        count = report["centers"] * len(report["profiles"][0]["radii"])
    assert len(lines) == 1 + count
    assert all(line.count(",") == header.count(",") for line in lines)
