"""CLI subcommands, exit codes, and output determinism."""

import json

import numpy as np
import pytest

from rho_radii import cli
from rho_radii.cli import main
from rho_radii.dilation import build_shift_unitary_rho_dilation, nilpotent_jump
from rho_radii.pencil import OperatorTuple
from rho_radii.serialize import embedding_to_json, matrix_to_json, tuple_to_json


@pytest.fixture
def eye3(tmp_path):
    p = tmp_path / "eye3.json"
    p.write_text(json.dumps(matrix_to_json(np.eye(3))))
    return str(p)


@pytest.fixture
def nilp(tmp_path):
    p = tmp_path / "nilp.json"
    p.write_text(json.dumps(matrix_to_json(np.array([[0.0, 1.0], [0.0, 0.0]]))))
    return str(p)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_radius_identity(eye3, capsys):
    code, out, _ = _run(capsys, ["radius", "--rho", "2", "--input", eye3])
    assert code == 0
    rep = json.loads(out)
    assert rep["lo"] == pytest.approx(1.0, abs=2e-6)
    assert rep["hi"] == pytest.approx(1.0, abs=2e-6)


def test_membership_contraction(nilp, capsys):
    code, out, _ = _run(capsys, ["membership", "--rho", "1", "--input", nilp])
    assert code == 0
    verdict = json.loads(out)
    assert verdict["decision"] == "In"
    assert verdict["margin"] >= -1e-9


def test_numrad(nilp, capsys):
    code, out, _ = _run(capsys, ["numrad", "--input", nilp])
    assert code == 0
    rep = json.loads(out)
    assert rep["numerical_radius"] == pytest.approx(0.5, abs=1e-9)
    spec = rep["grid_spec"]
    assert set(spec) == {"slice_levels", "slice_crossing_solves", "slice_anchor_solves", "slice_root_solves",
                         "slice_polish_steps", "slice_polish_cap", "certified_level"}
    assert spec["slice_levels"] >= 1 and rep["numerical_radius"] <= spec["certified_level"] <= 0.5 + 1e-9


def test_membership_tuple_input(tmp_path, capsys):
    t = OperatorTuple((0.2 * np.eye(2), 0.2 * np.array([[0, 1], [0, 0]])))
    p = tmp_path / "pair.json"
    p.write_text(json.dumps(tuple_to_json(t)))
    code, out, _ = _run(capsys, ["membership", "--rho", "2", "--input", str(p)])
    assert code == 0
    assert json.loads(out)["decision"] == "In"


def test_verify_dilation_sym(tmp_path, capsys):
    rho = 2.0
    big, e = build_shift_unitary_rho_dilation(rho, 8)
    small = OperatorTuple((nilpotent_jump(rho),))
    (tmp_path / "small.json").write_text(json.dumps(tuple_to_json(small)))
    (tmp_path / "big.json").write_text(json.dumps(tuple_to_json(big)))
    (tmp_path / "e.json").write_text(json.dumps(embedding_to_json(e)))
    code, out, _ = _run(capsys, [
        "verify-dilation", "--mode", "sym",
        "--small", str(tmp_path / "small.json"),
        "--big", str(tmp_path / "big.json"),
        "--embedding", str(tmp_path / "e.json"),
        "--rho", "2", "--nmax", "6",
    ])
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_repro_passing_experiment(capsys):
    code, out, _ = _run(capsys, ["repro", "--name", "thm51", "--rho", "2"])
    assert code == 0
    report = json.loads(out)
    assert all(c["pass"] for c in report["claims"])


def test_repro_output_file_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["repro", "--name", "scalar-boundary", "--output", str(out1)]) == 0
    assert main(["repro", "--name", "scalar-boundary", "--output", str(out2)]) == 0
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    a.pop("wall_time_s")
    b.pop("wall_time_s")
    assert a == b


def test_sweep_csv(nilp, capsys):
    code, out, _ = _run(capsys, [
        "sweep", "--rho-from", "1", "--rho-to", "2", "--steps", "3", "--input", nilp,
    ])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "rho,w_rho"
    assert len(lines) == 4
    rows = [line.split(",") for line in lines[1:]]
    # w_rho of the nilpotent jump is 1/rho
    for rho_s, w_s in rows:
        assert float(w_s) == pytest.approx(1.0 / float(rho_s), abs=1e-4)


def test_exit_code_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"rows\": 1}")
    code, out, err = _run(capsys, ["membership", "--rho", "1", "--input", str(bad)])
    assert code == 2
    assert json.loads(err)["error"] == "input"


@pytest.mark.parametrize("text", ["5", "[]", json.dumps({"rows": 1.7, "cols": 1, "data": [[0.5, 0]]})])
def test_exit_code_non_object_or_fractional_count(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, out, err = _run(capsys, ["radius", "--rho", "1", "--input", str(bad)])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "input"


@pytest.mark.parametrize("text", [json.dumps({"rows": True, "cols": 1, "data": [[0.5, 0]]}),
                                  json.dumps({"n_vars": True, "mats": [matrix_to_json(np.eye(2))]})])
def test_exit_code_boolean_count(tmp_path, capsys, text):
    # a JSON boolean is not a row or variable count
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    for argv in (["radius", "--rho", "1"], ["membership", "--rho", "1"]):
        code, out, err = _run(capsys, argv + ["--input", str(bad)])
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "input"


@pytest.mark.parametrize("knob", [["--tol", "-1"], ["--tol", "0"], ["--budget", "0"], ["--budget", "-5"]])
@pytest.mark.parametrize("n_vars", [1, 3])
def test_exit_code_bad_membership_knobs(tmp_path, capsys, knob, n_vars):
    p = tmp_path / "tuple.json"
    p.write_text(json.dumps(tuple_to_json(OperatorTuple(tuple(0.1 * np.eye(2) for _ in range(n_vars))))))
    code, out, err = _run(capsys, ["membership", "--rho", "2", "--input", str(p), *knob])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "input"


@pytest.mark.parametrize("argv", [
    ["radius", "--rho", "nan"], ["radius", "--rho", "inf"], ["radius", "--rho", "2", "--width", "nan"],
    ["membership", "--rho", "nan"], ["membership", "--rho", "2", "--tol", "nan"],
    ["membership", "--rho", "2", "--tol", "inf"],
    ["sweep", "--rho-from", "1", "--rho-to", "inf", "--steps", "3"],
    ["sweep", "--rho-from", "nan", "--rho-to", "2", "--steps", "3"],
])
def test_exit_code_non_finite_knobs(nilp, capsys, argv):
    code, out, err = _run(capsys, [*argv, "--input", nilp])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "input"


@pytest.mark.parametrize("name", ["thm51", "thm53"])
@pytest.mark.parametrize("rho", ["nan", "inf", "-inf"])
def test_exit_code_repro_non_finite_rho(capsys, name, rho):
    # rho is checked before anything is derived from it, and named
    code, out, err = _run(capsys, ["repro", "--name", name, f"--rho={rho}"])
    assert code == 2 and out == ""
    err = json.loads(err)
    assert err["error"] == "input" and err["message"].startswith("rho must be finite"), err


@pytest.mark.parametrize("name", ["radius-properties", "monotonicity"])
@pytest.mark.parametrize("seeds", ["0", "-1"])
def test_exit_code_repro_no_seeds(capsys, name, seeds):
    # a suite over no seeds checks nothing, so it is an input error, not a pass
    code, out, err = _run(capsys, ["repro", "--name", name, "--seeds", seeds])
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "input", "message": "seeds must be at least 1"}


@pytest.mark.parametrize("name", ["radius-properties", "von-neumann", "monotonicity"])
def test_exit_code_repro_negative_seed(capsys, name):
    # numpy rejects a negative seed; the experiments name it as an input error
    code, out, err = _run(capsys, ["repro", "--name", name, "--seed", "-1"])
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "input", "message": "seed must be nonnegative"}


@pytest.mark.parametrize("argv", [["radius", "--rho", "2"], ["membership", "--rho", "2"], ["numrad"],
                                  ["sweep", "--rho-from", "0.5", "--rho-to", "2", "--steps", "3"]])
def test_exit_code_empty_matrix(tmp_path, capsys, argv):
    # a 0 x 0 matrix is an input error for every command that reads one
    p = tmp_path / "empty.json"
    p.write_text(json.dumps({"rows": 0, "cols": 0, "data": []}))
    code, out, err = _run(capsys, argv + ["--input", str(p)])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "input"


def _overflow(capsys, tmp_path, obj, argv):
    """Exit code and error of a command whose kernels overflow a float."""
    p = tmp_path / "big.json"
    p.write_text(json.dumps(obj))
    code, out, err = _run(capsys, argv + ["--input", str(p)])
    assert code == 2 and out == ""
    err = json.loads(err)
    assert err["error"] == "input" and "overflows" in err["message"], err
    return err["message"]


def test_exit_code_membership_gram_overflow(tmp_path, capsys):
    # A*A of a nilpotent with entry 1e300 is not a float
    msg = _overflow(capsys, tmp_path, matrix_to_json(np.array([[0, 1e300], [0, 0]])), ["membership", "--rho", "3"])
    assert "a matrix" in msg and "rho = 3" in msg


def test_exit_code_radius_level_overflow(tmp_path, capsys):
    # w_rho of the nilpotent is about 1/rho, and the kernel of S over such
    # a level at rho = 1e300 is not a float
    msg = _overflow(capsys, tmp_path, matrix_to_json(np.array([[0.0, 1.0], [0.0, 0.0]])), ["radius", "--rho", "1e300"])
    assert "radius search" in msg and "rho = 1e+300" in msg


def test_exit_code_tuple_norm_overflow(tmp_path, capsys):
    # the norm sum 2e200 of (1e200 J, 1e200 I, I) squares past the floats
    j = np.array([[0.0, 1.0], [0.0, 0.0]])
    t = OperatorTuple((1e200 * j, 1e200 * np.eye(2), np.eye(2)))
    msg = _overflow(capsys, tmp_path, tuple_to_json(t), ["membership", "--rho", "2"])
    assert "torus slice" in msg and "2e+200" in msg


def test_exit_code_missing_file(capsys):
    code, _, err = _run(capsys, ["numrad", "--input", "/nonexistent.json"])
    assert code == 2
    assert json.loads(err)["error"] == "input"


def test_exit_code_capacity_error(tmp_path, capsys):
    rho = 1.0
    big, e = build_shift_unitary_rho_dilation(rho, 8)
    small = OperatorTuple((nilpotent_jump(rho),))
    (tmp_path / "s.json").write_text(json.dumps(tuple_to_json(small)))
    (tmp_path / "b.json").write_text(json.dumps(tuple_to_json(big)))
    (tmp_path / "e.json").write_text(json.dumps(embedding_to_json(e)))
    code, _, err = _run(capsys, [
        "verify-dilation", "--mode", "uniform",
        "--small", str(tmp_path / "s.json"), "--big", str(tmp_path / "b.json"),
        "--embedding", str(tmp_path / "e.json"), "--rho", "1", "--nmax", "9",
    ])
    assert code == 3
    assert json.loads(err)["error"] == "capacity"


@pytest.mark.parametrize("mode,nmax", [("sym", 17), ("uniform", 7)])
def test_verify_dilation_capacity_before_any_product(tmp_path, capsys, monkeypatch, mode, nmax):
    # a word length over the cap is refused before any block product is formed
    from rho_radii import dilation

    levels = []
    sym_multipowers, worse = dilation.sym_multipowers, dilation._worse

    def counting_sym_multipowers(*args):
        for level in sym_multipowers(*args):
            levels.append(level)
            yield level

    monkeypatch.setattr(dilation, "sym_multipowers", counting_sym_multipowers)
    monkeypatch.setattr(dilation, "_worse", lambda *args: levels.append(args) or worse(*args))
    big, e = build_shift_unitary_rho_dilation(1.0, 8)
    (tmp_path / "s.json").write_text(json.dumps(tuple_to_json(OperatorTuple((nilpotent_jump(1.0),)))))
    (tmp_path / "b.json").write_text(json.dumps(tuple_to_json(big)))
    (tmp_path / "e.json").write_text(json.dumps(embedding_to_json(e)))
    code, out, err = _run(capsys, [
        "verify-dilation", "--mode", mode,
        "--small", str(tmp_path / "s.json"), "--big", str(tmp_path / "b.json"),
        "--embedding", str(tmp_path / "e.json"), "--rho", "1", "--nmax", str(nmax),
    ])
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "capacity"
    assert levels == []


def _canonical_sha256(mats):
    import hashlib

    h = hashlib.sha256()
    for m in mats:
        h.update(np.array(m.shape, dtype="<i8").tobytes())
        h.update(np.ascontiguousarray(m, dtype="<c16").tobytes())
    return h.hexdigest()


def _integral_entries(obj):
    """obj with every integral float written as a JSON integer."""
    if isinstance(obj, dict):
        return {k: _integral_entries(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_integral_entries(v) for v in obj]
    return int(obj) if isinstance(obj, float) and obj.is_integer() else obj


@pytest.mark.parametrize("mode", ["sym", "uniform"])
def test_verify_dilation_report_cites_inputs(tmp_path, capsys, mode):
    # the report names its inputs by dimensions and digest, not by echoing them
    from rho_radii.dilation import build_staircase_isometric_dilation, build_staircase_pair
    from rho_radii.serialize import embedding_from_json, load_operator_input

    rho = 2.0
    v, e, _ = build_staircase_isometric_dilation(rho, 16, 5)
    objs = {"s": tuple_to_json(build_staircase_pair(rho)), "b": tuple_to_json(v), "e": embedding_to_json(e)}

    def report(name, dump):
        paths = {}
        for key, obj in objs.items():
            paths[key] = tmp_path / f"{name}-{key}.json"
            paths[key].write_text(dump(obj))
        code, out, _ = _run(capsys, [
            "verify-dilation", "--mode", mode, "--small", str(paths["s"]), "--big", str(paths["b"]),
            "--embedding", str(paths["e"]), "--rho", "2", "--nmax", "4",
        ])
        assert code == 0
        return paths, out

    paths, out = report("plain", json.dumps)
    rep = json.loads(out)
    assert rep["passed"] is True and rep["mode"] == ("Symmetrized" if mode == "sym" else "Uniform")
    assert not {"small", "big", "embedding"} & set(rep)
    assert len(out.encode()) < 1024
    inputs = rep["inputs"]
    small, big = load_operator_input(paths["s"]), load_operator_input(paths["b"])
    basis = embedding_from_json(json.loads(paths["e"].read_text())).basis
    assert inputs["small"] == {"shape": [2, 4, 4], "sha256": _canonical_sha256(small.mats)}
    assert inputs["big"] == {"shape": [2, 80, 80], "sha256": _canonical_sha256(big.mats)}
    assert inputs["embedding"] == {"shape": [1, 80, 4], "sha256": _canonical_sha256([basis])}
    assert rep["products"] == {"small": 20 if mode == "sym" else 30, "big": 20 if mode == "sym" else 30}

    # the same matrices written another way digest the same
    _, out = report("indented", lambda obj: json.dumps(_integral_entries(obj), indent=2))
    assert json.loads(out)["inputs"] == inputs
    # one changed entry changes the digest of that input only
    objs["b"]["mats"][1]["data"][7] = [0.0, 1e-300]
    _, out = report("changed", json.dumps)
    changed = json.loads(out)["inputs"]
    assert changed["big"]["sha256"] != inputs["big"]["sha256"]
    assert changed["small"] == inputs["small"] and changed["embedding"] == inputs["embedding"]


def test_exit_code_bad_sweep_range(nilp, capsys):
    code, _, err = _run(capsys, [
        "sweep", "--rho-from", "2", "--rho-to", "1", "--steps", "3", "--input", nilp,
    ])
    assert code == 2


def test_parser_reused_across_calls(nilp, capsys, monkeypatch):
    # consecutive calls on the one parser answer as calls on fresh parsers
    commands = [
        ["radius", "--rho", "2", "--input", nilp],
        ["membership", "--rho", "1", "--input", nilp],
        ["membership", "--rho", "1"],  # no --input: argparse exits with 2
        ["sweep", "--rho-from", "1", "--rho-to", "2", "--steps", "3", "--input", nilp],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        text = out.out
        if argv[0] == "radius":
            text = json.loads(text)
            text.pop("wall_time_s")
        return code, text, out.err

    fresh = []
    for argv in commands:
        cli._parser.cache_clear()
        fresh.append(run(argv))
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    assert [run(argv) for argv in commands] == fresh
    assert [code for code, _, _ in fresh] == [0, 0, 2, 0]
    assert len(builds) == 1


@pytest.mark.parametrize("entry", [[1, 0, 5], [1], 1, ["a", 0], ["1.5", "0"], [None, 0]])
def test_exit_code_malformed_matrix_entry(tmp_path, capsys, entry):
    # a data entry that is not a [re, im] pair of numbers is an input error
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"rows": 1, "cols": 2, "data": [[0.5, 0], entry]}))
    code, out, err = _run(capsys, ["radius", "--rho", "1", "--input", str(p)])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "input"


def test_json_reports_are_one_sorted_line(tmp_path, capsys, nilp):
    # every JSON subcommand prints one line of sorted-key JSON
    rho = 2.0
    big, e = build_shift_unitary_rho_dilation(rho, 8)
    (tmp_path / "s.json").write_text(json.dumps(tuple_to_json(OperatorTuple((nilpotent_jump(rho),)))))
    (tmp_path / "b.json").write_text(json.dumps(tuple_to_json(big)))
    (tmp_path / "e.json").write_text(json.dumps(embedding_to_json(e)))
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps(tuple_to_json(OperatorTuple((0.2 * np.eye(2), 0.2 * np.array([[0, 1], [0, 0]]))))))
    dilation = ["--small", str(tmp_path / "s.json"), "--big", str(tmp_path / "b.json"),
                "--embedding", str(tmp_path / "e.json"), "--rho", "2", "--nmax", "4"]
    commands = [
        ["radius", "--rho", "3", "--input", nilp],
        ["radius", "--rho", "2", "--input", str(pair)],
        ["membership", "--rho", "3", "--input", nilp],
        ["membership", "--rho", "1", "--input", str(pair)],
        ["numrad", "--input", nilp],
        ["verify-dilation", "--mode", "sym", *dilation],
        ["verify-dilation", "--mode", "uniform", *dilation],
        ["repro", "--name", "scalar-boundary"],
    ]
    for argv in commands:
        code, out, _ = _run(capsys, argv)
        assert code == 0, argv
        assert out == json.dumps(json.loads(out), sort_keys=True) + "\n", argv


@pytest.mark.parametrize("content", [b"\xff" + json.dumps(matrix_to_json(np.eye(2))).encode(),
                                     b"[" * 100_000 + b"]" * 100_000], ids=["not-utf8", "too-deep"])
@pytest.mark.parametrize("flag", ["--input", "--small", "--big", "--embedding"])
def test_exit_code_undecodable_input(tmp_path, capsys, flag, content):
    # a file that is not UTF-8, or nests deeper than the decoder allows, is
    # an input error (exit 2), on every input flag
    rho = 2.0
    big, e = build_shift_unitary_rho_dilation(rho, 8)
    files = {"--small": tuple_to_json(OperatorTuple((nilpotent_jump(rho),))), "--big": tuple_to_json(big),
             "--embedding": embedding_to_json(e)}
    paths = {}
    for key, obj in files.items():
        paths[key] = tmp_path / f"{key[2:]}.json"
        paths[key].write_text(json.dumps(obj))
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    paths[flag] = bad
    if flag == "--input":
        commands = [["radius", "--rho", "2"], ["numrad"], ["membership", "--rho", "2"]]
    else:
        commands = [["verify-dilation", "--mode", "sym", "--rho", "2", "--nmax", "3"]
                    + [arg for key in files for arg in (key, str(paths[key]))]]
    for argv in commands:
        code, out, err = _run(capsys, argv + (["--input", str(bad)] if flag == "--input" else []))
        assert code == 2 and out == "", argv
        assert json.loads(err)["error"] == "input", err
