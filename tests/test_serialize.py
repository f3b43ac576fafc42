"""Round-trips for the JSON wire formats."""

import gc
import json

import numpy as np
import pytest

from rho_radii.errors import InputError
from rho_radii.linalg import Embedding
from rho_radii.pencil import OperatorTuple
from rho_radii.serialize import (
    embedding_from_json,
    embedding_to_json,
    load_input,
    load_operator_input,
    matrix_from_json,
    matrix_to_json,
    tuple_from_json,
    tuple_to_json,
)


def test_matrix_round_trip():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    np.testing.assert_array_equal(matrix_from_json(matrix_to_json(m)), m)


def test_matrix_bad_length_rejected():
    with pytest.raises(InputError):
        matrix_from_json({"rows": 2, "cols": 2, "data": [[1, 0]]})


def test_tuple_round_trip():
    t = OperatorTuple((np.eye(2), np.array([[0, 1j], [0, 0]])))
    t2 = tuple_from_json(tuple_to_json(t))
    for a, b in zip(t.mats, t2.mats):
        np.testing.assert_array_equal(a, b)


def test_tuple_count_mismatch_rejected():
    obj = tuple_to_json(OperatorTuple((np.eye(2),)))
    obj["n_vars"] = 2
    with pytest.raises(InputError):
        tuple_from_json(obj)


def test_embedding_round_trip():
    e = Embedding.from_coordinates(4, [1, 0])
    e2 = embedding_from_json(embedding_to_json(e))
    np.testing.assert_array_equal(e.basis, e2.basis)


def test_load_operator_input_matrix_and_tuple(tmp_path):
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(matrix_to_json(np.eye(2))))
    t = load_operator_input(mpath)
    assert t.n_vars == 1

    tpath = tmp_path / "t.json"
    tpath.write_text(json.dumps(tuple_to_json(OperatorTuple((np.eye(2), np.eye(2))))))
    t = load_operator_input(tpath)
    assert t.n_vars == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    with pytest.raises(InputError):
        load_operator_input(bad)


def _matrix_to_json_per_element(m):
    """matrix_to_json as a per-element comprehension."""
    a = np.asarray(m, dtype=complex)
    return {"rows": a.shape[0], "cols": a.shape[1],
            "data": [[float(x.real), float(x.imag)] for x in a.ravel()]}


def test_matrix_json_matches_per_element_and_round_trips_bitwise():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    m[0, 0] = complex(-0.0, -0.0)
    m[1, 2] = complex(5e-324, -2.2250738585072014e-309)
    m[3, 4] = complex(1e308, -1e308)
    for a in (m, m.T, m[::2, 1:], np.eye(3), np.array([[1, -2], [0, 3]])):
        obj = matrix_to_json(a)
        assert json.dumps(obj) == json.dumps(_matrix_to_json_per_element(a))
        back = matrix_from_json(json.loads(json.dumps(obj)))
        assert back.tobytes() == np.ascontiguousarray(a, dtype=complex).tobytes()


@pytest.mark.parametrize("data", [[[1, 0]], [[True, -0.0]], [[False, True]], [[2.5, 10**30]], [[1, 2**70]]])
def test_matrix_from_json_numbers_load_as_complex_pairs(data):
    # ints, floats and booleans load as complex(re, im) did
    got = matrix_from_json({"rows": 1, "cols": 1, "data": data})
    assert got.tobytes() == np.array([[complex(*data[0])]]).tobytes()


@pytest.mark.parametrize("entry", [[1, 0, 5], [1], 1, ["a", 0], ["1.5", "0"], [None, 0], {"re": 1}, [10**400, 0]])
def test_matrix_from_json_malformed_entry_rejected(entry):
    with pytest.raises(InputError):
        matrix_from_json({"rows": 1, "cols": 2, "data": [[0.5, 0], entry]})
    with pytest.raises(InputError):
        matrix_from_json({"rows": 1, "cols": 1, "data": [entry]})


@pytest.mark.parametrize("value", [1.7, "2", None, [2], float("nan"), float("inf")])
def test_non_integral_counts_rejected(value):
    m = matrix_to_json(np.eye(2))
    for key in ("rows", "cols"):
        with pytest.raises(InputError):
            matrix_from_json({**m, key: value})
    with pytest.raises(InputError):
        tuple_from_json({**tuple_to_json(OperatorTuple((np.eye(2),))), "n_vars": value})
    with pytest.raises(InputError):
        embedding_from_json({**embedding_to_json(Embedding(np.eye(3)[:, :2])), "ambient_dim": value})


@pytest.mark.parametrize("value", [True, False])
def test_boolean_counts_rejected(value):
    # JSON true and false load as Python bools, an int subclass: a count
    # rejects them, while matrix data reads them as 1 and 0
    m = matrix_to_json(np.eye(1))
    for key in ("rows", "cols"):
        with pytest.raises(InputError, match="integer"):
            matrix_from_json({**m, key: value})
    with pytest.raises(InputError, match="integer"):
        tuple_from_json({**tuple_to_json(OperatorTuple((np.eye(1),))), "n_vars": value})
    with pytest.raises(InputError, match="integer"):
        embedding_from_json({**embedding_to_json(Embedding(np.eye(2)[:, :1])), "ambient_dim": value})


def test_integral_float_counts_accepted():
    m = matrix_from_json({**matrix_to_json(np.eye(2)), "rows": 2.0, "cols": 2.0})
    np.testing.assert_array_equal(m, np.eye(2))
    assert tuple_from_json({**tuple_to_json(OperatorTuple((np.eye(2),))), "n_vars": 1.0}).n_vars == 1


@pytest.mark.parametrize("text", ["5", "[1, 2]", "\"mats\"", "null", "true"])
def test_load_operator_input_rejects_non_object(tmp_path, text):
    p = tmp_path / "top.json"
    p.write_text(text)
    with pytest.raises(InputError):
        load_operator_input(p)


def _collections_during(fn):
    """fn() and the number of garbage collections that started while it ran."""
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(count)
    try:
        result = fn()
    finally:
        gc.callbacks.remove(count)
    return result, len(starts)


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("case", ["ok", "bad-json", "bad-entry", "missing", "too-deep", "not-utf8"])
def test_load_input_restores_the_collector(tmp_path, case, enabled):
    # the collector is paused while a file is decoded and converted, and
    # left as the caller had it on success and on every error
    p = tmp_path / "m.json"
    content = {"ok": json.dumps(matrix_to_json(np.eye(2))), "bad-json": "{",
               "bad-entry": json.dumps({"rows": 1, "cols": 1, "data": [["x", 0]]}),
               "too-deep": "[" * 100_000 + "]" * 100_000}.get(case)
    if case == "not-utf8":
        p.write_bytes(b"\xff{}")
    elif content is not None:
        p.write_text(content)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if case == "ok":
            np.testing.assert_array_equal(load_input(p, matrix_from_json), np.eye(2))
        else:
            errors = {"bad-json": json.JSONDecodeError, "missing": OSError}
            with pytest.raises(errors.get(case, InputError)):
                load_input(p, matrix_from_json)
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_loading_the_staircase_dilation_runs_no_collection(tmp_path):
    # the 80-dim staircase tuple decodes to 12 800 [re, im] lists; with the
    # collector paused none of them is walked, and none is left to walk
    from rho_radii.dilation import build_staircase_isometric_dilation

    v, _, _ = build_staircase_isometric_dilation(2.0, 16, 5)
    p = tmp_path / "big.json"
    p.write_text(json.dumps(tuple_to_json(v)))
    assert gc.isenabled()
    gc.collect()
    t, collections = _collections_during(lambda: load_operator_input(p))
    assert collections == 0
    assert all(np.array_equal(a, b) for a, b in zip(t.mats, v.mats))
    before = gc.get_count()[0]
    assert before < gc.get_threshold()[0], before
