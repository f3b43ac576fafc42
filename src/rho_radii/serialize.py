"""JSON wire formats for matrices, tuples, and embeddings.

Matrix:      {"rows": m, "cols": n, "data": [[re, im], ...]}   (row-major)
Tuple:       {"n_vars": N, "mats": [matrix, ...]}
Embedding:   {"ambient_dim": n, "basis": matrix}
"""

from __future__ import annotations

import gc
import json

import numpy as np

from .errors import InputError
from .linalg import Embedding, as_matrix
from .pencil import OperatorTuple


def matrix_to_json(m) -> dict:
    a = np.ascontiguousarray(as_matrix(m))
    data = a.view(np.float64).reshape(-1, 2).tolist()
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "data": data}


def _integer(value, name: str) -> int:
    """``value`` as an int; InputError unless it is an integral number
    (true and false are not, although bool is an int subclass)."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"{name} must be an integer, got {value!r}")
    return value


def matrix_from_json(obj) -> np.ndarray:
    """The matrix of a matrix JSON object; InputError unless each entry of
    ``data`` is a [re, im] pair of numbers (true and false count as 1, 0)."""
    try:
        rows, cols, data = _integer(obj["rows"], "rows"), _integer(obj["cols"], "cols"), obj["data"]
        count = len(data)
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed matrix JSON: {exc}") from exc
    if rows < 1 or cols < 1:
        raise InputError(f"matrix must have at least one row and one column, got {rows} x {cols}")
    if count != rows * cols:
        raise InputError(f"matrix data length {count} != rows*cols = {rows * cols}")
    try:
        pairs = np.array(data)
        if pairs.dtype == object and all(isinstance(x, (int, float)) for x in pairs.flat):
            pairs = pairs.astype(np.float64)  # integers past int64
    except (ValueError, OverflowError):
        pairs = None
    if pairs is None or pairs.dtype.kind not in "biuf" or pairs.shape != (count, 2):
        raise InputError("matrix data entries must be [re, im] pairs of numbers")
    flat = np.ascontiguousarray(pairs, dtype=np.float64).view(complex)
    return as_matrix(flat.reshape(rows, cols))


def matrices_sha256(mats) -> str:
    """Hex SHA-256 of the matrices' canonical bytes: for each in order, its shape
    as little-endian int64, then its entries as little-endian complex128, C order."""
    import hashlib  # lazily: only dilation reports need it
    h = hashlib.sha256()
    for m in mats:
        h.update(np.array(m.shape, dtype="<i8").tobytes())
        h.update(np.ascontiguousarray(m, dtype="<c16").tobytes())
    return h.hexdigest()


def tuple_to_json(t: OperatorTuple) -> dict:
    return {"n_vars": t.n_vars, "mats": [matrix_to_json(m) for m in t.mats]}


def tuple_from_json(obj) -> OperatorTuple:
    try:
        n_vars, mats = _integer(obj["n_vars"], "n_vars"), obj["mats"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed tuple JSON: {exc}") from exc
    if len(mats) != n_vars:
        raise InputError(f"tuple declares {n_vars} variables but has {len(mats)} matrices")
    return OperatorTuple(tuple(matrix_from_json(m) for m in mats))


def embedding_to_json(e: Embedding) -> dict:
    return {"ambient_dim": e.ambient_dim, "basis": matrix_to_json(e.basis)}


def embedding_from_json(obj) -> Embedding:
    try:
        ambient = _integer(obj["ambient_dim"], "ambient_dim")
        basis = matrix_from_json(obj["basis"])
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed embedding JSON: {exc}") from exc
    if basis.shape[0] != ambient:
        raise InputError("embedding basis rows != ambient_dim")
    return Embedding(basis)


def load_input(path, convert):
    """``convert`` of the JSON value in the UTF-8 file ``path``.

    The file is decoded and converted with the cyclic garbage collector
    paused, and its previous state is restored on the way out.  A decoded
    tree holds no cycles, so a collection would find nothing in it, yet
    the 80-dim inputs hold thousands of [re, im] lists that each automatic
    collection would walk; by the time the collector runs again the tree
    is freed.  A file that is not UTF-8 or nests too deeply for the
    decoder is an InputError.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path, encoding="utf-8") as fh:
            return convert(json.load(fh))
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 ({exc.reason})") from exc
    except RecursionError as exc:
        raise InputError(f"{path}: JSON nested too deeply") from exc
    finally:
        if enabled:
            gc.enable()


def load_operator_input(path):
    """Read a matrix or tuple JSON file (load_input); a bare matrix becomes
    a 1-tuple."""

    def convert(obj):
        if not isinstance(obj, dict):
            raise InputError(f"{path}: top-level JSON value is not an object")
        if "mats" in obj:
            return tuple_from_json(obj)
        if "data" in obj:
            return OperatorTuple((matrix_from_json(obj),))
        raise InputError(f"{path}: neither a matrix nor a tuple JSON object")

    return load_input(path, convert)
