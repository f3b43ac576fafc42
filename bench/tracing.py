"""Span tracer that wraps the library's layer boundaries from outside.

Nothing in ``src/`` knows about it.  ``Tracer.install`` replaces, in every
module namespace that refers to them, the public functions of each
``rho_radii`` module and the numpy entry points the library calls; while a
command is open every call records a span (name, start, end, parent, command
id).  Self time -- a span's duration minus its children's -- is accumulated
as spans close, so aggregates need no second pass.  Spans stay in memory
until ``write_spans`` is called at the end of a run.
"""

from __future__ import annotations

import importlib
import json
import math
from contextlib import contextmanager
from time import perf_counter

LIBRARY_MODULES = ("cli", "dilation", "linalg", "pencil", "radii", "repro", "serialize")

#: numpy.linalg entry points used by the library, reported as "lapack.<name>".
LAPACK_FUNCS = ("eigvalsh", "eigvals", "inv", "svd", "norm", "solve", "qr", "matrix_power")

#: Layers whose failed spans are counted as "<layer>.errors".
LAYERS = ("cli", "serialize", "radii", "linalg", "pencil", "dilation", "repro", "lapack")

ROOT = "cli.main"


def _batch(a) -> int:
    shape = getattr(a, "shape", ())
    return math.prod(shape[:-2]) if len(shape) > 2 else 1


def _eigvalsh_flops(a) -> float:
    """Computed (not counted) real flops of a complex Hermitian eigenvalue
    solve: about 16/3 n^3 per matrix for the tridiagonal reduction."""
    shape = getattr(a, "shape", (0,))
    return _batch(a) * 16.0 / 3.0 * shape[-1] ** 3


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "errors", "matrices", "flops")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.errors = 0
        self.matrices = 0
        self.flops = 0.0


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent_id, command_id, error)
        self.stats: dict[str, Stat] = {}
        self.edges: dict[tuple[str, str], Stat] = {}  # (parent, child) -> Stat
        self._stack: list = []  # open frames: [id, name, start, child_s]
        self._next_id = 0
        self._command_id = -1
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def _stat(self, table, key) -> Stat:
        st = table.get(key)
        if st is None:
            st = table[key] = Stat()
        return st

    def _open(self, name):
        frame = [self._next_id, name, perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame, error: bool):
        end = perf_counter()
        self._stack.pop()
        span_id, name, start, child_s = frame
        dur = end - start
        st = self._stat(self.stats, name)
        st.calls += 1
        st.total_s += dur
        st.self_s += dur - child_s
        st.errors += error
        parent_id = -1
        if self._stack:
            parent = self._stack[-1]
            parent[3] += dur
            parent_id = parent[0]
            edge = self._stat(self.edges, (parent[1], name))
            edge.calls += 1
            edge.total_s += dur
        self.spans.append((span_id, name, start, end, parent_id, self._command_id, error))
        return st

    @contextmanager
    def command(self, command_id: int):
        """Root span of one CLI command; only calls inside it are recorded."""
        self._command_id = command_id
        frame = self._open(ROOT)
        error = True
        try:
            yield
            error = False
        finally:
            self._close(frame, error)

    def _wrap(self, name, fn, matrices=None, flops=None):
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            frame = tracer._open(name(args, kwargs) if callable(name) else name)
            error = True
            try:
                out = fn(*args, **kwargs)
                error = False
                return out
            finally:
                st = tracer._close(frame, error)
                if matrices is not None and args:
                    st.matrices += matrices(args[0])
                if flops is not None and args:
                    st.flops += flops(args[0])

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner[attr] if isinstance(owner, dict) else getattr(owner, attr)))
        if isinstance(owner, dict):
            owner[attr] = new
        else:
            setattr(owner, attr, new)

    def install(self):
        """Wrap every public library function under each name it is bound
        to (modules import functions by name, and ``repro.EXPERIMENTS``
        holds them in a dict), plus numpy.linalg, numpy.kron and json."""
        import json as json_mod

        import numpy as np

        mods = [importlib.import_module("rho_radii")]
        mods += [importlib.import_module(f"rho_radii.{m}") for m in LIBRARY_MODULES]
        wrappers = {}
        for mod in mods[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(mod).items():
                if (callable(fn) and getattr(fn, "__module__", None) == mod.__name__
                        and not attr.startswith("_") and not isinstance(fn, type)
                        and f"{short}.{attr}" != ROOT):
                    wrappers[id(fn)] = self._wrap(f"{short}.{attr}", fn)
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers:
                    self._patch(mod, attr, wrappers[id(val)])
                elif isinstance(val, dict) and not attr.startswith("__"):
                    for key, fn in list(val.items()):
                        if id(fn) in wrappers:
                            self._patch(val, key, wrappers[id(fn)])

        for fname in LAPACK_FUNCS:
            fn = getattr(np.linalg, fname)
            if fname == "norm":
                def norm_name(args, kwargs):
                    order = args[1] if len(args) > 1 else kwargs.get("ord")
                    return "lapack.norm2" if order == 2 else "lapack.norm"

                self._patch(np.linalg, fname, self._wrap(norm_name, fn))
            else:
                self._patch(np.linalg, fname, self._wrap(
                    f"lapack.{fname}", fn, matrices=_batch,
                    flops=_eigvalsh_flops if fname == "eigvalsh" else None))
        self._patch(np, "kron", self._wrap("numpy.kron", np.kron))
        self._patch(json_mod, "load", self._wrap("serialize.json_load", json_mod.load))
        self._patch(json_mod, "dumps", self._wrap("serialize.json_dumps", json_mod.dumps))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)

    # -- output ------------------------------------------------------------

    def self_sum(self) -> float:
        return sum(st.self_s for st in self.stats.values())

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(tr: Tracer, blocks: int, bytes_in: int, bytes_out: int) -> dict:
    """Per-layer metrics named in BENCHMARK.json, per traced block."""
    s, e = tr.stats, tr.edges
    empty = Stat()
    get = lambda name: s.get(name, empty)  # noqa: E731
    per = 1.0 / blocks
    out = {}

    def add(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def calls_self(name):
        add(f"{name}.calls", get(name).calls * per, "count")
        add(f"{name}.self_s", get(name).self_s * per, "s")

    eig = get("lapack.eigvalsh")
    calls_self("lapack.eigvalsh")
    add("lapack.eigvalsh.matrices", eig.matrices * per, "count")
    add("lapack.eigvalsh.batch_mean", eig.matrices / eig.calls if eig.calls else 0.0, "count")
    add("lapack.eigvalsh.flops_computed", eig.flops * per, "flop")

    for name in ("radii.kernel_margin", "radii.w_rho", "radii.tuple_membership_margin",
                 "radii.w_rho_tuple", "radii.membership_tuple", "radii.membership_single",
                 "radii.numerical_radius", "linalg.op_norm", "linalg.spectral_radius",
                 "lapack.norm2", "pencil.eval_pencil", "pencil.word_product",
                 "pencil.sym_multipower", "linalg.compress"):
        calls_self(name)
    under_w = e.get(("radii.w_rho", "radii.kernel_margin"), empty).calls
    w_calls = get("radii.w_rho").calls
    add("radii.kernel_margin.per_radius", under_w / w_calls if w_calls else 0.0, "count")
    for name in ("lapack.inv", "lapack.svd"):
        add(f"{name}.matrices", get(name).matrices * per, "count")
        add(f"{name}.self_s", get(name).self_s * per, "s")
    add("lapack.eigvals.calls", get("lapack.eigvals").calls * per, "count")

    add("radii.w_rho_tuple.total_s", get("radii.w_rho_tuple").total_s * per, "s")
    add("radii.w_rho_tuple.lower_bound_s",
        e.get(("radii.w_rho_tuple", "radii.w_rho"), empty).total_s * per, "s")
    add("radii.w_rho_tuple.margin_s",
        e.get(("radii.w_rho_tuple", "radii.tuple_membership_margin"), empty).total_s * per, "s")
    add("radii.sample_commuting_tuples.self_s", get("radii.sample_commuting_tuples").self_s * per, "s")
    add("radii.sample_commuting_tuples.total_s", get("radii.sample_commuting_tuples").total_s * per, "s")
    add("radii.substitution.kron_calls",
        sum(st.calls for (p, c), st in e.items() if c == "numpy.kron" and p.startswith("radii.")) * per,
        "count")

    verify = ("dilation.verify_rho_dilation", "dilation.verify_uniform_rho_dilation")
    add("dilation.verify.self_s", sum(get(n).self_s for n in verify) * per, "s")
    add("dilation.words_checked",
        sum(e.get((n, "linalg.compress"), empty).calls for n in verify) * per, "count")

    def self_where(pred):
        return sum(st.self_s for n, st in s.items() if pred(n)) * per

    add("serialize.load.self_s", self_where(
        lambda n: n.startswith("serialize.") and (n.endswith("_from_json") or n in (
            "serialize.load_operator_input", "serialize.json_load"))), "s")
    add("serialize.dump.self_s", self_where(
        lambda n: n.startswith("serialize.") and (n.endswith("_to_json") or n == "serialize.json_dumps")), "s")
    add("serialize.bytes_in", bytes_in * per, "B")
    add("serialize.bytes_out", bytes_out * per, "B")
    calls_self(ROOT)
    add("repro.experiment.self_s", self_where(lambda n: n.startswith("repro.")), "s")
    for layer in LAYERS:
        add(f"{layer}.errors", sum(st.errors for n, st in s.items() if n.startswith(layer + ".")) * per,
            "count")
    add("trace.spans", len(tr.spans) * per, "count")
    return out
