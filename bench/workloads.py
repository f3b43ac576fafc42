"""Seeded command streams for the three workloads, and the oracle for each command.

A workload is a repeated *block*: a fixed multiset of command classes
(command, level rho, dimension d, expected verdict) in a seeded order, with
seeded inputs.  Every block of every seed has the same class mix, so the
latency distribution, and with it each percentile, has the same shape from
run to run; only the matrices and the order change.  The tables below put
p50 and p90 in stretches of graded latency, never on the step between two
classes (see the note above them).

Expected outputs come from closed forms where they exist (w_1 = ||A||, the
scalar formula, w_rho = ||N||/rho for N^2 = 0, the numerical radius at
rho = 2 from a dense theta-sweep computed here), from certified bounds for
triples, and otherwise from reference radii recorded by
``make_reference.py``.  Membership inputs sit 5% inside or outside their
reference radius, so a flipped verdict is a real error.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np
from rho_radii.dilation import (build_shift_unitary_rho_dilation, build_staircase_isometric_dilation,
                                build_staircase_pair, nilpotent_jump)
from rho_radii.pencil import OperatorTuple
from rho_radii.serialize import embedding_to_json, matrix_from_json, matrix_to_json, tuple_to_json

HERE = os.path.dirname(os.path.abspath(__file__))

#: Relative tolerance against the recorded single-operator references and
#: the closed forms.  Recorded radii agree with the transformed inputs to
#: about 5e-7; the bisection width 1e-6 is allowed on top.
RTOL = 1e-5
#: Pair radii: the recorded values carry the grid error of a sampled bidisk
#: supremum, which a more exact method may remove.
PAIR_RTOL = 5e-4
NUMRAD_RTOL = 1e-6
WIDTH = 1e-6
#: Membership inputs are scaled to (1 -/+ MARGIN) times the reference radius.
MARGIN = 0.05
#: Radii in a sweep: np.linspace(0.5, 2.0, 4).
SWEEP_LEVELS = (0.5, 1.0, 1.5, 2.0)

IN, OUT = "In", "Out"

#: Outcomes of an oracle check.  INCONCLUSIVE is an answer that misses the
#: expected verdict but stays within what the program documents: for N >= 3
#: an In verdict is only NecessaryOnly, so an Out triple answered In with
#: that exactness is not wrong, and is reported apart from failures.
PASS, FAIL, INCONCLUSIVE = "pass", "fail", "inconclusive"


# ---------------------------------------------------------------------------
# oracles


def check(expect: dict, code, out: str) -> tuple[str, str | None]:
    """(PASS, None) if a command's exit code and output satisfy its oracle,
    else (FAIL or INCONCLUSIVE, why not)."""
    why = _why_not(expect, code, out)
    if why is None:
        return PASS, None
    if expect.get("necessary_only_in") and why.startswith("decision"):
        rep = json.loads(out)  # parsed once already: the verdict was compared
        if rep["decision"] == IN and rep.get("exactness") == "NecessaryOnly":
            return INCONCLUSIVE, why + " (NecessaryOnly)"
    return FAIL, why


def _why_not(expect: dict, code, out: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    kind = expect["kind"]
    try:
        if kind == "sweep":
            lines = out.strip().splitlines()
            if lines[0] != "rho,w_rho":
                return "sweep: bad header"
            rows = [tuple(float(x) for x in ln.split(",")) for ln in lines[1:]]
        else:
            rep = json.loads(out)
    except (ValueError, IndexError) as exc:
        return f"unparsable output: {exc}"
    if kind == "radius":
        lo, hi = rep["lo"], rep["hi"]
        mid, want = (lo + hi) / 2, expect["value"]
        if not lo <= hi or abs(mid - want) > expect["rtol"] * want + WIDTH:
            return f"radius [{lo}, {hi}] vs expected {want}"
    elif kind == "numrad":
        got, want = rep["numerical_radius"], expect["value"]
        if abs(got - want) > NUMRAD_RTOL * want:
            return f"numerical radius {got} vs expected {want}"
    elif kind == "membership":
        if rep["decision"] != expect["decision"]:
            return f"decision {rep['decision']} vs expected {expect['decision']}"
    elif kind == "sweep":
        if [r[0] for r in rows] != [float(f"{x:.12g}") for x in SWEEP_LEVELS]:
            return f"sweep levels {[r[0] for r in rows]}"
        for (rho, got), want in zip(rows, expect["values"]):
            if abs(got - want) > RTOL * want + WIDTH:
                return f"sweep w_{rho} = {got} vs expected {want}"
    elif kind == "dilation":
        if rep["passed"] is not True:
            return f"dilation not verified (max residual {rep['max_residual']})"
    elif kind == "repro":
        bad = [c["description"] for c in rep["claims"] if c["pass"] is not True]
        if bad or not rep["claims"]:
            return f"failed claims: {bad}"
    else:
        raise ValueError(f"unknown oracle kind {kind!r}")
    return None


# ---------------------------------------------------------------------------
# input helpers


def tuple_json(mats) -> dict:
    return tuple_to_json(OperatorTuple(tuple(mats)))


def gaussian(rng, d) -> np.ndarray:
    return (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2 * d)


def haar_unitary(rng, d) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def op_norm(a) -> float:
    return float(np.linalg.svd(a, compute_uv=False)[0])


def numrad_dense(a, n_theta: int = 4096, chunk: int = 256) -> float:
    """max over theta of lambda_max(Re(e^{i theta} A)): a dense sweep, then
    three rounds of a finer local sweep around the best angle.  Angles go in
    chunks so that the temporaries stay small next to the library's own
    arrays (the benchmark reports the process's peak RSS)."""

    def lam(thetas):
        out = []
        for i in range(0, len(thetas), chunk):
            h = np.exp(1j * thetas[i:i + chunk])[:, None, None] * a
            out.append(np.linalg.eigvalsh((h + h.conj().transpose(0, 2, 1)) / 2)[:, -1])
        return np.concatenate(out)

    thetas = np.linspace(0, 2 * np.pi, n_theta, endpoint=False)
    vals = lam(thetas)
    best, span = float(thetas[int(np.argmax(vals))]), 2 * np.pi / n_theta
    for _ in range(3):
        local = best + np.linspace(-span, span, 65)
        vals = lam(local)
        best, span = float(local[int(np.argmax(vals))]), span / 32
    return float(vals.max())


def torus_norm_max(mats, n: int = 24) -> float:
    """max of ||z A|| over an n^(N-1) grid of torus points with z_1 = 1."""
    angles = np.exp(1j * 2 * np.pi * np.arange(n) / n)
    grids = np.meshgrid(*([angles] * (len(mats) - 1)), indexing="ij")
    pencil = mats[0][None] + sum(g.ravel()[:, None, None] * m for g, m in zip(grids, mats[1:]))
    return float(np.linalg.svd(pencil, compute_uv=False)[:, 0].max())


class Pool:
    """Base matrices and pairs with radii recorded at the reference commit."""

    def __init__(self):
        with open(os.path.join(HERE, "ref_single.json")) as fh:
            single = json.load(fh)["entries"]
        with open(os.path.join(HERE, "ref_pairs.json")) as fh:
            pairs = json.load(fh)["entries"]
        self.single = {}
        for e in single:
            w = {float(k): (lo + hi) / 2 for k, (lo, hi) in e["w"].items()}
            self.single.setdefault(e["d"], []).append((matrix_from_json(e["matrix"]), w))
        self.pairs = {}
        for e in pairs:
            w = {float(k): (lo + hi) / 2 for k, (lo, hi) in e["w"].items()}
            self.pairs.setdefault(e["d"], []).append(([matrix_from_json(m) for m in e["mats"]], w))

    def matrix(self, rng, d, slot):
        """mu U A U* for the slot-th pool matrix A of dimension d (round
        robin, so a block's work does not hinge on one draw); returns it
        with |mu| times the recorded radii."""
        base, w = self.single[d][slot % len(self.single[d])]
        u = haar_unitary(rng, d)
        mu = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        return mu * (u @ base @ u.conj().T), {k: abs(mu) * v for k, v in w.items()}

    def pair(self, rng, d, slot, rotate=True):
        """The slot-th pool pair under a joint unitary similarity and a
        scale, and with ``rotate`` also independent phases and a random
        order; returns it with the scaled radii.  Without rotation the
        library's work is the same for every seed up to rounding."""
        mats, w = self.pairs[d][slot % len(self.pairs[d])]
        phases = [1.0, 1.0]
        if rotate:
            if rng.integers(2):
                mats = mats[::-1]
            phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        u = haar_unitary(rng, d)
        scale = rng.uniform(0.5, 2.0)
        out = [scale * ph * (u @ m @ u.conj().T) for ph, m in zip(phases, mats)]
        return out, {k: scale * v for k, v in w.items()}


# ---------------------------------------------------------------------------
# command construction


@dataclass(frozen=True)
class Command:
    label: str  # the command's class: subcommand, level, dimension, verdict
    argv: list
    expect: dict | None
    bytes_in: int


class Block:
    """Writes a block's input files and pairs each command with its oracle."""

    def __init__(self, workdir: str, pool: Pool, rng):
        self.workdir, self.pool, self.rng = workdir, pool, rng
        self.count = 0
        self.commands: list[Command] = []
        self.slots: dict = {}

    def slot(self, key) -> int:
        """Per-kind counter choosing pool entries round robin."""
        self.slots[key] = self.slots.get(key, -1) + 1
        return self.slots[key]

    def write(self, obj) -> str:
        self.count += 1
        path = os.path.join(self.workdir, f"in{self.count}.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return path

    def add(self, label, argv, expect, paths):
        size = sum(os.path.getsize(p) for p in paths)
        self.commands.append(Command(label, argv, expect, size))

    def level(self, a, w, rho) -> float:
        """Reference radius of a pool matrix at rho (closed forms at 1 and 2)."""
        if rho == 1.0:
            return op_norm(a)
        if rho == 2.0:
            return numrad_dense(a)
        return w[rho]

    # single operators ----------------------------------------------------

    def radius(self, rho, d):
        a, w = self.pool.matrix(self.rng, d, self.slot(d))
        p = self.write(matrix_to_json(a))
        self.add(f"radius rho={rho:g} d={d}", ["radius", "--rho", repr(rho), "--input", p],
                 {"kind": "radius", "value": self.level(a, w, rho), "rtol": RTOL}, [p])

    def membership(self, rho, d, decision):
        a, w = self.pool.matrix(self.rng, d, self.slot(d))
        factor = 1 - MARGIN if decision == IN else 1 + MARGIN
        a = a * (factor / self.level(a, w, rho))
        p = self.write(matrix_to_json(a))
        self.add(f"membership rho={rho:g} d={d} {decision}",
                 ["membership", "--rho", repr(rho), "--input", p],
                 {"kind": "membership", "decision": decision}, [p])

    def nilpotent_radius(self, rho, d):
        """mu U (J + 0) U* with J = [[0, 1], [0, 0]]: w_rho = |mu| / rho."""
        j = np.zeros((d, d), dtype=complex)
        j[0, 1] = 1.0
        u = haar_unitary(self.rng, d)
        mu = self.rng.uniform(0.5, 2.0) * np.exp(1j * self.rng.uniform(0, 2 * np.pi))
        p = self.write(matrix_to_json(mu * (u @ j @ u.conj().T)))
        self.add(f"nilpotent radius rho={rho:g} d={d}", ["radius", "--rho", repr(rho), "--input", p],
                 {"kind": "radius", "value": abs(mu) / rho, "rtol": RTOL}, [p])

    def scalar_radius(self, rho):
        """w_rho(a) = |a| max(1, 2/rho - 1) for a 1x1 matrix."""
        a = self.rng.uniform(0.5, 2.0) * np.exp(1j * self.rng.uniform(0, 2 * np.pi))
        p = self.write(matrix_to_json([[a]]))
        self.add(f"scalar radius rho={rho:g}", ["radius", "--rho", repr(rho), "--input", p],
                 {"kind": "radius", "value": abs(a) * max(1.0, 2.0 / rho - 1.0), "rtol": RTOL}, [p])

    def sweep(self, d):
        a, w = self.pool.matrix(self.rng, d, self.slot(d))
        p = self.write(matrix_to_json(a))
        values = [self.level(a, w, rho) for rho in SWEEP_LEVELS]
        self.add(f"sweep d={d}", ["sweep", "--rho-from", "0.5", "--rho-to", "2", "--steps", "4",
                                  "--input", p], {"kind": "sweep", "values": values}, [p])

    def numrad(self, d):
        a = gaussian(self.rng, d)
        p = self.write(matrix_to_json(a))
        self.add(f"numrad d={d}", ["numrad", "--input", p],
                 {"kind": "numrad", "value": numrad_dense(a)}, [p])

    # tuples ----------------------------------------------------------------

    def pair_radius(self, rho, d):
        mats, w = self.pool.pair(self.rng, d, self.slot(("pair", d)), rotate=False)
        p = self.write(tuple_json(mats))
        self.add(f"pair radius rho={rho:g} d={d}", ["radius", "--rho", repr(rho), "--input", p],
                 {"kind": "radius", "value": w[rho], "rtol": PAIR_RTOL}, [p])

    def pair_membership(self, rho, d, decision):
        mats, w = self.pool.pair(self.rng, d, self.slot(("pair", d)))
        factor = (1 - MARGIN if decision == IN else 1 + MARGIN) / w[rho]
        p = self.write(tuple_json([factor * m for m in mats]))
        self.add(f"pair membership rho={rho:g} d={d} {decision}",
                 ["membership", "--rho", repr(rho), "--input", p],
                 {"kind": "membership", "decision": decision}, [p])

    def triple_membership(self, rho, d, decision, budget):
        """Certified bounds: sum ||A_k|| max(1, 2/rho - 1) <= 1 - MARGIN gives
        In; ||zA|| >= (1 + MARGIN) rho at one torus point z gives Out.  The
        library's work grows with --budget: max(4 budget, 128) polydisk
        points, then budget commuting substitutions when no point fails."""
        mats = [gaussian(self.rng, d) for _ in range(3)]
        if decision == IN:
            factor = (1 - MARGIN) / (sum(op_norm(m) for m in mats) * max(1.0, 2.0 / rho - 1.0))
        else:
            factor = (1 + MARGIN) * rho / torus_norm_max(mats)
        p = self.write(tuple_json([factor * m for m in mats]))
        self.add(f"triple membership rho={rho:g} d={d} budget={budget} {decision}",
                 ["membership", "--rho", repr(rho), "--budget", str(budget), "--input", p],
                 {"kind": "membership", "decision": decision, "necessary_only_in": decision == OUT},
                 [p])

    # certificates ------------------------------------------------------------

    def _dilation(self, label, small, big, embedding, rho, mode, nmax):
        ps, pb, pe = (self.write(tuple_to_json(small)), self.write(tuple_to_json(big)),
                      self.write(embedding_to_json(embedding)))
        self.add(f"verify-dilation {label} {mode} nmax={nmax}",
                 ["verify-dilation", "--mode", mode, "--small", ps, "--big", pb, "--embedding", pe,
                  "--rho", repr(rho), "--nmax", str(nmax)], {"kind": "dilation"}, [ps, pb, pe])

    def staircase_dilation(self, mode, nmax):
        """The staircase pair in its binary-tree dilation (ambient dim 80)."""
        rho = float(self.rng.uniform(1.2, 3.0))
        v, e, _ = build_staircase_isometric_dilation(rho, 16, 5)
        self._dilation("staircase", build_staircase_pair(rho), v, e, rho, mode, nmax)

    def shift_dilation(self, mode, nmax):
        rho = float(self.rng.uniform(1.2, 3.0))
        big, e = build_shift_unitary_rho_dilation(rho, 16)
        self._dilation("shift", OperatorTuple((nilpotent_jump(rho),)), big, e, rho, mode, nmax)

    def repro(self, name, rho):
        argv = ["repro", "--name", name, "--rho", repr(rho)]
        if name == "scalar-boundary":
            argv += ["--eps", repr(rho * float(self.rng.uniform(0.1, 0.5)))]
        label = f"repro {name} rho=3" if name == "thm53" and rho > 2 else f"repro {name}"
        self.add(label, argv, {"kind": "repro"}, [])


# ---------------------------------------------------------------------------
# block tables

MEMBER_LEVELS = (0.5, 1.0, 2.0, 3.0)


# Latency varies with the machine's speed as well as with the command; on a
# shared 2-vCPU VM the speed was seen to switch between states about 1.7x
# apart for seconds to minutes.  A percentile that falls inside one class of
# identical commands then jumps between those states, so each table puts p50
# and p90 in a stretch of graded latencies (by d, level or --budget).


def single_block(b: Block):
    """Memberships and rho = 1 radii (63 of 100, graded by d) set p50.  The
    rho = 3 radii and the sweeps hold ranks 86-99, graded by d, with p90
    between rho = 3 radii at d = 3 and d = 4."""
    for d in range(2, 9):
        for rho in MEMBER_LEVELS:
            b.membership(rho, d, IN)
            b.membership(rho, d, OUT)
        b.radius(1.0, d)
        b.radius(0.5, d)
        b.radius(2.0, d)
    for d in (4, 5):
        b.radius(0.5, d)
    for d in (2, 3, 4, 4, 4, 5, 5, 6, 6, 7, 8):
        b.radius(3.0, d)
    for rho, d in ((0.5, 3), (1.0, 4), (2.0, 5), (3.0, 7)):
        b.nilpotent_radius(rho, d)
    for rho in (0.5, 2.0, 3.0):
        b.scalar_radius(rho)
    for d in (3, 5, 7):
        b.sweep(d)


def tuple_block(b: Block):
    """Triples decided Out by the sampled polydisk supremum (74 of 100,
    graded by --budget) set p50; pair memberships and triples decided In
    after the commuting substitutions (graded by d and --budget) hold
    ranks 74-97 and set p90; the two pair radii take about half the time."""
    b.pair_radius(0.5, 2)
    b.pair_radius(2.0, 3)
    for rho in (0.5, 2.0, 3.0):
        for d in (2, 3):
            b.pair_membership(rho, d, IN)
            b.pair_membership(rho, d, OUT)
    for i, budget in enumerate((16, 24, 32, 48, 64, 16, 24, 32, 48, 64, 32, 64)):
        b.triple_membership((0.5, 2.0)[i % 2], 2 + (i // 2) % 2, IN, budget)
    out_budgets = (32, 48, 64, 96, 128, 192, 256)
    for i in range(74):
        b.triple_membership((0.5, 2.0)[i % 2], 2 + (i // 2) % 2, OUT, out_budgets[i % 7])


def certify_block(b: Block):
    """rho = 1 commands, numrad and the small shift dilation set p50;
    staircase dilations at word length 3 and 4, whose time is mostly the
    80-dim JSON report, set p90."""
    for _ in range(4):
        for mode, nmax in (("uniform", 3), ("uniform", 4), ("sym", 3), ("sym", 4)):
            b.staircase_dilation(mode, nmax)
    b.staircase_dilation("uniform", 5)
    b.staircase_dilation("sym", 6)
    for mode in ("sym", "uniform", "sym", "uniform"):
        b.shift_dilation(mode, 6)
    b.repro("thm51", float(b.rng.uniform(1.5, 3.0)))
    b.repro("thm53", float(b.rng.uniform(1.2, 2.0)))
    b.repro("thm53", 3.0)
    for _ in range(4):
        b.repro("scalar-boundary", float(b.rng.uniform(0.2, 0.8)))
    b.scalar_radius(2.0)
    b.scalar_radius(3.0)
    for d in range(2, 9):
        for _ in range(2):
            b.numrad(d)
            b.radius(1.0, d)
        b.membership(1.0, d, IN)
        b.membership(1.0, d, OUT)


BLOCKS = {"single": single_block, "tuple": tuple_block, "certify": certify_block}


def make_block(workload: str, seed: int, index: int, workdir: str, pool: Pool) -> list[Command]:
    """The index-th block of a workload: its inputs written under workdir,
    its commands in a seeded order."""
    rng = np.random.default_rng([seed, list(BLOCKS).index(workload), index])
    os.makedirs(workdir, exist_ok=True)
    b = Block(workdir, pool, rng)
    BLOCKS[workload](b)
    order = rng.permutation(len(b.commands))
    return [b.commands[i] for i in order]
