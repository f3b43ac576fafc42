"""Command-line interface.

Subcommands: radius, membership, numrad, verify-dilation, repro, sweep.
All inputs are JSON files (matrix or tuple wire format); reports are one
line of sorted-key JSON on stdout or --output (sweep: CSV).  Exit codes:
0 success, 1 failed reproduction claims, 2 input error, 3 capacity error.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import sys

import numpy as np

from .dilation import verify_rho_dilation, verify_uniform_rho_dilation
from .errors import CapacityError, InputError, RhoRadiiError
from .radii import (
    DEFAULT_BUDGET,
    DEFAULT_TOL,
    DEFAULT_WIDTH,
    membership_tuple,
    numerical_radius_report,
    w_rho_tuple,
)
from .repro import EXPERIMENTS
from .serialize import embedding_from_json, load_input, load_operator_input, matrix_from_json


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        tmp = output + ".tmp"
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, output)


def _emit_json(obj, output: str | None) -> None:
    # one line: without indent the json module encodes in C
    _emit(json.dumps(obj, sort_keys=True), output)


def _cmd_radius(args) -> int:
    t = load_operator_input(args.input)
    rep = w_rho_tuple(t, args.rho, width=args.width)
    _emit_json(rep.to_json(), args.output)
    return 0


def _cmd_membership(args) -> int:
    t = load_operator_input(args.input)
    verdict = membership_tuple(t, args.rho, tol=args.tol, budget=args.budget)
    _emit_json(verdict.to_json(), args.output)
    return 0


def _cmd_numrad(args) -> int:
    m = load_input(args.input, matrix_from_json)
    _emit_json(numerical_radius_report(m), args.output)
    return 0


def _cmd_verify_dilation(args) -> int:
    small = load_operator_input(args.small)
    big = load_operator_input(args.big)
    e = load_input(args.embedding, embedding_from_json)
    verify = verify_rho_dilation if args.mode == "sym" else verify_uniform_rho_dilation
    _emit_json(verify(small, big, e, args.rho, args.nmax).to_json(), args.output)
    return 0


def _cmd_repro(args) -> int:
    fn = EXPERIMENTS[args.name]
    kwargs = {}
    if args.name == "scalar-boundary":
        kwargs = {"rho": args.rho if args.rho is not None else 0.5,
                  "eps": args.eps if args.eps is not None else 0.25}
    elif args.name == "thm51":
        kwargs = {"rho": args.rho if args.rho is not None else 2.0, "eps": args.eps}
    elif args.name == "thm53":
        kwargs = {"rho": args.rho if args.rho is not None else 2.0,
                  "m": args.m, "depth": args.depth}
    elif args.name == "von-neumann":
        kwargs = {"rho": args.rho if args.rho is not None else 2.0,
                  "trials": args.trials, "seed": args.seed}
    elif args.name == "radius-properties":
        kwargs = {"seeds": args.seeds, "seed0": args.seed}
    elif args.name == "monotonicity":
        kwargs = {"n_vars": args.n_vars, "seeds": args.seeds, "seed0": args.seed}
    report = fn(**kwargs)
    _emit_json(report.to_json(), args.output)
    return 0 if report.passed else 1


def _cmd_sweep(args) -> int:
    if args.steps < 2:
        raise InputError("sweep needs at least 2 steps")
    if not 0 < args.rho_from <= args.rho_to < math.inf:
        raise InputError("need 0 < rho-from <= rho-to, both finite")
    t = load_operator_input(args.input)
    buf = io.StringIO()
    buf.write("rho,w_rho\n")
    for rho in np.linspace(args.rho_from, args.rho_to, args.steps):
        rep = w_rho_tuple(t, float(rho))
        buf.write(f"{float(rho):.12g},{rep.mid:.12g}\n")
    _emit(buf.getvalue(), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="rho-radii",
                                description="Operator radii, class membership, and dilation checks.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_output(sp):
        sp.add_argument("--output", default=None, help="write report to file instead of stdout")

    sp = sub.add_parser("radius", help="compute the operator radius w_rho")
    sp.add_argument("--rho", type=float, required=True)
    sp.add_argument("--input", required=True, help="matrix or tuple JSON file")
    sp.add_argument("--width", type=float, default=DEFAULT_WIDTH)
    add_output(sp)
    sp.set_defaults(fn=_cmd_radius)

    sp = sub.add_parser("membership", help="decide class membership at level rho")
    sp.add_argument("--rho", type=float, required=True)
    sp.add_argument("--input", required=True)
    sp.add_argument("--tol", type=float, default=DEFAULT_TOL)
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    add_output(sp)
    sp.set_defaults(fn=_cmd_membership)

    sp = sub.add_parser("numrad", help="numerical radius of a matrix")
    sp.add_argument("--input", required=True)
    add_output(sp)
    sp.set_defaults(fn=_cmd_numrad)

    sp = sub.add_parser("verify-dilation", help="check a dilation identity")
    sp.add_argument("--mode", choices=("sym", "uniform"), required=True)
    sp.add_argument("--small", required=True)
    sp.add_argument("--big", required=True)
    sp.add_argument("--embedding", required=True)
    sp.add_argument("--rho", type=float, required=True)
    sp.add_argument("--nmax", type=int, required=True)
    add_output(sp)
    sp.set_defaults(fn=_cmd_verify_dilation)

    sp = sub.add_parser("repro", help="run a named reproduction experiment")
    sp.add_argument("--name", choices=sorted(EXPERIMENTS), required=True)
    sp.add_argument("--rho", type=float, default=None)
    sp.add_argument("--eps", type=float, default=None)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--seeds", type=int, default=10)
    sp.add_argument("--m", type=int, default=16)
    sp.add_argument("--depth", type=int, default=5)
    sp.add_argument("--n-vars", type=int, default=1)
    add_output(sp)
    sp.set_defaults(fn=_cmd_repro)

    sp = sub.add_parser("sweep", help="CSV of (rho, w_rho) over a level range")
    sp.add_argument("--rho-from", type=float, required=True)
    sp.add_argument("--rho-to", type=float, required=True)
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--input", required=True)
    add_output(sp)
    sp.set_defaults(fn=_cmd_sweep)
    return p


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and reused by every later main call
    (parse_args leaves it unchanged)."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        sys.stderr.write(json.dumps({"error": "input", "message": str(exc)}) + "\n")
        return 2
    except CapacityError as exc:
        sys.stderr.write(json.dumps({"error": "capacity", "message": str(exc)}) + "\n")
        return 3
    except (OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(json.dumps({"error": "input", "message": str(exc)}) + "\n")
        return 2
    except RhoRadiiError as exc:
        sys.stderr.write(json.dumps({"error": "internal", "message": str(exc)}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
