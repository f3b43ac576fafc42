"""Record the reference radii that the benchmark's oracles compare against.

The benchmark draws its radius and membership inputs from a small pool of
base matrices and pairs, transformed per seed by maps that leave the radius
unchanged (unitary similarity, unimodular phases, swapping the variables) or
scale it by a known factor.  Where no closed form exists, the expected value
is the radius recorded here, computed once by the library at the commit
named in the file.  Regenerate only when the definition of the radius
changes, never to make a failing run pass:

    python3 bench/make_reference.py --which single   # ~1 min
    python3 bench/make_reference.py --which pairs    # ~10 min
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

from rho_radii import OperatorTuple, w_rho, w_rho_tuple  # noqa: E402
from rho_radii.serialize import matrix_to_json  # noqa: E402
from run import git_commit  # noqa: E402

POOL_SEED = 20041216
SINGLE_DIMS = range(2, 9)
SINGLE_PER_DIM = 6
SINGLE_LEVELS = (0.5, 1.5, 3.0)
PAIR_DIMS = (2, 3)
PAIRS_PER_DIM = 4
PAIR_LEVELS = (0.5, 2.0, 3.0)


def _gaussian(rng, d):
    return (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2 * d)


def make_single():
    rng = np.random.default_rng([POOL_SEED, 1])
    out = []
    for d in SINGLE_DIMS:
        for _ in range(SINGLE_PER_DIM):
            a = _gaussian(rng, d)
            radii = {}
            for rho in SINGLE_LEVELS:
                rep = w_rho(a, rho)
                radii[repr(rho)] = [rep.lo, rep.hi]
            out.append({"d": d, "matrix": matrix_to_json(a), "w": radii})
            print(f"single d={d} {radii}", file=sys.stderr, flush=True)
    return out


def make_pairs():
    rng = np.random.default_rng([POOL_SEED, 2])
    out = []
    for d in PAIR_DIMS:
        for _ in range(PAIRS_PER_DIM):
            t = OperatorTuple((_gaussian(rng, d), _gaussian(rng, d)))
            radii = {}
            for rho in PAIR_LEVELS:
                rep = w_rho_tuple(t, rho)
                radii[repr(rho)] = [rep.lo, rep.hi]
            out.append({"d": d, "mats": [matrix_to_json(m) for m in t.mats], "w": radii})
            print(f"pair d={d} {radii}", file=sys.stderr, flush=True)
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--which", choices=("single", "pairs"), required=True)
    args = p.parse_args()
    start = time.perf_counter()
    entries = make_single() if args.which == "single" else make_pairs()
    doc = {
        "commit": git_commit(os.path.dirname(HERE)),
        "numpy": np.__version__,
        "width": 1e-6,
        "seconds": round(time.perf_counter() - start, 1),
        "entries": entries,
    }
    path = os.path.join(HERE, f"ref_{args.which}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
