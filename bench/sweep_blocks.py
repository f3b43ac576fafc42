"""Check the oracles on a fixed range of blocks, untimed.

    python3 bench/sweep_blocks.py --workloads single tuple certify --seeds 1 10 \
        --blocks 5 --out bench/block_sweep.json

A timed run checks only the blocks that fit in its time, so a faster
program reaches block indices that a slower one never ran.  This runs
blocks 0 to BLOCKS-1 of each seed in process and counts each command's
oracle outcome (pass, fail, inconclusive).  Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run


def main() -> int:
    p = argparse.ArgumentParser(description="oracle outcomes over a fixed range of blocks")
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", nargs=2, type=int, metavar=("FIRST", "LAST"), required=True)
    p.add_argument("--blocks", type=int, required=True)
    p.add_argument("--out", help="write the summary JSON here")
    args = p.parse_args()
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    import rho_radii.cli as cli
    import workloads

    pool = workloads.Pool()
    work = os.path.join(root, run.OUT_DIR, f"sweep-{os.getpid()}")
    summary = {"git_commit": run.git_commit(root), "seeds": args.seeds, "blocks": args.blocks,
               "workloads": {}}
    try:
        for workload in args.workloads:
            counts = {workloads.PASS: 0, workloads.FAIL: 0, workloads.INCONCLUSIVE: 0}
            misses = []
            for seed in range(args.seeds[0], args.seeds[1] + 1):
                for index in range(args.blocks):
                    for cmd in workloads.make_block(workload, seed, index, work, pool):
                        _, code, out, error = run.execute(cli.main, cmd, None, -1)
                        outcome = workloads.FAIL
                        if error is None:
                            outcome, error = workloads.check(cmd.expect, code, out)
                        counts[outcome] += 1
                        if outcome != workloads.PASS:
                            misses.append({"seed": seed, "block": index, "class": cmd.label,
                                           "outcome": outcome, "error": error})
                    shutil.rmtree(work, ignore_errors=True)
                print(f"{workload} seed {seed}: {counts}", flush=True)
            summary["workloads"][workload] = {"outcomes": counts, "not_passed": misses}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
