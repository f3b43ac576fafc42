"""Run the benchmark once per seed and report each metric's run-to-run spread.

    python3 bench/stability.py --workloads tuple certify --seeds 1 10 \
        --out bench/baseline.json
    python3 bench/stability.py --workloads tuple certify single --seeds 1 1 \
        --trace --out bench/baseline_traced.json

For every workload and metric it prints the median over the seeds and the
spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  With
``--trace`` the runs are traced and the metrics are the per-layer ones.
Runs go one after another from the current directory, which must be the
root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

MACHINE_KEYS = ("git_commit", "nproc", "python", "numpy", "openblas", "process_threads",
                "RHO_RADII_THREADS", "OPENBLAS_NUM_THREADS")


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "values": values}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main() -> int:
    p = argparse.ArgumentParser(description="run-to-run spread of the benchmark's metrics")
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", nargs=2, type=int, metavar=("FIRST", "LAST"), required=True)
    p.add_argument("--trace", action="store_true", help="traced runs (per-layer metrics)")
    p.add_argument("--out", help="write the summary JSON here")
    args = p.parse_args()
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in range(args.seeds[0], args.seeds[1] + 1):
            cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "1" if args.trace else "0"]
            start = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            wall = time.perf_counter() - start
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            with open(lines[-2].removeprefix("record: ")) as fh:
                result["record"] = json.load(fh)
            result["seed"], result["wall_s"] = seed, wall
            runs.append(result)
            print(f"{workload} seed {seed}: {wall:.0f}s correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"inconclusive={result['record']['inconclusive']}", flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            metrics[name] = summarize([r["metrics"][name]["value"] for r in runs])
            if name in bounds:
                m = metrics[name]
                print(f"  {name:16s} median {m['median']:.6g}  spread {m.get('spread', float('nan')):.3f}  "
                      f"bound {bounds[name]}", flush=True)
        first = runs[0]["record"]
        summary["machine"] = {k: first[k] for k in MACHINE_KEYS}
        summary["workloads"][workload] = {
            "why": first["why"], "command_mix_per_block": first["command_mix_per_block"],
            "samples": [r["record"]["samples"] for r in runs],
            "seeds": [r["seed"] for r in runs], "wall_s": [r["wall_s"] for r in runs],
            "attempted": [r["attempted"] for r in runs], "failed": [r["failed"] for r in runs],
            "inconclusive": [r["record"]["inconclusive"] for r in runs],
            "metrics": metrics,
        }
        if args.trace:
            summary["workloads"][workload]["trace_accounting"] = [r["record"]["trace_accounting"]
                                                                  for r in runs]
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
