"""End-to-end and per-layer benchmark of the rho-radii CLI.

    python3 bench/run.py --workload single|tuple|certify --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding
``BENCHMARK.json`` and ``src/``).  One client drives
``rho_radii.cli.main(argv)`` in process, in a closed loop: the next command
starts when the previous one returns.  Commands come in blocks (see
``workloads.py``); blocks run until the run has lasted about ``--seconds``
and holds at least MIN_COMMANDS commands.  Every output is checked against
its oracle.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace
1`` alternates untraced and traced blocks and reports the per-layer metrics
(per traced block) plus the tracing overhead; its spans are written to
``.bench_out/``.  The last line of stdout is the result object; a record
with the metadata, the command mix and per-class latencies goes to
``.bench_out/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

#: At least ten samples lie beyond p90.
MIN_COMMANDS = 100
#: Fresh interpreters started to measure setup_s, spread over the run (the
#: machine's speed drifts over tens of seconds); the median is reported.
SETUP_SAMPLES = 15
#: Time allowed between a traced command's latency and its root span (the
#: span's own enter and exit, a garbage collection that falls there): per
#: traced command, plus a share of the traced commands' time.
TRACE_SLACK_S, TRACE_SLACK_FRAC = 100e-6, 1e-3
OUT_DIR = ".bench_out"

WARMUP_MATRIX = {"rows": 2, "cols": 2, "data": [[0.5, 0.0], [1.0, 0.0], [0.0, 0.0], [0.5, 0.0]]}
SETUP_CODE = (
    "import sys\n"
    "from rho_radii.cli import main\n"
    "sys.exit(main(['radius', '--rho', '1', '--input', sys.argv[1]]))\n"
)


class BenchError(Exception):
    """The benchmark cannot run here; exits non-zero without a result."""


def percentile(values, q: int) -> float:
    """q-th percentile with linear interpolation between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def read_threads() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def git_commit(root: str) -> str:
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown"


def blas_version(np) -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, ValueError):
        return "unknown"


def measure_setup(root: str, warmup_path: str) -> float:
    """Wall time of a fresh interpreter importing rho_radii.cli and answering
    one warm-up command."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src") + os.pathsep + env.get("PYTHONPATH", "")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, warmup_path], cwd=root, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"set-up interpreter failed: {proc.stderr.decode()[-500:]}")
    return time.perf_counter() - start


def self_check(workloads) -> dict:
    """Feed the oracles right and deliberately wrong outputs; each wrong one
    must count as a failure, and an Out triple answered In (NecessaryOnly)
    as inconclusive."""
    radius = {"kind": "radius", "value": 1.25, "rtol": 1e-5}
    sweep = {"kind": "sweep", "values": [3.0, 1.2, 1.0, 0.8]}
    good_sweep = "rho,w_rho\n0.5,3\n1,1.2\n1.5,1\n2,0.8\n"
    in_, out = {"kind": "membership", "decision": "In"}, {"kind": "membership", "decision": "Out"}
    triple_out = {**out, "necessary_only_in": True}
    necessary_in = json.dumps({"decision": "In", "exactness": "NecessaryOnly"})
    certified_in = json.dumps({"decision": "In", "exactness": "Certified"})
    repro = {"name": "x", "claims": [{"description": "a", "pass": True}, {"description": "b", "pass": True}]}
    ok, bad, unsure = workloads.PASS, workloads.FAIL, workloads.INCONCLUSIVE
    cases = [
        ("right radius", radius, 0, json.dumps({"lo": 1.25, "hi": 1.25}), ok),
        ("radius 1% high", radius, 0, json.dumps({"lo": 1.2625, "hi": 1.2625}), bad),
        ("inverted bracket", radius, 0, json.dumps({"lo": 1.26, "hi": 1.24}), bad),
        ("right verdict", in_, 0, json.dumps({"decision": "In"}), ok),
        ("flipped verdict", in_, 0, json.dumps({"decision": "Out"}), bad),
        ("wrong exit code", in_, 2, json.dumps({"decision": "In"}), bad),
        ("pair Out answered In", out, 0, necessary_in, bad),
        ("triple Out answered In, Certified", triple_out, 0, certified_in, bad),
        ("triple Out answered In, NecessaryOnly", triple_out, 0, necessary_in, unsure),
        ("triple Out answered Out", triple_out, 0, json.dumps({"decision": "Out"}), ok),
        ("right sweep", sweep, 0, good_sweep, ok),
        ("sweep level off", sweep, 0, good_sweep.replace("1.5,1\n", "1.5,1.01\n"), bad),
        ("dilation failed", {"kind": "dilation"}, 0, json.dumps({"passed": False, "max_residual": 1.0}), bad),
        ("repro passed", {"kind": "repro"}, 0, json.dumps(repro), ok),
        ("repro claim false", {"kind": "repro"}, 0,
         json.dumps({**repro, "claims": repro["claims"][:1] + [{"description": "b", "pass": False}]}), bad),
        ("numrad off", {"kind": "numrad", "value": 0.5}, 0, json.dumps({"numerical_radius": 0.5001}), bad),
        ("garbage output", radius, 0, "not json", bad),
    ]
    result = {}
    for name, expect, code, out, want in cases:
        if workloads.check(expect, code, out)[0] != want:
            raise BenchError(f"oracle self-check failed: {name}")
        result[name] = want
    return result


def execute(main, cmd, tracer, command_id):
    """Run one command in process; returns (latency_s, exit code, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            if tracer is None:
                code = main(cmd.argv)
            else:
                with tracer.command(command_id):
                    code = main(cmd.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a raising command is a failed command
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
    if error is None and code != 0:
        error = err.getvalue().strip()[-300:]
    return latency, code, out.getvalue(), error


class Tally:
    """What the block loop measured."""

    def __init__(self):
        self.samples = []  # (class, latency_s, traced)
        self.setup = []  # setup_s samples
        self.failures = []
        self.inconclusive = []
        self.busy = {False: 0.0, True: 0.0}  # seconds inside commands
        self.count = {False: 0, True: 0}  # commands
        self.traced_blocks = 0
        self.traced_wall = 0.0
        self.bytes_in = self.bytes_out = 0
        self.block_wall = []
        self.mix = {}


def run_blocks(args, cli, workloads, pool, work, tracer, setup=None) -> Tally:
    """Run blocks until the run has lasted about --seconds and holds at
    least MIN_COMMANDS commands; with a tracer, odd blocks are traced.  With
    ``setup``, a set-up sample is taken between commands each time the loop
    has run another --seconds / SETUP_SAMPLES; that time counts neither
    towards the run's length nor towards the block times."""
    t = Tally()
    start = time.perf_counter()
    paused = 0.0  # seconds spent taking set-up samples
    index = 0
    while True:
        block_dir = os.path.join(work, f"b{index}")
        cmds = workloads.make_block(args.workload, args.seed, index, block_dir, pool)
        if index == 0:
            for c in cmds:
                t.mix[c.label] = t.mix.get(c.label, 0) + 1
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
        block_start, block_paused = time.perf_counter(), paused
        for cmd in cmds:
            latency, code, out, error = execute(cli.main, cmd, tracer if traced else None,
                                                len(t.samples))
            outcome = workloads.FAIL
            if error is None:
                outcome, error = workloads.check(cmd.expect, code, out)
            if outcome != workloads.PASS:
                failure = {"class": cmd.label, "argv": cmd.argv, "error": error}
                (t.failures if outcome == workloads.FAIL else t.inconclusive).append(failure)
            t.samples.append((cmd.label, latency, traced))
            t.busy[traced] += latency
            t.count[traced] += 1
            if traced:
                t.bytes_in += cmd.bytes_in
                t.bytes_out += len(out)
            now, taken = time.perf_counter(), len(t.setup)
            if (setup is not None and taken < SETUP_SAMPLES
                    and now - start - paused >= taken * args.seconds / SETUP_SAMPLES):
                t.setup.append(setup())
                paused += time.perf_counter() - now
        block_end = time.perf_counter() - (paused - block_paused)
        if traced:
            tracer.uninstall()
            t.traced_blocks += 1
            t.traced_wall += block_end - block_start
        shutil.rmtree(block_dir, ignore_errors=True)
        t.block_wall.append(block_end - block_start)
        index += 1
        elapsed = time.perf_counter() - start - paused
        enough = len(t.samples) >= MIN_COMMANDS and (tracer is None or t.traced_blocks >= 1)
        if enough and elapsed + statistics.mean(t.block_wall) / 2 >= args.seconds:
            while setup is not None and len(t.setup) < SETUP_SAMPLES:
                t.setup.append(setup())
            return t


def run(args, root: str) -> tuple[dict, dict]:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "rho_radii", "cli.py")):
        raise BenchError("src/rho_radii not found: run from the root of a rho-radii checkout")
    sys.path.insert(0, src)

    import numpy as np

    import rho_radii.cli as cli
    import workloads
    from tracing import Tracer, layer_metrics

    if not os.path.abspath(cli.__file__).startswith(src):
        raise BenchError(f"rho_radii imported from {cli.__file__}, not from {src}")
    if args.workload not in workloads.BLOCKS:
        raise BenchError(f"unknown workload {args.workload!r}")

    record = {
        "workload": args.workload, "why": why.get(args.workload), "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "git_commit": git_commit(root),
        "nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
        "openblas": blas_version(np), "process_threads": read_threads(),
        "RHO_RADII_THREADS": os.environ.get("RHO_RADII_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "oracle_self_check": self_check(workloads),
    }
    work = os.path.join(root, OUT_DIR, f"inputs-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    tracer = Tracer() if args.trace else None
    try:
        warmup = os.path.join(work, "warmup.json")
        with open(warmup, "w") as fh:
            json.dump(WARMUP_MATRIX, fh)
        pool = workloads.Pool()
        execute(cli.main, workloads.Command("warmup", ["radius", "--rho", "1", "--input", warmup],
                                            None, 0), None, -1)
        # setup_s is an end-to-end metric: the traced run does not measure it.
        setup = None if tracer else lambda: measure_setup(root, warmup)
        t = run_blocks(args, cli, workloads, pool, work, tracer, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    latencies = {}
    for label, lat, traced in t.samples:
        if not traced:
            latencies.setdefault(label, []).append(lat)
    untraced = [lat for lats in latencies.values() for lat in lats]
    record.update({
        "setup_samples_s": t.setup, "blocks": len(t.block_wall), "traced_blocks": t.traced_blocks,
        "block_wall_s": t.block_wall, "command_mix_per_block": t.mix,
        "samples": len(t.samples), "untraced_samples": len(untraced),
        "failed_frac": len(t.failures) / len(t.samples), "failures": t.failures[:20],
        "inconclusive": len(t.inconclusive), "inconclusive_commands": t.inconclusive[:20],
        "class_median_latency_s": {c: statistics.median(v) for c, v in sorted(latencies.items())},
    })
    if tracer is None:
        metrics = {
            "throughput_qps": {"value": t.count[False] / t.busy[False], "unit": "1/s"},
            "latency_p50_s": {"value": percentile(untraced, 50), "unit": "s"},
            "latency_p90_s": {"value": percentile(untraced, 90), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
            "setup_s": {"value": statistics.median(t.setup), "unit": "s"},
        }
        names = [m["name"] for m in spec["end_to_end"]]
    else:
        metrics = layer_metrics(tracer, t.traced_blocks, t.bytes_in, t.bytes_out)
        metrics["radii.membership_tuple.inconclusive"] = {
            "value": len(t.inconclusive) / len(t.block_wall), "unit": "count"}
        per_command = {k: t.busy[k] / t.count[k] for k in (False, True)}
        metrics["trace.overhead_frac"] = {"value": per_command[True] / per_command[False] - 1,
                                          "unit": "frac"}
        # The spans' self times must account for the traced commands'
        # latencies as execute() measured them, and with the gaps between
        # commands for the traced wall time.  A lost or short root span, or
        # a span's time given to both or neither of itself and its parent,
        # breaks the sum; time an inner span misses lands in its parent's
        # self time and is not caught.
        self_s, command_s = tracer.self_sum(), t.busy[True]
        gaps_s = t.traced_wall - command_s
        record["trace_accounting"] = {"self_s": self_s, "command_s": command_s, "gaps_s": gaps_s,
                                      "wall_s": t.traced_wall}
        if not 0 <= command_s - self_s <= TRACE_SLACK_S * t.count[True] + TRACE_SLACK_FRAC * command_s:
            raise BenchError(f"trace self times {self_s} s + gaps {gaps_s} s "
                             f"vs traced wall {t.traced_wall} s")
        names = [m["name"] for m in spec["per_layer"]]
        spans_path = os.path.join(root, OUT_DIR, f"{args.workload}-seed{args.seed}.spans.jsonl")
        tracer.write_spans(spans_path)
        record["spans_file"] = os.path.relpath(spans_path, root)
    missing = set(names) - set(metrics)
    if missing:
        raise BenchError(f"metrics missing from the run: {sorted(missing)}")
    metrics = {n: metrics[n] for n in names}
    record["metrics"] = metrics
    result = {"correct": not t.failures, "attempted": len(t.samples), "failed": len(t.failures),
              "metrics": metrics}
    return result, record


def main() -> int:
    p = argparse.ArgumentParser(description="rho-radii CLI benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    root = os.getcwd()
    try:
        result, record = run(args, root)
    except (BenchError, OSError, KeyError, ValueError, ImportError, subprocess.SubprocessError):
        traceback.print_exc()
        return 2
    path = os.path.join(root, OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"record: {os.path.relpath(path, root)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
