"""Benchmark of the arfex pipeline: frames, query and catalog workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload frames --seed 1 --seconds 20 --trace 0

Each workload runs in fresh child processes (`workload.py`) with one
thread and BLAS/OpenMP pools of 1.  An untraced run starts SETUPS children
and reports the median set-up time; the last child also runs the timed
rounds.  A traced run starts one child that alternates untraced and traced
rounds and reports the per-layer sums.  The last line of standard output
is one JSON object: correct, attempted, failed and the metrics.
`--workload all` runs the three workloads in turn and names each metric
`<workload>/<metric>`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench_out"
WORKLOADS = ("frames", "query", "catalog")
DEFAULT_SEED = 1
SETUPS = 3  # set-ups measured per untraced run; setup_s is their median
DEADLINE_S = 175.0  # one workload's children must all end within this
SINGLE_THREAD = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}


class BenchError(Exception):
    """A child failed or the program is missing; no result is printed."""


def summarize(op_seconds: list[float]) -> tuple[float, float]:
    """(median seconds per operation, operations per second of summed time)."""
    if not op_seconds:
        raise BenchError("no operation completed")
    return statistics.median(op_seconds), len(op_seconds) / sum(op_seconds)


def run_child(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run workload.py once; returns its result and its set-up time, from
    process start to the moment the first timed operation could start."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **SINGLE_THREAD)
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "workload.py"), *args],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(deadline - started, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload child ran past the deadline: {args}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload child exited {proc.returncode}: {args}")
    result = json.loads(lines[-1])
    return result, result["ready"] - started


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    workdir = OUT_DIR / f"{name}-seed{seed}-pid{os.getpid()}"
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    try:
        if trace:
            stem = OUT_DIR / f"trace-{name}-seed{seed}"
            result, _ = run_child([*common, "--workdir", str(workdir), "--trace-stem", str(stem)], deadline)
            metrics = result["layers"]
        else:
            setup_s = []
            for k in range(SETUPS):
                extra = ["--setup-only"] if k < SETUPS - 1 else []
                result, took = run_child([*common, "--workdir", str(workdir / f"child{k}"), *extra], deadline)
                setup_s.append(took)
            p50, rate = summarize(result["op_seconds"])
            metrics = {
                "setup_s": (statistics.median(setup_s), "s"),
                "op_s_p50": (p50, "s"),
                "ops_per_s": (rate, "1/s"),
                "peak_rss_mb": (result["peak_rss_mb"], "MB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in result["problems"][:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "python": result["python"],
        "numpy": result["numpy"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the arfex pipeline.")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0, help="timed length of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "arfex" / "__init__.py").is_file():
        print(f"benchmark: no arfex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
        metrics = final["metrics"]
    else:
        metrics = {f"{n}/{k}": m for n, r in results.items() for k, m in r["metrics"].items()}
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
        }
    first = results[names[0]]
    print(
        f"machine: nproc={len(os.sched_getaffinity(0))} python={first['python']} numpy={first['numpy']} "
        f"platform={platform.machine()} workload={args.workload} seed={args.seed} trace={args.trace}"
    )
    for key, m in metrics.items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    print(
        json.dumps(
            {"correct": final["correct"], "attempted": final["attempted"], "failed": final["failed"], "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
