"""Layered benchmark of the explicit DLMPC closed loop.

Run one workload (the last stdout line is a JSON result):

    python3 perfbench/run.py --workload chain-explicit --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the traced
variant and reports the per-layer metrics.  ``--workload all`` runs every
workload, each in its own process, one after another.  The program is
imported from ``src/`` of the checkout that holds this file.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("chain-explicit", "chain-active-box", "chain-solver")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def run_all(args) -> int:
    """Each workload in a child process; a summary JSON line comes last."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        print(child.stdout, end="", flush=True)
        lines = child.stdout.strip().splitlines()
        if child.returncode or not lines:
            print(f"{name}: exited with code {child.returncode}", file=sys.stderr)
            status = 1
            continue
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for metric, val in res["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = val
    if status == 0:
        print(json.dumps(total))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    # BLAS threads are capped at the core count before numpy loads.
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = cores
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import dlmpc
    except ImportError as err:
        print(f"error: cannot import dlmpc from {src}: {err}", file=sys.stderr)
        return 2
    if src not in Path(dlmpc.__file__).resolve().parents:
        print(f"error: dlmpc was imported from {dlmpc.__file__}, not {src}", file=sys.stderr)
        return 2

    import workload

    if args.trace:
        spans = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        out = workload.run_traced(args.workload, args.seed, spans)
    else:
        out = workload.run_untraced(args.workload, args.seed, args.seconds)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{out.attempted} MPC steps attempted, {out.failed} failed")
    for name, m in out.metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    for note in out.notes:
        print(f"  {note}")
    for problem in out.problems:
        print(f"  CHECK FAILED: {problem}")
    print(f"  correctness checks: {'passed' if not out.problems else 'FAILED'}")
    print(json.dumps({"correct": not out.problems, "attempted": out.attempted,
                      "failed": out.failed, "metrics": out.metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
