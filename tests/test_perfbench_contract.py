"""The benchmark harness in ``perfbench/`` runs against the package as it is.

``perfbench`` hooks the engine's phase methods and reads its state from
outside, so a change to the package can break the harness without breaking
any unit test.  These tests run it end to end, untraced and traced, and
read the last stdout line, the result a benchmark run is judged by, as strict
JSON (no NaN or Infinity) whose metric values are all finite.
"""
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def reject_constant(name: str):
    """The last stdout line must be strict JSON: no NaN, Infinity or -Infinity."""
    raise ValueError(f"{name} in the result line")


def result_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1], parse_constant=reject_constant)


def run_perfbench(trace: int, workload: str = "chain-active-box") -> str:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", "1", "--seconds", "1", "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    summary = result_line(proc.stdout)
    assert summary["correct"] is True, proc.stdout
    assert summary["failed"] == 0, proc.stdout
    for name, metric in summary["metrics"].items():
        assert math.isfinite(metric["value"]), f"{name} is {metric['value']}"
    return proc.stdout


@pytest.mark.slow
def test_untraced_run_passes():
    run_perfbench(0)


@pytest.mark.slow
def test_traced_run_finds_every_layer():
    assert "absent layers:" not in run_perfbench(1)


@pytest.mark.slow
def test_traced_solver_run_counts_optimal_qp_solves():
    # the only workload whose rows go through solve_qp: its hook reads a
    # number of iterations and one status from each stacked call
    out = run_perfbench(1, "chain-solver")
    assert "absent layers:" not in out
    metrics = result_line(out)["metrics"]
    assert metrics["qp.solve_calls"]["value"] > 0
    assert metrics["qp.non_optimal"]["value"] == 0
