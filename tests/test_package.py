"""The package's public surface: what the controller and its harness run."""
import dataclasses
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dlmpc

ROOT = Path(__file__).resolve().parents[1]
README_BLOCKS = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)

# test-side references since the controller stopped exporting them (see ``oracles``)
MOVED = (
    "Region",
    "RowProblem",
    "RowSolution",
    "solve_row",
    "solve_rows",
    "response_from_controller",
    "full_response_from_controller",
    "controller_from_response",
)


# what only the tests read, gone from the package (``oracles`` has test-side forms)
REMOVED = (
    (dlmpc.explicit_row, "solve_terms"),
    (dlmpc.FeasibilityOperator, "projector"),
    (dlmpc.Graph, "successors"),
    (dlmpc.Graph, "predecessors"),
)
REMOVED_FIELDS = ((dlmpc.AdmmState, "psi_r"), (dlmpc.AdmmState, "lam_r"), (dlmpc.Scenario, "graph"))


def test_every_export_resolves_once():
    assert len(set(dlmpc.__all__)) == len(dlmpc.__all__)
    for name in dlmpc.__all__:
        assert hasattr(dlmpc, name), name
    assert not [name for name in MOVED if name in dlmpc.__all__ or hasattr(dlmpc, name)]


def test_test_only_names_are_gone():
    assert not [(owner, name) for owner, name in REMOVED if hasattr(owner, name)]
    assert not [(cls, name) for cls, name in REMOVED_FIELDS if name in {f.name for f in dataclasses.fields(cls)}]
    # the interior-point iteration cap is a module constant, not a setting
    assert list(inspect.signature(dlmpc.solve_qp).parameters) == ["qp", "tol"]
    # a report must carry every key: no momentum-count defaults to fall back on
    assert all(f.default is dataclasses.MISSING for f in dataclasses.fields(dlmpc.StepRecord))


def test_readme_has_python_blocks():
    assert len(README_BLOCKS) >= 2


@pytest.mark.parametrize("code", README_BLOCKS, ids=[f"block{k + 1}" for k in range(len(README_BLOCKS))])
def test_readme_python_block_runs_as_shown(code):
    # each block runs alone, in a fresh interpreter, as a reader would paste it
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
