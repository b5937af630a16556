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
    "save_model_file",
)


# what only the tests read, gone from the package (``oracles`` has test-side forms)
REMOVED = (
    (dlmpc.explicit_row, "solve_terms"),
    (dlmpc.FeasibilityOperator, "projector"),
    (dlmpc.Graph, "successors"),
    (dlmpc.Graph, "predecessors"),
    (dlmpc, "d_in_set"),
    (dlmpc, "d_out_set"),
    (dlmpc.topology, "d_in_set"),
    (dlmpc.topology, "d_out_set"),
    (dlmpc.NetworkModel, "state_indices"),
    (dlmpc.NetworkModel, "input_indices"),
    (dlmpc.LocalityIndex, "subsystem"),
)
REMOVED_FIELDS = (
    (dlmpc.AdmmState, "psi_r"),
    (dlmpc.AdmmState, "lam_r"),
    (dlmpc.Scenario, "graph"),
    (dlmpc.SubsystemIndex, "row_is_state"),
    # the profiles are derived from the config on each Scenario.profiles() call
    *((dlmpc.Scenario, name)
      for name in ("q_diag", "r_diag", "qt_diag", "state_lb", "state_ub", "input_lb", "input_ub")),
    # the baseline's caller reads its input sequence and status alone
    *((dlmpc.CentralizedSolution, name) for name in ("planned_states", "planned_cost", "iterations")),
)


def test_every_export_resolves_once():
    assert len(set(dlmpc.__all__)) == len(dlmpc.__all__)
    for name in dlmpc.__all__:
        assert hasattr(dlmpc, name), name
    assert not [name for name in MOVED if name in dlmpc.__all__ or hasattr(dlmpc, name)]


def test_test_only_names_are_gone():
    assert not [(owner, name) for owner, name in REMOVED if hasattr(owner, name)]
    assert not [(cls, name) for cls, name in REMOVED_FIELDS if name in {f.name for f in dataclasses.fields(cls)}]
    assert not {"d_in_set", "d_out_set"} & set(dlmpc.__all__)
    # a graph is its vertex count and edges, with no predecessor table beside them
    assert vars(dlmpc.Graph(2, {(2, 1)})).keys() == {"n_vertices", "edges"}
    # the engine reads every size off the index; it takes no model
    assert "model" not in inspect.signature(dlmpc.DlmpcEngine).parameters
    # extraction reads every input in one stacked product; it takes no subsystem id
    assert list(inspect.signature(dlmpc.DlmpcEngine.extract_control).parameters) == ["self", "state"]
    # the interior-point iteration cap is a module constant, not a setting
    assert list(inspect.signature(dlmpc.solve_qp).parameters) == ["qp", "tol"]
    # a report must carry every key: no momentum-count defaults to fall back on
    assert all(f.default is dataclasses.MISSING for f in dataclasses.fields(dlmpc.StepRecord))


def test_no_workload_or_command_loads_scipy_linalg():
    # scipy.linalg brings scipy's own OpenBLAS and its threads beside numpy's
    # (about 8 MB); only a QP with consistent, dependent equality rows loads it.
    # A module never loaded is never called, so set-up and both row routes
    # stay in numpy.linalg too.  A fresh interpreter, since this one may have
    # loaded it for another test.
    code = """
import sys
from dlmpc import ScenarioConfig, build_scenario, run_closed_loop
from dlmpc.cli import main
from workload import WORKLOADS
for wl in WORKLOADS.values():
    run_closed_loop(build_scenario(ScenarioConfig(**wl.config)), sim_steps=3)
assert main(["run", "--subsystems", "3", "--steps", "2", "--horizon", "3", "--baseline"]) == 0
assert main(["compare", "--subsystems", "3", "--steps", "2", "--horizon", "3"]) == 0
print(sorted(name for name in sys.modules if name.startswith("scipy.linalg")))
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(str(ROOT / d) for d in ("src", "perfbench"))}
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_readme_has_python_blocks():
    assert len(README_BLOCKS) >= 2


@pytest.mark.parametrize("code", README_BLOCKS, ids=[f"block{k + 1}" for k in range(len(README_BLOCKS))])
def test_readme_python_block_runs_as_shown(code):
    # each block runs alone, in a fresh interpreter, as a reader would paste it
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
