"""Distributed and localized model predictive control for networked systems.

The package synthesizes closed-loop response maps column-block by
column-block across a network of coupled linear subsystems.  Each subsystem
only ever talks to a bounded graph neighborhood, both during synthesis and
when the controller runs.
"""

from .admm import (
    AdmmState,
    ConvergenceError,
    DlmpcEngine,
    ExchangePacket,
    Phase,
    RowSolverKind,
    StalenessError,
    StepResult,
    packet_within_locality,
)
from .bench import (
    Case,
    RunReport,
    Scenario,
    ScenarioConfig,
    StepRecord,
    SweepRow,
    box_violation,
    build_chain_model,
    build_scenario,
    centralized_closed_loop,
    emit_report,
    emit_sweep,
    load_config,
    load_model_file,
    load_report,
    realized_cost,
    run_closed_loop,
    run_scaling_sweep,
)
from .explicit_row import InfeasibleRowError
from .qp import (
    CentralizedSolution,
    DenseQP,
    QpResult,
    QpStatus,
    QpStructureError,
    centralized_mpc,
    row_qp,
    solve_qp,
    stacked_profiles,
)
from .sls import (
    FeasibilityOperator,
    assemble_feasibility_operator,
    project_column,
    stacked_constraint,
)
from .topology import (
    Graph,
    LocalityIndex,
    ModelValidationError,
    NetworkModel,
    SubsystemIndex,
    build_graph,
    build_locality_index,
)

__version__ = "0.1.0"

__all__ = [
    "AdmmState",
    "Case",
    "CentralizedSolution",
    "ConvergenceError",
    "DenseQP",
    "DlmpcEngine",
    "ExchangePacket",
    "FeasibilityOperator",
    "Graph",
    "InfeasibleRowError",
    "LocalityIndex",
    "ModelValidationError",
    "NetworkModel",
    "Phase",
    "QpResult",
    "QpStatus",
    "QpStructureError",
    "RowSolverKind",
    "RunReport",
    "Scenario",
    "ScenarioConfig",
    "StalenessError",
    "StepRecord",
    "StepResult",
    "SweepRow",
    "assemble_feasibility_operator",
    "box_violation",
    "build_chain_model",
    "build_graph",
    "build_locality_index",
    "build_scenario",
    "centralized_closed_loop",
    "centralized_mpc",
    "emit_report",
    "emit_sweep",
    "load_config",
    "load_model_file",
    "load_report",
    "packet_within_locality",
    "project_column",
    "realized_cost",
    "row_qp",
    "run_closed_loop",
    "run_scaling_sweep",
    "solve_qp",
    "stacked_constraint",
    "stacked_profiles",
    "__version__",
]
