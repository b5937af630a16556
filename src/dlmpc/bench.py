"""Benchmark scenarios, closed-loop simulation, reports and file loaders.

The stock benchmark is a bidirectional chain of two-state single-input
subsystems with weak neighbor coupling, a box on the first state component
of every subsystem, and uniform random initial states.  Three variants are
exercised: no boxes (closed-form rows), boxes via the iterative QP row
solver, and boxes via the closed-form row solver.
"""
from __future__ import annotations

import configparser
import csv
import json
import time
from dataclasses import asdict, dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .admm import ConvergenceError, DlmpcEngine, RowSolverKind
from .explicit_row import InfeasibleRowError
from .qp import QpStatus, centralized_mpc
from .sls import FeasibilityOperator, assemble_feasibility_operator
from .topology import Graph, LocalityIndex, NetworkModel, build_graph, build_locality_index


class Case(Enum):
    """Benchmark variants: which constraints are on and which row solver runs."""

    UNCONSTRAINED = 1
    SOLVER = 2
    EXPLICIT = 3


def parse_case(raw) -> Case:
    """The case named by ``raw``: a Case, its name in any letter case, or its number.

    Anything else raises ValueError naming the valid cases.
    """
    if isinstance(raw, Case):
        return raw
    text = str(raw).strip()
    for case in Case:
        if text.upper() == case.name or text == str(case.value):
            return case
    raise ValueError(
        f"unknown case {raw!r}; pick one of " + ", ".join(c.name.lower() for c in Case)
    )


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one benchmark run (model + cost + solver knobs)."""

    n_subsystems: int
    horizon: int = 5
    locality: int = 1
    case: Case = Case.EXPLICIT
    state_weight: float = 1.0
    input_weight: float = 1.0
    terminal_weight: float = 1.0
    state_lower: float = -0.2
    state_upper: float = 1.2
    bound_component: int = 0
    input_lower: float = -np.inf
    input_upper: float = np.inf
    rho: float = 1.0
    eps_primal: float = 1e-4
    eps_dual: float = 1e-4
    max_iterations: int = 10000
    seed: int = 0
    sim_steps: int = 20
    warm_start: bool = True
    qp_tol: float = 1e-9


def build_chain_model(n_subsystems: int) -> NetworkModel:
    """Chain of two-state single-input subsystems with nearest-neighbor coupling.

    Each node has lightly damped local dynamics; each neighbor feeds the
    second state component.  Actuation enters the second component only.
    """
    if n_subsystems < 1:
        raise ValueError("need at least one subsystem")
    a_self = np.array([[1.0, 0.1], [-0.3, 0.7]])
    a_neighbor = np.array([[0.0, 0.0], [0.1, 0.1]])
    b_self = np.array([[0.0], [0.1]])
    a_blocks = {}
    b_blocks = {}
    for i in range(1, n_subsystems + 1):
        a_blocks[(i, i)] = a_self
        b_blocks[(i, i)] = b_self
        if i > 1:
            a_blocks[(i, i - 1)] = a_neighbor
        if i < n_subsystems:
            a_blocks[(i, i + 1)] = a_neighbor
    return NetworkModel(
        state_dims=(2,) * n_subsystems,
        input_dims=(1,) * n_subsystems,
        a_blocks=a_blocks,
        b_blocks=b_blocks,
    )


@dataclass(frozen=True)
class Scenario:
    """A config bound to its model, locality index and feasibility operator."""

    config: ScenarioConfig
    model: NetworkModel
    graph: Graph
    index: LocalityIndex
    op: FeasibilityOperator
    q_diag: np.ndarray
    r_diag: np.ndarray
    qt_diag: np.ndarray
    state_lb: np.ndarray
    state_ub: np.ndarray
    input_lb: np.ndarray
    input_ub: np.ndarray

    def initial_state(self) -> np.ndarray:
        rng = np.random.default_rng(self.config.seed)
        return rng.uniform(0.0, 1.0, self.model.n_states)

    def make_engine(self, **overrides) -> DlmpcEngine:
        cfg = self.config
        kwargs = dict(
            q_diag=self.q_diag,
            r_diag=self.r_diag,
            qt_diag=self.qt_diag,
            state_lb=self.state_lb,
            state_ub=self.state_ub,
            input_lb=self.input_lb,
            input_ub=self.input_ub,
            rho=cfg.rho,
            eps_primal=cfg.eps_primal,
            eps_dual=cfg.eps_dual,
            max_iterations=cfg.max_iterations,
            row_solver=RowSolverKind.QP if cfg.case is Case.SOLVER else RowSolverKind.EXPLICIT,
            qp_tol=cfg.qp_tol,
        )
        kwargs.update(overrides)
        return DlmpcEngine(self.model, self.index, self.op, **kwargs)


def build_scenario(config: ScenarioConfig, model: NetworkModel | None = None) -> Scenario:
    """Assemble index sets, constraint operator and cost/bound vectors."""
    model = build_chain_model(config.n_subsystems) if model is None else model
    if model.n_subsystems != config.n_subsystems:
        raise ValueError("model size does not match the configuration")
    graph = build_graph(model)
    index = build_locality_index(graph, model, config.locality, config.horizon)
    op = assemble_feasibility_operator(model, index)
    n, p = model.n_states, model.n_inputs
    state_lb = np.full(n, -np.inf)
    state_ub = np.full(n, np.inf)
    input_lb = np.full(p, -np.inf)
    input_ub = np.full(p, np.inf)
    if config.case is not Case.UNCONSTRAINED:
        for i in range(1, config.n_subsystems + 1):
            idx = model.state_indices(i)
            comp = config.bound_component
            if not 0 <= comp < idx.size:
                raise ValueError(
                    f"bound_component {comp} out of range for subsystem {i}"
                )
            state_lb[idx[comp]] = config.state_lower
            state_ub[idx[comp]] = config.state_upper
        input_lb[:] = config.input_lower
        input_ub[:] = config.input_upper
    return Scenario(
        config=config,
        model=model,
        graph=graph,
        index=index,
        op=op,
        q_diag=np.full(n, config.state_weight),
        r_diag=np.full(p, config.input_weight),
        qt_diag=np.full(n, config.terminal_weight),
        state_lb=state_lb,
        state_ub=state_ub,
        input_lb=input_lb,
        input_ub=input_ub,
    )


def realized_cost(states: np.ndarray, inputs: np.ndarray, q_diag, r_diag) -> float:
    """Accumulated stage cost of a simulated trajectory.

    States are charged from the step after the initial measurement onward;
    every applied input is charged.
    """
    states = np.asarray(states, float)
    inputs = np.asarray(inputs, float)
    q = np.asarray(q_diag, float)
    r = np.asarray(r_diag, float)
    cost = float(np.sum(states[1:] ** 2 @ q))
    if inputs.size:
        cost += float(np.sum(inputs**2 @ r))
    return cost


@dataclass
class StepRecord:
    """Diagnostics for one closed-loop MPC step."""

    step: int
    iterations: int
    primal_residual: float
    dual_residual: float
    per_sub_seconds: np.ndarray


@dataclass
class RunReport:
    """Full closed-loop run: trajectory, per-step diagnostics, costs."""

    config: ScenarioConfig
    states: np.ndarray
    inputs: np.ndarray
    steps: list
    cost: float
    baseline_states: np.ndarray | None = None
    baseline_inputs: np.ndarray | None = None
    baseline_cost: float | None = None

    @property
    def iterations(self) -> np.ndarray:
        return np.array([s.iterations for s in self.steps])


def run_closed_loop(
    scenario: Scenario,
    sim_steps: int | None = None,
    x0: np.ndarray | None = None,
    with_baseline: bool = False,
    engine: DlmpcEngine | None = None,
    baseline_tol: float = 1e-10,
) -> RunReport:
    """Simulate the receding-horizon loop under exact dynamics.

    Optionally runs the centralized receding-horizon controller from the
    same initial state for a cost comparison.
    """
    cfg = scenario.config
    sim_steps = cfg.sim_steps if sim_steps is None else int(sim_steps)
    model = scenario.model
    a_full, b_full = model.full_a(), model.full_b()
    engine = scenario.make_engine() if engine is None else engine

    x = scenario.initial_state() if x0 is None else np.asarray(x0, float).copy()
    states = [x.copy()]
    inputs = []
    steps = []
    warm = None
    for s in range(sim_steps):
        try:
            result = engine.solve_step(x, warm_state=warm)
        except ConvergenceError as err:
            raise ConvergenceError(
                f"MPC step {s}: {err}", residual_history=err.residual_history
            ) from err
        except InfeasibleRowError as err:
            raise InfeasibleRowError(f"MPC step {s}: {err}") from err
        if cfg.warm_start:
            warm = result.state
        inputs.append(result.u.copy())
        steps.append(
            StepRecord(
                step=s,
                iterations=result.iterations,
                primal_residual=float(result.primal_history[-1]),
                dual_residual=float(result.dual_history[-1]),
                per_sub_seconds=result.per_sub_seconds,
            )
        )
        x = a_full @ x + b_full @ result.u
        states.append(x.copy())
    states = np.asarray(states)
    inputs = np.asarray(inputs).reshape(sim_steps, model.n_inputs)
    report = RunReport(
        config=cfg,
        states=states,
        inputs=inputs,
        steps=steps,
        cost=realized_cost(states, inputs, scenario.q_diag, scenario.r_diag),
    )
    if with_baseline:
        b_states, b_inputs, b_cost = centralized_closed_loop(
            scenario, sim_steps=sim_steps, x0=states[0], tol=baseline_tol
        )
        report.baseline_states = b_states
        report.baseline_inputs = b_inputs
        report.baseline_cost = b_cost
    return report


def centralized_closed_loop(
    scenario: Scenario,
    sim_steps: int | None = None,
    x0: np.ndarray | None = None,
    tol: float = 1e-10,
) -> tuple:
    """Receding-horizon loop driven by the monolithic constrained solver."""
    cfg = scenario.config
    sim_steps = cfg.sim_steps if sim_steps is None else int(sim_steps)
    model = scenario.model
    a_full, b_full = model.full_a(), model.full_b()
    x = scenario.initial_state() if x0 is None else np.asarray(x0, float).copy()
    states = [x.copy()]
    inputs = []
    for _ in range(sim_steps):
        sol = centralized_mpc(
            model,
            cfg.horizon,
            x,
            q_diag=scenario.q_diag,
            r_diag=scenario.r_diag,
            qt_diag=scenario.qt_diag,
            state_lb=scenario.state_lb,
            state_ub=scenario.state_ub,
            input_lb=scenario.input_lb,
            input_ub=scenario.input_ub,
            tol=tol,
        )
        if sol.status is not QpStatus.OPTIMAL:
            raise RuntimeError(f"baseline solver returned {sol.status.value}")
        u = sol.u_sequence[0]
        inputs.append(u.copy())
        x = a_full @ x + b_full @ u
        states.append(x.copy())
    states = np.asarray(states)
    inputs = np.asarray(inputs).reshape(sim_steps, model.n_inputs)
    return states, inputs, realized_cost(states, inputs, scenario.q_diag, scenario.r_diag)


def box_violation(report: RunReport, scenario: Scenario) -> float:
    """Largest realized violation of the state box after the initial step."""
    lb, ub = scenario.state_lb, scenario.state_ub
    states = report.states[1:]
    over = np.maximum(states - ub, 0.0)
    under = np.maximum(lb - states, 0.0)
    finite = np.isfinite(np.broadcast_to(ub, states.shape)) | np.isfinite(
        np.broadcast_to(lb, states.shape)
    )
    if not np.any(finite):
        return 0.0
    return float(max(over[finite].max(initial=0.0), under[finite].max(initial=0.0)))


# -- scaling sweep -----------------------------------------------------------


@dataclass
class SweepRow:
    """Timing summary for one network size in a scaling sweep."""

    n_subsystems: int
    case: str
    cold_seconds: float
    warm_seconds: float
    cold_iterations: int
    warm_iterations: float
    total_seconds: float


def run_scaling_sweep(
    sizes=(10, 50, 100, 200),
    case: Case = Case.EXPLICIT,
    sim_steps: int = 2,
    base_config: ScenarioConfig | None = None,
    engine_overrides: dict | None = None,
) -> list:
    """Per-subsystem runtime versus network size, cold and warm starts apart.

    The first MPC step starts from zeros (cold); later steps reuse the
    previous solution (warm).  Reported times are means over subsystems, and
    over steps for the warm figure.
    """
    rows = []
    for n_sub in sizes:
        if base_config is None:
            cfg = ScenarioConfig(n_subsystems=n_sub, case=case, sim_steps=sim_steps)
        else:
            cfg = replace(base_config, n_subsystems=n_sub, case=case, sim_steps=sim_steps)
        scenario = build_scenario(cfg)
        engine = scenario.make_engine(**(engine_overrides or {}))
        t0 = time.perf_counter()
        report = run_closed_loop(scenario, engine=engine)
        total = time.perf_counter() - t0
        cold = float(np.mean(report.steps[0].per_sub_seconds))
        if len(report.steps) > 1:
            warm = float(
                np.mean([np.mean(s.per_sub_seconds) for s in report.steps[1:]])
            )
            warm_iters = float(np.mean([s.iterations for s in report.steps[1:]]))
        else:
            warm, warm_iters = float("nan"), float("nan")
        rows.append(
            SweepRow(
                n_subsystems=n_sub,
                case=case.name.lower(),
                cold_seconds=cold,
                warm_seconds=warm,
                cold_iterations=report.steps[0].iterations,
                warm_iterations=warm_iters,
                total_seconds=total,
            )
        )
    return rows


# -- reports -----------------------------------------------------------------


def _config_to_dict(cfg: ScenarioConfig) -> dict:
    data = asdict(cfg)
    data["case"] = cfg.case.name.lower()
    return data


def config_from_dict(data: dict) -> ScenarioConfig:
    data = dict(data)
    data["case"] = parse_case(data.get("case", Case.EXPLICIT))
    return ScenarioConfig(**data)


def emit_report(report: RunReport, directory, stem: str = "run") -> dict:
    """Write a run as a lossless JSON artifact plus a per-step CSV summary.

    Returns the paths written.  Floats survive the JSON round trip exactly
    (they are serialized with full repr precision).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "config": _config_to_dict(report.config),
        "states": report.states.tolist(),
        "inputs": report.inputs.tolist(),
        "cost": report.cost,
        "baseline_cost": report.baseline_cost,
        "baseline_states": None
        if report.baseline_states is None
        else report.baseline_states.tolist(),
        "baseline_inputs": None
        if report.baseline_inputs is None
        else report.baseline_inputs.tolist(),
        "steps": [
            {
                "step": s.step,
                "iterations": s.iterations,
                "primal_residual": s.primal_residual,
                "dual_residual": s.dual_residual,
                "per_sub_seconds": s.per_sub_seconds.tolist(),
            }
            for s in report.steps
        ],
    }
    json_path = directory / f"{stem}.json"
    json_path.write_text(json.dumps(payload, indent=2))
    csv_path = directory / f"{stem}.csv"
    with csv_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["step", "iterations", "primal_residual", "dual_residual", "mean_sub_seconds"]
        )
        for s in report.steps:
            writer.writerow(
                [
                    s.step,
                    s.iterations,
                    repr(s.primal_residual),
                    repr(s.dual_residual),
                    repr(float(np.mean(s.per_sub_seconds))),
                ]
            )
    return {"json": json_path, "csv": csv_path}


def load_report(json_path) -> dict:
    """Read back an emitted JSON report (arrays as numpy, config rebuilt)."""
    data = json.loads(Path(json_path).read_text())
    data["config"] = config_from_dict(data["config"])
    for key in ("states", "inputs", "baseline_states", "baseline_inputs"):
        if data.get(key) is not None:
            data[key] = np.asarray(data[key])
    for step in data["steps"]:
        step["per_sub_seconds"] = np.asarray(step["per_sub_seconds"])
    return data


def emit_sweep(rows, directory, stem: str = "sweep") -> Path:
    """Write scaling-sweep rows as CSV; floats keep full precision."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{stem}.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "n_subsystems",
                "case",
                "cold_seconds",
                "warm_seconds",
                "cold_iterations",
                "warm_iterations",
                "total_seconds",
            ]
        )
        for r in rows:
            writer.writerow(
                [
                    r.n_subsystems,
                    r.case,
                    repr(r.cold_seconds),
                    repr(r.warm_seconds),
                    r.cold_iterations,
                    repr(r.warm_iterations),
                    repr(r.total_seconds),
                ]
            )
    return path


# -- file loaders --------------------------------------------------------------


_CONFIG_KEYS = {
    "scenario": {"subsystems": "int", "horizon": "int", "locality": "int", "case": "case",
                 "seed": "int", "sim_steps": "int", "warm_start": "boolean"},
    "cost": {"state_weight": "float", "input_weight": "float", "terminal_weight": "float"},
    "bounds": {"state_lower": "float", "state_upper": "float", "bound_component": "int",
               "input_lower": "float", "input_upper": "float"},
    "solver": {"rho": "float", "eps_primal": "float", "eps_dual": "float",
               "max_iterations": "int", "qp_tol": "float"},
}


def load_config(path) -> ScenarioConfig:
    """Read a scenario from an INI file.

    Sections: ``[scenario]`` (subsystems, horizon, locality, case, seed,
    sim_steps, warm_start), ``[cost]`` (state_weight, input_weight,
    terminal_weight), ``[bounds]`` (state_lower/upper, bound_component,
    input_lower/upper) and ``[solver]`` (rho, eps_primal, eps_dual,
    max_iterations, qp_tol).  Every key is optional except
    ``scenario.subsystems``; an unknown section or key raises ValueError.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(path)
    kwargs = {}
    for name in parser.sections():
        if name not in _CONFIG_KEYS:
            raise ValueError(f"unknown config section [{name}]")
        section = parser[name]
        for key in section:
            kind = _CONFIG_KEYS[name].get(key)
            if kind is None:
                raise ValueError(f"unknown config key {name}.{key}")
            if kind == "case":
                kwargs[key] = parse_case(section[key])
            else:
                kwargs[key] = getattr(section, "get" + kind)(key)
    if "subsystems" not in kwargs:
        raise ValueError("config needs [scenario] subsystems")
    kwargs["n_subsystems"] = kwargs.pop("subsystems")
    return ScenarioConfig(**kwargs)


def load_model_file(path) -> NetworkModel:
    """Read a network model from a plain-text block format.

    Grammar (``#`` starts a comment, blank lines ignored)::

        subsystems 3
        state_dims 2 2 2
        input_dims 1 1 1
        A 1 1
        1.0 0.1
        -0.3 0.7
        B 1 1
        0.0
        0.1
        ...

    Block headers name the owning pair (1-based); each is followed by its
    row lines.  Unlisted blocks are zero.
    """
    lines = []
    for raw in Path(path).read_text().splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append(stripped)
    pos = 0

    def take():
        nonlocal pos
        if pos >= len(lines):
            raise ValueError("unexpected end of model file")
        line = lines[pos]
        pos += 1
        return line

    header = take().split()
    if header[0].lower() != "subsystems" or len(header) != 2:
        raise ValueError("model file must start with 'subsystems <count>'")
    n_sub = int(header[1])
    sd = take().split()
    if sd[0].lower() != "state_dims" or len(sd) != n_sub + 1:
        raise ValueError("expected 'state_dims' with one entry per subsystem")
    state_dims = tuple(int(v) for v in sd[1:])
    idim = take().split()
    if idim[0].lower() != "input_dims" or len(idim) != n_sub + 1:
        raise ValueError("expected 'input_dims' with one entry per subsystem")
    input_dims = tuple(int(v) for v in idim[1:])

    a_blocks, b_blocks = {}, {}
    while pos < len(lines):
        head = take().split()
        if len(head) != 3 or head[0].upper() not in ("A", "B"):
            raise ValueError(f"bad block header: {' '.join(head)}")
        kind, i, j = head[0].upper(), int(head[1]), int(head[2])
        if not (1 <= i <= n_sub and 1 <= j <= n_sub):
            raise ValueError(f"block {kind} {i} {j} out of range")
        n_rows = state_dims[i - 1]
        n_cols = state_dims[j - 1] if kind == "A" else input_dims[j - 1]
        rows = []
        for _ in range(n_rows):
            vals = [float(v) for v in take().split()]
            if len(vals) != n_cols:
                raise ValueError(f"block {kind} {i} {j}: expected {n_cols} columns")
            rows.append(vals)
        block = np.asarray(rows)
        target = a_blocks if kind == "A" else b_blocks
        if (i, j) in target:
            raise ValueError(f"duplicate block {kind} {i} {j}")
        target[(i, j)] = block
    return NetworkModel(
        state_dims=state_dims,
        input_dims=input_dims,
        a_blocks=a_blocks,
        b_blocks=b_blocks,
    )


def save_model_file(model: NetworkModel, path) -> Path:
    """Write a model in the block format read by :func:`load_model_file`."""
    out = [f"subsystems {model.n_subsystems}"]
    out.append("state_dims " + " ".join(str(d) for d in model.state_dims))
    out.append("input_dims " + " ".join(str(d) for d in model.input_dims))
    for (i, j), block in sorted(model.a_blocks.items()):
        out.append(f"A {i} {j}")
        for row in np.atleast_2d(block):
            out.append(" ".join(repr(float(v)) for v in row))
    for (i, j), block in sorted(model.b_blocks.items()):
        out.append(f"B {i} {j}")
        for row in np.atleast_2d(block):
            out.append(" ".join(repr(float(v)) for v in row))
    path = Path(path)
    path.write_text("\n".join(out) + "\n")
    return path
