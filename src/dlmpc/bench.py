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
import math
import time
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .admm import ConvergenceError, DlmpcEngine, RowSolverKind
from .explicit_row import InfeasibleRowError
from .qp import QpStatus, centralized_mpc
from .sls import FeasibilityOperator, assemble_feasibility_operator
from .topology import LocalityIndex, NetworkModel, build_graph, build_locality_index, check_int, check_real


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
    """Complete description of one benchmark run (model + cost + solver knobs).

    Every ``int`` field must be an integer and every ``float`` field a real
    number (numpy's too, a bool not), stored as an int or a float;
    ``warm_start`` must be a bool and ``seed`` nonnegative.  Anything else
    raises ValueError naming the field.
    """

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

    def __post_init__(self):
        object.__setattr__(self, "case", parse_case(self.case))
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int":
                value = check_int(f.name, value)
            elif f.type == "float":
                value = check_real(f.name, value)
            elif f.type == "bool":
                if not isinstance(value, (bool, np.bool_)):
                    raise ValueError(f"{f.name} must be a bool, got {value!r}")
                value = bool(value)
            object.__setattr__(self, f.name, value)
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


def build_chain_model(n_subsystems: int) -> NetworkModel:
    """Chain of two-state single-input subsystems with nearest-neighbor coupling.

    Each node has lightly damped local dynamics; each neighbor feeds the
    second state component.  Actuation enters the second component only.
    """
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
    """A config bound to its model, locality index and feasibility operator; :meth:`profiles` derives the rest."""

    config: ScenarioConfig
    model: NetworkModel
    index: LocalityIndex
    op: FeasibilityOperator

    def initial_state(self) -> np.ndarray:
        rng = np.random.default_rng(self.config.seed)
        return rng.uniform(0.0, 1.0, self.model.n_states)

    def profiles(self) -> dict:
        """The config's cost and box profiles, keyed by their engine argument names.

        A box on a state component some subsystem lacks raises ValueError.
        """
        cfg, model = self.config, self.model
        n, p = model.n_states, model.n_inputs
        boxed = cfg.case is not Case.UNCONSTRAINED
        state_lb, state_ub = np.full(n, -np.inf), np.full(n, np.inf)
        if boxed:
            comp = cfg.bound_component
            for i, dim in enumerate(model.state_dims, start=1):
                if not 0 <= comp < dim:
                    raise ValueError(f"bound_component {comp} out of range for subsystem {i}")
            at = np.asarray(model.state_offsets) + comp
            state_lb[at], state_ub[at] = cfg.state_lower, cfg.state_upper
        return dict(
            q_diag=np.full(n, cfg.state_weight),
            r_diag=np.full(p, cfg.input_weight),
            qt_diag=np.full(n, cfg.terminal_weight),
            state_lb=state_lb,
            state_ub=state_ub,
            input_lb=np.full(p, cfg.input_lower if boxed else -np.inf),
            input_ub=np.full(p, cfg.input_upper if boxed else np.inf),
        )

    def make_engine(self, **overrides) -> DlmpcEngine:
        cfg = self.config
        kwargs = dict(
            self.profiles(),
            rho=cfg.rho,
            eps_primal=cfg.eps_primal,
            eps_dual=cfg.eps_dual,
            max_iterations=cfg.max_iterations,
            row_solver=RowSolverKind.QP if cfg.case is Case.SOLVER else RowSolverKind.EXPLICIT,
        )
        kwargs.update(overrides)
        return DlmpcEngine(self.index, self.op, **kwargs)


def build_scenario(config: ScenarioConfig, model: NetworkModel | None = None) -> Scenario:
    """Assemble the index sets and constraint operator, and check the config's box against the model."""
    model = build_chain_model(config.n_subsystems) if model is None else model
    if model.n_subsystems != config.n_subsystems:
        raise ValueError(
            f"the model has {model.n_subsystems} subsystems, "
            f"the configuration {config.n_subsystems}"
        )
    index = build_locality_index(build_graph(model), model, config.locality, config.horizon)
    scenario = Scenario(config, model, index, assemble_feasibility_operator(model, index))
    scenario.profiles()  # a bound_component out of range raises here
    return scenario


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
    """Diagnostics for one closed-loop MPC step, with its momentum steps and restarts."""

    step: int
    iterations: int
    primal_residual: float
    dual_residual: float
    per_sub_seconds: float
    extrapolated: int
    restarts: int


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


def _simulate(scenario: Scenario, policy, sim_steps: int | None, x0: np.ndarray | None) -> tuple:
    """Drive the exact plant with ``u = policy(s, x)`` for ``sim_steps`` steps.

    Starts from ``x0`` (default: the scenario's initial state) and returns
    the states, the inputs and the realized cost.
    """
    sim_steps = scenario.config.sim_steps if sim_steps is None else check_int("sim_steps", sim_steps)
    if sim_steps < 0:
        raise ValueError(f"sim_steps must be at least 0, got {sim_steps}")
    model = scenario.model
    x = scenario.initial_state() if x0 is None else np.asarray(x0, float).copy()
    states = [x.copy()]
    inputs = []
    for s in range(sim_steps):
        u = policy(s, x)
        inputs.append(u.copy())
        x = model.a @ x + model.b @ u
        states.append(x.copy())
    states = np.asarray(states)
    inputs = np.asarray(inputs).reshape(sim_steps, model.n_inputs)
    prof = scenario.profiles()
    return states, inputs, realized_cost(states, inputs, prof["q_diag"], prof["r_diag"])


def run_closed_loop(
    scenario: Scenario,
    sim_steps: int | None = None,
    x0: np.ndarray | None = None,
    with_baseline: bool = False,
    engine: DlmpcEngine | None = None,
) -> RunReport:
    """Simulate the receding-horizon loop under exact dynamics.

    Optionally runs the centralized receding-horizon controller from the
    same initial state for a cost comparison.
    """
    cfg = scenario.config
    engine = scenario.make_engine() if engine is None else engine
    steps = []
    warm = None

    def policy(s, x):
        nonlocal warm
        try:
            result = engine.solve_step(x, warm_state=warm)
        except ConvergenceError as err:
            raise ConvergenceError(
                f"MPC step {s}: {err}", residual_history=err.residual_history
            ) from err
        except InfeasibleRowError as err:
            raise InfeasibleRowError(f"MPC step {s}: {err}") from err
        state = result.state
        if cfg.warm_start:
            warm = state
        primal, dual = state.residual_history[-1]
        steps.append(StepRecord(s, result.iterations, primal, dual, state.per_sub_seconds,
                                state.extrapolated, state.restarts))
        return result.u

    states, inputs, cost = _simulate(scenario, policy, sim_steps, x0)
    report = RunReport(config=cfg, states=states, inputs=inputs, steps=steps, cost=cost)
    if with_baseline:
        report.baseline_states, report.baseline_inputs, report.baseline_cost = (
            centralized_closed_loop(scenario, sim_steps=sim_steps, x0=states[0])
        )
    return report


def centralized_closed_loop(
    scenario: Scenario,
    sim_steps: int | None = None,
    x0: np.ndarray | None = None,
) -> tuple:
    """Receding-horizon loop driven by the monolithic constrained solver.

    A step it ends infeasible raises ValueError, one at its iteration cap ConvergenceError.
    """

    def policy(s, x):
        sol = centralized_mpc(scenario.model, scenario.config.horizon, x, **scenario.profiles())
        if sol.status is not QpStatus.OPTIMAL:
            error = ValueError if sol.status is QpStatus.INFEASIBLE else ConvergenceError
            raise error(f"baseline MPC step {s}: solver returned {sol.status.value}")
        return sol.u_sequence[0]

    return _simulate(scenario, policy, sim_steps, x0)


def box_violation(report: RunReport, scenario: Scenario) -> float:
    """Largest realized violation of the state box after the initial step."""
    prof = scenario.profiles()
    lb, ub = prof["state_lb"], prof["state_ub"]
    states = report.states[1:]
    # an unbounded component's excess is -inf, below the floor of 0
    return float(np.max(np.maximum(states - ub, lb - states), initial=0.0))


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
    setup_seconds: float  # build_scenario plus make_engine, per subsystem


def run_scaling_sweep(
    sizes=(10, 50, 100, 200),
    case: Case = Case.EXPLICIT,
    sim_steps: int = 2,
) -> list:
    """Per-subsystem runtime versus network size, cold and warm starts apart.

    The first MPC step starts from zeros (cold); later steps reuse the
    previous solution (warm).  Reported times are a step's time divided by
    N, the warm figure their mean over steps; set-up (scenario and engine)
    is wall time per subsystem too.  A sweep needs its cold step, so
    ``sim_steps`` must be at least 1, and at least one size.
    """
    if sim_steps < 1:
        raise ValueError(f"sim_steps must be at least 1, got {sim_steps}")
    sizes = list(sizes)
    if not sizes:
        raise ValueError("sizes must name at least one network size")
    rows = []
    for n_sub in sizes:
        t0 = time.perf_counter()
        scenario = build_scenario(ScenarioConfig(n_subsystems=n_sub, case=case, sim_steps=sim_steps))
        engine = scenario.make_engine()
        setup = (time.perf_counter() - t0) / n_sub
        t0 = time.perf_counter()
        report = run_closed_loop(scenario, engine=engine)
        total = time.perf_counter() - t0
        cold = report.steps[0].per_sub_seconds
        if len(report.steps) > 1:
            warm = float(np.mean([s.per_sub_seconds for s in report.steps[1:]]))
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
                setup_seconds=setup,
            )
        )
    return rows


# -- reports -----------------------------------------------------------------


def _plain(obj):
    """JSON-ready form of a report: dataclasses as dicts, arrays as lists.

    A Case becomes its lower-case name and a non-finite float its repr
    (``"inf"``, ``"-inf"``, ``"nan"``), so the file is strict JSON.
    """
    if is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, Case):
        return obj.name.lower()
    if isinstance(obj, (np.ndarray, np.generic)):
        return _plain(obj.tolist())
    if isinstance(obj, list):
        return [_plain(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _write_csv(path: Path, header, rows) -> Path:
    """One CSV file; floats are written by repr, so they read back exactly."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
    return path


def emit_report(report: RunReport, directory) -> dict:
    """Write a run as a lossless JSON artifact plus a per-step CSV summary, ``run.json`` and ``run.csv``.

    Returns the paths written.  Floats survive the JSON round trip exactly
    (they are serialized with full repr precision).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    json_path = directory / "run.json"
    data = _plain(report)
    data["n_inputs"] = report.inputs.shape[1]  # an empty list of inputs does not give it
    json_path.write_text(json.dumps(data, indent=2, allow_nan=False))
    csv_path = _write_csv(
        directory / "run.csv",
        ["step", "iterations", "primal_residual", "dual_residual", "mean_sub_seconds",
         "extrapolated", "restarts"],
        (
            [s.step, s.iterations, s.primal_residual, s.dual_residual,
             s.per_sub_seconds, s.extrapolated, s.restarts]
            for s in report.steps
        ),
    )
    return {"json": json_path, "csv": csv_path}


def load_report(json_path) -> RunReport:
    """Read back the RunReport that :func:`emit_report` wrote.

    Arrays come back as numpy and non-finite floats from their strings.  A
    report that lacks a key :func:`emit_report` writes, or has one it does
    not write, raises ValueError naming the file and the key; so does a
    step that holds a list, since every field of a step is a scalar.
    """

    def checked(raw: dict, cls, where: str, extra=()) -> dict:
        """``raw`` if its keys are the fields of ``cls`` and ``extra``; else ValueError naming the first key off."""
        want = [f.name for f in fields(cls)] + list(extra)
        for key in [k for k in want if k not in raw] + [k for k in raw if k not in want]:
            raise ValueError(f"report {json_path}: {where} has {'no' if key in want else 'an unknown'} key {key!r}")
        return raw

    def decode(raw: dict) -> dict:
        # a list is an array, a string a non-finite float ("inf", "-inf", "nan")
        return {
            k: np.asarray(v, dtype=float) if isinstance(v, list)
            else float(v) if isinstance(v, str) else v
            for k, v in raw.items()
        }

    data = checked(json.loads(Path(json_path).read_text()), RunReport, "the report", extra=("n_inputs",))
    n_inputs = data.pop("n_inputs")
    config = checked(data.pop("config"), ScenarioConfig, "its config")
    case = config.pop("case")  # a name, which decode would read as a float
    steps = []
    for k, raw in enumerate(data.pop("steps")):
        for key in [name for name, v in checked(raw, StepRecord, f"step {k}").items() if isinstance(v, list)]:
            raise ValueError(f"report {json_path}: step {k} has a list for its scalar key {key!r}")
        steps.append(StepRecord(**decode(raw)))
    report = RunReport(
        config=ScenarioConfig(case=case, **decode(config)), steps=steps, **decode(data)
    )
    for name in ("inputs", "baseline_inputs"):
        inputs = getattr(report, name)
        if inputs is not None and inputs.ndim == 1:  # a zero-step run
            setattr(report, name, inputs.reshape(0, n_inputs))
    return report


def emit_sweep(rows, directory) -> Path:
    """Write scaling-sweep rows as ``sweep.csv``; floats keep full precision."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    names = [f.name for f in fields(SweepRow)]
    return _write_csv(
        directory / "sweep.csv", names, ([getattr(r, n) for n in names] for r in rows)
    )


# -- file loaders --------------------------------------------------------------


_CONFIG_KEYS = {
    "scenario": ("subsystems", "horizon", "locality", "case", "seed", "sim_steps", "warm_start"),
    "cost": ("state_weight", "input_weight", "terminal_weight"),
    "bounds": ("state_lower", "state_upper", "bound_component", "input_lower", "input_upper"),
    "solver": ("rho", "eps_primal", "eps_dual", "max_iterations"),
}
# the configparser getter of each ScenarioConfig field type; any other (the case) is read as text
_GETTERS = {"int": "getint", "float": "getfloat", "bool": "getboolean"}


def load_config(path) -> ScenarioConfig:
    """Read a scenario from an INI file.

    Sections: ``[scenario]`` (subsystems, horizon, locality, case, seed,
    sim_steps, warm_start), ``[cost]`` (state_weight, input_weight,
    terminal_weight), ``[bounds]`` (state_lower/upper, bound_component,
    input_lower/upper) and ``[solver]`` (rho, eps_primal, eps_dual,
    max_iterations).  Each key is read as the type of its
    :class:`ScenarioConfig` field (``subsystems`` is ``n_subsystems``).
    Every key is optional except ``scenario.subsystems``; an unknown
    section or key raises ValueError, and so does a file ``configparser``
    cannot parse or a value it cannot read as its field's type, naming the
    file (and the key).
    """
    types = {f.name: f.type for f in fields(ScenarioConfig)}
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    kwargs = {}
    try:
        if not parser.read(path):
            raise FileNotFoundError(path)
        for name in parser.sections():
            if name not in _CONFIG_KEYS:
                raise ValueError(f"unknown config section [{name}]")
            section = parser[name]
            for key in section:
                if key not in _CONFIG_KEYS[name]:
                    raise ValueError(f"unknown config key {name}.{key}")
                field = "n_subsystems" if key == "subsystems" else key
                try:
                    kwargs[field] = getattr(section, _GETTERS.get(types[field], "get"))(key)
                except ValueError as err:
                    raise ValueError(f"config file {path}: {name}.{key}: {err}") from err
    except configparser.Error as err:  # malformed file: duplicate key, no section header ...
        raise ValueError(f"config file {path}: {err}") from err
    if "n_subsystems" not in kwargs:
        raise ValueError("config needs [scenario] subsystems")
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
    row lines.  Unlisted blocks are zero.  A line that cannot be read (a
    count or a block index that is not an integer, an entry that is not a
    number, a malformed header or row) raises ValueError naming the file
    and the line, and so does a file that ends inside a block; a model that
    :class:`NetworkModel` rejects raises ValueError naming the file.
    """
    lines = []
    for k, raw in enumerate(Path(path).read_text().splitlines(), 1):
        words = raw.split("#", 1)[0].split()
        if words:
            lines.append((k, words))
    pos, at = 0, None

    def take():
        nonlocal pos, at
        if pos >= len(lines):
            at = None
            raise ValueError("unexpected end of file")
        at, words = lines[pos]
        pos += 1
        return words

    try:
        header = take()
        if header[0].lower() != "subsystems" or len(header) != 2:
            raise ValueError("expected 'subsystems <count>'")
        n_sub = int(header[1])
        sd = take()
        if sd[0].lower() != "state_dims" or len(sd) != n_sub + 1:
            raise ValueError("expected 'state_dims' with one entry per subsystem")
        state_dims = tuple(int(v) for v in sd[1:])
        idim = take()
        if idim[0].lower() != "input_dims" or len(idim) != n_sub + 1:
            raise ValueError("expected 'input_dims' with one entry per subsystem")
        input_dims = tuple(int(v) for v in idim[1:])

        a_blocks, b_blocks = {}, {}
        while pos < len(lines):
            head = take()
            if len(head) != 3 or head[0].upper() not in ("A", "B"):
                raise ValueError(f"bad block header: {' '.join(head)}")
            kind, i, j = head[0].upper(), int(head[1]), int(head[2])
            if not (1 <= i <= n_sub and 1 <= j <= n_sub):
                raise ValueError(f"block {kind} {i} {j} out of range")
            target = a_blocks if kind == "A" else b_blocks
            if (i, j) in target:
                raise ValueError(f"duplicate block {kind} {i} {j}")
            n_rows = state_dims[i - 1]
            n_cols = state_dims[j - 1] if kind == "A" else input_dims[j - 1]
            rows = []
            for _ in range(n_rows):
                vals = [float(v) for v in take()]
                if len(vals) != n_cols:
                    raise ValueError(f"block {kind} {i} {j}: expected {n_cols} columns")
                rows.append(vals)
            target[(i, j)] = np.asarray(rows)
        at = None  # the file is read; what the model rejects names no line
        return NetworkModel(
            state_dims=state_dims,
            input_dims=input_dims,
            a_blocks=a_blocks,
            b_blocks=b_blocks,
        )
    except ValueError as err:
        where = "" if at is None else f" line {at}"
        raise ValueError(f"model file {path}{where}: {err}") from err
