"""Workloads, timed rounds, the traced run and the metrics they report.

A round is one closed loop of ``STEPS`` MPC steps (a cold step, then warm
steps) from one initial state.  A run sets the scenario up
``setup_repeats`` times, then runs a fixed number of rounds, so two runs
with the same arguments do the same work on any code version.
"""
from __future__ import annotations

import dataclasses
import gc
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

import dlmpc.admm as admm
import dlmpc.bench as bench
from dlmpc import Case, ScenarioConfig, build_scenario, run_closed_loop
from dlmpc.admm import ConvergenceError
from dlmpc.explicit_row import InfeasibleRowError
from dlmpc.qp import QpStatus

import checks
from spans import Tracer

STEPS = 3
# The seed moves each initial state by at most this much around the
# scenario's fixed one.  A fully random initial state changes the
# iteration count up to fourfold between seeds, which would hide any
# change in the code.
JITTER = 1e-3
# The probe's time on the reference machine (2-core Xeon VM) at its full
# speed; step and set-up times are reported scaled to that speed.
PROBE_REF_S = 48e-6
_PROBE_A = np.linspace(0.0, 1.0, 900).reshape(30, 30)
# The same for the set-up probe, whose work resembles the set-up's own.
SETUP_PROBE_REF_S = 1.35e-3
_SETUP_M = np.random.default_rng(0).standard_normal((60, 61))
_SETUP_S = sp.csc_matrix(
    (np.ones(16000), np.random.default_rng(1).integers(0, [[2400], [3400]], (2, 16000))),
    shape=(2400, 3400),
)
_SETUP_COLS = np.arange(100, 161)
COST_GAP = 1e-2  # relative closed-loop cost gap to the centralized reference


@dataclass(frozen=True)
class Workload:
    config: dict
    round_seconds: float  # nominal wall time of one round; fixes rounds per run
    setup_repeats: int
    lower_active: bool  # the workload exists to reach lower-active rows


WORKLOADS = {
    "chain-explicit": Workload(dict(n_subsystems=200), 22.0, 5, False),
    "chain-active-box": Workload(
        dict(n_subsystems=10, bound_component=1, state_lower=-0.3), 20.0, 9, True
    ),
    "chain-solver": Workload(dict(n_subsystems=6, case=Case.SOLVER), 13.0, 9, False),
}

SETUP_SPANS = ("topology.graph", "topology.index", "sls.operator", "admm.engine_init")
STEP_SPANS = (
    "admm.init_state",
    "admm.row",
    "qp.solve",
    "admm.exchange_rows",
    "admm.column",
    "sls.project",
    "admm.exchange_columns",
    "admm.multiplier",
    "admm.convergence",
    "admm.extract",
    "bench.classify",
    "bench.probe",
)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def put(self, name, value, unit):
        self.metrics[name] = {"value": float(value), "unit": unit}


def probe() -> float:
    """Seconds for a fixed burst of small numpy calls, like the engine's own.

    The reference machine (a shared 2-core Xeon VM) runs at two speeds
    about 1.9x apart and switches between them many times a minute; the
    probe slows down by the same factor as the engine, so
    ``PROBE_REF_S / probe()`` is the current relative speed.
    """
    t0 = time.perf_counter()
    for _ in range(40):
        float(_PROBE_A[3] @ _PROBE_A[5])
    return time.perf_counter() - t0


def setup_probe() -> float:
    """Seconds for a pseudo-inverse, a sparse column slice and a set difference.

    Set-up slows down with memory and LAPACK load that :func:`probe` does
    not feel; over 78 builds of ``chain-explicit`` a probe of this kind cut the
    spread of scaled build times from 0.26 to 0.09 of their median.
    """
    t0 = time.perf_counter()
    np.linalg.pinv(_SETUP_M)
    np.unique(_SETUP_S[:, _SETUP_COLS].nonzero()[0])
    np.setdiff1d(np.arange(_SETUP_S.shape[0]), _SETUP_COLS)
    return time.perf_counter() - t0


class StepClock:
    """Times every ``solve_step`` of one engine and keeps its results.

    A probe runs at the start and end of every step and after every
    consensus iteration (each call of ``check_convergence``).  The wall
    time between two probes, excluding the probes, is one segment;
    :meth:`step_times` scales each segment to the reference speed by the
    mean of the two probes around it.
    """

    def __init__(self, engine, tracer: Tracer | None = None):
        self.engine = engine
        self.results, self.marks = [], []  # marks: per step, (t0, probe s, t1)
        self.x0 = None
        self._saved = {a: engine.__dict__.get(a) for a in ("solve_step", "check_convergence")}
        inner = engine.solve_step
        if tracer is not None:
            inner = tracer.wrap("admm.solve_step", inner)

        def mark():
            # a probe inside the solve_step span gets its own span, so that
            # it is not counted as time of the engine
            inside = tracer is not None and tracer.stack
            token = tracer.open("bench.probe") if inside else None
            t0 = time.perf_counter()
            speed = probe()
            self.marks[-1].append((t0, speed, time.perf_counter()))
            if inside:
                tracer.close(token)

        def solve_step(x0, warm_state=None):
            self.x0 = np.asarray(x0, float)
            if tracer is not None:
                tracer.step += 1
            self.marks.append([])
            mark()
            res = inner(x0, warm_state=warm_state)
            mark()
            self.results.append(res)
            return res

        engine.solve_step = solve_step
        converged = getattr(engine, "check_convergence", None)
        if callable(converged):

            def check_convergence(*args, **kwargs):
                out = converged(*args, **kwargs)
                mark()
                return out

            engine.check_convergence = check_convergence

    def remove(self):
        for attr, old in self._saved.items():
            if old is None:
                self.engine.__dict__.pop(attr, None)
            else:
                setattr(self.engine, attr, old)

    def step_times(self) -> tuple:
        """(wall, scaled) seconds of each completed step, probes excluded."""
        wall, scaled = [], []
        for marks in self.marks[: len(self.results)]:
            seg = [(b[0] - a[2], (a[1] + b[1]) / 2) for a, b in zip(marks, marks[1:])]
            wall.append(sum(s for s, _ in seg))
            scaled.append(sum(s * PROBE_REF_S / speed for s, speed in seg))
        return wall, scaled

    def probes(self) -> tuple:
        """(total seconds spent probing, median probe)."""
        marks = [m for step in self.marks for m in step]
        return sum(m[2] - m[0] for m in marks), statistics.median(m[1] for m in marks)


@dataclass
class Round:
    loop_s: float  # wall time of run_closed_loop, probes excluded
    scaled_loop_s: float  # the same at the reference speed
    times: list  # wall time of each solve_step, probes excluded
    scaled: list  # the same at the reference speed
    results: list
    report: object = None


def initial_state(scenario, seed: int, r: int) -> np.ndarray:
    rng = np.random.default_rng([seed, r])
    base = scenario.initial_state()
    return base + rng.uniform(-JITTER, JITTER, base.size)


def run_round(scenario, engine, x0, out: Outcome, clock: StepClock | None = None) -> Round:
    clock = StepClock(engine) if clock is None else clock
    t0 = time.perf_counter()
    report = None
    try:
        report = run_closed_loop(scenario, sim_steps=STEPS, x0=x0, engine=engine)
    except (ConvergenceError, InfeasibleRowError) as err:
        out.problems.append(f"round failed: {err}")
    wall = time.perf_counter() - t0
    clock.remove()
    out.attempted += STEPS
    out.failed += STEPS - len(clock.results)
    times, scaled = clock.step_times()
    probing, speed = clock.probes()
    loop_s = wall - probing
    rest = loop_s - sum(times)  # plant update and loop bookkeeping
    return Round(loop_s, sum(scaled) + rest * PROBE_REF_S / speed, times, scaled, clock.results, report)


def setup(config, repeats: int, tracer=None) -> tuple:
    """Build scenario and engine ``repeats`` times; keep the last pair.

    Returns the pair and each build's time scaled to the reference speed by
    the set-up probes taken just before and after it.
    """
    scaled = []
    scenario = engine = None
    for _ in range(repeats):
        scenario = engine = None  # free the previous build before timing the next
        gc.collect()  # every build starts from the same collector state
        before = statistics.median(setup_probe() for _ in range(5))
        t0 = time.perf_counter()
        scenario = build_scenario(config)
        token = tracer.open("admm.engine_init") if tracer is not None else None
        engine = scenario.make_engine()
        if tracer is not None:
            tracer.close(token)
        wall = time.perf_counter() - t0
        after = statistics.median(setup_probe() for _ in range(5))
        scaled.append(wall * SETUP_PROBE_REF_S / ((before + after) / 2))
    return scenario, engine, scaled


def layout(scenario) -> checks.Layout:
    cfg = scenario.config
    return checks.chain_layout(
        scenario.model,
        cfg.horizon,
        cfg.locality,
        cfg.bound_component,
        cfg.state_lower,
        cfg.state_upper,
        cfg.state_weight,
        cfg.input_weight,
        cfg.terminal_weight,
        boxed=cfg.case is not Case.UNCONSTRAINED,
    )


def check_rounds(scenario, engine, rounds, wl: Workload, out: Outcome):
    """Independent checks of every converged plan and every closed loop."""
    lay = layout(scenario)
    eps = scenario.config.eps_primal
    mix = np.zeros(3, dtype=int)
    gaps = []
    for k, rnd in enumerate(rounds):
        for s, res in enumerate(rnd.results):
            phi = engine.assemble_from_rows(res.state, "phi")
            psi = engine.assemble_from_cols(res.state, "psi")
            out.problems += [f"round {k} step {s}: {p}" for p in checks.plan_problems(lay, phi, psi, res.x0, eps)]
            mix += np.bincount(checks.regions(lay, phi, res.x0), minlength=3)
        if rnd.report is None:
            continue
        states, inputs = rnd.report.states, rnd.report.inputs
        out.problems += [f"round {k}: {p}" for p in checks.trajectory_problems(lay, states, inputs, eps)]
        ref = checks.reference_cost(lay, states[0], STEPS)
        if ref is None:
            out.problems.append(f"round {k}: centralized reference found no solution")
            continue
        gap = abs(rnd.report.cost - ref) / ref
        gaps.append(gap)
        if gap > COST_GAP:
            out.problems.append(f"round {k}: closed-loop cost gap {gap:.2e} above {COST_GAP:.0e}")
    if wl.lower_active and mix[2] == 0:
        out.problems.append("no converged plan has a lower-active row")
    out.notes.append(
        f"converged-plan rows: {mix[0]} interior, {mix[1]} upper-active, {mix[2]} lower-active; "
        f"largest cost gap to the centralized reference {max(gaps, default=float('nan')):.2e}"
    )


def run_untraced(name: str, seed: int, seconds: int) -> Outcome:
    wl = WORKLOADS[name]
    out = Outcome()
    config = ScenarioConfig(**wl.config)
    scenario, engine, setup_times = setup(config, wl.setup_repeats)
    n_sub = scenario.model.n_subsystems
    rounds = [
        run_round(scenario, engine, initial_state(scenario, seed, r), out)
        for r in range(max(1, int(seconds // wl.round_seconds)))
    ]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_rounds(scenario, engine, rounds, wl, out)

    times = [t for r in rounds for t in r.scaled]
    iters = [res.iterations for r in rounds for res in r.results]
    warm = [t for r in rounds for t in r.scaled[1:]]
    out.put("setup_s", statistics.median(setup_times), "s")
    out.put("loop_s", statistics.median(r.scaled_loop_s for r in rounds), "s")
    out.put("cold_step_ms_per_sub", statistics.median(r.scaled[0] for r in rounds) * 1e3 / n_sub, "ms")
    out.put("warm_step_ms_per_sub", statistics.median(warm) * 1e3 / n_sub, "ms")
    out.put("iter_us_per_sub", sum(times) / (sum(iters) * n_sub) * 1e6, "us")
    out.put("iterations_per_step", sum(iters) / len(iters), "count")
    out.put("peak_rss_mb", peak_mb, "MB")
    out.notes.append("loop wall time per round: " + ", ".join(f"{r.loop_s:.3f} s" for r in rounds))
    return out


def array_mb(obj) -> float:
    """Megabytes held in the numpy and scipy.sparse arrays reachable from obj."""
    seen = set()

    def walk(o):
        if id(o) in seen:
            return 0
        seen.add(id(o))
        if isinstance(o, np.ndarray):
            return o.nbytes
        if sp.issparse(o):
            return sum(walk(getattr(o, a)) for a in ("data", "indices", "indptr") if hasattr(o, a))
        if dataclasses.is_dataclass(o):
            return sum(walk(getattr(o, f.name)) for f in dataclasses.fields(o))
        if isinstance(o, (list, tuple)):
            return sum(walk(v) for v in o)
        return 0

    return walk(obj) / 2**20


def instrument(tracer: Tracer, engine, lay: checks.Layout, current_x0):
    """Hook the engine's phase methods and the module functions admm calls."""
    lo, hi = lay.row_box()
    per_sub = [(sub.row_cols, lo[sub.rows], hi[sub.rows]) for sub in engine.index.subsystems]

    def classify(_, state, i, *rest):
        # region of every row just solved, from phi . x0 against the box
        token = tracer.open("bench.classify")
        cols, slo, shi = per_sub[i - 1]
        code = checks.region_codes(state.phi_r[i - 1] @ current_x0()[cols], slo, shi)
        counts = np.bincount(code, minlength=3)
        tracer.count("row_solves", code.size)
        tracer.count("rows_upper_active", int(counts[1]))
        tracer.count("rows_lower_active", int(counts[2]))
        tracer.close(token)

    def qp_result(res, *args):
        tracer.count("qp_calls")
        tracer.count("qp_iters", res.iterations)
        tracer.count("qp_non_optimal", int(res.status is not QpStatus.OPTIMAL))

    tracer.hook(engine, "row_step", "admm.row", after=classify)
    for attr, span in (
        ("init_state", "admm.init_state"),
        ("exchange_rows", "admm.exchange_rows"),
        ("column_step", "admm.column"),
        ("exchange_columns", "admm.exchange_columns"),
        ("multiplier_step", "admm.multiplier"),
        ("check_convergence", "admm.convergence"),
        ("extract_control", "admm.extract"),
    ):
        tracer.hook(engine, attr, span)
    tracer.hook(admm, "solve_qp", "qp.solve", after=qp_result)
    tracer.hook(admm, "project_column", "sls.project")


def packet_counts(scenario, x0, out: Outcome):
    """Packets and float64 entries per phase from one recorded iteration."""
    engine = scenario.make_engine(record_packets=True, eps_primal=1e300, eps_dual=1e300)
    res = engine.solve_step(x0)
    if res.iterations != 1:
        out.problems.append(f"packet pass ran {res.iterations} iterations, expected 1")
    counts = {ph: [0, 0] for ph in admm.Phase}
    for pk in res.packets:
        counts[pk.phase][0] += 1
        counts[pk.phase][1] += pk.payload.size
        if not admm.packet_within_locality(pk, scenario.index):
            out.problems.append(f"packet {pk.sender}->{pk.receiver} ({pk.phase.value}) leaves the locality")
    out.put("admm.packets_per_iter.measurement", counts[admm.Phase.MEASUREMENT][0], "count")
    out.put("admm.packets_per_iter.row", counts[admm.Phase.ROW_BLOCKS][0], "count")
    out.put("admm.packets_per_iter.column", counts[admm.Phase.COLUMN_BLOCKS][0], "count")
    out.put("admm.floats_per_iter.row", counts[admm.Phase.ROW_BLOCKS][1], "count")
    out.put("admm.floats_per_iter.column", counts[admm.Phase.COLUMN_BLOCKS][1], "count")


def run_traced(name: str, seed: int, spans_path: Path) -> Outcome:
    """Per-layer run: traced set-up, one untraced and one traced round."""
    wl = WORKLOADS[name]
    out = Outcome()
    config = ScenarioConfig(**wl.config)
    tracer = Tracer()
    for attr, span in (
        ("build_graph", "topology.graph"),
        ("build_locality_index", "topology.index"),
        ("assemble_feasibility_operator", "sls.operator"),
    ):
        tracer.hook(bench, attr, span)
    try:
        scenario, engine, _ = setup(config, wl.setup_repeats, tracer)
    finally:
        tracer.unhook()
    lay = layout(scenario)
    x0 = initial_state(scenario, seed, 0)

    plain = run_round(scenario, engine, x0, out)
    clock = None  # wraps the hooked methods, so it is made after them
    instrument(tracer, engine, lay, lambda: clock.x0)
    clock = StepClock(engine, tracer)
    try:
        traced = run_round(scenario, engine, x0, out, clock)
    finally:
        tracer.unhook()
    packet_counts(scenario, x0, out)
    check_rounds(scenario, engine, [plain, traced], wl, out)
    tracer.write(spans_path)

    st = tracer.self_times()
    reps = wl.setup_repeats
    for span in SETUP_SPANS:
        if span in st:
            out.put(span + "_s", st[span][1] / reps, "s")
    out.put("topology.index_mb", array_mb(scenario.index), "MB")
    out.put("sls.operator_mb", array_mb(scenario.op), "MB")

    for span in STEP_SPANS:
        if span not in tracer.absent:
            out.put(span + "_s", st.get(span, (0.0, 0.0, 0))[1], "s")
    step_total, step_self, _ = st["admm.solve_step"]
    out.put("admm.step_other_s", step_self, "s")
    out.put("admm.solve_step_s", step_total, "s")
    covered = step_self + sum(st.get(s, (0.0, 0.0, 0))[1] for s in STEP_SPANS)
    if abs(covered - step_total) > 1e-6 * step_total:
        out.problems.append(f"phase self times cover {covered:.6f} s of {step_total:.6f} s solve_step")

    c = tracer.counts
    n_iter = sum(res.iterations for res in traced.results)
    out.put("admm.iterations_cold", traced.results[0].iterations, "count")
    out.put("admm.iterations_warm", statistics.mean(r.iterations for r in traced.results[1:]), "count")
    if "admm.row" not in tracer.absent:
        out.put("explicit_row.rows_per_iter", c["row_solves"] / n_iter, "count")
        out.put("explicit_row.ns_per_row", st["admm.row"][0] / c["row_solves"] * 1e9, "ns")
        out.put("explicit_row.rows_upper_active", c["rows_upper_active"], "count")
        out.put("explicit_row.rows_lower_active", c["rows_lower_active"], "count")
    if "qp.solve" not in tracer.absent:
        calls = c.get("qp_calls", 0)
        out.put("qp.solve_calls", calls, "count")
        out.put("qp.ipm_iters_per_call", c.get("qp_iters", 0) / calls if calls else 0.0, "count")
        out.put("qp.non_optimal", c.get("qp_non_optimal", 0), "count")
    out.put("bench.plant_s", plain.loop_s - sum(plain.times), "s")
    base, slow = plain.scaled_loop_s, traced.scaled_loop_s
    out.put("bench.trace_overhead_s", slow - base, "s")
    out.notes.append(
        f"loop_s untraced {base:.3f} s, traced {slow:.3f} s (overhead {100 * (slow / base - 1):.1f}%; "
        f"raw wall {plain.loop_s:.3f} s and {traced.loop_s:.3f} s); spans written to {spans_path}"
    )
    if tracer.absent:
        out.notes.append("absent layers: " + ", ".join(sorted(tracer.absent)))
    return out
