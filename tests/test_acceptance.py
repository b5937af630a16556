"""End-to-end acceptance checks, one pass/fail line per criterion.

Each test prints a single ``[PASS]``/``[FAIL]`` line with the measured
quantity and its tolerance, then asserts.  Heavy runs are shared through
module-scoped fixtures.  Every closed-loop fixture checks exact zeros off
the independently built locality mask at sampled iterations (the
``sample_masks`` hook on ``check_convergence``, which ``solve_step`` looks
up on the instance inside its one clock, so each sampled check is part of
the step time that, divided by N, is the per-subsystem time), so the
sparsity criterion is exercised by the same runs that produce the
performance numbers.
"""
import time
from contextlib import contextmanager

import numpy as np
import pytest

pytestmark = pytest.mark.slow

from dlmpc import (
    Case,
    DenseQP,
    Scenario,
    ScenarioConfig,
    build_chain_model,
    build_locality_index,
    build_scenario,
    project_column,
    run_closed_loop,
    run_scaling_sweep,
    solve_qp,
    stacked_constraint,
)
from oracles import (
    INTERIOR,
    LOWER_ACTIVE,
    UPPER_ACTIVE,
    RowProblem,
    check_masks,
    controller_from_response,
    dense_constraint,
    full_response_from_controller,
    kkt_residuals,
    projector,
    sample_masks,
    solve_row,
)


def _verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    return ok


# -- independent reference routes (no shared code with the implementation) ----


def _row_qp_reference(p: RowProblem, tol=1e-11):
    """Row subproblem in slack form for the interior-point solver."""
    m = p.target.size
    h = np.zeros((m + 1, m + 1))
    h[np.arange(m), np.arange(m)] = p.rho
    h[m, m] = 2.0 * p.weight**2
    g = np.concatenate([-p.rho * p.target, [0.0]])
    a_eq = np.concatenate([p.x0, [-1.0]])[None, :]
    lb = np.full(m + 1, -np.inf)
    ub = np.full(m + 1, np.inf)
    lb[m], ub[m] = p.lo, p.hi
    return solve_qp(DenseQP(h, g, a_eq, np.zeros(1), lb, ub), tol=tol)


def _region_oracle(p: RowProblem) -> int:
    """Dual sign check over the three KKT candidates, ties to the interior."""
    denom = p.rho + 2.0 * p.weight**2 * float(p.x0 @ p.x0)
    free = p.rho * float(p.target @ p.x0) / denom
    k = float(p.x0 @ p.x0) / denom
    if k == 0.0:
        return INTERIOR

    def dual_value(lam_up, lam_lo):
        lam = lam_up - lam_lo
        val = -0.5 * k * lam * lam + lam * free
        if lam_up:
            val -= lam_up * p.hi
        if lam_lo:
            val += lam_lo * p.lo
        return val

    candidates = []
    if p.lo <= free <= p.hi:
        candidates.append((INTERIOR, 0.0, 0.0))
    if np.isfinite(p.hi) and (free - p.hi) / k >= 0.0:
        candidates.append((UPPER_ACTIVE, (free - p.hi) / k, 0.0))
    if np.isfinite(p.lo) and (p.lo - free) / k >= 0.0:
        candidates.append((LOWER_ACTIVE, 0.0, (p.lo - free) / k))
    best = max(candidates, key=lambda c: dual_value(c[1], c[2]))
    if best[1] == 0.0 and best[2] == 0.0:
        return INTERIOR
    return best[0]


def _sampled(engine, sc, reference_mask, every, samples):
    """``engine``, made to check ``sc``'s locality mask every ``every``-th iteration."""
    mask = reference_mask(sc.model, sc.config.locality, sc.config.horizon)
    samples.append(sample_masks(engine, mask, every))
    return engine


@contextmanager
def _sampled_sweeps(reference_mask, every, samples):
    """Make every engine that a scaling sweep builds check the mask as above."""
    make_engine = Scenario.make_engine
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            Scenario, "make_engine",
            lambda sc, **kw: _sampled(make_engine(sc, **kw), sc, reference_mask, every, samples),
        )
        yield


# -- shared heavy fixtures -----------------------------------------------------


@pytest.fixture(scope="module")
def mask_samples():
    """Per instrumented fixture, one list of checked iterations per engine."""
    return {}


@pytest.fixture(scope="module")
def row_batch():
    """1000 random row instances solved by both routes, explicit side timed."""
    rng = np.random.default_rng(2024)
    problems = []
    for _ in range(1000):
        m = int(rng.integers(1, 13))
        x0 = rng.normal(size=m)
        target = rng.normal(scale=2.0, size=m)
        rho = float(rng.choice([0.5, 1.0, 10.0]))
        weight = float(rng.uniform(0.0, 3.0))
        lo, hi = sorted(rng.normal(scale=1.5, size=2))
        if rng.random() < 0.25:
            lo = -np.inf
        if rng.random() < 0.25:
            hi = np.inf
        problems.append(
            RowProblem(target=target, x0=x0, rho=rho, lo=lo, hi=hi, weight=weight)
        )
    t0 = time.perf_counter()
    solutions = [solve_row(p) for p in problems]
    explicit_wall = time.perf_counter() - t0
    references = [_row_qp_reference(p) for p in problems]
    return problems, solutions, references, explicit_wall


@pytest.fixture(scope="module")
def tracking_runs(reference_mask, mask_samples):
    """Matched solver-row and explicit-row closed loops on the stock chain."""
    out = {}
    samples = mask_samples["tracking_runs"] = []
    for case in (Case.SOLVER, Case.EXPLICIT):
        cfg = ScenarioConfig(
            n_subsystems=10, horizon=5, locality=1, case=case,
            sim_steps=10, seed=0, eps_primal=1e-6, eps_dual=1e-6,
        )
        sc = build_scenario(cfg)
        engine = _sampled(sc.make_engine(), sc, reference_mask, 5, samples)
        out[case] = (run_closed_loop(sc, engine=engine), sc)
    return out


@pytest.fixture(scope="module")
def gap_runs(reference_mask, mask_samples):
    """Distributed vs centralized receding-horizon runs, instrumented."""
    out = []
    samples = mask_samples["gap_runs"] = []
    for n in (10, 50):
        cfg = ScenarioConfig(
            n_subsystems=n, horizon=5, locality=1, case=Case.EXPLICIT,
            sim_steps=20, seed=0,
        )
        sc = build_scenario(cfg)
        engine = _sampled(sc.make_engine(), sc, reference_mask, 5, samples)
        t0 = time.perf_counter()
        rep = run_closed_loop(sc, engine=engine, with_baseline=True)
        out.append((n, rep, time.perf_counter() - t0))
    return out


@pytest.fixture(scope="module")
def explicit_sweep(reference_mask, mask_samples):
    """Cold and warm per-subsystem times across network sizes."""
    samples = mask_samples["explicit_sweep"] = []
    with _sampled_sweeps(reference_mask, 25, samples):
        return run_scaling_sweep(sizes=(10, 50, 100, 200), case=Case.EXPLICIT, sim_steps=2)


@pytest.fixture(scope="module")
def case_sweeps(reference_mask):
    """Cold per-subsystem times for all three cases across network sizes."""
    out = {}
    with _sampled_sweeps(reference_mask, 25, []):
        for case in (Case.UNCONSTRAINED, Case.SOLVER, Case.EXPLICIT):
            out[case] = run_scaling_sweep(sizes=(10, 50, 100, 200), case=case, sim_steps=1)
    return out


# -- criteria ------------------------------------------------------------------


def test_explicit_rows_match_reference_solver(row_batch):
    problems, solutions, references, wall = row_batch
    gap = 0.0
    kkt = 0.0
    for p, sol, ref in zip(problems, solutions, references):
        gap = max(gap, float(np.max(np.abs(sol[0] - ref.x[:-1]))))
        kkt = max(kkt, *kkt_residuals(p, sol))
    ok = gap <= 1e-6 and kkt <= 1e-8 and wall < 10.0
    assert _verdict(
        1, ok,
        f"{len(problems)} random rows: max gap to solver {gap:.2e} (tol 1e-6), "
        f"max KKT residual {kkt:.2e} (tol 1e-8), batch wall {wall:.2f}s (cap 10s)",
    )


def test_region_classification_matches_dual_oracle(row_batch):
    problems, solutions, _, _ = row_batch
    mismatches = sum(
        1 for p, s in zip(problems, solutions) if s[3] != _region_oracle(p)
    )
    seen = {s[3] for s in solutions}
    ok = mismatches == 0 and seen == {INTERIOR, UPPER_ACTIVE, LOWER_ACTIVE}
    assert _verdict(
        2, ok,
        f"region labels: {mismatches}/{len(problems)} disagree with the dual "
        f"sign oracle, {len(seen)}/3 regions exercised",
    )


def test_causal_gains_satisfy_constraint_and_round_trip():
    rng = np.random.default_rng(7)
    horizon = 5
    residual = 0.0
    recovery = 0.0
    for trial in range(100):
        model = build_chain_model(1 + trial % 4)  # 2..8 states
        n, p = model.n_states, model.n_inputs
        k = rng.normal(scale=0.4, size=(p * horizon, n * (horizon + 1)))
        for t in range(horizon):
            k[t * p : (t + 1) * p, (t + 1) * n :] = 0.0
        phi_x, phi_u = full_response_from_controller(model, k, horizon)
        phi = np.vstack([phi_x, phi_u])
        # the test-side dense rebuild and the package's own sparse Z
        for z in (dense_constraint(model, horizon), stacked_constraint(model, horizon)):
            residual = max(residual, float(np.max(np.abs(z @ phi - np.eye(z.shape[0])))))
        recovery = max(
            recovery,
            float(np.max(np.abs(controller_from_response(phi_x, phi_u) - k))),
        )
    ok = residual <= 1e-10 and recovery <= 1e-8
    assert _verdict(
        3, ok,
        f"100 random causal gains: max constraint residual {residual:.2e} "
        f"against the dense rebuild and stacked_constraint "
        f"(tol 1e-10), max gain recovery error {recovery:.2e} (tol 1e-8)",
    )


def test_column_projection_matches_kkt_oracle(six_node_model, six_node_index):
    from dlmpc import assemble_feasibility_operator, build_graph, build_locality_index

    rng = np.random.default_rng(11)
    chain = build_chain_model(5)
    cases = [
        (six_node_model, six_node_index),
        (chain, build_locality_index(build_graph(chain), chain, 1, 5)),
    ]
    gap = 0.0
    drift = 0.0
    for model, index in cases:
        op = assemble_feasibility_operator(model, index)
        z_full = dense_constraint(model, index.horizon)
        rhs_full = np.zeros((z_full.shape[0], model.n_states))
        rhs_full[: model.n_states] = np.eye(model.n_states)
        for sub in index.subsystems:
            v = rng.normal(size=(len(sub.col_rows), len(sub.cols)))
            got = project_column(projector(op, sub.sub_id), v)
            c = z_full[:, sub.col_rows]
            kkt = np.block(
                [[np.eye(c.shape[1]), c.T], [c, np.zeros((c.shape[0], c.shape[0]))]]
            )
            rhs = np.vstack([v, rhs_full[:, sub.cols]])
            want = np.linalg.lstsq(kkt, rhs, rcond=None)[0][: c.shape[1]]
            gap = max(gap, float(np.max(np.abs(got - want))))
            drift = max(
                drift, float(np.max(np.abs(project_column(projector(op, sub.sub_id), got) - got)))
            )
    ok = gap <= 1e-9 and drift <= 1e-9
    assert _verdict(
        4, ok,
        f"column projection: max gap to KKT oracle {gap:.2e} (tol 1e-9), "
        f"max idempotence drift {drift:.2e} (tol 1e-9)",
    )


def test_closed_loop_cost_tracks_centralized(gap_runs):
    details = []
    ok = True
    for n, rep, wall in gap_runs:
        gap = abs(rep.cost - rep.baseline_cost) / abs(rep.baseline_cost)
        sane = rep.cost >= rep.baseline_cost - 1e-3
        ok = ok and gap <= 1e-2 and wall < 120.0 and sane
        details.append(f"N={n} rel gap {gap:.2e} wall {wall:.1f}s")
    assert _verdict(
        5, ok, "; ".join(details) + " (tol 1e-2, cap 120s each)"
    )


def test_trajectories_respect_state_box(tracking_runs):
    worst = 0.0
    for rep, sc in tracking_runs.values():
        first = rep.states[1:, ::2]
        worst = max(
            worst, float(first.max() - 1.2), float(-0.2 - first.min()), 0.0
        )
    ok = worst <= 1e-6
    assert _verdict(
        6, ok,
        f"bounded component stays in [-0.2, 1.2] on both row routes: "
        f"worst excursion {worst:.2e} (tol 1e-6)",
    )


def test_per_subsystem_time_scales_flat(explicit_sweep):
    by_n = {r.n_subsystems: 0.5 * (r.cold_seconds + r.warm_seconds) for r in explicit_sweep}
    ratio = by_n[200] / by_n[10]
    ok = ratio <= 2.0
    assert _verdict(
        7, ok,
        f"per-subsystem step time N=200 vs N=10: "
        f"{1e3 * by_n[200]:.1f}ms / {1e3 * by_n[10]:.1f}ms = {ratio:.2f}x (cap 2x)",
    )


def test_explicit_rows_beat_solver_rows(case_sweeps):
    ok = True
    worst_vs_qp = 0.0
    worst_vs_free = 0.0
    for i, n in enumerate((10, 50, 100, 200)):
        t1 = case_sweeps[Case.UNCONSTRAINED][i].cold_seconds
        t2 = case_sweeps[Case.SOLVER][i].cold_seconds
        t3 = case_sweeps[Case.EXPLICIT][i].cold_seconds
        ok = ok and t3 < t2 and t3 <= 1.5 * t1
        worst_vs_qp = max(worst_vs_qp, t3 / t2)
        worst_vs_free = max(worst_vs_free, t3 / t1)
    assert _verdict(
        8, ok,
        f"every size: closed-form rows vs solver rows at most {worst_vs_qp:.3f}x "
        f"(must be <1), vs unconstrained at most {worst_vs_free:.2f}x (cap 1.5x)",
    )


def test_row_routes_produce_same_trajectories(tracking_runs):
    rep_qp, _ = tracking_runs[Case.SOLVER]
    rep_ex, _ = tracking_runs[Case.EXPLICIT]
    gap = float(np.max(np.abs(rep_qp.states - rep_ex.states)))
    ok = gap <= 1e-4
    assert _verdict(
        9, ok,
        f"solver-row vs closed-form-row trajectories: max state gap {gap:.2e} "
        f"(tol 1e-4)",
    )


def test_information_sets_on_reference_network(six_node_graph, six_node_model):
    # at d = 0 the index's footprint sets are the 1-hop in-sets; the out-sets are their transpose
    in_sets = build_locality_index(six_node_graph, six_node_model, d=0, horizon=1).in_sets_ext
    out_sets = [{i for i, s in enumerate(in_sets, start=1) if r in s} for r in range(1, 7)]
    in5, out5 = in_sets[4], out_sets[4]
    membership = all(r in in_sets[r - 1] and r in out_sets[r - 1] for r in range(1, 7))
    ok = {3, 4} <= in5 and {4, 6} <= out5 and membership
    assert _verdict(
        10, ok,
        f"reference network: in-set of node 5 {sorted(in5)} covers {{3,4}}, "
        f"out-set {sorted(out5)} covers {{4,6}}, every node sees itself",
    )


def test_masks_hold_exactly_during_iterations(
    reference_mask, mask_samples, tracking_runs, gap_runs, explicit_sweep
):
    # the fixtures above already checked the mask at sampled iterations;
    # finish with an every-iteration run plus a direct final check
    cfg = ScenarioConfig(n_subsystems=4, horizon=3, sim_steps=2, seed=1)
    sc = build_scenario(cfg)
    dense = []
    engine = _sampled(sc.make_engine(), sc, reference_mask, 1, dense)
    result = engine.solve_step(sc.initial_state())
    check_masks(engine, result.state, reference_mask(sc.model, cfg.locality, cfg.horizon))
    fixtures = {name: mask_samples[name] for name in ("tracking_runs", "gap_runs", "explicit_sweep")}
    sampled = {name: sum(map(len, runs)) for name, runs in fixtures.items()}
    ok = dense == [list(range(1, result.iterations + 1))] and all(sampled.values())
    assert _verdict(
        11, ok,
        f"off-mask entries exactly zero at {sum(sampled.values())} sampled iterations "
        f"across {sum(map(len, fixtures.values()))} instrumented runs ({sampled}) and at "
        f"all {result.iterations} iterations of one every-iteration run",
    )
