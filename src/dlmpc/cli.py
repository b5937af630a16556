"""Command-line front end: run, sweep, compare and validate verbs."""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .admm import ConvergenceError
from .bench import (
    Case,
    ScenarioConfig,
    box_violation,
    build_chain_model,
    build_scenario,
    emit_report,
    emit_sweep,
    load_config,
    load_model_file,
    parse_case,
    run_closed_loop,
    run_scaling_sweep,
)
from .explicit_row import InfeasibleRowError, RowProblem, kkt_residuals, solve_row
from .qp import row_qp, solve_qp
from .sls import (
    assemble_feasibility_operator,
    project_column,
    response_from_controller,
    stacked_constraint,
)
from .topology import ModelValidationError, build_graph, build_locality_index


def _parse_case(raw: str) -> Case:
    try:
        return parse_case(raw)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from err


def _add_scenario_args(sub):
    sub.add_argument("--config", help="INI scenario file")
    sub.add_argument("--model", help="external model block file")
    sub.add_argument("--subsystems", type=int, help="chain length (if no config/model)")
    sub.add_argument(
        "--case",
        type=_parse_case,
        default=None,
        help="unconstrained, solver or explicit (default: explicit)",
    )
    sub.add_argument("--horizon", type=int, default=None)
    sub.add_argument("--locality", type=int, default=None)
    sub.add_argument("--steps", type=int, default=None, help="closed-loop steps")
    sub.add_argument("--seed", type=int, default=None, help="initial-state seed")
    sub.add_argument("--rho", type=float, default=None)
    sub.add_argument("--eps-primal", type=float, default=None)
    sub.add_argument("--eps-dual", type=float, default=None)
    sub.add_argument("--max-iterations", type=int, default=None)
    sub.add_argument("--cold-start", action="store_true", help="disable warm starts")


def _scenario_from_args(args):
    model = load_model_file(args.model) if args.model else None
    if args.config:
        cfg = load_config(args.config)
    else:
        n_sub = args.subsystems if args.subsystems is not None else (
            model.n_subsystems if model is not None else None
        )
        if n_sub is None:
            raise SystemExit("need --config, --model or --subsystems")
        cfg = ScenarioConfig(n_subsystems=n_sub)
    overrides = {}
    if model is not None:
        overrides["n_subsystems"] = model.n_subsystems
    for field_name, arg_name in (
        ("case", "case"),
        ("horizon", "horizon"),
        ("locality", "locality"),
        ("sim_steps", "steps"),
        ("seed", "seed"),
        ("rho", "rho"),
        ("eps_primal", "eps_primal"),
        ("eps_dual", "eps_dual"),
        ("max_iterations", "max_iterations"),
    ):
        value = getattr(args, arg_name)
        if value is not None:
            overrides[field_name] = value
    if args.cold_start:
        overrides["warm_start"] = False
    if overrides:
        cfg = replace(cfg, **overrides)
    return build_scenario(cfg, model=model)


def _cmd_run(args) -> int:
    scenario = _scenario_from_args(args)
    cfg = scenario.config
    report = run_closed_loop(scenario, with_baseline=args.baseline)
    print(
        f"ran {len(report.steps)} steps on {cfg.n_subsystems} subsystems "
        f"(case {cfg.case.name.lower()}, locality {cfg.locality})"
    )
    iters = report.iterations
    print(f"iterations per step: min {iters.min()} max {iters.max()}")
    print(f"realized cost: {report.cost:.6f}")
    if report.baseline_cost is not None:
        gap = abs(report.cost - report.baseline_cost) / max(abs(report.baseline_cost), 1e-12)
        print(f"baseline cost:  {report.baseline_cost:.6f} (relative gap {gap:.3e})")
    if cfg.case is not Case.UNCONSTRAINED:
        print(f"worst state-box violation: {box_violation(report, scenario):.3e}")
    if args.out:
        paths = emit_report(report, args.out)
        print(f"wrote {paths['json']} and {paths['csv']}")
    return 0


def _cmd_sweep(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    rows = run_scaling_sweep(sizes=sizes, case=args.case or Case.EXPLICIT, sim_steps=args.steps or 2)
    print(f"{'N':>6} {'cold s/sub':>12} {'warm s/sub':>12} {'cold it':>8} {'warm it':>8}")
    for r in rows:
        print(
            f"{r.n_subsystems:>6} {r.cold_seconds:>12.6f} {r.warm_seconds:>12.6f} "
            f"{r.cold_iterations:>8} {r.warm_iterations:>8.1f}"
        )
    if args.out:
        path = emit_sweep(rows, args.out)
        print(f"wrote {path}")
    return 0


def _cmd_compare(args) -> int:
    """Solver-based versus closed-form row steps on identical scenarios."""
    base = _scenario_from_args(args)
    results = {}
    for case in (Case.SOLVER, Case.EXPLICIT):
        scenario = build_scenario(replace(base.config, case=case), model=base.model)
        report = run_closed_loop(scenario)
        per_sub = float(np.mean([np.mean(s.per_sub_seconds) for s in report.steps]))
        results[case] = (report, per_sub)
        print(
            f"case {case.name.lower():13s} per-subsystem {per_sub*1e3:9.3f} ms/step  "
            f"iterations {report.iterations.tolist()}  cost {report.cost:.8f}"
        )
    rep2, t2 = results[Case.SOLVER]
    rep3, t3 = results[Case.EXPLICIT]
    agreement = float(np.max(np.abs(rep2.states - rep3.states)))
    print(f"trajectory agreement: {agreement:.3e}")
    print(f"closed-form speedup:  {t2 / t3:.1f}x")
    return 0


def _cmd_validate(args) -> int:
    """Cross-check the closed-form pieces against independent solvers."""
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    failures = []

    def check(name, value, bound):
        ok = value <= bound
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {value:.3e} (bound {bound:.0e})")
        if not ok:
            failures.append(name)

    # closed-form row solutions vs the iterative QP solver
    worst_gap, worst_kkt = 0.0, 0.0
    for _ in range(args.instances):
        m = int(rng.integers(1, 9))
        x0 = rng.normal(size=m)
        target = rng.normal(size=m)
        rho = float(rng.choice([0.5, 1.0, 10.0]))
        weight = float(rng.uniform(0.1, 3.0))
        lo, hi = sorted(rng.normal(scale=2.0, size=2))
        if rng.random() < 0.3:
            lo = -np.inf
        if rng.random() < 0.3:
            hi = np.inf
        p = RowProblem(target=target, x0=x0, rho=rho, lo=lo, hi=hi, weight=weight)
        sol = solve_row(p)
        stat, prim, comp = kkt_residuals(p, sol)
        worst_kkt = max(worst_kkt, stat, prim, comp)
        ref = solve_qp(row_qp(target, x0, rho, lo, hi, weight), tol=1e-11)
        worst_gap = max(worst_gap, float(np.max(np.abs(sol.phi - ref.x[:m]))))
    check("row solutions vs QP solver", worst_gap, 1e-6)
    check("row KKT residuals", worst_kkt, 1e-8)

    # dynamics feasibility of responses built from random causal gains
    model = build_chain_model(4)
    horizon = 3
    n, pdim = model.n_states, model.n_inputs
    worst_feas = 0.0
    op_index = build_locality_index(build_graph(model), model, 2, horizon)
    op = assemble_feasibility_operator(model, op_index)
    zab = stacked_constraint(model, horizon).toarray()
    rhs = np.eye(zab.shape[0], n)
    for _ in range(20):
        k = np.zeros((pdim * horizon, n * (horizon + 1)))
        for t in range(horizon):
            k[t * pdim : (t + 1) * pdim, : (t + 1) * n] = 0.2 * rng.normal(
                size=(pdim, (t + 1) * n)
            )
        phi = np.vstack(response_from_controller(model, k, horizon))
        worst_feas = max(worst_feas, float(np.max(np.abs(zab @ phi - rhs))))
    check("response feasibility residual", worst_feas, 1e-10)

    # projection idempotence
    worst_idem = 0.0
    for i in range(1, model.n_subsystems + 1):
        sub = op_index.subsystem(i)
        v = rng.normal(size=(sub.col_rows.size, sub.cols.size))
        once = project_column(op, i, v)
        twice = project_column(op, i, once)
        worst_idem = max(worst_idem, float(np.max(np.abs(twice - once))))
    check("projection idempotence", worst_idem, 1e-9)

    # distributed vs centralized on a small closed loop
    cfg = ScenarioConfig(n_subsystems=4, horizon=3, sim_steps=3, seed=1)
    scenario = build_scenario(cfg)
    report = run_closed_loop(scenario, with_baseline=True)
    gap = abs(report.cost - report.baseline_cost) / max(report.baseline_cost, 1e-12)
    check("closed-loop cost gap vs centralized", gap, 1e-2)

    if args.model:
        ext = load_model_file(args.model)
        print(
            f"model file ok: {ext.n_subsystems} subsystems, "
            f"{ext.n_states} states, {ext.n_inputs} inputs"
        )
    if failures:
        print(f"{len(failures)} check(s) failed")
        return 1
    print("all checks passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dlmpc",
        description="Distributed localized MPC on networked linear systems.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p_run = commands.add_parser("run", help="simulate a closed loop")
    _add_scenario_args(p_run)
    p_run.add_argument("--baseline", action="store_true", help="also run the centralized loop")
    p_run.add_argument("--out", help="directory for JSON/CSV reports")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = commands.add_parser("sweep", help="runtime scaling over network sizes")
    p_sweep.add_argument("--sizes", default="10,50,100,200", help="comma-separated sizes")
    p_sweep.add_argument("--case", type=_parse_case, default=Case.EXPLICIT)
    p_sweep.add_argument("--steps", type=int, default=2, help="closed-loop steps per size")
    p_sweep.add_argument("--out", help="directory for the sweep CSV")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cmp = commands.add_parser(
        "compare", help="solver-based vs closed-form row steps, same seeds"
    )
    _add_scenario_args(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_val = commands.add_parser("validate", help="oracle cross-checks of the solvers")
    p_val.add_argument("--instances", type=int, default=200, help="random row instances")
    p_val.add_argument("--seed", type=int, default=0)
    p_val.add_argument("--model", help="also parse and report an external model file")
    p_val.set_defaults(func=_cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConvergenceError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (InfeasibleRowError, ModelValidationError, ValueError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
