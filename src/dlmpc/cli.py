"""Command-line front end: run, sweep and compare verbs."""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace

import numpy as np

from .admm import ConvergenceError
from .bench import (
    Case,
    ScenarioConfig,
    box_violation,
    build_scenario,
    emit_report,
    emit_sweep,
    load_config,
    load_model_file,
    parse_case,
    run_closed_loop,
    run_scaling_sweep,
)


def _parse_case(raw: str) -> Case:
    try:
        return parse_case(raw)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from err


def _add_scenario_args(sub):
    """Scenario flags; each stores into the ScenarioConfig field it overrides."""
    sub.add_argument("--config", help="INI scenario file")
    sub.add_argument("--model", help="external model block file")
    sub.add_argument(
        "--subsystems", dest="n_subsystems", metavar="SUBSYSTEMS", type=int,
        help="chain length (overrides the config)",
    )
    sub.add_argument("--horizon", type=int)
    sub.add_argument("--locality", type=int)
    sub.add_argument(
        "--steps", dest="sim_steps", metavar="STEPS", type=int, help="closed-loop steps"
    )
    sub.add_argument("--seed", type=int, help="initial-state seed")
    sub.add_argument("--rho", type=float)
    sub.add_argument("--eps-primal", type=float)
    sub.add_argument("--eps-dual", type=float)
    sub.add_argument("--max-iterations", type=int)
    sub.add_argument(
        "--cold-start", dest="warm_start", action="store_false", default=None,
        help="disable warm starts",
    )


def _scenario_from_args(args):
    """The scenario: flags over the config file over the model's defaults."""
    model = load_model_file(args.model) if args.model else None
    if args.config:
        cfg = load_config(args.config)
    elif model is not None:
        cfg = ScenarioConfig(n_subsystems=model.n_subsystems)
    elif args.n_subsystems is not None:
        cfg = ScenarioConfig(n_subsystems=args.n_subsystems)
    else:
        raise SystemExit("need --config, --model or --subsystems")
    flags = {f.name: getattr(args, f.name, None) for f in fields(ScenarioConfig)}
    cfg = replace(cfg, **{name: v for name, v in flags.items() if v is not None})
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
    if iters.size:
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
    rows = run_scaling_sweep(sizes=sizes, case=args.case, sim_steps=args.steps)
    print(f"{'N':>6} {'setup s/sub':>12} {'cold s/sub':>12} {'warm s/sub':>12} {'cold it':>8} {'warm it':>8}")
    for r in rows:
        print(
            f"{r.n_subsystems:>6} {r.setup_seconds:>12.6f} {r.cold_seconds:>12.6f} {r.warm_seconds:>12.6f} "
            f"{r.cold_iterations:>8} {r.warm_iterations:>8.1f}"
        )
    if args.out:
        path = emit_sweep(rows, args.out)
        print(f"wrote {path}")
    return 0


def _cmd_compare(args) -> int:
    """Solver-based versus closed-form row steps on identical scenarios."""
    base = _scenario_from_args(args)
    if base.config.sim_steps < 1:
        raise ValueError(
            f"compare needs at least one step (--steps / sim_steps), got {base.config.sim_steps}"
        )
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dlmpc",
        description="Distributed localized MPC on networked linear systems.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p_run = commands.add_parser("run", help="simulate a closed loop")
    _add_scenario_args(p_run)
    p_run.add_argument(
        "--case",
        type=_parse_case,
        help="unconstrained, solver or explicit (default: explicit)",
    )
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

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # InfeasibleRowError and ModelValidationError are ValueErrors
    except (ConvergenceError, ValueError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
