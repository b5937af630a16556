"""Scenario builders, closed-loop runs, reports, loaders and the CLI."""
import csv
import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from dlmpc import (
    Case,
    ConvergenceError,
    RowSolverKind,
    RunReport,
    ScenarioConfig,
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
    save_model_file,
)
from dlmpc.bench import SweepRow, _simulate
from dlmpc.cli import main as cli_main


class TestChainBuilder:
    def test_block_values(self):
        m = build_chain_model(3)
        np.testing.assert_array_equal(
            m.a_blocks[(2, 2)], [[1.0, 0.1], [-0.3, 0.7]]
        )
        np.testing.assert_array_equal(m.a_blocks[(2, 1)], [[0.0, 0.0], [0.1, 0.1]])
        np.testing.assert_array_equal(m.a_blocks[(2, 3)], [[0.0, 0.0], [0.1, 0.1]])
        np.testing.assert_array_equal(m.b_blocks[(2, 2)], [[0.0], [0.1]])
        assert (1, 3) not in m.a_blocks

    def test_benchmark_dimensions(self):
        m = build_chain_model(10)
        assert m.n_states == 20
        assert m.n_inputs == 10
        couplings = {
            tuple(sorted(k)) for k in m.a_blocks if k[0] != k[1]
        }
        assert len(couplings) == 9

    def test_two_node_single_coupling(self):
        m = build_chain_model(2)
        off_diag = [k for k in m.a_blocks if k[0] != k[1]]
        assert sorted(off_diag) == [(1, 2), (2, 1)]

    def test_bounds_touch_first_component_only(self):
        sc = build_scenario(ScenarioConfig(n_subsystems=3, case=Case.EXPLICIT))
        np.testing.assert_array_equal(sc.state_ub[::2], [1.2, 1.2, 1.2])
        assert np.all(np.isinf(sc.state_ub[1::2]))
        np.testing.assert_array_equal(sc.state_lb[::2], [-0.2, -0.2, -0.2])

    def test_unconstrained_case_has_no_bounds(self):
        sc = build_scenario(ScenarioConfig(n_subsystems=3, case=Case.UNCONSTRAINED))
        assert np.all(np.isinf(sc.state_ub))
        assert np.all(np.isinf(sc.state_lb))

    def test_case_is_parsed_from_a_name_or_number(self):
        for raw, case in (("solver", Case.SOLVER), ("UNCONSTRAINED", Case.UNCONSTRAINED), (3, Case.EXPLICIT)):
            assert ScenarioConfig(n_subsystems=3, case=raw).case is case
        # the named case decides the row route and the boxes
        sc = build_scenario(ScenarioConfig(n_subsystems=3, horizon=2, case="solver"))
        assert sc.make_engine().row_solver is RowSolverKind.QP
        sc = build_scenario(ScenarioConfig(n_subsystems=3, horizon=2, case="unconstrained"))
        assert np.all(np.isinf(sc.state_lb)) and np.all(np.isinf(sc.state_ub))
        with pytest.raises(ValueError, match="unknown case 'bogus'"):
            ScenarioConfig(n_subsystems=3, case="bogus")

    def test_rejects_negative_bound_component(self):
        with pytest.raises(ValueError, match="bound_component -1 out of range"):
            build_scenario(ScenarioConfig(n_subsystems=3, bound_component=-1))

    def test_integer_settings_must_be_integers(self):
        for name, value in (("n_subsystems", 3.0), ("horizon", 2.5), ("locality", 1.5),
                            ("bound_component", 1.0), ("seed", 1.5), ("sim_steps", True)):
            with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value!r}$"):
                ScenarioConfig(**{"n_subsystems": 3, name: value})
        # numpy integers are integers, and are stored as ints
        cfg = ScenarioConfig(n_subsystems=np.int64(3), horizon=np.int32(2), sim_steps=2)
        assert (type(cfg.n_subsystems), type(cfg.horizon)) == (int, int)
        sc = build_scenario(cfg)
        with pytest.raises(ValueError, match=r"^max_iterations must be an integer, got 2\.5$"):
            sc.make_engine(max_iterations=2.5)
        with pytest.raises(ValueError, match=r"^sim_steps must be an integer, got 1\.7$"):
            run_closed_loop(sc, sim_steps=1.7)
        assert len(run_closed_loop(sc, sim_steps=np.int64(1)).steps) == 1

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("rho", "1", "must be a real number, got '1'"),
            ("eps_primal", "1e-4", "must be a real number, got '1e-4'"),
            ("state_weight", "2", "must be a real number, got '2'"),
            ("state_lower", None, "must be a real number, got None"),
            ("input_upper", True, "must be a real number, got True"),
            ("warm_start", "no", "must be a bool, got 'no'"),
            ("warm_start", 0, "must be a bool, got 0"),
        ],
    )
    def test_float_and_bool_settings_are_checked(self, name, value, message):
        with pytest.raises(ValueError, match=f"^{name} {message}$"):
            ScenarioConfig(**{"n_subsystems": 3, name: value})

    def test_float_and_bool_settings_are_stored_as_such(self):
        # numpy's numbers count, and integers are reals
        cfg = ScenarioConfig(n_subsystems=3, rho=np.float32(2.0), state_lower=np.int64(-1), warm_start=np.bool_(False))
        assert (type(cfg.rho), type(cfg.state_lower), type(cfg.warm_start)) == (float, float, bool)
        assert (cfg.rho, cfg.state_lower, cfg.warm_start) == (2.0, -1.0, False)

    def test_rejects_mismatched_model(self):
        with pytest.raises(ValueError):
            build_scenario(
                ScenarioConfig(n_subsystems=4), model=build_chain_model(3)
            )


def array_bytes(obj, seen=None) -> int:
    """Bytes held in the numpy and scipy.sparse arrays reachable from obj."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if sp.issparse(obj):
        return sum(array_bytes(getattr(obj, a), seen) for a in ("data", "indices", "indptr"))
    if dataclasses.is_dataclass(obj):
        return sum(array_bytes(getattr(obj, f.name), seen) for f in dataclasses.fields(obj))
    if isinstance(obj, (list, tuple)):
        return sum(array_bytes(v, seen) for v in obj)
    return 0


class TestSetupMemory:
    def test_setup_memory_grows_linearly(self):
        small = build_scenario(ScenarioConfig(n_subsystems=50))
        large = build_scenario(ScenarioConfig(n_subsystems=100))
        for part in ("index", "op"):
            ratio = array_bytes(getattr(large, part)) / array_bytes(getattr(small, part))
            # twice the subsystems, twice the bytes (plus boundary effects)
            assert ratio <= 2.1, f"{part}: {ratio:.3f}x the bytes for 2x the subsystems"

    def test_plant_steps_the_sparse_dynamics(self):
        # a dense A and B of the 200-node chain hold 1.9 MB; the plant loop
        # allocates only its states and inputs
        sc = build_scenario(ScenarioConfig(n_subsystems=200, sim_steps=3))
        n, p = sc.model.n_states, sc.model.n_inputs
        zero = np.zeros(p)
        tracemalloc.start()
        try:
            _simulate(sc, lambda s, x: zero, None, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * 8 * n * (n + p), f"plant loop peaked at {peak} bytes"


class TestClosedLoop:
    def test_zero_initial_state_stays_at_rest(self):
        sc = build_scenario(ScenarioConfig(n_subsystems=3, horizon=3, sim_steps=2))
        rep = run_closed_loop(sc, x0=np.zeros(6))
        assert not rep.states.any()
        assert not rep.inputs.any()
        assert rep.cost == 0.0

    def test_deterministic_across_runs(self):
        cfg = ScenarioConfig(n_subsystems=3, horizon=3, sim_steps=2, seed=5)
        r1 = run_closed_loop(build_scenario(cfg))
        r2 = run_closed_loop(build_scenario(cfg))
        np.testing.assert_array_equal(r1.states, r2.states)
        np.testing.assert_array_equal(r1.inputs, r2.inputs)
        assert r1.cost == r2.cost

    def test_seed_changes_initial_state(self):
        a = build_scenario(ScenarioConfig(n_subsystems=3, seed=0)).initial_state()
        b = build_scenario(ScenarioConfig(n_subsystems=3, seed=1)).initial_state()
        assert np.any(a != b)

    def test_infinite_bounds_match_unconstrained_case(self):
        cfg1 = ScenarioConfig(n_subsystems=3, horizon=3, sim_steps=2, case=Case.UNCONSTRAINED)
        cfg3 = ScenarioConfig(
            n_subsystems=3, horizon=3, sim_steps=2, case=Case.EXPLICIT,
            state_lower=-np.inf, state_upper=np.inf,
        )
        r1 = run_closed_loop(build_scenario(cfg1))
        r3 = run_closed_loop(build_scenario(cfg3))
        assert np.max(np.abs(r1.states - r3.states)) <= 1e-6

    def test_realized_cost_hand_value(self):
        states = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 0.25]])
        inputs = np.array([[2.0], [1.0]])
        # states after t=0 weighted by q, all inputs by r
        expect = (0.25 + 0.25 + 0.0625) * 2.0 + (4.0 + 1.0) * 0.5
        got = realized_cost(states, inputs, q_diag=[2.0, 2.0], r_diag=[0.5])
        assert abs(got - expect) < 1e-12

    def test_nonconvergence_names_step(self):
        sc = build_scenario(ScenarioConfig(n_subsystems=2, horizon=2, sim_steps=1))
        engine = sc.make_engine(max_iterations=1, eps_primal=1e-15, eps_dual=1e-15)
        with pytest.raises(ConvergenceError, match="MPC step 0"):
            run_closed_loop(sc, engine=engine)

    def test_run_mpc_step_matches_loop_start(self):
        sc = build_scenario(ScenarioConfig(n_subsystems=3, horizon=3, sim_steps=1))
        x0 = sc.initial_state()
        res = sc.make_engine().solve_step(x0)
        rep = run_closed_loop(sc, x0=x0)
        np.testing.assert_array_equal(res.u, rep.inputs[0])

    def test_engineered_box_activity(self):
        # cap the actuated component below its free trajectory so the upper
        # bound genuinely binds; rho tuned for a short consensus run
        x0 = np.tile([0.2, 1.0], 3)
        tight = ScenarioConfig(
            n_subsystems=3, horizon=3, sim_steps=2, case=Case.EXPLICIT,
            bound_component=1, state_upper=0.7, state_lower=-1.0, rho=10.0,
            eps_primal=1e-6, eps_dual=1e-6,
        )
        loose = ScenarioConfig(
            n_subsystems=3, horizon=3, sim_steps=2, case=Case.UNCONSTRAINED,
            rho=10.0, eps_primal=1e-6, eps_dual=1e-6,
        )
        rep_t = run_closed_loop(build_scenario(tight), x0=x0)
        rep_l = run_closed_loop(build_scenario(loose), x0=x0)
        capped = rep_t.states[1:, 1::2]
        free = rep_l.states[1:, 1::2]
        assert free.max() > 0.75  # the cap genuinely cuts into the optimum
        assert capped.max() <= 0.7 + 1e-5
        assert capped.max() > 0.7 - 1e-3  # trajectory rides the bound
        assert rep_t.cost > rep_l.cost

    @pytest.mark.parametrize("loop", [run_closed_loop, centralized_closed_loop])
    def test_negative_sim_steps_rejected(self, loop):
        sc = build_scenario(ScenarioConfig(n_subsystems=2, horizon=2))
        with pytest.raises(ValueError, match="sim_steps must be at least 0, got -2"):
            loop(sc, sim_steps=-2)

    def test_baseline_loop_matches_distributed_closely(self):
        sc = build_scenario(ScenarioConfig(n_subsystems=3, horizon=3, sim_steps=3))
        rep = run_closed_loop(sc, with_baseline=True)
        assert rep.baseline_cost is not None
        gap = abs(rep.cost - rep.baseline_cost) / rep.baseline_cost
        assert gap < 1e-2
        states, inputs, cost = centralized_closed_loop(sc, sim_steps=3, x0=rep.states[0])
        assert cost == rep.baseline_cost
        np.testing.assert_array_equal(states, rep.baseline_states)


class TestBoxViolation:
    def test_positive_on_crafted_excursion(self):
        sc = build_scenario(ScenarioConfig(n_subsystems=2, horizon=2, sim_steps=1))
        rep = run_closed_loop(sc)
        rep.states = rep.states.copy()
        rep.states[1, 0] = 1.5  # above the 1.2 cap
        assert abs(box_violation(rep, sc) - 0.3) < 1e-12

    def test_zero_when_unbounded(self):
        sc = build_scenario(ScenarioConfig(n_subsystems=2, horizon=2, sim_steps=1, case=Case.UNCONSTRAINED))
        rep = run_closed_loop(sc)
        assert box_violation(rep, sc) == 0.0


class TestReports:
    def test_json_round_trip_is_lossless(self, tmp_path):
        # the box on the actuated state binds: the second step takes momentum
        sc = build_scenario(ScenarioConfig(
            n_subsystems=3, horizon=3, sim_steps=2, bound_component=1, state_lower=-0.3,
        ))
        rep = run_closed_loop(sc, with_baseline=True)
        assert rep.steps[1].extrapolated > 0
        paths = emit_report(rep, tmp_path)
        back = load_report(paths["json"])
        assert isinstance(back, RunReport)
        assert back.config == rep.config
        for name in ("states", "inputs", "baseline_states", "baseline_inputs"):
            np.testing.assert_array_equal(getattr(back, name), getattr(rep, name))
        assert back.cost == rep.cost
        assert back.baseline_cost == rep.baseline_cost
        assert len(back.steps) == len(rep.steps) == 2
        for got, want in zip(back.steps, rep.steps):
            assert got.step == want.step
            assert got.iterations == want.iterations
            assert got.primal_residual == want.primal_residual
            assert got.dual_residual == want.dual_residual
            assert (got.extrapolated, got.restarts) == (want.extrapolated, want.restarts)
            np.testing.assert_array_equal(got.per_sub_seconds, want.per_sub_seconds)

    def test_json_is_strict_and_keeps_infinite_bounds(self, tmp_path):
        # the stock input box is unbounded: input_lower = -inf, input_upper = inf
        sc = build_scenario(ScenarioConfig(n_subsystems=2, horizon=2, sim_steps=1))
        rep = run_closed_loop(sc)
        paths = emit_report(rep, tmp_path)

        def reject_constant(name):
            raise ValueError(f"{name} in the report")

        data = json.loads(paths["json"].read_text(), parse_constant=reject_constant)
        assert data["config"]["input_lower"] == "-inf"
        assert data["config"]["input_upper"] == "inf"
        back = load_report(paths["json"]).config
        assert back.input_lower == -np.inf and back.input_upper == np.inf
        assert back == rep.config

    def test_loads_report_with_bare_non_finite_constants(self, tmp_path):
        sc = build_scenario(ScenarioConfig(n_subsystems=2, horizon=2, sim_steps=1))
        rep = run_closed_loop(sc)
        path = emit_report(rep, tmp_path)["json"]
        # older reports were written with json's Infinity / -Infinity
        text = path.read_text().replace('"-inf"', "-Infinity").replace('"inf"', "Infinity")
        assert "-Infinity" in text
        path.write_text(text)
        back = load_report(path)
        assert back.config == rep.config
        np.testing.assert_array_equal(back.states, rep.states)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda data: data["config"].update(qp_tol=1e-9), "its config has an unknown key 'qp_tol'"),
            (lambda data: data["steps"][1].pop("restarts"), "step 1 has no key 'restarts'"),
            (lambda data: data.pop("n_inputs"), "the report has no key 'n_inputs'"),
            (lambda data: data["config"].pop("horizon"), "its config has no key 'horizon'"),
            (lambda data: [data.clear(), data.update(config={"n_subsystems": 2})], "the report has no key 'states'"),
        ],
        ids=["qp-tol", "no-restarts", "no-n-inputs", "no-horizon", "config-only"],
    )
    def test_report_with_a_key_off_is_named(self, tmp_path, edit, message):
        # older reports (a qp_tol setting, no momentum counts, no input count)
        # no longer load; a missing setting must not take its default
        sc = build_scenario(ScenarioConfig(n_subsystems=2, horizon=2, sim_steps=2))
        path = emit_report(run_closed_loop(sc), tmp_path)["json"]
        data = json.loads(path.read_text())
        edit(data)
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=f"^report {re.escape(str(path))}: {message}$"):
            load_report(path)

    def test_csv_step_rows_parse_exactly(self, tmp_path):
        sc = build_scenario(ScenarioConfig(n_subsystems=3, horizon=3, sim_steps=2))
        rep = run_closed_loop(sc)
        paths = emit_report(rep, tmp_path)
        with open(paths["csv"]) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert float(rows[0]["primal_residual"]) == rep.steps[0].primal_residual
        assert int(rows[1]["iterations"]) == rep.steps[1].iterations
        assert int(rows[1]["extrapolated"]) == rep.steps[1].extrapolated
        assert int(rows[1]["restarts"]) == rep.steps[1].restarts

    def test_empty_report_writes_headers_only(self, tmp_path):
        cfg = ScenarioConfig(n_subsystems=2)
        rep = RunReport(
            config=cfg, states=np.zeros((1, 4)), inputs=np.zeros((0, 2)),
            steps=[], cost=0.0,
        )
        paths = emit_report(rep, tmp_path, stem="empty")
        lines = paths["csv"].read_text().strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("step,")
        back = load_report(paths["json"])
        assert back.steps == []

    def test_zero_step_run_round_trips(self, tmp_path):
        sc = build_scenario(ScenarioConfig(n_subsystems=2, horizon=2, sim_steps=0))
        rep = run_closed_loop(sc, with_baseline=True)
        path = emit_report(rep, tmp_path)["json"]
        back = load_report(path)
        assert back.inputs.shape == back.baseline_inputs.shape == rep.inputs.shape == (0, 2)

    def test_sweep_csv_round_trip(self, tmp_path):
        rows = [
            SweepRow(10, "explicit", 0.001234, 0.000987, 71, 49.5, 0.5),
            SweepRow(50, "explicit", 0.002, float("nan"), 80, float("nan"), 1.0),
        ]
        path = emit_sweep(rows, tmp_path)
        with open(path) as fh:
            got = list(csv.DictReader(fh))
        assert int(got[0]["n_subsystems"]) == 10
        assert float(got[0]["cold_seconds"]) == 0.001234
        assert np.isnan(float(got[1]["warm_seconds"]))


class TestLoaders:
    def test_config_round_trip(self, tmp_path):
        ini = tmp_path / "scenario.ini"
        ini.write_text(
            """
[scenario]
subsystems = 5
horizon = 4
locality = 2
case = solver   ; iterative row updates
seed = 7
sim_steps = 3
warm_start = false

[cost]
state_weight = 2.0
input_weight = 0.5
terminal_weight = 3.0

[bounds]
state_lower = -0.1
state_upper = 0.9
bound_component = 1
input_lower = -5
input_upper = 5

[solver]
rho = 2.0
eps_primal = 1e-5
eps_dual = 1e-6
max_iterations = 500
"""
        )
        cfg = load_config(ini)
        assert cfg.n_subsystems == 5
        assert cfg.horizon == 4
        assert cfg.locality == 2
        assert cfg.case is Case.SOLVER
        assert cfg.seed == 7
        assert cfg.sim_steps == 3
        assert cfg.warm_start is False
        assert cfg.state_weight == 2.0
        assert cfg.input_weight == 0.5
        assert cfg.terminal_weight == 3.0
        assert cfg.state_lower == -0.1
        assert cfg.state_upper == 0.9
        assert cfg.bound_component == 1
        assert cfg.input_lower == -5.0
        assert cfg.input_upper == 5.0
        assert cfg.rho == 2.0
        assert cfg.eps_primal == 1e-5
        assert cfg.eps_dual == 1e-6
        assert cfg.max_iterations == 500

    def test_config_numeric_case(self, tmp_path):
        ini = tmp_path / "s.ini"
        ini.write_text("[scenario]\nsubsystems = 2\ncase = 1\n")
        assert load_config(ini).case is Case.UNCONSTRAINED

    def test_config_requires_subsystems(self, tmp_path):
        ini = tmp_path / "s.ini"
        ini.write_text("[scenario]\nhorizon = 3\n")
        with pytest.raises(ValueError):
            load_config(ini)

    @pytest.mark.parametrize(
        "extra, named",
        [
            ("horizn = 7\n", "scenario.horizn"),
            ("[solver]\nrh0 = 3\n", "solver.rh0"),
            ("[solvr]\nrho = 3\n", r"\[solvr\]"),
        ],
        ids=["scenario-key", "solver-key", "section"],
    )
    def test_config_rejects_unknown_names(self, tmp_path, extra, named):
        ini = tmp_path / "s.ini"
        ini.write_text("[scenario]\nsubsystems = 2\n" + extra)
        with pytest.raises(ValueError, match=f"unknown config .*{named}"):
            load_config(ini)

    def test_config_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "absent.ini")

    def test_model_file_round_trip(self, tmp_path, six_node_model):
        for model in (build_chain_model(3), six_node_model):
            path = save_model_file(model, tmp_path / "m.txt")
            back = load_model_file(path)
            assert back.state_dims == model.state_dims
            assert back.input_dims == model.input_dims
            assert set(back.a_blocks) == set(model.a_blocks)
            for key, block in model.a_blocks.items():
                np.testing.assert_array_equal(back.a_blocks[key], block)
            for key, block in model.b_blocks.items():
                np.testing.assert_array_equal(back.b_blocks[key], block)

    def test_model_file_comments_and_blanks(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text(
            "# a tiny system\nsubsystems 1\n\nstate_dims 1\ninput_dims 1\n"
            "A 1 1  # self block\n0.9\nB 1 1\n1.0\n"
        )
        model = load_model_file(path)
        assert model.a_blocks[(1, 1)][0, 0] == 0.9

    @pytest.mark.parametrize(
        "body",
        [
            "state_dims 1\ninput_dims 1\n",  # missing header
            "subsystems 1\nstate_dims 1 1\ninput_dims 1\n",  # dim count
            "subsystems 1\nstate_dims 1\ninput_dims 1\nA 1 2\n0.5\n",  # range
            "subsystems 1\nstate_dims 1\ninput_dims 1\nA 1 1\n0.5 0.5\n",  # cols
            "subsystems 1\nstate_dims 1\ninput_dims 1\nA 1 1\n1.0\nA 1 1\n2.0\n",
            "subsystems 1\nstate_dims 1\ninput_dims 1\nA 1 1\n",  # truncated
            "subsystems 2\nstate_dims 0 2\ninput_dims 1 1\n",  # a model without a state
            "subsystems 1\nstate_dims 1\ninput_dims 1\nA 1 1\nnan\n",  # a non-finite entry
        ],
    )
    def test_model_file_rejects_malformed(self, tmp_path, body):
        # every error names the file, what the model rejects too
        path = tmp_path / "bad.txt"
        path.write_text(body)
        with pytest.raises(ValueError, match=f"^model file {re.escape(str(path))}[ :]"):
            load_model_file(path)


class TestSweep:
    def test_rows_capture_sizes_and_iterations(self):
        rows = run_scaling_sweep(sizes=(2, 3), sim_steps=2, case=Case.EXPLICIT)
        assert [r.n_subsystems for r in rows] == [2, 3]
        for r in rows:
            assert r.cold_iterations > 0
            assert r.cold_seconds > 0
            assert r.warm_seconds > 0
            assert r.case == "explicit"

    def test_single_step_has_no_warm_figures(self):
        rows = run_scaling_sweep(sizes=(2,), sim_steps=1)
        assert np.isnan(rows[0].warm_seconds)

    def test_zero_steps_rejected(self):
        with pytest.raises(ValueError, match="sim_steps must be at least 1, got 0"):
            run_scaling_sweep(sizes=(2,), sim_steps=0)


class TestCli:
    def test_run_verb(self, capsys):
        assert cli_main(["run", "--subsystems", "3", "--steps", "1", "--horizon", "3"]) == 0
        out = capsys.readouterr().out
        assert "realized cost" in out

    def test_run_writes_reports(self, tmp_path):
        code = cli_main(
            ["run", "--subsystems", "2", "--steps", "1", "--horizon", "2",
             "--out", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "run.json").exists()
        assert (tmp_path / "run.csv").exists()

    def test_run_with_config_file(self, tmp_path, capsys):
        ini = tmp_path / "s.ini"
        ini.write_text("[scenario]\nsubsystems = 2\nhorizon = 2\nsim_steps = 1\n")
        assert cli_main(["run", "--config", str(ini)]) == 0

    @pytest.mark.parametrize(
        "text",
        ["[scenario]\nsubsystems = 2\nsubsystems = 3\n", "subsystems = 2\n"],
        ids=["duplicate-key", "no-section-header"],
    )
    def test_malformed_config_is_an_error(self, tmp_path, capsys, text):
        ini = tmp_path / "bad.ini"
        ini.write_text(text)
        assert cli_main(["run", "--config", str(ini)]) == 1
        assert capsys.readouterr().err.startswith(f"error: config file {ini}: ")

    @pytest.mark.parametrize(
        "text, named",
        [
            ("[scenario]\nsubsystems = 2\nhorizon = 2.5\n", "scenario.horizon"),
            ("[scenario]\nsubsystems = 2\nwarm_start = maybe\n", "scenario.warm_start"),
            ("[scenario]\nsubsystems = 2\n[solver]\nrho = abc\n", "solver.rho"),
        ],
        ids=["int", "bool", "float"],
    )
    def test_unreadable_config_value_names_its_key(self, tmp_path, capsys, text, named):
        ini = tmp_path / "bad.ini"
        ini.write_text(text)
        assert cli_main(["run", "--config", str(ini)]) == 1
        assert capsys.readouterr().err.startswith(f"error: config file {ini}: {named}: ")

    @pytest.mark.parametrize(
        "text, line",
        [
            ("subsystems 1\nstate_dims 1\ninput_dims 1\nA 1 z\n0.5\n", 4),
            ("subsystems 1\nstate_dims 1\ninput_dims 1\nA 1 1\nabc\n", 5),
            ("# one node\nsubsystems 1\n\nstate_dims 2.5\ninput_dims 1\n", 4),
        ],
        ids=["block-index", "entry", "state-dims-after-comment"],
    )
    def test_unreadable_model_line_is_named(self, tmp_path, capsys, text, line):
        path = tmp_path / "m.txt"
        path.write_text(text)
        assert cli_main(["run", "--model", str(path), "--steps", "1"]) == 1
        assert capsys.readouterr().err.startswith(f"error: model file {path} line {line}: ")

    def test_run_with_model_file(self, tmp_path, capsys):
        path = save_model_file(build_chain_model(2), tmp_path / "m.txt")
        assert cli_main(["run", "--model", str(path), "--steps", "1", "--horizon", "2"]) == 0

    def test_non_finite_model_block_is_named(self, tmp_path, capsys):
        path = save_model_file(build_chain_model(2), tmp_path / "m.txt")
        path.write_text(path.read_text().replace("A 2 1\n0.0 0.0\n", "A 2 1\n0.0 nan\n"))
        assert cli_main(["run", "--model", str(path), "--steps", "1", "--horizon", "2"]) == 1
        assert capsys.readouterr().err == f"error: model file {path}: a_blocks[(2,1)] entry (0,1) is nan, must be finite\n"

    def test_model_without_subsystems_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_text("subsystems 0\nstate_dims\ninput_dims\n")
        assert cli_main(["run", "--model", str(path)]) == 1
        assert capsys.readouterr().err == f"error: model file {path}: need at least one subsystem\n"

    def test_run_rejects_a_locality_the_model_cannot_meet(self, tmp_path, capsys, cross_fed_chain_model):
        path = save_model_file(cross_fed_chain_model, tmp_path / "m.txt")
        assert cli_main(["run", "--model", str(path), "--locality", "1", "--steps", "1"]) == 1
        err = capsys.readouterr().err
        assert "no response map within locality d=1 meets the dynamics over horizon T=5" in err

    def test_subsystems_overrides_config(self, tmp_path, capsys):
        ini = tmp_path / "s.ini"
        ini.write_text("[scenario]\nsubsystems = 3\nhorizon = 2\nsim_steps = 1\n")
        assert cli_main(["run", "--config", str(ini), "--subsystems", "2"]) == 0
        assert "ran 1 steps on 2 subsystems" in capsys.readouterr().out

    @pytest.mark.parametrize("source", ["--subsystems", "config"])
    def test_subsystem_count_must_match_model(self, tmp_path, capsys, source):
        path = save_model_file(build_chain_model(2), tmp_path / "m.txt")
        args = ["run", "--model", str(path), "--steps", "1", "--horizon", "2"]
        if source == "config":
            ini = tmp_path / "s.ini"
            ini.write_text("[scenario]\nsubsystems = 3\n")
            args += ["--config", str(ini)]
        else:
            args += ["--subsystems", "3"]
        assert cli_main(args) == 1
        assert "the model has 2 subsystems, the configuration 3" in capsys.readouterr().err

    def test_every_scenario_flag_reaches_its_field(self, tmp_path):
        code = cli_main(
            ["run", "--subsystems", "3", "--case", "unconstrained", "--horizon", "2",
             "--locality", "0", "--steps", "1", "--seed", "4", "--rho", "2",
             "--eps-primal", "1e-3", "--eps-dual", "1e-3", "--max-iterations", "500",
             "--cold-start", "--out", str(tmp_path)]
        )
        assert code == 0
        assert load_report(tmp_path / "run.json").config == ScenarioConfig(
            n_subsystems=3, case=Case.UNCONSTRAINED, horizon=2, locality=0, sim_steps=1,
            seed=4, rho=2.0, eps_primal=1e-3, eps_dual=1e-3, max_iterations=500,
            warm_start=False,
        )

    def test_flag_overrides_only_its_config_field(self, tmp_path):
        ini = tmp_path / "s.ini"
        ini.write_text(
            "[scenario]\nsubsystems = 2\nhorizon = 2\nlocality = 2\nseed = 3\n"
            "sim_steps = 1\nwarm_start = false\n[cost]\nstate_weight = 2.0\n"
            "[bounds]\nstate_upper = 1.5\n[solver]\nrho = 3.0\neps_primal = 1e-5\n"
        )
        code = cli_main(["run", "--config", str(ini), "--seed", "9", "--out", str(tmp_path)])
        assert code == 0
        got = load_report(tmp_path / "run.json").config
        assert got == dataclasses.replace(load_config(ini), seed=9)

    def test_run_zero_steps(self, capsys):
        assert cli_main(["run", "--subsystems", "3", "--steps", "0", "--horizon", "2"]) == 0
        out = capsys.readouterr().out
        assert "ran 0 steps on 3 subsystems" in out
        assert "iterations per step" not in out
        assert "realized cost: 0.000000" in out

    def test_compare_verb(self, capsys):
        assert cli_main(
            ["compare", "--subsystems", "2", "--steps", "1", "--horizon", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "trajectory agreement" in out

    def test_compare_rejects_a_case(self, capsys):
        # compare runs both boxed cases, so a case flag would be ignored
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["compare", "--subsystems", "2", "--steps", "1", "--case", "unconstrained"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --case unconstrained" in capsys.readouterr().err

    def test_compare_zero_steps(self, capsys):
        args = ["compare", "--subsystems", "2", "--steps", "0", "--horizon", "2"]
        assert cli_main(args) == 1
        err = capsys.readouterr().err
        assert "--steps" in err and "sim_steps" in err

    def test_sweep_verb(self, capsys):
        assert cli_main(["sweep", "--sizes", "2,3", "--steps", "1"]) == 0

    def test_sweep_zero_steps(self, capsys):
        assert cli_main(["sweep", "--sizes", "2", "--steps", "0"]) == 1
        assert "error: sim_steps must be at least 1, got 0" in capsys.readouterr().err

    def test_nonconvergence_exit_code(self, capsys):
        code = cli_main(
            ["run", "--subsystems", "2", "--steps", "1", "--horizon", "2",
             "--max-iterations", "1"]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_case_in_config_is_an_error(self, tmp_path, capsys):
        ini = tmp_path / "s.ini"
        ini.write_text("[scenario]\nsubsystems = 2\ncase = bogus\n")
        assert cli_main(["run", "--config", str(ini)]) == 1
        assert "unknown case 'bogus'" in capsys.readouterr().err

    def test_usage_error_exits_nonzero(self):
        with pytest.raises(SystemExit):
            cli_main(["run", "--case", "bogus"])
