"""Engine behavior: determinism, exchanges, masks, convergence, extraction."""
import numpy as np
import pytest

from dlmpc import (
    Case,
    ConvergenceError,
    DlmpcEngine,
    InfeasibleRowError,
    Phase,
    QpStatus,
    Region,
    RowProblem,
    RowSolverKind,
    ScenarioConfig,
    StalenessError,
    build_scenario,
    centralized_local_mpc,
    packet_within_locality,
    solve_row,
)
from dlmpc.admm import row_profiles


def small_scenario(**overrides):
    cfg = ScenarioConfig(
        n_subsystems=4, horizon=3, locality=1, case=Case.EXPLICIT, seed=3, **overrides
    )
    return build_scenario(cfg)


class TestEngineBasics:
    def test_rejects_bad_rho(self):
        sc = small_scenario()
        with pytest.raises(ValueError):
            sc.make_engine(rho=0.0)

    def test_rejects_bad_order(self):
        sc = small_scenario()
        with pytest.raises(ValueError):
            sc.make_engine(order=[1, 2, 3])

    def test_rejects_wrong_x0_size(self):
        sc = small_scenario()
        engine = sc.make_engine()
        with pytest.raises(ValueError):
            engine.solve_step(np.zeros(3))

    @pytest.mark.parametrize(
        "other, first",
        [(dict(n_subsystems=10, locality=1), 1), (dict(n_subsystems=12, locality=2), 8)],
    )
    def test_mismatched_warm_state_is_named(self, other, first):
        sc = build_scenario(ScenarioConfig(n_subsystems=10, locality=2))
        warm = build_scenario(ScenarioConfig(**other)).make_engine().init_state()
        with pytest.raises(ValueError, match=f"warm_state .* subsystem {first} "):
            sc.make_engine().solve_step(sc.initial_state(), warm_state=warm)

    @pytest.mark.parametrize(
        "profiles, name",
        [(dict(state_lb=[-0.2], state_ub=[1.2]), "state_lb"), (dict(q_diag=np.ones(3)), "q_diag")],
    )
    def test_rejects_profiles_of_wrong_length(self, profiles, name):
        sc = small_scenario()
        with pytest.raises(ValueError, match=f"{name} must have 8 entries, got [13]"):
            DlmpcEngine(sc.model, sc.index, sc.op, **profiles)

    @pytest.mark.parametrize(
        "overrides, named",
        [
            (dict(rho=np.nan), "rho"),
            (dict(eps_primal=np.inf), "eps_primal"),
            (dict(eps_dual=-1e-4), "eps_dual"),
            (dict(max_iterations=0), "max_iterations"),
            (dict(state_lb=np.where(np.arange(8) == 2, np.nan, -0.2)), r"state_lb\[2\]"),
            (dict(q_diag=np.where(np.arange(8) == 3, -1.0, 1.0)), r"q_diag\[3\]"),
            (dict(r_diag=np.full(4, np.inf)), r"r_diag\[0\]"),
        ],
        ids=["rho-nan", "eps-primal-inf", "eps-dual-negative", "max-iterations-zero",
             "nan-bound", "negative-weight", "infinite-weight"],
    )
    def test_rejects_misuse_at_construction(self, overrides, named):
        sc = small_scenario()
        with pytest.raises(ValueError, match=named):
            sc.make_engine(**{"max_iterations": 5, **overrides}).solve_step(sc.initial_state())

    @pytest.mark.parametrize(
        "bad, named",
        [(np.nan, r"x0\[5\] is nan"), (-np.inf, r"x0\[5\] is -inf")],
        ids=["nan", "minus-inf"],
    )
    def test_rejects_non_finite_x0(self, bad, named):
        sc = small_scenario()
        x0 = sc.initial_state()
        x0[5] = bad
        with pytest.raises(ValueError, match=named):
            sc.make_engine(max_iterations=5).solve_step(x0)

    @pytest.mark.parametrize(
        "boxes, named",
        [
            (dict(state_lb=np.full(8, 0.5), state_ub=np.full(8, 0.2)), "state_lb/state_ub component 0"),
            (dict(input_lb=[0.0, 0.0, 1.0, 0.0], input_ub=np.zeros(4)), "input_lb/input_ub component 2"),
            (dict(state_lb=np.where(np.arange(8) == 4, np.inf, -1.0)), "state_lb/state_ub component 4"),
        ],
        ids=["state", "input", "lower-bound-plus-inf"],
    )
    def test_rejects_empty_box_at_construction(self, boxes, named):
        sc = small_scenario()
        with pytest.raises(ValueError, match=f"{named}: empty box"):
            DlmpcEngine(sc.model, sc.index, sc.op, **boxes)

    def test_row_profiles_layout(self):
        sc = small_scenario()
        weight, lo, hi = row_profiles(
            sc.index, sc.q_diag, sc.r_diag, sc.qt_diag,
            sc.state_lb, sc.state_ub, sc.input_lb, sc.input_ub,
        )
        n, t_hor = sc.model.n_states, sc.config.horizon
        # time-0 state rows carry no weight and no bounds
        assert not weight[:n].any()
        assert np.all(np.isinf(lo[:n])) and np.all(np.isinf(hi[:n]))
        # later state rows carry the box on the first component only
        assert hi[n] == sc.config.state_upper
        assert np.isinf(hi[n + 1])
        # terminal state rows use the terminal weight
        np.testing.assert_array_equal(
            weight[t_hor * n : (t_hor + 1) * n], np.sqrt(sc.qt_diag)
        )


class TestDeterminismAndOrder:
    def test_identical_runs_bitwise(self):
        sc = small_scenario()
        x0 = sc.initial_state()
        r1 = sc.make_engine().solve_step(x0)
        r2 = sc.make_engine().solve_step(x0)
        np.testing.assert_array_equal(r1.u, r2.u)
        assert r1.iterations == r2.iterations
        np.testing.assert_array_equal(r1.primal_history, r2.primal_history)

    def test_subsystem_order_is_immaterial(self):
        sc = small_scenario()
        x0 = sc.initial_state()
        base = sc.make_engine().solve_step(x0)
        shuffled = sc.make_engine(order=[3, 1, 4, 2]).solve_step(x0)
        np.testing.assert_array_equal(base.u, shuffled.u)
        assert base.iterations == shuffled.iterations
        for a, b in zip(base.state.phi_r, shuffled.state.phi_r):
            np.testing.assert_array_equal(a, b)


class TestExchanges:
    def test_partitions_agree_after_exchange(self, reference_mask):
        sc = small_scenario()
        engine = sc.make_engine()
        res = engine.solve_step(sc.initial_state())
        state = res.state
        # after a converged step the two views describe one global matrix
        phi_rows = engine.assemble_from_rows(state, "phi")
        phi_cols = engine.assemble_from_cols(state, "phi")
        mask = reference_mask(sc.model, sc.graph, sc.config.locality, sc.config.horizon)
        np.testing.assert_array_equal(phi_rows[mask], phi_cols[mask])
        assert not phi_rows[~mask].any()
        assert not phi_cols[~mask].any()

    def test_packets_respect_locality(self):
        sc = small_scenario()
        engine = sc.make_engine(record_packets=True, max_iterations=50, eps_primal=1e-2, eps_dual=1e-2)
        res = engine.solve_step(sc.initial_state())
        assert res.packets
        phases = {p.phase for p in res.packets}
        assert phases == {Phase.MEASUREMENT, Phase.ROW_BLOCKS, Phase.COLUMN_BLOCKS}
        for packet in res.packets:
            assert packet_within_locality(packet, sc.index)

    def test_forged_far_packet_rejected(self):
        sc = small_scenario()
        res = sc.make_engine(record_packets=True, max_iterations=30, eps_primal=1e-2, eps_dual=1e-2).solve_step(
            sc.initial_state()
        )
        sample = res.packets[0]
        forged = type(sample)(
            sender=1, receiver=4, phase=Phase.ROW_BLOCKS,
            rows=sample.rows, cols=sample.cols, payload=sample.payload,
        )
        # nodes 1 and 4 sit three hops apart on the chain
        assert not packet_within_locality(forged, sc.index)

    def test_packet_payloads_carry_the_right_entries(self, reference_mask):
        sc = small_scenario()
        x0 = sc.initial_state()
        # a warm start makes the first row step's blocks nonzero
        warm = sc.make_engine().solve_step(x0).state
        engine = sc.make_engine(record_packets=True, eps_primal=1e300, eps_dual=1e300)
        res = engine.solve_step(x0, warm_state=warm)
        assert res.iterations == 1
        mask = reference_mask(sc.model, sc.graph, sc.config.locality, sc.config.horizon)
        for phase, want in (
            (Phase.ROW_BLOCKS, engine.assemble_from_rows(res.state, "phi")),
            (Phase.COLUMN_BLOCKS, engine.assemble_from_cols(res.state, "psi")),
        ):
            got = np.full(want.shape, np.nan)  # an entry no packet carries stays nan
            for packet in res.packets:
                if packet.phase is phase:
                    got[np.ix_(packet.rows, packet.cols)] = packet.payload
            assert np.any(want[mask])
            np.testing.assert_array_equal(got[mask], want[mask])

    def test_warm_state_is_a_copy(self):
        sc = small_scenario()
        engine = sc.make_engine()
        res = engine.solve_step(sc.initial_state())
        before = res.state.phi_r[0].copy()
        new = engine.init_state(res.state)
        new.phi_r[0][...] = 7.0
        np.testing.assert_array_equal(res.state.phi_r[0], before)
        with pytest.raises(TypeError):
            new.phi_r[0] = np.zeros_like(before)

    def test_masks_hold_at_every_iteration(self):
        sc = small_scenario()
        engine = sc.make_engine(mask_check_interval=1)
        engine.solve_step(sc.initial_state())  # raises on any violation

    def test_mask_corruption_is_caught(self):
        sc = small_scenario()
        engine = sc.make_engine()
        res = engine.solve_step(sc.initial_state())
        state = res.state
        sub = sc.index.subsystem(1)
        banned = np.argwhere(~sub.row_mask)
        state.phi_r[0][banned[0][0], banned[0][1]] = 1e-9
        with pytest.raises(AssertionError):
            engine.verify_masks(state)


class TestConvergenceControl:
    def test_iteration_cap_raises_with_history(self):
        sc = small_scenario()
        engine = sc.make_engine(max_iterations=3, eps_primal=1e-14, eps_dual=1e-14)
        with pytest.raises(ConvergenceError) as err:
            engine.solve_step(sc.initial_state())
        assert len(err.value.residual_history) == 3

    def test_stale_state_refuses_extraction(self):
        sc = small_scenario()
        engine = sc.make_engine()
        state = engine.init_state()
        state.primal = np.full(4, np.inf)
        state.dual = np.full(4, np.inf)
        with pytest.raises(StalenessError):
            engine.extract_control(state, 1)

    def test_extraction_uses_the_states_own_x0(self):
        # a later step at another measured state must not leak into an
        # earlier step's state
        sc = small_scenario()
        engine = sc.make_engine()
        xa = sc.initial_state()
        xb = np.random.default_rng(1).uniform(0.0, 1.0, xa.size)
        ra = engine.solve_step(xa)
        engine.solve_step(xb)
        u = np.zeros(sc.model.n_inputs)
        for i in range(1, sc.model.n_subsystems + 1):
            u[sc.model.input_indices(i)] = engine.extract_control(ra.state, i)
        np.testing.assert_array_equal(u, ra.u)

    def test_warm_start_reduces_iterations(self):
        sc = small_scenario()
        engine = sc.make_engine()
        x0 = sc.initial_state()
        cold = engine.solve_step(x0)
        a, b = sc.model.full_a(), sc.model.full_b()
        x1 = a @ x0 + b @ cold.u
        warm = engine.solve_step(x1, warm_state=cold.state)
        fresh = engine.solve_step(x1)
        assert warm.iterations < fresh.iterations
        np.testing.assert_allclose(warm.u, fresh.u, atol=1e-3)

    def test_infeasible_row_names_subsystem(self):
        sc = build_scenario(
            ScenarioConfig(
                n_subsystems=3, horizon=2, locality=1, case=Case.EXPLICIT,
                state_lower=0.5, state_upper=1.0, seed=0,
            )
        )
        engine = sc.make_engine()
        # zero measured state puts 0 outside the box for every bounded row
        with pytest.raises(InfeasibleRowError, match="subsystem"):
            engine.solve_step(np.zeros(sc.model.n_states))


class TestRowStep:
    """One row step against a row-by-row loop of ``solve_row``."""

    @staticmethod
    def boxed_state(sc, engine, x0):
        # tight boxes on states and inputs and random targets reach all three regions
        rng = np.random.default_rng(7)
        state = engine.init_state()
        state.x0_slices = [x0[sub.row_cols] for sub in sc.index.subsystems]
        for sub, psi, lam in zip(sc.index.subsystems, state.psi_r, state.lam_r):
            psi[:] = rng.normal(size=psi.shape) * sub.row_mask
            lam[:] = rng.normal(scale=0.5, size=lam.shape) * sub.row_mask
        return state

    @staticmethod
    def reference_rows(sc, state, x0, rho):
        weight, lo, hi = row_profiles(
            sc.index, sc.q_diag, sc.r_diag, sc.qt_diag,
            sc.state_lb, sc.state_ub, sc.input_lb, sc.input_ub,
        )
        out, regions = [], []
        for sub, psi, lam in zip(sc.index.subsystems, state.psi_r, state.lam_r):
            phi = np.zeros_like(psi)
            for r, g in enumerate(sub.rows):
                cols = np.flatnonzero(sub.row_mask[r])
                p = RowProblem(
                    target=(psi - lam)[r, cols], x0=x0[sub.row_cols][cols], rho=rho,
                    lo=lo[g], hi=hi[g], weight=weight[g],
                )
                sol = solve_row(p)
                phi[r, cols] = sol.phi
                regions.append(sol.region)
            out.append(phi)
        return out, regions

    def scenario(self):
        return small_scenario(
            state_lower=-0.1, state_upper=0.1, input_lower=-0.05, input_upper=0.05
        )

    def test_explicit_row_step_equals_per_row_loop_bitwise(self):
        sc = self.scenario()
        x0 = sc.initial_state()
        engine = sc.make_engine()
        state = self.boxed_state(sc, engine, x0)
        expected, regions = self.reference_rows(sc, state, x0, engine.rho)
        assert set(regions) == {Region.INTERIOR, Region.UPPER_ACTIVE, Region.LOWER_ACTIVE}
        for i in range(1, sc.model.n_subsystems + 1):
            engine.row_step(state, i)
            np.testing.assert_array_equal(state.phi_r[i - 1], expected[i - 1])

    def test_qp_row_step_matches_per_row_loop(self):
        sc = self.scenario()
        x0 = sc.initial_state()
        engine = sc.make_engine(row_solver=RowSolverKind.QP)
        state = self.boxed_state(sc, engine, x0)
        expected, _ = self.reference_rows(sc, state, x0, engine.rho)
        for i in range(1, sc.model.n_subsystems + 1):
            engine.row_step(state, i)
            np.testing.assert_allclose(state.phi_r[i - 1], expected[i - 1], rtol=0, atol=1e-7)


class TestSolutionQuality:
    def test_matches_masked_monolithic_solution(self):
        # the response entries themselves are not unique (rows are charged
        # only along x0), but the planned cost and the applied input are
        sc = small_scenario()
        x0 = sc.initial_state()
        engine = sc.make_engine(eps_primal=1e-9, eps_dual=1e-9)
        res = engine.solve_step(x0)
        weight, lo, hi = row_profiles(
            sc.index, sc.q_diag, sc.r_diag, sc.qt_diag,
            sc.state_lb, sc.state_ub, sc.input_lb, sc.input_ub,
        )
        ref = centralized_local_mpc(sc.model, sc.index, x0, weight, lo, hi)
        assert ref["status"] is QpStatus.OPTIMAL
        phi = engine.assemble_from_rows(res.state, "phi")
        admm_cost = float(np.sum(weight**2 * (phi @ x0) ** 2))
        assert abs(admm_cost - ref["cost"]) < 1e-6 * max(1.0, ref["cost"])
        n, p, t_hor = sc.model.n_states, sc.model.n_inputs, sc.config.horizon
        u_ref = ref["phi"][n * (t_hor + 1) : n * (t_hor + 1) + p, :] @ x0
        np.testing.assert_allclose(res.u, u_ref, atol=1e-5)

    def test_first_block_state_rows_equal_identity(self):
        sc = small_scenario()
        engine = sc.make_engine(eps_primal=1e-8, eps_dual=1e-8)
        res = engine.solve_step(sc.initial_state())
        phi = engine.assemble_from_rows(res.state, "psi")
        n = sc.model.n_states
        np.testing.assert_allclose(phi[:n, :], np.eye(n), atol=1e-10)

    def test_extracted_control_consistent_with_response(self):
        sc = small_scenario()
        x0 = sc.initial_state()
        engine = sc.make_engine(eps_primal=1e-9, eps_dual=1e-9)
        res = engine.solve_step(x0)
        phi = engine.assemble_from_rows(res.state, "phi")
        n, p, t_hor = sc.model.n_states, sc.model.n_inputs, sc.config.horizon
        u_global = phi[n * (t_hor + 1) : n * (t_hor + 1) + p, :] @ x0
        np.testing.assert_allclose(res.u, u_global, atol=1e-12)
        # realized next state agrees with the planned one-step response
        x1_planned = phi[n : 2 * n, :] @ x0
        x1_real = sc.model.full_a() @ x0 + sc.model.full_b() @ res.u
        np.testing.assert_allclose(x1_real, x1_planned, atol=1e-7)

    def test_qp_row_path_matches_explicit(self):
        sc = small_scenario()
        x0 = sc.initial_state()
        r_exp = sc.make_engine(row_solver=RowSolverKind.EXPLICIT, max_iterations=40,
                               eps_primal=1e-3, eps_dual=1e-3).solve_step(x0)
        r_qp = sc.make_engine(row_solver=RowSolverKind.QP, max_iterations=40,
                              eps_primal=1e-3, eps_dual=1e-3).solve_step(x0)
        assert r_exp.iterations == r_qp.iterations
        np.testing.assert_allclose(r_exp.u, r_qp.u, atol=1e-7)

    def test_timing_is_recorded_per_subsystem(self):
        sc = small_scenario()
        res = sc.make_engine().solve_step(sc.initial_state())
        assert res.per_sub_seconds.shape == (4,)
        assert np.all(res.per_sub_seconds > 0)

    def test_timers_live_on_the_state(self):
        sc = small_scenario()
        engine = sc.make_engine()
        # phase methods work on an engine that has never solved a step
        state = engine.init_state()
        engine.exchange_rows(state)
        engine.exchange_columns(state)
        assert np.all(state.per_sub_seconds > 0)
        res = engine.solve_step(sc.initial_state())
        np.testing.assert_array_equal(res.per_sub_seconds, res.state.per_sub_seconds)
        # a warm start copies the blocks but not the timers
        warm = engine.init_state(res.state)
        np.testing.assert_array_equal(warm.per_sub_seconds, np.zeros(4))
        assert np.all(res.state.per_sub_seconds > 0)
