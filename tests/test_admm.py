"""Engine behavior: determinism, exchanges, masks, convergence, momentum, extraction."""
import dataclasses
import importlib
import os
import re
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from dlmpc import (
    Case,
    ConvergenceError,
    DlmpcEngine,
    InfeasibleRowError,
    NetworkModel,
    Phase,
    QpStatus,
    RowSolverKind,
    ScenarioConfig,
    StalenessError,
    build_chain_model,
    build_scenario,
    packet_within_locality,
    run_closed_loop,
)
from dlmpc import admm
from dlmpc.explicit_row import RowTerms, row_terms
from dlmpc.qp import row_qp, stacked_profiles
from oracles import (
    INTERIOR,
    LOWER_ACTIVE,
    UPPER_ACTIVE,
    RowProblem,
    assemble_blocks,
    centralized_local_mpc,
    check_masks,
    closed_form,
    column_blocks,
    dense_dynamics,
    input_free_chain,
    projector,
    row_blocks,
    row_target,
    sample_masks,
    solve_row,
    solve_rows,
)


# a state box on the actuated state binds the 10-node chain's rows (lower-
# active) and holds rho long enough for the momentum to arm
ACTIVE_BOX = ScenarioConfig(n_subsystems=10, bound_component=1, state_lower=-0.3)

# (model, d, horizon) of networks whose exchange plans differ in shape
PLAN_CASES = (
    [("chain", d, 3) for d in range(4)]
    + [("six", 1, 3), ("six", 2, 3)]
    + [("cross-fed", 2, t) for t in (1, 3, 5)]
    + [("input-free", 1, 3), ("input-free", 2, 3)]
)


def small_scenario(**overrides):
    defaults = dict(n_subsystems=4, horizon=3, locality=1, case=Case.EXPLICIT, seed=3)
    return build_scenario(ScenarioConfig(**{**defaults, **overrides}))


class TestEngineBasics:
    def test_rejects_bad_rho(self):
        sc = small_scenario()
        with pytest.raises(ValueError):
            sc.make_engine(rho=0.0)

    @pytest.mark.parametrize("kind", ["explicit", "bogus", None])
    def test_rejects_a_row_solver_that_is_not_a_kind(self, kind):
        # the string "explicit" once ran the QP route, since only the member is EXPLICIT
        sc = small_scenario()
        with pytest.raises(ValueError, match=r"row_solver must be one of \[<RowSolverKind\.EXPLICIT"):
            sc.make_engine(row_solver=kind)

    def test_step_result_reads_its_state(self):
        sc = small_scenario()
        res = sc.make_engine(record_packets=True).solve_step(sc.initial_state())
        assert [f.name for f in dataclasses.fields(res)] == ["u", "state"]
        assert res.iterations == res.state.iteration > 0
        assert res.x0 is res.state.x0 and res.packets is res.state.packets
        with pytest.raises(AttributeError):
            res.iterations = 0

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

    @pytest.mark.parametrize("name, value", [("eps_primal", True), ("rho", True), ("rho", "1"), ("eps_dual", None)])
    def test_rho_and_tolerances_must_be_real_numbers(self, name, value):
        # a bool once set 1.0, and a string or None raised a bare TypeError
        sc = small_scenario()
        with pytest.raises(ValueError, match=rf"^{name} must be a real number, got {value!r}$"):
            sc.make_engine(**{name: value})
        assert getattr(sc.make_engine(**{name: np.float32(0.5)}), name) == 0.5

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
        # distinct weights, so that each row block's weight names its source
        sc = small_scenario(state_weight=3.0, input_weight=0.5, terminal_weight=2.0)
        weight, lo, hi = profile_rows(sc)
        n, t_hor = sc.model.n_states, sc.config.horizon
        assert weight.shape == lo.shape == hi.shape == (sc.index.n_rows,)
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
        # the t = 1..T-1 state rows use the stage weight, every input row the input weight
        np.testing.assert_array_equal(weight[n : t_hor * n], np.sqrt(np.tile(sc.q_diag, t_hor - 1)))
        np.testing.assert_array_equal(weight[(t_hor + 1) * n :], np.sqrt(np.tile(sc.r_diag, t_hor)))


class TestDeterminismAndOrder:
    def test_identical_runs_bitwise(self):
        sc = small_scenario()
        x0 = sc.initial_state()
        r1 = sc.make_engine().solve_step(x0)
        r2 = sc.make_engine().solve_step(x0)
        np.testing.assert_array_equal(r1.u, r2.u)
        assert r1.iterations == r2.iterations
        np.testing.assert_array_equal(r1.state.residual_history, r2.state.residual_history)

    def test_subsystem_order_is_immaterial(self):
        # the active-box case arms the momentum
        for sc, order in (
            (small_scenario(), [3, 1, 4, 2]),
            (build_scenario(ACTIVE_BOX), [7, 3, 10, 1, 5, 9, 2, 8, 4, 6]),
        ):
            x0 = sc.initial_state()
            base = sc.make_engine().solve_step(x0)
            engine = sc.make_engine()

            def each_shuffled(state, phase, order=order):
                # the per-subsystem phases in another order, results by id
                out = [None] * len(order)
                for i in order:
                    out[i - 1] = phase(state, i)
                return out

            engine._each = each_shuffled
            shuffled = engine.solve_step(x0)
            np.testing.assert_array_equal(base.u, shuffled.u)
            assert base.iterations == shuffled.iterations
            assert base.state.extrapolated == shuffled.state.extrapolated
            for a, b in zip(base.state.phi_r, shuffled.state.phi_r):
                np.testing.assert_array_equal(a, b)


class TestColumnPhase:
    """One stacked projection per shape class, on a network of three classes."""

    @pytest.fixture
    def cross_fed(self, cross_fed_chain_model):
        sc = build_scenario(ScenarioConfig(n_subsystems=6, horizon=3, locality=2, seed=3),
                            model=cross_fed_chain_model)
        assert sc.op.members == ((1, 6), (2, 5), (3, 4))
        return sc

    def test_classes_equal_per_subsystem_projection_bitwise(self, cross_fed):
        engine = cross_fed.make_engine()
        state = engine.init_state()
        state.cols[0] = np.random.default_rng(4).normal(size=state.cols[0].shape)
        engine.column_step(state)
        psi = column_blocks(cross_fed.index, state, 1)
        for i, target in enumerate(column_blocks(cross_fed.index, state, 0), start=1):
            want = admm.project_column(projector(cross_fed.op, i), target)
            np.testing.assert_array_equal(psi[i - 1], want)

    def test_project_column_runs_once_per_class_per_iteration(self, cross_fed, monkeypatch):
        calls = []
        project = admm.project_column
        monkeypatch.setattr(admm, "project_column", lambda proj, v: calls.append(proj) or project(proj, v))
        res = cross_fed.make_engine().solve_step(cross_fed.initial_state())
        assert calls == list(cross_fed.op.classes) * res.iterations


class TestExchanges:
    def test_partitions_agree_after_exchange(self, reference_mask):
        for sc, armed in ((small_scenario(), False), (build_scenario(ACTIVE_BOX), True)):
            engine = sc.make_engine()
            state = engine.solve_step(sc.initial_state()).state
            assert (state.extrapolated > 0) == armed
            # after a converged step the row partitions hold the psi the
            # column partitions projected, bit for bit on every shared entry
            mask = reference_mask(sc.model, sc.config.locality, sc.config.horizon)
            psi_rows = engine.assemble_from_rows(state, "psi")
            psi_cols = engine.assemble_from_cols(state, "psi")
            assert np.any(psi_rows[mask])
            np.testing.assert_array_equal(psi_rows[mask], psi_cols[mask])
            for which in ("phi", "psi", "lambda"):
                assert not engine.assemble_from_rows(state, which)[~mask].any()
            for which in ("target", "psi"):
                assert not engine.assemble_from_cols(state, which)[~mask].any()

    @staticmethod
    def plan_case(model, d, horizon, six_node_model, cross_fed_chain_model, **overrides):
        model = {"chain": build_chain_model(6), "six": six_node_model,
                 "cross-fed": cross_fed_chain_model, "input-free": input_free_chain()}[model]
        config = ScenarioConfig(model.n_subsystems, horizon=horizon, locality=d, **overrides)
        return build_scenario(config, model=model)

    @pytest.mark.parametrize("model, d, horizon", PLAN_CASES)
    def test_every_column_entry_has_one_row_source(
        self, model, d, horizon, reference_mask, six_node_model, cross_fed_chain_model
    ):
        # the exchange plan is one index array into the row buffer; that needs
        # the column partitions to hold exactly the mask's entries, each held
        # by exactly one row partition, which the index must name
        sc = self.plan_case(model, d, horizon, six_node_model, cross_fed_chain_model)
        model = sc.model
        engine, n = sc.make_engine(), model.n_states
        state = engine.init_state()

        def keys(pairs):  # flat global positions, in buffer order
            return np.concatenate([(rows[:, None] * n + cols).ravel() for rows, cols in pairs])

        subs = sc.index.subsystems
        row_keys = keys((s.rows, s.row_cols) for s in subs)
        col_keys = keys((s.col_rows, s.cols) for s in subs)
        # the row buffer stacks every row, padded at its end (key -1) to the widest block
        width = max(s.row_cols.size for s in subs)
        padded = np.concatenate([
            np.pad(s.rows[:, None] * n + s.row_cols, ((0, 0), (0, width - s.row_cols.size)), constant_values=-1)
            for s in subs
        ])
        assert np.array_equal(padded[padded >= 0], row_keys)
        assert (state.rows.shape, col_keys.size) == ((4,) + padded.shape, state.cols.shape[1])
        on_mask = reference_mask(model, d, horizon).ravel()
        np.testing.assert_array_equal(np.sort(col_keys), np.flatnonzero(on_mask))
        assert np.unique(row_keys).size == row_keys.size  # no entry sits in two row partitions
        np.testing.assert_array_equal(padded.ravel()[engine._src], col_keys)

    @pytest.mark.parametrize("model, d, horizon", PLAN_CASES)
    def test_assembly_matches_the_block_oracle(self, model, d, horizon, six_node_model, cross_fed_chain_model):
        # one scatter per buffer places every block where np.ix_ puts it, bit for bit
        sc = self.plan_case(model, d, horizon, six_node_model, cross_fed_chain_model)
        engine = sc.make_engine()
        state = engine.solve_step(sc.initial_state()).state
        for side, layers, assemble in (
            ("row", ("phi", "psi", "lambda"), engine.assemble_from_rows),
            ("column", ("target", "psi"), engine.assemble_from_cols),
        ):
            for k, which in enumerate(layers):
                got, want = assemble(state, which), assemble_blocks(sc.index, state, side, k)
                assert np.any(want), (side, which)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (side, which)

    def test_assembly_names_its_layers(self):
        sc = small_scenario()
        engine = sc.make_engine()
        state = engine.init_state()
        with pytest.raises(ValueError, match=r"^which must be one of \['phi', 'psi', 'lambda'\], got 'target'$"):
            engine.assemble_from_rows(state, "target")
        with pytest.raises(ValueError, match=r"^which must be one of \['target', 'psi'\], got 'phi'$"):
            engine.assemble_from_cols(state, "phi")

    def test_a_column_entry_no_row_partition_holds_is_rejected(self):
        # a hand-built index whose column partition reaches past the row masks:
        # subsystem 4's state rows do not reach subsystem 1's columns at d=1
        sc = small_scenario()
        sub = sc.index.subsystem(1)
        far_row = sc.index.subsystem(4).rows[:1]
        subs = (dataclasses.replace(sub, col_rows=np.sort(np.concatenate([sub.col_rows, far_row]))),
                *sc.index.subsystems[1:])
        index = dataclasses.replace(sc.index, subsystems=subs)
        with pytest.raises(RuntimeError, match="^a column-buffer entry has no row-buffer source$"):
            DlmpcEngine(sc.model, index, sc.op)

    def test_packets_respect_locality(self):
        sc = small_scenario()
        engine = sc.make_engine(record_packets=True, max_iterations=50, eps_primal=1e-2, eps_dual=1e-2)
        res = engine.solve_step(sc.initial_state())
        assert res.packets
        phases = {p.phase for p in res.packets}
        assert phases == {Phase.MEASUREMENT, Phase.ROW_BLOCKS, Phase.COLUMN_BLOCKS}
        for packet in res.packets:
            assert packet_within_locality(packet, sc.index)

    @pytest.mark.parametrize("row_solver", list(RowSolverKind))
    @pytest.mark.parametrize("d", [1, 2])
    def test_input_free_subsystem(self, d, row_solver):
        sc = build_scenario(ScenarioConfig(n_subsystems=4, horizon=3, locality=d, seed=3),
                            model=input_free_chain())
        res = sc.make_engine(row_solver=row_solver, record_packets=True).solve_step(sc.initial_state())
        assert res.state.converged
        assert res.u.shape == (3,)
        # at d=1, subsystem 2 shares no row with column owner 4 (two hops
        # away, beyond its state rows' reach) and has no input rows
        assert all(packet.payload.size for packet in res.packets)
        assert all(packet_within_locality(packet, sc.index) for packet in res.packets)

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
        # the column step's target, assembled from the row partitions it was sent from
        targets, column_step = [], engine.column_step

        def capture(state):
            phi, psi, lam = (engine.assemble_from_rows(state, w) for w in ("phi", "psi", "lambda"))
            targets.append(admm.ALPHA * phi + (1.0 - admm.ALPHA) * psi + lam)
            column_step(state)

        engine.column_step = capture
        res = engine.solve_step(x0, warm_state=warm)
        assert res.iterations == 1
        mask = reference_mask(sc.model, sc.config.locality, sc.config.horizon)
        for phase, want in (
            (Phase.ROW_BLOCKS, targets[0]),
            (Phase.COLUMN_BLOCKS, engine.assemble_from_cols(res.state, "psi")),
        ):
            got = np.full(want.shape, np.nan)  # an entry no packet carries stays nan
            for packet in res.packets:
                if packet.phase is phase:
                    got[np.ix_(packet.rows, packet.cols)] = packet.payload
            assert np.any(want[mask])
            np.testing.assert_array_equal(got[mask], want[mask])

    def test_recorded_step_carries_one_iterations_packets(self, monkeypatch):
        # every iteration sends the same set, so a converged step records the
        # packets of a one-iteration step once each, with the last payloads
        sc = small_scenario()
        x0 = sc.initial_state()

        def recorded(**settings):
            engine = sc.make_engine(record_packets=True, **settings)
            calls, packets = [], engine._packets
            monkeypatch.setattr(engine, "_packets", lambda state: calls.append(state) or packets(state))
            res = engine.solve_step(x0)
            assert calls == [res.state]
            return res

        def ids(res):
            rows = lambda p: None if p.rows is None else p.rows.tobytes()
            return [(p.sender, p.receiver, p.phase, rows(p), p.cols.tobytes()) for p in res.packets]

        one = recorded(eps_primal=1e300, eps_dual=1e300)
        many = recorded()
        assert one.iterations == 1 and many.iterations > 1
        assert ids(many) == ids(one)
        assert len(set(ids(many))) == len(many.packets)
        sent = {phase: column_blocks(sc.index, many.state, k)
                for k, phase in enumerate((Phase.ROW_BLOCKS, Phase.COLUMN_BLOCKS))}
        for p in many.packets:
            if p.phase is Phase.MEASUREMENT:
                assert p.payload.tobytes() == x0[p.cols].tobytes()
                continue
            owner = p.receiver if p.phase is Phase.ROW_BLOCKS else p.sender  # the column owner
            sub = sc.index.subsystem(owner)
            np.testing.assert_array_equal(p.cols, sub.cols)
            want = sent[p.phase][owner - 1][np.searchsorted(sub.col_rows, p.rows)]
            assert p.payload.shape == want.shape and p.payload.tobytes() == want.tobytes()

    def test_unrecorded_step_builds_no_packets(self, monkeypatch):
        sc = small_scenario()
        engine = sc.make_engine()

        def refuse(state):
            raise AssertionError("_packets called without record_packets")

        monkeypatch.setattr(engine, "_packets", refuse)
        res = engine.solve_step(sc.initial_state())
        assert res.state.converged and res.packets is None

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

    def test_masks_hold_at_every_iteration(self, reference_mask):
        sc = small_scenario()
        engine = sc.make_engine()
        mask = reference_mask(sc.model, sc.config.locality, sc.config.horizon)
        checked = sample_masks(engine, mask)
        res = engine.solve_step(sc.initial_state())  # raises on any violation
        assert checked == list(range(1, res.iterations + 1))

    def test_mask_corruption_is_caught(self, reference_mask):
        sc = small_scenario()
        engine = sc.make_engine()
        res = engine.solve_step(sc.initial_state())
        state = res.state
        mask = reference_mask(sc.model, sc.config.locality, sc.config.horizon)
        check_masks(engine, state, mask)
        sub = sc.index.subsystem(1)
        banned = np.argwhere(~sub.row_mask)
        state.phi_r[0][banned[0][0], banned[0][1]] = 1e-9
        with pytest.raises(AssertionError, match=r"phi row partition: .* subsystem 1 is 1e-09 outside"):
            check_masks(engine, state, mask)


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

    def test_extraction_rejects_ids_outside_one_to_n(self):
        # id 0 must not wrap around to subsystem N's input
        sc = small_scenario()
        state = sc.make_engine().solve_step(sc.initial_state()).state
        for i in (0, 5):
            with pytest.raises(IndexError, match=rf"^subsystem id {i} outside 1\.\.4$"):
                sc.make_engine().extract_control(state, i)

    def test_per_step_row_terms_follow_rho_and_the_measured_state(self):
        # residual balancing moves rho inside a step; the row step must see
        # it, as a solve of the whole closed form per subsystem does
        sc = build_scenario(ACTIVE_BOX)
        cfg = sc.config
        weight, lo, hi = profile_rows(sc)

        class WholeClosedForm(DlmpcEngine):
            def row_step(self, state, i):
                rows = self.index.subsystems[i - 1].rows
                a = row_target(self, state, i)
                state.phi_r[i - 1][...] = solve_rows(
                    a, block_terms(sc, state, i).x0, state.rho, lo[rows], hi[rows], weight[rows]
                )[0]

        reference = WholeClosedForm(
            sc.model, sc.index, sc.op, **sc.profiles(), rho=cfg.rho, eps_primal=cfg.eps_primal,
            eps_dual=cfg.eps_dual, max_iterations=cfg.max_iterations,
        )
        (got, got_states), (want, want_states) = (
            recorded_loop(sc, engine, sim_steps=3) for engine in (sc.make_engine(), reference)
        )
        # every step starts at cfg.rho, so another end value means balancing moved it
        assert any(state.rho != cfg.rho for state in got_states)
        np.testing.assert_array_equal(got.states, want.states)
        np.testing.assert_array_equal(got.inputs, want.inputs)
        np.testing.assert_array_equal(got.iterations, want.iterations)
        for got_state, want_state in zip(got_states, want_states, strict=True):
            assert got_state.residual_history == want_state.residual_history
            np.testing.assert_array_equal(got_state.rows, want_state.rows)

        # a warm step measures its own x0, not its warm state's
        engine = sc.make_engine()
        xa, xb = sc.initial_state(), np.linspace(-0.5, 0.5, sc.model.n_states)
        state_a = engine.solve_step(xa).state
        state_b = engine.solve_step(xb, warm_state=state_a).state
        fresh = engine.init_state()
        fresh.x0 = xb
        engine.measure(fresh)
        for terms_a, terms_b, terms in zip(*(each_block_terms(sc, s) for s in (state_a, state_b, fresh)), strict=True):
            assert not np.array_equal(terms.x0, terms_a.x0)
            for got_term, want_term in zip(terms_b, terms, strict=True):
                np.testing.assert_array_equal(got_term, want_term)

    def test_warm_start_reduces_iterations(self):
        sc = small_scenario()
        engine = sc.make_engine()
        x0 = sc.initial_state()
        cold = engine.solve_step(x0)
        a, b = dense_dynamics(sc.model)
        x1 = a @ x0 + b @ cold.u
        warm = engine.solve_step(x1, warm_state=cold.state)
        fresh = engine.solve_step(x1)
        assert warm.iterations < fresh.iterations
        np.testing.assert_allclose(warm.u, fresh.u, atol=1e-3)

    def test_warm_restart_rescales_multipliers_to_the_starting_rho(self):
        sc = small_scenario()
        engine = sc.make_engine()
        warm = engine.solve_step(sc.initial_state()).state
        assert warm.rho != engine.rho  # residual balancing moved rho
        state = engine.init_state(warm)
        assert state.rho == engine.rho
        # rho moves by powers of two, so the rescale is exact
        assert np.any(warm.rows[2])
        np.testing.assert_array_equal(state.rho * state.rows[2], warm.rho * warm.rows[2])
        # the column partitions hold no lambda to rescale, only fresh workspace
        assert state.cols.shape == (2, warm.cols.shape[1]) and not state.cols.any()

    def test_infeasible_box_ends_with_finite_residuals(self):
        # time 0's successor fixes state 0 at 0.99, above the box at 0.6; rho
        # balancing must not run away while the primal residual stays put
        sc = build_scenario(ScenarioConfig(n_subsystems=4, horizon=3, state_upper=0.6))
        engine = sc.make_engine(max_iterations=2000)
        seen, check = [], engine.check_convergence
        engine.check_convergence = lambda state: seen.append(state) or check(state)
        with pytest.raises(ConvergenceError) as err:
            engine.solve_step(np.full(sc.model.n_states, 0.9))
        found = re.search(r"last primal (\S+), dual (\S+)\)$", str(err.value))
        primal, dual = (float(v) for v in found.groups())
        assert np.isfinite(primal) and np.isfinite(dual) and primal > 1e-2
        assert len(err.value.residual_history) == 2000
        assert np.all(np.isfinite(err.value.residual_history))
        # the message names the final rho and the straggling subsystems
        state = seen[-1]
        lags = re.search(
            r" at rho (\S+) \(subsystem (\d+) lags the primal test, (\d+) the dual;", str(err.value)
        )
        assert float(lags[1]) == pytest.approx(state.rho, rel=1e-5)
        assert int(lags[2]) == np.argmax(state.primal) + 1
        assert int(lags[3]) == np.argmax(state.dual) + 1

    def test_infeasible_row_names_subsystem(self):
        sc = build_scenario(
            ScenarioConfig(
                n_subsystems=3, horizon=2, locality=1, case=Case.EXPLICIT,
                state_lower=0.5, state_upper=1.0, seed=0,
            )
        )
        engine = sc.make_engine()
        # zero measured state puts 0 outside the box for every bounded row
        with pytest.raises(InfeasibleRowError, match=r"^subsystem 1: global row 6: "):
            engine.solve_step(np.zeros(sc.model.n_states))

    @pytest.mark.parametrize("row_solver", list(RowSolverKind))
    def test_underflowing_measurement_is_a_zero_row_on_both_routes(self, row_solver):
        # x0 . x0 underflows to 0 although x0 != 0: both routes read the one
        # zero-row rule of the measurement phase, before any row step runs
        sc = small_scenario(state_lower=0.1)
        engine = sc.make_engine(row_solver=row_solver)
        engine.row_step = lambda state, i: pytest.fail(f"row step of subsystem {i} ran")
        with pytest.raises(InfeasibleRowError, match=r"^subsystem 1: global row \d+: x0 slice is zero"):
            engine.solve_step(np.full(sc.model.n_states, 1e-170))

    def test_non_optimal_row_qp_raises(self, monkeypatch):
        solve_qp = admm.solve_qp

        def capped(qp):
            res = solve_qp(qp)
            res.statuses = [QpStatus.MAX_ITER] * len(res.statuses)
            return res

        monkeypatch.setattr(admm, "solve_qp", capped)
        sc = small_scenario()
        engine = sc.make_engine(row_solver=RowSolverKind.QP)
        with pytest.raises(ConvergenceError, match=r"^subsystem 1: global row 0: row QP ended max-iter"):
            engine.solve_step(sc.initial_state())

    def test_infeasible_row_qp_names_its_box(self, monkeypatch):
        # a member whose QP ends infeasible is named with its own box
        solve_qp = admm.solve_qp

        def refuted(qp):
            res = solve_qp(qp)
            res.statuses = [QpStatus.INFEASIBLE if np.isfinite(lo) else s for lo, s in zip(qp.lb[:, -1], res.statuses)]
            return res

        monkeypatch.setattr(admm, "solve_qp", refuted)
        sc = small_scenario()
        _, lo, hi = profile_rows(sc)
        sub, x0 = sc.index.subsystems[0], sc.initial_state()
        live = np.any(np.where(sub.row_mask, x0[sub.row_cols], 0.0) != 0.0, axis=1)
        row = sub.rows[live & np.isfinite(lo[sub.rows])][0]
        engine = sc.make_engine(row_solver=RowSolverKind.QP)
        box = rf"box \[{lo[row]}, {hi[row]}\]"
        with pytest.raises(InfeasibleRowError, match=rf"^subsystem 1: global row {row}: QP infeasible, {box}$"):
            engine.solve_step(x0)

    def test_non_optimal_middle_member_names_its_own_row(self, monkeypatch):
        # the QP route solves every live row as one stack at the widest block
        # width, subsystem 1's first; a member that is not optimal is named
        # by its own global row
        solve_qp = admm.solve_qp
        sc = small_scenario()
        x0 = sc.initial_state()
        sub = sc.index.subsystems[0]
        x0_rows = np.where(sub.row_mask, x0[sub.row_cols], 0.0)
        live = np.flatnonzero(np.any(x0_rows != 0.0, axis=1))
        assert live.size >= 3
        row = sub.rows[live[live.size // 2]]
        width = max(s.row_cols.size for s in sc.index.subsystems)
        assert width > sub.row_cols.size

        def capped(qp):
            res = solve_qp(qp)
            # subsystem 1's live rows open the one stack, which holds others
            # too, each padded with x0 -0 to the widest block
            assert qp.g.shape[0] > live.size and qp.g.shape[1] == width + 1
            x0 = qp.a_eq[: live.size, 0, :-1]
            assert x0[:, : sub.row_cols.size].tobytes() == x0_rows[live].tobytes()
            assert np.all(x0[:, sub.row_cols.size :] == 0.0) and np.all(np.signbit(x0[:, sub.row_cols.size :]))
            res.statuses[live.size // 2] = QpStatus.MAX_ITER
            return res

        monkeypatch.setattr(admm, "solve_qp", capped)
        engine = sc.make_engine(row_solver=RowSolverKind.QP)
        with pytest.raises(ConvergenceError, match=rf"^subsystem 1: global row {row}: row QP ended max-iter"):
            engine.solve_step(x0)


    def test_first_non_optimal_row_is_named_in_any_subsystem_order(self, monkeypatch):
        # every row QP of a warm step ends at its cap: the first stacked row is
        # named whatever order the subsystems run in, and the raise leaves
        # every phi block as the warm state holds it
        sc = small_scenario()
        x0 = sc.initial_state()
        warm = sc.make_engine(row_solver=RowSolverKind.QP).solve_step(x0).state
        solve_qp = admm.solve_qp

        def capped(qp):
            res = solve_qp(qp)
            res.statuses = [QpStatus.MAX_ITER] * len(res.statuses)
            return res

        monkeypatch.setattr(admm, "solve_qp", capped)
        for order in ([1, 2, 3, 4], [3, 1, 4, 2]):
            engine = sc.make_engine(row_solver=RowSolverKind.QP)
            states, init_state = [], engine.init_state
            engine.init_state = lambda warm_state: states.append(init_state(warm_state)) or states[-1]

            def each_ordered(state, phase, order=order):
                out = [None] * len(order)
                for i in order:
                    out[i - 1] = phase(state, i)
                return out

            engine._each = each_ordered
            with pytest.raises(ConvergenceError, match=r"^subsystem 1: global row 0: row QP ended max-iter$"):
                engine.solve_step(x0, warm_state=warm)
            assert any(np.any(phi != 0.0) for phi in warm.phi_r)
            for got, want in zip(states[0].phi_r, warm.phi_r, strict=True):
                assert got.tobytes() == want.tobytes()


class TestMomentum:
    @pytest.mark.parametrize("case", [Case.EXPLICIT, Case.SOLVER])
    def test_step_converging_before_rho_settles_is_untouched(self, case, monkeypatch):
        # the stock chain's step outlasts SETTLE iterations, but rho moves
        # too late for the momentum to arm: the counting must change nothing
        sc = build_scenario(ScenarioConfig(n_subsystems=10, case=case))
        x0 = sc.initial_state()
        gated = sc.make_engine().solve_step(x0)
        assert gated.iterations > admm.SETTLE
        assert gated.state.prev is None and gated.state.extrapolated == 0
        monkeypatch.setattr(admm, "SETTLE", sc.config.max_iterations + 1)
        never = sc.make_engine().solve_step(x0)
        np.testing.assert_array_equal(gated.u, never.u)
        np.testing.assert_array_equal(gated.state.rows, never.state.rows)
        np.testing.assert_array_equal(gated.state.cols, never.state.cols)
        np.testing.assert_array_equal(gated.state.residual_history, never.state.residual_history)

    def test_armed_loop_takes_fewer_iterations_for_the_same_cost(self, monkeypatch):
        sc = build_scenario(dataclasses.replace(ACTIVE_BOX, sim_steps=3))
        fast = run_closed_loop(sc)
        monkeypatch.setattr(admm, "SETTLE", sc.config.max_iterations + 1)
        plain = run_closed_loop(sc)
        assert all(s.extrapolated == s.restarts == 0 for s in plain.steps)
        assert sum(s.extrapolated for s in fast.steps) > 0
        # about 545 against 940 iterations: a budget that catches a lost gain
        assert fast.iterations.sum() < 0.7 * plain.iterations.sum()
        assert abs(fast.cost - plain.cost) <= 1e-4 * plain.cost

    def test_iteration_count_is_steady_under_a_small_change_of_x0(self):
        # uncapped, the momentum weight lets the count of one step jump
        # between about 65 and 115 under a 1e-3 change of x0 (jitter 7:
        # 497 iterations against about 544 for the others)
        sc = build_scenario(dataclasses.replace(ACTIVE_BOX, sim_steps=3))
        engine, base = sc.make_engine(), sc.initial_state()
        jitters = [np.random.default_rng(s).uniform(-1e-3, 1e-3, base.size) for s in range(8)]
        totals = [run_closed_loop(sc, x0=base + j, engine=engine).iterations.sum() for j in jitters]
        assert max(totals) <= 1.04 * min(totals)

    def test_dual_residual_reads_the_true_previous_psi(self):
        sc = build_scenario(ACTIVE_BOX)
        engine = sc.make_engine()
        # psi as the convergence test sees it, before any extrapolation
        seen, check = [], engine.check_convergence
        engine.check_convergence = lambda state: seen.append([m.copy() for m in row_blocks(engine.index, state, 1)]) or check(state)
        state = engine.solve_step(sc.initial_state()).state
        assert state.extrapolated > 0
        want = [
            max(np.linalg.norm(now - was) for now, was in zip(new, old))
            for old, new in zip(seen, seen[1:])
        ]
        got = [dual for _, dual in state.residual_history[1:]]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def recorded_loop(sc, engine, **kwargs) -> tuple:
    """``run_closed_loop`` on ``engine``, with the state of every MPC step."""
    states, solve = [], engine.solve_step

    def solve_step(x0, warm_state=None):
        res = solve(x0, warm_state=warm_state)
        states.append(res.state)
        return res

    engine.solve_step = solve_step
    return run_closed_loop(sc, engine=engine, **kwargs), states


def profile_rows(sc) -> tuple:
    """Per-global-row (weight, lo, hi) of a scenario, from its profiles; the weight is the cost's root."""
    cost, lo, hi = stacked_profiles(sc.model.n_states, sc.model.n_inputs, sc.config.horizon, **sc.profiles())
    return np.sqrt(cost), lo, hi


def per_subsystem_terms(sc, x0) -> list:
    """Each subsystem's :func:`row_terms`, built from its own block alone."""
    weight, lo, hi = profile_rows(sc)
    return [
        row_terms(np.where(sub.row_mask, x0[sub.row_cols], 0.0), lo[sub.rows], hi[sub.rows], weight[sub.rows])
        for sub in sc.index.subsystems
    ]


def block_terms(sc, state, i) -> RowTerms:
    """Subsystem i's rows of the state's stacked terms, cut at its block width."""
    subs = sc.index.subsystems
    start = sum(sub.rows.size for sub in subs[: i - 1])
    at = slice(start, start + subs[i - 1].rows.size)
    return RowTerms(state.terms.x0[at, : subs[i - 1].row_cols.size], *(t[at] for t in state.terms[1:]))


def each_block_terms(sc, state) -> list:
    return [block_terms(sc, state, i) for i in range(1, sc.model.n_subsystems + 1)]


def solve_block_qp(sub, terms, target, rho, weight, width) -> np.ndarray:
    """One subsystem's rows as one ``solve_qp`` stack, each row padded at its end to ``width``.

    The stack holds the rows that ``terms`` do not mark zero, padded as the
    row buffer pads them (target +0, x0 -0); their solutions replace the
    target on the mask, and every other entry keeps it.  A row not solved
    optimally fails the test.
    """
    phi = target.copy()
    live = np.flatnonzero(~terms.zero)
    pad = ((0, 0), (0, width - phi.shape[1]))
    x0 = np.pad(terms.x0[live], pad, constant_values=-0.0)
    res = admm.solve_qp(row_qp(np.pad(phi[live], pad), x0, rho, terms.lo[live], terms.hi[live], weight[live]))
    assert res.status is QpStatus.OPTIMAL
    phi[live] = np.where(sub.row_mask[live], res.x[:, : phi.shape[1]], phi[live])
    return phi


class PerSubsystemRows(DlmpcEngine):
    """The engine with the row phases of one call per subsystem each.

    Every subsystem measures its own block, and its row step solves its
    whole closed form, point location included, or on the QP route its
    rows as one QP stack padded to the widest block; the stacked phases do
    nothing.  Extraction reads the subsystem's own terms.
    """

    @classmethod
    def of(cls, sc):
        cfg = sc.config
        engine = cls(
            sc.model, sc.index, sc.op, **sc.profiles(), rho=cfg.rho, eps_primal=cfg.eps_primal,
            eps_dual=cfg.eps_dual, max_iterations=cfg.max_iterations,
            row_solver=RowSolverKind.QP if cfg.case is Case.SOLVER else RowSolverKind.EXPLICIT,
        )
        engine.scenario, engine.weight = sc, profile_rows(sc)[0]
        return engine

    def measure(self, state):
        state.own_terms = per_subsystem_terms(self.scenario, state.x0)

    def locate_rows(self, state):
        pass

    def solve_row_qps(self, state):
        pass

    def row_step(self, state, i):
        sub, terms = self.index.subsystems[i - 1], state.own_terms[i - 1]
        a = row_target(self, state, i)
        if self.row_solver is RowSolverKind.QP:
            state.phi_r[i - 1][...] = solve_block_qp(sub, terms, a, state.rho, self.weight[sub.rows], self._widest)
        else:
            state.phi_r[i - 1][...] = closed_form(terms, a, state.rho)[0]

    def extract_control(self, state, i):
        u0 = np.count_nonzero(self.index.subsystem(i).row_is_state)
        rows = state.phi_r[i - 1][u0 : u0 + self.model.input_dims[i - 1]]
        return rows @ state.own_terms[i - 1].x0[-1]


class TestRowStep:
    """One row step against a row-by-row loop of ``solve_row``."""

    @staticmethod
    def boxed_state(sc, engine, x0):
        # tight boxes on states and inputs and random targets reach all three regions
        rng = np.random.default_rng(7)
        state = engine.init_state()
        state.x0 = x0
        engine.measure(state)
        for sub, psi, lam in zip(sc.index.subsystems, row_blocks(sc.index, state, 1), row_blocks(sc.index, state, 2)):
            psi[:] = rng.normal(size=psi.shape) * sub.row_mask
            lam[:] = rng.normal(scale=0.5, size=lam.shape) * sub.row_mask
        return state

    @staticmethod
    def reference_rows(sc, state, x0, rho):
        weight, lo, hi = profile_rows(sc)
        out, regions = [], []
        for sub, psi, lam in zip(sc.index.subsystems, row_blocks(sc.index, state, 1), row_blocks(sc.index, state, 2)):
            phi = np.zeros_like(psi)
            for r, g in enumerate(sub.rows):
                cols = np.flatnonzero(sub.row_mask[r])
                p = RowProblem(
                    target=(psi - lam)[r, cols], x0=x0[sub.row_cols][cols], rho=rho,
                    lo=lo[g], hi=hi[g], weight=weight[g],
                )
                phi[r, cols], _, _, region = solve_row(p)
                regions.append(region)
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
        assert set(regions) == {INTERIOR, UPPER_ACTIVE, LOWER_ACTIVE}
        engine.locate_rows(state)  # point location for every row, before any law
        for i in range(1, sc.model.n_subsystems + 1):
            engine.row_step(state, i)
            np.testing.assert_array_equal(state.phi_r[i - 1], expected[i - 1])

    @pytest.mark.parametrize("model, d, horizon", PLAN_CASES)
    def test_stacked_point_location_equals_per_subsystem_solve_bitwise(
        self, model, d, horizon, six_node_model, cross_fed_chain_model
    ):
        # one padded point-location call over every row, then each
        # subsystem's own law, against each subsystem's whole closed form on
        # terms built from its own block; row widths differ between the
        # subsystems of all networks but one, the boxed state reaches all
        # three regions, and a state measured at subsystem N alone gives zero rows
        sc = TestExchanges.plan_case(
            model, d, horizon, six_node_model, cross_fed_chain_model,
            state_lower=-0.1, state_upper=0.1, input_lower=-0.05, input_upper=0.05,
        )
        engine = sc.make_engine()
        full = sc.initial_state()
        last = sc.model.state_indices(sc.model.n_subsystems)
        at_last = np.zeros_like(full)
        at_last[last] = full[last]
        regions, zero_rows = set(), 0
        for x0 in (full, at_last):
            state = self.boxed_state(sc, engine, x0)
            engine.locate_rows(state)
            for i, terms in enumerate(per_subsystem_terms(sc, x0), start=1):
                for got, want in zip(block_terms(sc, state, i), terms, strict=True):
                    assert got.shape == want.shape and got.tobytes() == want.tobytes()
                want, past = closed_form(terms, row_target(engine, state, i), state.rho)
                engine.row_step(state, i)
                assert state.phi_r[i - 1].tobytes() == want.tobytes()
                regions.update(np.sign(past[~terms.zero]))
                zero_rows += np.count_nonzero(terms.zero)
        assert regions == {-1.0, 0.0, 1.0} and zero_rows > 0

    def test_padding_keeps_the_sign_of_a_zero_sum(self):
        # subsystem 6's rows are zero rows, narrower than the widest block,
        # whose targets are all negative or -0: alone they sum to -0, and the
        # padding (target +0, x0 -0) must keep that sign
        sc = build_scenario(ScenarioConfig(n_subsystems=6, horizon=3))
        engine = sc.make_engine()
        x0 = np.zeros(sc.model.n_states)
        x0[sc.model.state_indices(1)] = 0.5
        state = engine.init_state()
        state.x0 = x0
        engine.measure(state)
        rng = np.random.default_rng(5)
        for i, (sub, psi) in enumerate(zip(sc.index.subsystems, row_blocks(sc.index, state, 1)), start=1):
            psi[:] = np.where(sub.row_mask, (1.0 if i == 1 else -1.0) * rng.uniform(0.1, 1.0, psi.shape), -0.0)
        last = block_terms(sc, state, 6)
        assert last.zero.all() and last.x0.shape[1] < state.terms.x0.shape[1]
        engine.locate_rows(state)
        end = 0
        for i, terms in enumerate(per_subsystem_terms(sc, x0), start=1):
            want = closed_form(terms, row_target(engine, state, i), state.rho)[0]
            end += terms.zero.size
            assert state.solved[end - terms.zero.size : end, : want.shape[1]].tobytes() == want.tobytes()
            engine.row_step(state, i)
            assert state.phi_r[i - 1].tobytes() == want.tobytes()

    @pytest.mark.parametrize("row_solver", list(RowSolverKind))
    def test_padding_is_inert(self, row_solver, six_node_model, cross_fed_chain_model):
        # the row buffer stacks every row padded at its end to the widest
        # block: after a cold and a warm step every padding entry of the four
        # row layers is +0 and every padding x0 -0, so each padded product is
        # -0, the identity of the sequential dot products; the QP route runs
        # at a loose tolerance, which keeps its cross-fed steps short
        def check(sc, states):
            subs = sc.index.subsystems
            width = max(sub.row_cols.size for sub in subs)
            pad = np.concatenate([np.arange(width) >= np.full((sub.rows.size, 1), sub.row_cols.size) for sub in subs])
            for state in states:
                assert state.rows.shape == (4,) + pad.shape
                rows, x0 = state.rows[:, pad], state.terms.x0[pad]
                assert np.all(rows == 0.0) and not np.any(np.signbit(rows))
                assert np.all(x0 == 0.0) and np.all(np.signbit(x0))
            return np.count_nonzero(pad)

        tol = 1e-4 if row_solver is RowSolverKind.EXPLICIT else 1e-1
        padded = 0
        for case in PLAN_CASES:
            sc = TestExchanges.plan_case(*case, six_node_model, cross_fed_chain_model)
            engine = sc.make_engine(row_solver=row_solver, eps_primal=tol, eps_dual=tol)
            x0 = sc.initial_state()
            cold = engine.solve_step(x0).state
            padded += check(sc, (cold, engine.solve_step(0.9 * x0, warm_state=cold).state))
        assert padded > 0
        if row_solver is RowSolverKind.EXPLICIT:
            # the active box arms the momentum, and balancing moves rho
            sc = build_scenario(dataclasses.replace(ACTIVE_BOX, sim_steps=3))
            _, states = recorded_loop(sc, sc.make_engine())
            assert all(state.extrapolated > 0 for state in states)
            assert any(state.rho != sc.config.rho for state in states)
            assert check(sc, states) > 0

    @pytest.mark.parametrize("name", ["chain-explicit", "chain-active-box", "chain-solver", "cross-fed"])
    def test_closed_loop_equals_per_subsystem_row_phases_bitwise(self, name, cross_fed_chain_model):
        # the three perfbench workloads (N=200, the active box, the QP route)
        # and a network of unequal row widths, three MPC steps each
        config, model = {
            "chain-explicit": (ScenarioConfig(n_subsystems=200), None),
            "chain-active-box": (ACTIVE_BOX, None),
            "chain-solver": (ScenarioConfig(n_subsystems=6, case=Case.SOLVER), None),
            "cross-fed": (ScenarioConfig(n_subsystems=6, horizon=3, locality=2, seed=3), cross_fed_chain_model),
        }[name]
        sc = build_scenario(dataclasses.replace(config, sim_steps=3), model=model)
        (got, got_states), (want, want_states) = (
            recorded_loop(sc, engine) for engine in (sc.make_engine(), PerSubsystemRows.of(sc))
        )
        assert got.states.tobytes() == want.states.tobytes()
        assert got.inputs.tobytes() == want.inputs.tobytes()
        np.testing.assert_array_equal(got.iterations, want.iterations)
        for g, w in zip(got_states, want_states, strict=True):
            assert g.rows.tobytes() == w.rows.tobytes() and g.cols.tobytes() == w.cols.tobytes()
            assert g.residual_history == w.residual_history and g.rho == w.rho
            assert (g.extrapolated, g.restarts) == (w.extrapolated, w.restarts)

    @pytest.mark.parametrize("model, d, horizon", PLAN_CASES)
    def test_qp_phase_equals_padded_per_subsystem_solve_bitwise(
        self, model, d, horizon, six_node_model, cross_fed_chain_model
    ):
        # the QP route's one stack of every live row at the widest block
        # width, then each subsystem's write-back, against one QP stack per
        # subsystem padded to that width; a member's result depends only on
        # its own QP, so the two agree bit for bit; the boxes bind, and a
        # state measured at subsystem N alone gives zero rows
        sc = TestExchanges.plan_case(
            model, d, horizon, six_node_model, cross_fed_chain_model,
            state_lower=-0.1, state_upper=0.1, input_lower=-0.05, input_upper=0.05,
        )
        engine, weight = sc.make_engine(row_solver=RowSolverKind.QP), profile_rows(sc)[0]
        width = max(sub.row_cols.size for sub in sc.index.subsystems)
        full = sc.initial_state()
        last = sc.model.state_indices(sc.model.n_subsystems)
        at_last = np.zeros_like(full)
        at_last[last] = full[last]
        zero_rows = 0
        for x0 in (full, at_last):
            state = self.boxed_state(sc, engine, x0)
            engine.solve_row_qps(state)
            for i, (sub, terms) in enumerate(zip(sc.index.subsystems, per_subsystem_terms(sc, x0)), start=1):
                target = row_target(engine, state, i)
                want = solve_block_qp(sub, terms, target, state.rho, weight[sub.rows], width)
                engine.row_step(state, i)
                assert state.phi_r[i - 1].tobytes() == want.tobytes()
                zero_rows += np.count_nonzero(terms.zero)
        assert zero_rows > 0
        if model == "cross-fed":
            assert len({sub.row_cols.size for sub in sc.index.subsystems}) > 1

    def test_qp_route_solves_every_row_in_one_call(self, monkeypatch):
        # one solve_qp call per row phase, on a stack of every row with a
        # nonzero x0 at the widest block width; the subsystems' row steps make none
        stacks = []
        solve_qp = admm.solve_qp

        def counted(qp, *args, **kwargs):
            stacks.append(qp.g.shape)
            return solve_qp(qp, *args, **kwargs)

        monkeypatch.setattr(admm, "solve_qp", counted)
        sc = self.scenario()
        x0 = sc.initial_state()
        engine = sc.make_engine(row_solver=RowSolverKind.QP)
        state = self.boxed_state(sc, engine, x0)
        widths = {sub.row_cols.size for sub in sc.index.subsystems}
        live = sum(np.count_nonzero(np.any(t.x0 != 0.0, axis=1)) for t in each_block_terms(sc, state))
        engine.solve_row_qps(state)
        assert len(widths) > 1 and stacks == [(live, max(widths) + 1)]
        del stacks[:]
        for i in range(1, sc.model.n_subsystems + 1):
            engine.row_step(state, i)
        assert stacks == []
        # and over a whole step of the stock box
        sc = small_scenario()
        res = sc.make_engine(row_solver=RowSolverKind.QP).solve_step(sc.initial_state())
        assert len(stacks) == res.iterations
        # a zero measurement leaves every row at its target: no stack at all
        del stacks[:]
        res = sc.make_engine(row_solver=RowSolverKind.QP).solve_step(np.zeros(sc.model.n_states))
        assert res.iterations > 0 and stacks == [] and np.all(res.u == 0.0)

    @pytest.mark.parametrize("row_solver", list(RowSolverKind))
    def test_row_phase_is_one_call_and_row_step_only_writes_back(self, row_solver, monkeypatch):
        # per iteration the explicit route locates and applies every row's
        # law in one call each, the QP route solves every row in one call;
        # the row steps call neither and copy their span of state.solved
        calls = []
        for name in ("locate", "apply_law", "solve_qp"):
            fn = getattr(admm, name)
            monkeypatch.setattr(admm, name, lambda *a, fn=fn, name=name, **k: calls.append(name) or fn(*a, **k))
        sc = small_scenario()
        subs = sc.index.subsystems
        ends = np.cumsum([sub.rows.size for sub in subs])
        engine = sc.make_engine(row_solver=row_solver)
        row_step, written = engine.row_step, []

        def checked(state, i):
            before = len(calls)
            row_step(state, i)
            assert len(calls) == before
            span = slice(ends[i - 1] - subs[i - 1].rows.size, ends[i - 1])
            assert state.phi_r[i - 1].tobytes() == state.solved[span, : subs[i - 1].row_cols.size].tobytes()
            written.append(i)

        engine.row_step = checked
        res = engine.solve_step(sc.initial_state())
        per_iteration = ["locate", "apply_law"] if row_solver is RowSolverKind.EXPLICIT else ["solve_qp"]
        assert res.iterations > 1 and calls == per_iteration * res.iterations
        assert written == list(range(1, len(subs) + 1)) * res.iterations

    def test_qp_row_step_matches_per_row_loop(self):
        sc = self.scenario()
        x0 = sc.initial_state()
        engine = sc.make_engine(row_solver=RowSolverKind.QP)
        state = self.boxed_state(sc, engine, x0)
        expected, _ = self.reference_rows(sc, state, x0, engine.rho)
        engine.solve_row_qps(state)  # every row's QP, before any write-back
        for i in range(1, sc.model.n_subsystems + 1):
            engine.row_step(state, i)
            np.testing.assert_allclose(state.phi_r[i - 1], expected[i - 1], rtol=0, atol=1e-7)

    def test_qp_route_step_calls_no_scipy_linalg(self, monkeypatch):
        # scipy.linalg would start its own BLAS pool beside numpy's, and the
        # two contend on a small machine: the QP route's step stays in numpy.linalg
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        config = importlib.import_module("workload").WORKLOADS["chain-solver"].config
        sc = build_scenario(ScenarioConfig(**config))
        engine = sc.make_engine()
        assert engine.row_solver is RowSolverKind.QP
        where = os.path.join("scipy", "linalg", "")
        calls = []

        def watch(frame, event, arg):
            if event == "call" and where in frame.f_code.co_filename:
                calls.append(f"{frame.f_code.co_filename}:{frame.f_code.co_name}")
            elif event == "c_call" and str(getattr(arg, "__module__", "")).startswith("scipy.linalg"):
                calls.append(f"{arg.__module__}.{arg.__name__}")

        # the profiler sees no call of a LAPACK or BLAS wrapper (a Fortran
        # object, neither Python nor builtin): those of scipy.linalg record their own
        def recording(name, fn):
            return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

        for module in (scipy.linalg.lapack, scipy.linalg.blas):
            for name, fn in list(vars(module).items()):
                if type(fn).__name__ == "fortran":
                    monkeypatch.setattr(module, name, recording(f"{module.__name__}.{name}", fn))
        sys.setprofile(watch)
        try:
            res = engine.solve_step(sc.initial_state())
        finally:
            sys.setprofile(None)
        assert res.iterations > 0 and not calls, calls[:5]


class TestSolutionQuality:
    @pytest.mark.parametrize("locality,horizon", [(1, 3), (3, 3), (1, 10)])
    def test_matches_masked_monolithic_solution(self, locality, horizon):
        # the response entries themselves are not unique (rows are charged
        # only along x0), but the planned cost and the applied input are;
        # d=3 reaches every node of the four-node chain, T=10 is a long horizon
        sc = small_scenario(locality=locality, horizon=horizon)
        x0 = sc.initial_state()
        engine = sc.make_engine(eps_primal=1e-9, eps_dual=1e-9)
        res = engine.solve_step(x0)
        weight, lo, hi = profile_rows(sc)
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
        a, b = dense_dynamics(sc.model)
        x1_real = a @ x0 + b @ res.u
        np.testing.assert_allclose(x1_real, x1_planned, atol=1e-7)

    def test_two_input_subsystem_applies_its_time0_rows(self):
        # subsystem 2 has two inputs: its first two input rows are its time-0 ones
        chain = build_chain_model(4)
        model = NetworkModel(
            state_dims=chain.state_dims,
            input_dims=(1, 2, 1, 1),
            a_blocks=chain.a_blocks,
            b_blocks={**chain.b_blocks, (2, 2): np.array([[0.1, 0.0], [0.0, 0.1]])},
        )
        sc = build_scenario(ScenarioConfig(n_subsystems=4, horizon=3, seed=3), model=model)
        x0 = sc.initial_state()
        engine = sc.make_engine(eps_primal=1e-9, eps_dual=1e-9)
        res = engine.solve_step(x0)
        phi = engine.assemble_from_rows(res.state, "phi")
        n, p, t_hor = model.n_states, model.n_inputs, sc.config.horizon
        assert res.u.shape == (5,)
        np.testing.assert_allclose(res.u, phi[n * (t_hor + 1) : n * (t_hor + 1) + p, :] @ x0, rtol=0, atol=1e-12)

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
        assert res.state.per_sub_seconds.shape == (4,)
        assert np.all(res.state.per_sub_seconds > 0)

    def test_each_subsystem_is_charged_its_own_time(self):
        sc = small_scenario()
        engine = sc.make_engine(eps_primal=1e300, eps_dual=1e300)
        row_step = engine.row_step

        def slow_second(state, i):
            if i == 2:
                time.sleep(0.06)
            row_step(state, i)

        engine.row_step = slow_second
        res = engine.solve_step(sc.initial_state())
        assert res.iterations == 1
        seconds = res.state.per_sub_seconds
        assert np.all(seconds[1] >= np.delete(seconds, 1) + 0.05)

    def test_network_phase_is_charged_in_equal_shares(self):
        # a network phase replaced on the instance runs, and is timed, in
        # place of the method
        sc = small_scenario()
        engine = sc.make_engine(eps_primal=1e300, eps_dual=1e300)
        column_step = engine.column_step

        def slow_columns(state):
            time.sleep(0.08)
            column_step(state)

        engine.column_step = slow_columns
        res = engine.solve_step(sc.initial_state())
        assert res.iterations == 1
        seconds = res.state.per_sub_seconds
        assert np.all(seconds >= 0.02)  # a quarter of the sleep each
        assert np.ptp(seconds) < 0.04  # not all on one subsystem

    def test_timers_live_on_the_state(self):
        sc = small_scenario()
        engine = sc.make_engine()
        # phase methods work on an engine that has never solved a step
        state = engine.init_state()
        engine.exchange_rows(state)
        engine.exchange_columns(state)
        res = engine.solve_step(sc.initial_state())
        # a warm start copies the blocks but not the timers
        warm = engine.init_state(res.state)
        np.testing.assert_array_equal(warm.per_sub_seconds, np.zeros(4))
        assert np.all(res.state.per_sub_seconds > 0)
