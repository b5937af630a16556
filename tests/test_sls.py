"""Feasibility operator, response construction and column projection.

The projection oracle here is built from scratch (block KKT system solved
densely) so it shares no code with the package's pseudo-inverse route.
"""
import numpy as np
import pytest

from dlmpc import (
    NetworkModel,
    assemble_feasibility_operator,
    build_chain_model,
    build_graph,
    build_locality_index,
    controller_from_response,
    extract_control,
    full_response_from_controller,
    project_column,
    response_from_controller,
    stacked_constraint,
)


def scalar_model(a=0.5, b=2.0):
    return NetworkModel(
        state_dims=(1,),
        input_dims=(1,),
        a_blocks={(1, 1): np.array([[a]])},
        b_blocks={(1, 1): np.array([[b]])},
    )


def dense_constraint(model, horizon):
    """Independent dense construction of the dynamics constraint matrix.

    Its right-hand side is the identity in the first n rows:
    ``np.eye(rows, n)``.
    """
    n, p = model.n_states, model.n_inputs
    a, b = model.full_a(), model.full_b()
    rows = n * (horizon + 1)
    cols = rows + p * horizon
    z = np.zeros((rows, cols))
    z[:n, :n] = np.eye(n)
    for t in range(horizon):
        r = slice((t + 1) * n, (t + 2) * n)
        z[r, (t + 1) * n : (t + 2) * n] = np.eye(n)
        z[r, t * n : (t + 1) * n] = -a
        z[r, rows + t * p : rows + (t + 1) * p] = -b
    return z


def build_operator(model, d, horizon):
    graph = build_graph(model)
    index = build_locality_index(graph, model, d, horizon)
    return index, assemble_feasibility_operator(model, index)


def random_causal_gain(model, horizon, rng, scale=0.3):
    n, p = model.n_states, model.n_inputs
    k = np.zeros((p * horizon, n * (horizon + 1)))
    for t in range(horizon):
        k[t * p : (t + 1) * p, : (t + 1) * n] = scale * rng.normal(
            size=(p, (t + 1) * n)
        )
    return k


class TestConstraintMatrix:
    def test_scalar_single_step(self):
        z = stacked_constraint(scalar_model(a=0.5, b=2.0), horizon=1).toarray()
        np.testing.assert_array_equal(z, [[1.0, 0.0, 0.0], [-0.5, 1.0, -2.0]])

    def test_scalar_two_step_shape(self):
        z = stacked_constraint(scalar_model(), horizon=2)
        assert z.shape == (3, 5)

    def test_matches_dense_reference(self):
        model = build_chain_model(3)
        z = stacked_constraint(model, horizon=4).toarray()
        np.testing.assert_allclose(z, dense_constraint(model, 4), atol=0)

    def test_operator_rhs_embeds_identity(self):
        # projecting zero gives the minimum-norm solution of the subsystem's
        # columns of the dense system, whose right-hand side is the identity
        model = build_chain_model(3)
        horizon = 3
        index, op = build_operator(model, d=1, horizon=horizon)
        z = dense_constraint(model, horizon)
        identity = np.eye(z.shape[0], model.n_states)
        for sub in index.subsystems:
            want = np.linalg.lstsq(z[:, sub.col_rows], identity[:, sub.cols], rcond=None)[0]
            got = project_column(op, sub.sub_id, np.zeros(want.shape))
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestResponseFromController:
    def test_zero_gain_gives_open_loop_powers(self):
        model = build_chain_model(2)
        a = model.full_a()
        horizon = 3
        phi_x, phi_u = response_from_controller(model, np.zeros((3 * 2, 4 * 4)), horizon)
        expect = np.vstack([np.linalg.matrix_power(a, t) for t in range(horizon + 1)])
        np.testing.assert_allclose(phi_x, expect, atol=1e-14)
        assert not phi_u.any()

    def test_random_gains_satisfy_constraint(self):
        rng = np.random.default_rng(7)
        model = build_chain_model(3)
        horizon = 4
        z = dense_constraint(model, horizon)
        rhs = np.zeros((model.n_states * (horizon + 1), model.n_states))
        rhs[: model.n_states] = np.eye(model.n_states)
        for _ in range(10):
            k = random_causal_gain(model, horizon, rng)
            phi = np.vstack(response_from_controller(model, k, horizon))
            np.testing.assert_allclose(z @ phi, rhs, atol=1e-12)

    def test_gain_recovery_round_trip(self):
        rng = np.random.default_rng(11)
        model = build_chain_model(2)
        horizon = 3
        for _ in range(10):
            k = random_causal_gain(model, horizon, rng)
            phi_x, phi_u = full_response_from_controller(model, k, horizon)
            k_back = controller_from_response(phi_x, phi_u)
            np.testing.assert_allclose(k_back, k, atol=1e-10)

    def test_rejects_acausal_gain(self):
        model = scalar_model()
        k = np.zeros((2, 3))
        k[0, 1] = 1.0  # first input reacting to a later state
        with pytest.raises(ValueError):
            response_from_controller(model, k, horizon=2)

    def test_rejects_wrong_shape(self):
        model = scalar_model()
        with pytest.raises(ValueError):
            response_from_controller(model, np.zeros((2, 2)), horizon=2)


class TestColumnProjection:
    def kkt_reference(self, model, horizon, sub, v):
        """Equality-constrained least squares solved through its KKT system.

        The constraint is the subsystem's columns of the dense system, all
        rows kept (rows that miss them read 0 = 0).
        """
        z = dense_constraint(model, horizon)
        m = z[:, sub.col_rows]
        rhs = np.eye(z.shape[0], model.n_states)[:, sub.cols]
        rows, cols = m.shape
        kkt = np.zeros((cols + rows, cols + rows))
        kkt[:cols, :cols] = np.eye(cols)
        kkt[:cols, cols:] = m.T
        kkt[cols:, :cols] = m
        out = np.empty_like(v)
        for c in range(v.shape[1]):
            full_rhs = np.concatenate([v[:, c], rhs[:, c]])
            sol = np.linalg.lstsq(kkt, full_rhs, rcond=None)[0]
            out[:, c] = sol[:cols]
        return out

    @pytest.mark.parametrize("d,horizon", [(1, 3), (2, 2)])
    def test_matches_kkt_oracle(self, d, horizon):
        rng = np.random.default_rng(3)
        model = build_chain_model(4)
        index, op = build_operator(model, d, horizon)
        for i in range(1, 5):
            sub = index.subsystem(i)
            v = rng.normal(size=(sub.col_rows.size, sub.cols.size))
            got = project_column(op, i, v)
            want = self.kkt_reference(model, horizon, sub, v)
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_idempotent(self, six_node_model):
        rng = np.random.default_rng(5)
        index, op = build_operator(six_node_model, d=1, horizon=3)
        for i in range(1, 7):
            sub = index.subsystem(i)
            v = rng.normal(size=(sub.col_rows.size, sub.cols.size))
            once = project_column(op, i, v)
            twice = project_column(op, i, once)
            np.testing.assert_allclose(twice, once, atol=1e-9)

    def test_output_satisfies_constraint_rows(self):
        rng = np.random.default_rng(9)
        model = build_chain_model(3)
        index, op = build_operator(model, d=1, horizon=3)
        z = dense_constraint(model, 3)
        identity = np.eye(z.shape[0], model.n_states)
        for i in range(1, 4):
            sub = index.subsystem(i)
            v = rng.normal(size=(sub.col_rows.size, sub.cols.size))
            psi = project_column(op, i, v)
            np.testing.assert_allclose(z[:, sub.col_rows] @ psi, identity[:, sub.cols], atol=1e-10)

    @pytest.mark.parametrize("d,horizon", [(0, 1), (0, 3), (0, 5), (1, 3), (1, 5)])
    def test_rejects_locality_the_dynamics_cannot_meet(self, cross_fed_chain_model, d, horizon):
        with pytest.raises(ValueError, match=rf"subsystem \d+: .* d={d} .* T={horizon} \(constraint residual"):
            build_operator(cross_fed_chain_model, d, horizon)

    @pytest.mark.parametrize("d,horizon", [(1, 1), (2, 1), (2, 3), (2, 5)])
    def test_builds_where_the_locality_meets_the_dynamics(self, cross_fed_chain_model, d, horizon):
        index, op = build_operator(cross_fed_chain_model, d, horizon)
        z = dense_constraint(cross_fed_chain_model, horizon)
        identity = np.eye(z.shape[0], cross_fed_chain_model.n_states)
        for sub, proj in zip(index.subsystems, op.projectors):
            np.testing.assert_allclose(z[:, sub.col_rows] @ proj.offset, identity[:, sub.cols], atol=1e-10)

    def test_rejects_bad_shape(self):
        model = build_chain_model(3)
        _, op = build_operator(model, d=1, horizon=3)
        with pytest.raises(ValueError):
            project_column(op, 1, np.zeros((2, 2)))

    def test_rejects_wrong_column_count(self):
        # right row count, one column for a two-column subsystem: broadcasting
        # must not stretch it to two columns
        model = build_chain_model(4)
        index, op = build_operator(model, d=1, horizon=3)
        sub = index.subsystem(2)
        assert sub.cols.size == 2
        with pytest.raises(ValueError, match="shape"):
            project_column(op, 2, np.zeros((sub.col_rows.size, 1)))


class TestExtractControl:
    def test_pure_matvec(self):
        rows = np.array([[1.0, 2.0], [0.5, -1.0]])
        x0 = np.array([3.0, 1.0])
        np.testing.assert_array_equal(extract_control(rows, x0), [5.0, 0.5])
