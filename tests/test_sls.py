"""Feasibility operator, response construction and column projection.

The responses of causal gains come from ``oracles``: the controller runs
on the response maps and never forms a gain.

The projection oracles here are built from scratch (block KKT system solved
densely, and ``oracles.reference_projectors``' pseudo-inverse of the dense
constraint) so they share no code with the package's QR route.
"""
import dataclasses

import numpy as np
import pytest

from dlmpc import (
    NetworkModel,
    assemble_feasibility_operator,
    build_chain_model,
    build_graph,
    build_locality_index,
    project_column,
    sls,
    stacked_constraint,
)
from oracles import (
    controller_from_response,
    dense_constraint,
    dense_dynamics,
    dense_gain,
    full_response_from_controller,
    input_free_chain,
    mixed_dims_chain,
    projector,
    reference_projectors,
    response_from_controller,
)


def scalar_model(a=0.5, b=2.0):
    return NetworkModel(
        state_dims=(1,),
        input_dims=(1,),
        a_blocks={(1, 1): np.array([[a]])},
        b_blocks={(1, 1): np.array([[b]])},
    )


def array_bytes(obj, seen=None) -> int:
    """Bytes of the numpy arrays reachable from obj through dataclass fields, tuples and lists."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if dataclasses.is_dataclass(obj):
        obj = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    if isinstance(obj, (list, tuple)):
        return sum(array_bytes(v, seen) for v in obj)
    return 0


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
            got = project_column(projector(op, sub.sub_id), np.zeros(want.shape))
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestResponseFromController:
    def test_zero_gain_gives_open_loop_powers(self):
        model = build_chain_model(2)
        a, _ = dense_dynamics(model)
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
            sub = index.subsystems[i - 1]
            v = rng.normal(size=(sub.col_rows.size, sub.cols.size))
            got = project_column(projector(op, i), v)
            want = self.kkt_reference(model, horizon, sub, v)
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_idempotent(self, six_node_model):
        rng = np.random.default_rng(5)
        index, op = build_operator(six_node_model, d=1, horizon=3)
        for i in range(1, 7):
            sub = index.subsystems[i - 1]
            v = rng.normal(size=(sub.col_rows.size, sub.cols.size))
            once = project_column(projector(op, i), v)
            twice = project_column(projector(op, i), once)
            np.testing.assert_allclose(twice, once, atol=1e-9)

    def test_output_satisfies_constraint_rows(self):
        rng = np.random.default_rng(9)
        model = build_chain_model(3)
        index, op = build_operator(model, d=1, horizon=3)
        z = dense_constraint(model, 3)
        identity = np.eye(z.shape[0], model.n_states)
        for i in range(1, 4):
            sub = index.subsystems[i - 1]
            v = rng.normal(size=(sub.col_rows.size, sub.cols.size))
            psi = project_column(projector(op, i), v)
            np.testing.assert_allclose(z[:, sub.col_rows] @ psi, identity[:, sub.cols], atol=1e-10)

    @pytest.mark.parametrize("d,horizon", [(0, 1), (0, 3), (0, 5), (1, 3), (1, 5)])
    def test_rejects_locality_the_dynamics_cannot_meet(self, cross_fed_chain_model, d, horizon):
        with pytest.raises(ValueError, match=rf"subsystem \d+: .* d={d} .* T={horizon} \(constraint residual"):
            build_operator(cross_fed_chain_model, d, horizon)

    def test_slice_with_more_rows_than_columns_is_named(self):
        # an unactuated hub feeding two unactuated leaves: at d=0 the hub's
        # slice has 4 constraint rows on 2 columns, which no QR route solves
        eye, half = np.array([[1.0]]), np.array([[0.5]])
        model = NetworkModel(
            state_dims=(1, 1, 1),
            input_dims=(0, 0, 0),
            a_blocks={(1, 1): eye, (2, 2): eye, (3, 3): eye, (2, 1): half, (3, 1): half},
            b_blocks={},
        )
        with pytest.raises(ValueError, match=r"^subsystem 1: .* d=0 .* T=1 \(constraint residual"):
            build_operator(model, d=0, horizon=1)

    @pytest.mark.parametrize("d,horizon", [(1, 1), (2, 1), (2, 3), (2, 5)])
    def test_builds_where_the_locality_meets_the_dynamics(self, cross_fed_chain_model, d, horizon):
        index, op = build_operator(cross_fed_chain_model, d, horizon)
        z = dense_constraint(cross_fed_chain_model, horizon)
        identity = np.eye(z.shape[0], cross_fed_chain_model.n_states)
        for sub in index.subsystems:
            offset = projector(op, sub.sub_id).offset
            np.testing.assert_allclose(z[:, sub.col_rows] @ offset, identity[:, sub.cols], atol=1e-10)

    @pytest.mark.parametrize("model,d,horizon", [
        ("chain8", 0, 3), ("chain8", 1, 5), ("chain8", 2, 5), ("six_node_model", 1, 3),
        ("cross_fed_chain_model", 2, 1), ("cross_fed_chain_model", 2, 3), ("cross_fed_chain_model", 2, 5),
        ("mixed", 1, 3), ("mixed", 2, 3), ("input-free", 1, 3), ("input-free", 2, 3),
    ])
    def test_projectors_match_the_pinv_reference(self, request, model, d, horizon):
        # the chain and six-node slices have independent rows (QR route),
        # every cross-fed one dependent rows (SVD route).  The mixed chain's
        # subsystems differ in state and input dimension and the input-free
        # chain's subsystem 2 has no input; one slice of each takes the SVD
        # route at d=1.  Neither meets the dynamics at d=0, which the chain
        # covers.
        builders = {"chain8": lambda: build_chain_model(8), "mixed": mixed_dims_chain, "input-free": input_free_chain}
        model = builders[model]() if model in builders else request.getfixturevalue(model)
        index, op = build_operator(model, d, horizon)
        for sub, (gain, offset) in zip(index.subsystems, reference_projectors(model, index)):
            proj = projector(op, sub.sub_id)
            np.testing.assert_allclose(dense_gain(proj), gain, rtol=0, atol=1e-12)
            np.testing.assert_allclose(proj.offset, offset, rtol=0, atol=1e-12)

    def test_independent_slices_take_no_svd(self, monkeypatch, cross_fed_chain_model):
        class SvdCalled(Exception):
            pass

        def refuse(*args, **kwargs):
            raise SvdCalled

        for name in ("svd", "pinv"):
            monkeypatch.setattr(sls.np.linalg, name, refuse)
        build_operator(build_chain_model(8), d=1, horizon=5)
        # a slice with dependent rows takes the pseudo-inverse
        with pytest.raises(SvdCalled):
            build_operator(cross_fed_chain_model, d=2, horizon=3)

    def test_operator_stores_each_projector_once(self, cross_fed_chain_model):
        # every member's map is its class's shared map or a view into its
        # class's stacks, and nothing else holds array memory: each distinct
        # map is stored once, with no copy beside the classes and no stored views
        chains = [(build_chain_model(n), 1, 5) for n in (1, 2, 8)]
        for model, d, horizon in chains + [(cross_fed_chain_model, 2, 3)]:
            index, op = build_operator(model, d, horizon)
            distinct = {}
            for sub in index.subsystems:
                proj = projector(op, sub.sub_id)
                cls = next(c for c, ids in zip(op.classes, op.members) if sub.sub_id in ids)
                assert np.shares_memory(proj.basis, cls.basis)
                assert np.shares_memory(proj.offset, cls.offset)
                assert proj.offset.shape == (sub.col_rows.size, sub.cols.size)
                key = (proj.basis.shape, proj.basis.tobytes(), proj.offset.shape, proj.offset.tobytes())
                distinct[key] = proj.basis.nbytes + proj.offset.nbytes
            assert array_bytes(op) == sum(distinct.values())

    @pytest.mark.parametrize("model,d,horizon", [
        ("chain8", 1, 5), ("chain8", 2, 3), ("cross_fed_chain_model", 2, 3),
    ])
    def test_bases_are_orthonormal_and_span_the_null_space(self, request, model, d, horizon):
        # the chain's slices take the QR route, the cross-fed ones the SVD route;
        # the basis width is the null width of the slice of the dense constraint
        model = build_chain_model(8) if model == "chain8" else request.getfixturevalue(model)
        index, op = build_operator(model, d, horizon)
        z = dense_constraint(model, horizon)
        for sub in index.subsystems:
            basis = projector(op, sub.sub_id).basis
            z_i = z[:, sub.col_rows]
            assert basis.shape == (sub.col_rows.size, sub.col_rows.size - np.linalg.matrix_rank(z_i))
            np.testing.assert_allclose(basis.T @ basis, np.eye(basis.shape[1]), rtol=0, atol=1e-12)
            np.testing.assert_allclose(z_i @ basis, 0.0, rtol=0, atol=1e-12)

    def test_operator_holds_the_null_width_not_a_square_gain(self):
        # N=200 chain, d=1, T=5: each distinct map holds m * f + m * c floats,
        # f the null width of its slice, against the m * m a dense gain would
        # take, and the 196 interior subsystems share one map, so the operator
        # holds under 5% of one map per subsystem
        model = build_chain_model(200)
        index, op = build_operator(model, d=1, horizon=5)
        csc = stacked_constraint(model, 5).tocsc()
        distinct, per_sub, square = {}, 0, 0
        for sub in index.subsystems:
            m, c = sub.col_rows.size, sub.cols.size
            f = m - np.linalg.matrix_rank(csc[:, sub.col_rows].toarray())
            proj = projector(op, sub.sub_id)
            distinct[proj.basis.tobytes(), proj.offset.tobytes()] = 8 * (m * f + m * c)
            per_sub += 8 * (m * f + m * c)
            square += 8 * m * m
        assert array_bytes(op) == sum(distinct.values())
        assert per_sub < square / 3
        assert array_bytes(op) < 0.05 * per_sub

    def test_slices_share_a_map_only_when_equal_bit_for_bit(self):
        # one ulp on one entry of an interior A block: the slices that store
        # it get maps of their own, the other interior slices still share the
        # stock chain's map, and every map matches the pinv reference
        chain, horizon = build_chain_model(12), 5
        a_blocks = dict(chain.a_blocks)
        a_blocks[6, 6] = a_blocks[6, 6].copy()
        a_blocks[6, 6][0, 0] = np.nextafter(a_blocks[6, 6][0, 0], np.inf)
        model = dataclasses.replace(chain, a_blocks=a_blocks)
        _, stock = build_operator(chain, 1, horizon)
        index, op = build_operator(model, 1, horizon)
        # the entry sits in Z's column of node 6's first state at every step
        n, col = model.n_states, index.subsystems[5].cols[0]
        touching = {sub.sub_id for sub in index.subsystems
                    if np.isin(np.arange(horizon) * n + col, sub.col_rows).any()}
        assert touching == {5, 6, 7}
        ((shared_ids, shared),) = [(ids, c) for c, ids in zip(stock.classes, stock.members) if c.offset.ndim == 2]
        assert shared_ids == tuple(range(3, 11))
        ((ids, cls),) = [(ids, c) for c, ids in zip(op.classes, op.members) if c.offset.ndim == 2]
        assert ids == (3, 4, 8, 9, 10)
        assert cls.basis.tobytes() == shared.basis.tobytes() and cls.offset.tobytes() == shared.offset.tobytes()
        for i in touching:
            assert next(c for c, ids in zip(op.classes, op.members) if i in ids).offset.ndim == 3
        for sub, (gain, offset) in zip(index.subsystems, reference_projectors(model, index)):
            proj = projector(op, sub.sub_id)
            np.testing.assert_allclose(dense_gain(proj), gain, rtol=0, atol=1e-12)
            np.testing.assert_allclose(proj.offset, offset, rtol=0, atol=1e-12)

    def test_rejects_bad_shape(self):
        model = build_chain_model(3)
        _, op = build_operator(model, d=1, horizon=3)
        with pytest.raises(ValueError):
            project_column(projector(op, 1), np.zeros((2, 2)))

    def test_rejects_wrong_column_count(self):
        # right row count, one column for a two-column subsystem: broadcasting
        # must not stretch it to two columns
        model = build_chain_model(4)
        index, op = build_operator(model, d=1, horizon=3)
        sub = index.subsystems[1]
        assert sub.cols.size == 2
        with pytest.raises(ValueError, match="shape"):
            project_column(projector(op, 2), np.zeros((sub.col_rows.size, 1)))
