"""Model validation, graph reachability sets and index-set construction."""
import numpy as np
import pytest
import scipy.sparse as sp

import dlmpc
from dlmpc import (
    ExchangePacket,
    Graph,
    ModelValidationError,
    NetworkModel,
    Phase,
    build_chain_model,
    build_graph,
    build_locality_index,
    d_in_set,
    d_out_set,
    packet_within_locality,
)
from oracles import dense_dynamics, input_free_chain, reach


def unactuated_hub():
    """An unactuated hub feeding two unactuated leaves: a model without inputs."""
    eye, half = np.array([[1.0]]), np.array([[0.5]])
    return NetworkModel(
        state_dims=(1, 1, 1),
        input_dims=(0, 0, 0),
        a_blocks={(1, 1): eye, (2, 2): eye, (3, 3): eye, (2, 1): half, (3, 1): half},
        b_blocks={},
    )


def zero_entries_model():
    """A present but all-zero block (A and B at (2, 1)) and -0.0 entries."""
    return NetworkModel(
        state_dims=(2, 1),
        input_dims=(1, 1),
        a_blocks={
            (1, 1): np.array([[1.0, -0.0], [0.0, 0.9]]),
            (2, 2): np.array([[0.8]]),
            (2, 1): np.zeros((1, 2)),
            (1, 2): np.array([[-0.0], [0.3]]),
        },
        b_blocks={(1, 1): np.array([[0.0], [1.0]]), (2, 2): np.array([[1.0]]), (2, 1): np.array([[-0.0]])},
    )


def two_node_model():
    return NetworkModel(
        state_dims=(2, 1),
        input_dims=(1, 1),
        a_blocks={
            (1, 1): np.array([[1.0, 0.1], [0.0, 0.9]]),
            (2, 2): np.array([[0.8]]),
            (2, 1): np.array([[0.2, 0.0]]),
        },
        b_blocks={(1, 1): np.array([[0.0], [1.0]]), (2, 2): np.array([[1.0]])},
    )


class TestNetworkModel:
    def test_dimensions(self):
        m = two_node_model()
        assert m.n_subsystems == 2
        assert m.n_states == 3
        assert m.n_inputs == 2
        assert m.state_offsets == (0, 2)
        assert m.input_offsets == (0, 1)
        assert m.state_indices(2).tolist() == [2]
        assert m.input_indices(1).tolist() == [0]

    def test_full_matrices(self):
        m = two_node_model()
        a = np.array([[1.0, 0.1, 0.0], [0.0, 0.9, 0.0], [0.2, 0.0, 0.8]])
        b = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(m.a.toarray(), a)
        np.testing.assert_array_equal(m.b.toarray(), b)

    @pytest.mark.parametrize(
        "model",
        ["chain", "six_node_model", "cross_fed_chain_model", "input_free", "no_input", "zero_entries"],
    )
    def test_assembly_matches_the_dense_rebuild(self, model, request):
        model = {
            "chain": lambda: build_chain_model(5),
            "input_free": input_free_chain,
            "no_input": unactuated_hub,
            "zero_entries": zero_entries_model,
        }.get(model, lambda: request.getfixturevalue(model))()
        for got, want in zip((model.a, model.b), dense_dynamics(model)):
            assert isinstance(got, sp.coo_matrix)
            np.testing.assert_array_equal(got.toarray(), want)
            # only nonzero entries are stored: not a zero block's, not a -0.0
            assert got.nnz == np.count_nonzero(want)
        blocks = [*model.a_blocks.items(), *model.b_blocks.items()]
        assert build_graph(model).edges == {key for key, blk in blocks if np.any(blk != 0.0)}

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("state_dims", (2.7,), r"state_dims\[0\] must be an integer, got 2\.7"),
            ("input_dims", (True,), r"input_dims\[0\] must be an integer, got True"),
            ("a_blocks", {(1.9, 1): np.eye(2)}, r"a_blocks key \(1\.9, 1\): id must be an integer, got 1\.9"),
            ("b_blocks", {(1, "1"): np.ones((2, 1))}, r"b_blocks key \(1, '1'\): id must be an integer, got '1'"),
        ],
        ids=["state-dim", "input-dim", "a-key", "b-key"],
    )
    def test_sizes_and_keys_must_be_integers(self, field, value, message):
        # a non-integer once built truncated: dims (2,), (1,) and key (1, 1)
        good = dict(state_dims=(2,), input_dims=(1,), a_blocks={(1, 1): np.eye(2)}, b_blocks={})
        with pytest.raises(ValueError, match=f"^{message}$"):
            NetworkModel(**(good | {field: value}))

    def test_rejects_wrong_block_shape(self):
        with pytest.raises(ModelValidationError):
            NetworkModel(
                state_dims=(2,),
                input_dims=(1,),
                a_blocks={(1, 1): np.zeros((2, 3))},
                b_blocks={(1, 1): np.zeros((2, 1))},
            )

    def test_rejects_out_of_range_key(self):
        with pytest.raises(ModelValidationError):
            NetworkModel(
                state_dims=(1,),
                input_dims=(1,),
                a_blocks={(1, 2): np.ones((1, 1))},
                b_blocks={},
            )

    @pytest.mark.parametrize("kind", ["a", "b"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_block(self, kind, bad):
        # caught here, not as an SVD failure in the column projectors' set-up
        blocks = {"a": {(1, 1): np.eye(2), (2, 2): np.eye(2)}, "b": {(1, 1): np.ones((2, 1))}}
        blocks[kind][(1, 1)][1, 0] = bad
        with pytest.raises(ModelValidationError, match=rf"^{kind}_blocks\[\(1,1\)\] entry \(1,0\) is {bad}, must be finite$"):
            NetworkModel(state_dims=(2, 2), input_dims=(1, 1), a_blocks=blocks["a"], b_blocks=blocks["b"])

    def test_ids_outside_one_to_n_raise(self):
        # id 0 must not wrap around to the last subsystem
        m = build_chain_model(3)
        index = build_locality_index(build_graph(m), m, 1, 2)
        for i in (0, -1, 4):
            for accessor in (m.state_indices, m.input_indices, index.subsystem):
                with pytest.raises(IndexError, match=rf"^subsystem id {i} outside 1\.\.3$"):
                    accessor(i)

    def test_ids_that_are_not_integers_raise(self):
        # 2.0 must neither name subsystem 2 nor raise a bare TypeError
        m = build_chain_model(3)
        graph = build_graph(m)
        index = build_locality_index(graph, m, 1, 2)
        accessors = (m.state_indices, m.input_indices, index.subsystem,
                     lambda i: d_in_set(graph, i, 1), lambda i: d_out_set(graph, i, 1))
        for i in (2.0, True, "2"):
            for accessor in accessors:
                with pytest.raises(ValueError, match=rf"^subsystem id must be an integer, got {i!r}$"):
                    accessor(i)
        # numpy integers count, and the hop sets hold plain ints
        assert index.subsystem(np.int64(2)) is index.subsystem(2)
        assert all(type(j) is int for j in d_in_set(graph, np.int64(2), 1))

    def test_rejects_nonpositive_state_dim(self):
        with pytest.raises(ModelValidationError):
            NetworkModel(state_dims=(0,), input_dims=(1,), a_blocks={}, b_blocks={})

    def test_zero_input_subsystem_allowed(self):
        m = NetworkModel(
            state_dims=(1, 1),
            input_dims=(1, 0),
            a_blocks={(1, 1): np.ones((1, 1)), (2, 1): np.ones((1, 1))},
            b_blocks={(1, 1): np.ones((1, 1))},
        )
        assert m.n_inputs == 1
        assert m.input_indices(2).size == 0


class TestGraph:
    def test_edges_from_nonzero_blocks(self, six_node_model, six_node_graph):
        g = build_graph(two_node_model())
        assert g.n_vertices == 2
        # subsystem 2 depends on 1 through its coupling block, not 1 on 2
        assert g.edges == {(1, 1), (2, 2), (2, 1)}
        # the fixture's graph is written from the couplings, apart from build_graph
        assert build_graph(six_node_model) == six_node_graph

    @pytest.mark.parametrize("n_vertices, edges, error, message", [
        (3, {(1.7, 2)}, ValueError, "subsystem id must be an integer, got 1.7"),
        (3, {(True, 3)}, ValueError, "subsystem id must be an integer, got True"),
        (3, {(1, 4)}, IndexError, r"subsystem id 4 outside 1\.\.3"),
        (3, {(0, 1)}, IndexError, r"subsystem id 0 outside 1\.\.3"),
        (2.5, set(), ValueError, "n_vertices must be an integer, got 2.5"),
        (True, set(), ValueError, "n_vertices must be an integer, got True"),
    ], ids=["float-id", "bool-id", "id-above-n", "id-zero", "float-count", "bool-count"])
    def test_ids_are_checked(self, n_vertices, edges, error, message):
        # a float or bool id must not be truncated to another subsystem's
        with pytest.raises(error, match=rf"^{message}$"):
            Graph(n_vertices=n_vertices, edges=edges)
        graph = Graph(n_vertices=np.int64(3), edges={(np.int64(2), 1)})
        assert graph.n_vertices == 3 and graph.edges == {(2, 1)}
        assert all(type(v) is int for edge in graph.edges for v in edge)

    def test_zero_block_makes_no_edge(self):
        m = NetworkModel(
            state_dims=(1, 1),
            input_dims=(1, 1),
            a_blocks={
                (1, 1): np.ones((1, 1)),
                (2, 2): np.ones((1, 1)),
                (2, 1): np.zeros((1, 1)),
            },
            b_blocks={(1, 1): np.ones((1, 1)), (2, 2): np.ones((1, 1))},
        )
        assert build_graph(m).edges == {(1, 1), (2, 2)}

    def test_six_node_reach_sets(self, six_node_graph):
        g = six_node_graph
        assert d_in_set(g, 5, 1) == frozenset({3, 4, 5})
        assert d_out_set(g, 5, 1) == frozenset({4, 5, 6})
        assert d_in_set(g, 5, 2) == frozenset({2, 3, 4, 5})
        assert d_out_set(g, 5, 2) == frozenset({4, 5, 6})

    def test_self_membership_always(self, six_node_graph):
        for i in range(1, 7):
            for d in range(4):
                assert i in d_in_set(six_node_graph, i, d)
                assert i in d_out_set(six_node_graph, i, d)

    def test_zero_radius(self, six_node_graph):
        assert d_in_set(six_node_graph, 2, 0) == frozenset({2})

    def test_chain_sets(self):
        g = build_graph(build_chain_model(5))
        assert d_in_set(g, 3, 1) == frozenset({2, 3, 4})
        assert d_out_set(g, 3, 1) == frozenset({2, 3, 4})
        assert d_in_set(g, 1, 2) == frozenset({1, 2, 3})

    def test_hop_count_must_be_an_integer(self):
        g = build_graph(build_chain_model(4))
        for hop_set in (d_in_set, d_out_set):
            for bad in (True, 1.5, None):
                with pytest.raises(ValueError, match=rf"^hop count must be an integer, got {bad!r}$"):
                    hop_set(g, 1, bad)
            assert hop_set(g, 1, np.int64(1)) == frozenset({1, 2})

    def test_bad_vertex_raises(self, six_node_graph):
        with pytest.raises(IndexError):
            d_in_set(six_node_graph, 7, 1)
        with pytest.raises(ValueError):
            d_out_set(six_node_graph, 1, -1)


class TestLocalityIndex:
    def test_row_layout(self, six_node_index):
        idx = six_node_index
        # time-major state rows, then time-major input rows
        assert idx.n_rows == 6 * 4 + 6 * 3
        sub = idx.subsystem(5)
        t_hor, n = idx.horizon, idx.n_states
        expected_state_rows = [t * n + 4 for t in range(t_hor + 1)]
        expected_input_rows = [n * (t_hor + 1) + t * 6 + 4 for t in range(t_hor)]
        assert sub.rows[sub.row_is_state].tolist() == expected_state_rows
        assert sub.rows[~sub.row_is_state].tolist() == expected_input_rows

    def test_masks_follow_reach_sets(self, six_node_model, six_node_graph, reference_mask):
        idx = build_locality_index(six_node_graph, six_node_model, d=1, horizon=2)
        sub = idx.subsystem(5)
        ref = reference_mask(six_node_model, d=1, horizon=2)
        assert ref.shape == (idx.n_rows, 6)
        for r, row in enumerate(sub.rows):
            allowed = set(sub.row_cols[sub.row_mask[r]].tolist())
            assert allowed == set(np.flatnonzero(ref[row]).tolist())
            if sub.row_is_state[r]:
                # state row of node 5 may touch columns of its 1-hop incoming set
                assert allowed == {2, 3, 4}
            else:
                # input row of node 5 may touch columns of its 2-hop incoming set
                assert allowed == {1, 2, 3, 4}

    def test_row_partition_covers_rows_once(self, six_node_index):
        idx = six_node_index
        seen = np.concatenate([s.rows for s in idx.subsystems])
        assert sorted(seen.tolist()) == list(range(idx.n_rows))

    def test_row_mask_matches_global_mask(self, six_node_model, six_node_index, reference_mask):
        idx = six_node_index
        rebuilt = np.zeros((idx.n_rows, idx.n_states), dtype=bool)
        for sub in idx.subsystems:
            rebuilt[np.ix_(sub.rows, sub.row_cols)] = sub.row_mask
        ref = reference_mask(six_node_model, idx.d, idx.horizon)
        np.testing.assert_array_equal(rebuilt, ref)

    def test_column_partition_covers_allowed_entries(self, six_node_model, six_node_index, reference_mask):
        idx = six_node_index
        covered = np.zeros((idx.n_rows, idx.n_states), dtype=int)
        for sub in idx.subsystems:
            covered[np.ix_(sub.col_rows, sub.cols)] += 1
        mask = reference_mask(six_node_model, idx.d, idx.horizon)
        # each allowed entry is owned by exactly one column partition
        assert np.all(covered[mask] == 1)
        # column partitions never extend beyond the allowed pattern
        assert np.all(covered[~mask] == 0)

    def test_chain_index_consistency(self, six_node_model, reference_mask):
        model = build_chain_model(5)
        graph = build_graph(model)
        idx = build_locality_index(graph, model, d=1, horizon=4)
        for sub in idx.subsystems:
            # state rows allow exactly the incoming-set columns
            srows = sub.row_mask[sub.row_is_state]
            allowed = set(sub.row_cols[np.where(srows[0])[0]].tolist())
            expected = set(
                np.concatenate(
                    [model.state_indices(j) for j in d_in_set(graph, sub.sub_id, idx.d)]
                ).tolist()
            )
            assert allowed == expected
            # input rows use the full extended footprint
            assert np.all(sub.row_mask[~sub.row_is_state])

        # hop sets and coupled slices against adjacency powers, also on the
        # directed six-node graph, where in-sets and out-sets differ
        horizon = 2
        for model in (model, six_node_model):
            graph = build_graph(model)
            for d in range(4):
                near, far = reach(model, d), reach(model, d + 1)
                mask = reference_mask(model, d, horizon)
                idx = build_locality_index(graph, model, d, horizon)
                for sub in idx.subsystems:
                    i = sub.sub_id
                    assert d_in_set(graph, i, d) == set(np.flatnonzero(near[i - 1]) + 1)
                    assert d_out_set(graph, i, d) == set(np.flatnonzero(near[:, i - 1]) + 1)
                    assert idx.in_sets_ext[i - 1] == set(np.flatnonzero(far[i - 1]) + 1)
                    np.testing.assert_array_equal(sub.row_cols, np.flatnonzero(mask[sub.rows].any(axis=0)))
                    np.testing.assert_array_equal(sub.col_rows, np.flatnonzero(mask[:, sub.cols].any(axis=1)))
                    np.testing.assert_array_equal(sub.row_mask, mask[np.ix_(sub.rows, sub.row_cols)])
                # measurements and column blocks flow downstream (r reads s's
                # columns), row blocks upstream (to the owners of their columns)
                for s, r in np.ndindex(far.shape):
                    for phase in Phase:
                        packet = ExchangePacket(s + 1, r + 1, phase, None, np.arange(1), np.zeros(1))
                        local = far[s, r] if phase is Phase.ROW_BLOCKS else far[r, s]
                        assert packet_within_locality(packet, idx) == local, (d, s + 1, r + 1, phase)

    def test_packet_ids_are_checked(self):
        # id 0 or -1 must not wrap around to subsystem N's in-set
        model = build_chain_model(6)
        idx = build_locality_index(build_graph(model), model, d=1, horizon=3)
        for phase, s, r in ((Phase.MEASUREMENT, 6, 0), (Phase.ROW_BLOCKS, 0, 6), (Phase.COLUMN_BLOCKS, 6, -1),
                            (Phase.ROW_BLOCKS, 7, 6)):
            packet = ExchangePacket(s, r, phase, None, np.arange(1), np.zeros(1))
            bad = r if s == 6 else s
            with pytest.raises(IndexError, match=rf"^subsystem id {bad} outside 1\.\.6$"):
                packet_within_locality(packet, idx)
        for bad in (2.0, True):
            packet = ExchangePacket(1, bad, Phase.MEASUREMENT, None, np.arange(1), np.zeros(1))
            with pytest.raises(ValueError, match=rf"^subsystem id must be an integer, got {bad!r}$"):
                packet_within_locality(packet, idx)
        assert packet_within_locality(ExchangePacket(np.int64(2), 1, Phase.MEASUREMENT, None,
                                                     np.arange(1), np.zeros(1)), idx)

    def test_locality_and_horizon_must_be_integers(self):
        m = build_chain_model(3)
        graph = build_graph(m)
        for name, d, horizon in (("d", True, 2), ("d", 1.5, 2), ("horizon", 1, 5.0), ("horizon", 1, None)):
            bad = d if name == "d" else horizon
            with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {bad!r}$"):
                build_locality_index(graph, m, d, horizon)
        idx = build_locality_index(graph, m, np.int64(1), np.int64(3))
        assert (idx.d, idx.horizon) == (1, 3)
        assert type(idx.d) is int and type(idx.horizon) is int

    def test_locality_zero_restricts_to_self(self, six_node_model, six_node_graph, reference_mask):
        idx = build_locality_index(six_node_graph, six_node_model, d=0, horizon=2)
        sub = idx.subsystem(1)
        state_rows = sub.row_mask[sub.row_is_state]
        assert all(set(sub.row_cols[m].tolist()) == {0} for m in state_rows)
        ref = reference_mask(six_node_model, d=0, horizon=2)
        assert set(np.flatnonzero(ref[0]).tolist()) == {0}

    def test_package_version(self):
        assert dlmpc.__version__
