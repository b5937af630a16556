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
    packet_within_locality,
)
from oracles import dense_dynamics, input_free_chain, mixed_dims_chain, reach


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


def hop_sets(graph, model, d):
    """Each subsystem's d-hop in-set, read twice off the index.

    Once as the owners of the columns that its state rows reach at locality
    d, once (for d >= 1) as ``in_sets_ext`` at locality d - 1; the two must
    agree.
    """
    idx = build_locality_index(graph, model, d, 1)
    owner = np.repeat(np.arange(1, model.n_subsystems + 1), model.state_dims)
    state_rows = [s.row_mask[s.rows < model.n_states * (idx.horizon + 1)] for s in idx.subsystems]
    sets = [frozenset(owner[s.row_cols[m.any(axis=0)]].tolist()) for s, m in zip(idx.subsystems, state_rows)]
    if d >= 1:
        assert list(build_locality_index(graph, model, d - 1, 1).in_sets_ext) == sets
    return sets


def out_sets(in_sets):
    """The transpose of the in-sets: who each subsystem reaches."""
    return [frozenset(i for i, s in enumerate(in_sets, start=1) if j in s) for j in range(1, len(in_sets) + 1)]


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
        # subsystem 2 owns state rows only
        sub = build_locality_index(build_graph(m), m, 0, 2).subsystems[1]
        assert sub.rows.tolist() == [1, 3, 5]


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

    def test_couplings_are_the_stored_blocks(self, six_node_model, cross_fed_chain_model):
        # the assembly pass notes each block that stores an entry; the graph's edges are those
        for m in (build_chain_model(6), six_node_model, cross_fed_chain_model, input_free_chain(), mixed_dims_chain()):
            stored = {key for blocks in (m.a_blocks, m.b_blocks) for key, blk in blocks.items() if np.any(blk)}
            assert m.couplings == build_graph(m).edges == stored
        assert six_node_model.couplings == {(1, 2), (2, 1), (3, 2), (4, 3), (4, 5), (5, 3), (5, 4), (6, 5),
                                            *((i, i) for i in range(1, 7))}

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

    def test_six_node_reach_sets(self, six_node_model, six_node_graph):
        in1, in2 = (hop_sets(six_node_graph, six_node_model, d) for d in (1, 2))
        assert in1[4] == frozenset({3, 4, 5})
        assert out_sets(in1)[4] == frozenset({4, 5, 6})
        assert in2[4] == frozenset({2, 3, 4, 5})
        assert out_sets(in2)[4] == frozenset({4, 5, 6})

    def test_self_membership_always(self, six_node_model, six_node_graph):
        for d in range(4):
            in_sets = hop_sets(six_node_graph, six_node_model, d)
            near = reach(six_node_model, d)
            for i in range(1, 7):
                assert i in in_sets[i - 1] and i in out_sets(in_sets)[i - 1]
                assert in_sets[i - 1] == set(np.flatnonzero(near[i - 1]) + 1)

    def test_zero_radius(self, six_node_model, six_node_graph):
        in_sets = hop_sets(six_node_graph, six_node_model, 0)
        assert in_sets[1] == frozenset({2})
        assert in_sets == out_sets(in_sets) == [frozenset({i}) for i in range(1, 7)]

    def test_chain_sets(self):
        m = build_chain_model(5)
        g = build_graph(m)
        assert hop_sets(g, m, 1)[2] == frozenset({2, 3, 4})
        assert out_sets(hop_sets(g, m, 1))[2] == frozenset({2, 3, 4})
        assert hop_sets(g, m, 2)[0] == frozenset({1, 2, 3})


class TestLocalityIndex:
    def test_row_layout(self, six_node_index):
        idx = six_node_index
        # time-major state rows, then time-major input rows
        assert idx.n_rows == 6 * 4 + 6 * 3
        sub = idx.subsystems[4]
        t_hor, n = idx.horizon, idx.n_states
        expected_state_rows = [t * n + 4 for t in range(t_hor + 1)]
        expected_input_rows = [n * (t_hor + 1) + t * 6 + 4 for t in range(t_hor)]
        is_state = sub.rows < n * (t_hor + 1)
        assert sub.rows[is_state].tolist() == expected_state_rows
        assert sub.rows[~is_state].tolist() == expected_input_rows

    @pytest.mark.parametrize("name", ["mixed", "input-free"])
    @pytest.mark.parametrize("d", [0, 1, 2])
    @pytest.mark.parametrize("horizon", [1, 3])
    def test_uneven_models_match_the_reference_mask(self, name, d, horizon, reference_mask):
        # unequal state and input dimensions (mixed) and a subsystem with no
        # input (subsystem 2 of both): rows, columns, masks and column
        # partitions against the mask built from Boolean reachability
        model = {"mixed": mixed_dims_chain, "input-free": input_free_chain}[name]()
        n, p = model.n_states, model.n_inputs
        idx = build_locality_index(build_graph(model), model, d, horizon)
        mask, far = reference_mask(model, d, horizon), reach(model, d + 1)
        rebuilt, covered = np.zeros(mask.shape, dtype=bool), np.zeros(mask.shape, dtype=int)
        for sub in idx.subsystems:
            i = sub.sub_id
            xi = model.state_offsets[i - 1] + np.arange(model.state_dims[i - 1])
            ui = model.input_offsets[i - 1] + np.arange(model.input_dims[i - 1])
            is_state = sub.rows < n * (horizon + 1)
            assert sub.rows[is_state].tolist() == [t * n + x for t in range(horizon + 1) for x in xi]
            assert sub.rows[~is_state].tolist() == [
                n * (horizon + 1) + t * p + u for t in range(horizon) for u in ui
            ]
            np.testing.assert_array_equal(sub.cols, xi)
            np.testing.assert_array_equal(sub.row_cols, np.flatnonzero(np.repeat(far[i - 1], model.state_dims)))
            np.testing.assert_array_equal(sub.row_mask, mask[np.ix_(sub.rows, sub.row_cols)])
            np.testing.assert_array_equal(sub.col_rows, np.flatnonzero(mask[:, sub.cols].any(axis=1)))
            rebuilt[np.ix_(sub.rows, sub.row_cols)] = sub.row_mask
            covered[np.ix_(sub.col_rows, sub.cols)] += 1
        np.testing.assert_array_equal(rebuilt, mask)
        assert np.all(covered[mask] == 1) and np.all(covered[~mask] == 0)

    def test_masks_follow_reach_sets(self, six_node_model, six_node_graph, reference_mask):
        idx = build_locality_index(six_node_graph, six_node_model, d=1, horizon=2)
        sub = idx.subsystems[4]
        ref = reference_mask(six_node_model, d=1, horizon=2)
        assert ref.shape == (idx.n_rows, 6)
        for r, row in enumerate(sub.rows):
            allowed = set(sub.row_cols[sub.row_mask[r]].tolist())
            assert allowed == set(np.flatnonzero(ref[row]).tolist())
            if row < idx.n_states * (idx.horizon + 1):
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
            is_state = sub.rows < idx.n_states * (idx.horizon + 1)
            allowed = set(sub.row_cols[np.where(sub.row_mask[is_state][0])[0]].tolist())
            expected = set(np.flatnonzero(np.repeat(reach(model, idx.d)[sub.sub_id - 1], model.state_dims)).tolist())
            assert allowed == expected
            # input rows use the full extended footprint
            assert np.all(sub.row_mask[~is_state])

        # hop sets and coupled slices against adjacency powers, also on the
        # directed six-node graph, where in-sets and out-sets differ
        horizon = 2
        for model in (model, six_node_model):
            graph = build_graph(model)
            for d in range(4):
                near, far = reach(model, d), reach(model, d + 1)
                mask = reference_mask(model, d, horizon)
                idx = build_locality_index(graph, model, d, horizon)
                in_sets = hop_sets(graph, model, d)
                for sub in idx.subsystems:
                    i = sub.sub_id
                    assert in_sets[i - 1] == set(np.flatnonzero(near[i - 1]) + 1)
                    assert out_sets(in_sets)[i - 1] == set(np.flatnonzero(near[:, i - 1]) + 1)
                    assert idx.in_sets_ext[i - 1] == set(np.flatnonzero(far[i - 1]) + 1)
                    assert out_sets(idx.in_sets_ext)[i - 1] == set(np.flatnonzero(far[:, i - 1]) + 1)
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
        for bad in (2.0, True, "2"):
            packet = ExchangePacket(1, bad, Phase.MEASUREMENT, None, np.arange(1), np.zeros(1))
            with pytest.raises(ValueError, match=rf"^subsystem id must be an integer, got {bad!r}$"):
                packet_within_locality(packet, idx)
        assert packet_within_locality(ExchangePacket(np.int64(2), 1, Phase.MEASUREMENT, None,
                                                     np.arange(1), np.zeros(1)), idx)
        # the hop sets it reads hold plain ints
        assert all(type(j) is int for in_set in idx.in_sets_ext for j in in_set)

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

    @pytest.mark.parametrize("graph", ["edge-dropped", "chain"])
    def test_graph_must_carry_every_coupling(self, graph, six_node_model, six_node_graph):
        # both once built an index without the coupling 3 -> 5 that the model stores
        graph = {"edge-dropped": Graph(6, six_node_graph.edges - {(5, 3)}),
                 "chain": build_graph(build_chain_model(6))}[graph]
        with pytest.raises(ModelValidationError, match=r"^graph has no edge \(5, 3\), but the model stores an entry "
                                                       r"in block \(5, 3\)$"):
            build_locality_index(graph, six_node_model, d=1, horizon=3)

    def test_a_wider_graph_is_accepted(self, six_node_model, six_node_graph):
        # an edge the model does not need only widens the footprint
        wider = build_locality_index(Graph(6, six_node_graph.edges | {(1, 6), (6, 1)}), six_node_model, 1, 3)
        index = build_locality_index(six_node_graph, six_node_model, 1, 3)
        assert all(a <= b for a, b in zip(index.in_sets_ext, wider.in_sets_ext))
        assert index.in_sets_ext[0] == {1, 2} and wider.in_sets_ext[0] == {1, 2, 5, 6}

    def test_locality_zero_restricts_to_self(self, six_node_model, six_node_graph, reference_mask):
        idx = build_locality_index(six_node_graph, six_node_model, d=0, horizon=2)
        sub = idx.subsystems[0]
        state_rows = sub.row_mask[sub.rows < idx.n_states * (idx.horizon + 1)]
        assert all(set(sub.row_cols[m].tolist()) == {0} for m in state_rows)
        ref = reference_mask(six_node_model, d=0, horizon=2)
        assert set(np.flatnonzero(ref[0]).tolist()) == {0}

    def test_package_version(self):
        assert dlmpc.__version__
