"""Shared fixtures: a six-node branching network and an independent locality mask."""
import numpy as np
import pytest

from dlmpc import NetworkModel, build_graph, build_locality_index, d_out_set


@pytest.fixture(scope="session")
def six_node_model():
    """Six scalar subsystems with asymmetric couplings and full actuation.

    Directed dependencies (row depends on column): 1<-2, 2<-1, 3<-2, 4<-3,
    4<-5, 5<-3, 5<-4, 6<-5, plus every self block.
    """
    eye = np.array([[1.0]])
    half = np.array([[0.5]])
    a_blocks = {(i, i): eye for i in range(1, 7)}
    for pair in [(1, 2), (2, 1), (3, 2), (4, 3), (4, 5), (5, 3), (5, 4), (6, 5)]:
        a_blocks[pair] = half
    b_blocks = {(i, i): eye for i in range(1, 7)}
    return NetworkModel(
        state_dims=(1,) * 6,
        input_dims=(1,) * 6,
        a_blocks=a_blocks,
        b_blocks=b_blocks,
    )


@pytest.fixture(scope="session")
def six_node_graph(six_node_model):
    return build_graph(six_node_model)


@pytest.fixture(scope="session")
def six_node_index(six_node_model, six_node_graph):
    return build_locality_index(six_node_graph, six_node_model, d=1, horizon=3)


def _reference_mask(model, graph, d, horizon):
    """Stacked response-map mask rebuilt from the outgoing reach sets.

    Column block j may be nonzero in i's state rows iff i is within d hops
    downstream of j, and in i's input rows iff within d+1 hops.  The same
    mask repeats at every time block.
    """
    n, p = model.n_states, model.n_inputs
    state_part = np.zeros((n, n), dtype=bool)
    input_part = np.zeros((p, n), dtype=bool)
    for j in range(1, model.n_subsystems + 1):
        xj = model.state_indices(j)
        for i in d_out_set(graph, j, d):
            state_part[np.ix_(model.state_indices(i), xj)] = True
        for i in d_out_set(graph, j, d + 1):
            input_part[np.ix_(model.input_indices(i), xj)] = True
    return np.vstack([np.tile(state_part, (horizon + 1, 1)), np.tile(input_part, (horizon, 1))])


@pytest.fixture(scope="session")
def reference_mask():
    """Builder of the global locality mask, independent of the index code."""
    return _reference_mask
