"""Shared fixtures: a six-node branching network and an independent locality mask."""
import numpy as np
import pytest

from dlmpc import Graph, NetworkModel, build_chain_model, build_locality_index
from oracles import reach

# the six-node network's couplings (i, j): subsystem i depends on subsystem j
SIX_NODE_COUPLINGS = ((1, 2), (2, 1), (3, 2), (4, 3), (4, 5), (5, 3), (5, 4), (6, 5))


@pytest.fixture(scope="session")
def six_node_model():
    """Six scalar subsystems with asymmetric couplings and full actuation.

    Directed dependencies (row depends on column): 1<-2, 2<-1, 3<-2, 4<-3,
    4<-5, 5<-3, 5<-4, 6<-5, plus every self block.
    """
    eye = np.array([[1.0]])
    half = np.array([[0.5]])
    a_blocks = {(i, i): eye for i in range(1, 7)}
    for pair in SIX_NODE_COUPLINGS:
        a_blocks[pair] = half
    b_blocks = {(i, i): eye for i in range(1, 7)}
    return NetworkModel(
        state_dims=(1,) * 6,
        input_dims=(1,) * 6,
        a_blocks=a_blocks,
        b_blocks=b_blocks,
    )


@pytest.fixture(scope="session")
def cross_fed_chain_model():
    """Six-node chain whose neighbours feed the unactuated first state.

    The neighbour coupling enters the first state component, which a node's
    own input reaches only one step later, so a disturbance spreads a hop
    before it can be stopped: a locality of d=0 meets the dynamics at no
    horizon, d=1 only at T=1, and d=2 at every horizon tested (1, 3, 5).
    """
    chain = build_chain_model(6)
    neighbor = np.array([[0.1, 0.0], [0.0, 0.0]])
    return NetworkModel(
        state_dims=chain.state_dims,
        input_dims=chain.input_dims,
        a_blocks={k: blk if k[0] == k[1] else neighbor for k, blk in chain.a_blocks.items()},
        b_blocks=chain.b_blocks,
    )


@pytest.fixture(scope="session")
def six_node_graph():
    """The six-node network's graph, written from its couplings and self blocks."""
    return Graph(n_vertices=6, edges=frozenset(SIX_NODE_COUPLINGS) | {(i, i) for i in range(1, 7)})


@pytest.fixture(scope="session")
def six_node_index(six_node_model, six_node_graph):
    return build_locality_index(six_node_graph, six_node_model, d=1, horizon=3)


def _reference_mask(model, d, horizon):
    """Stacked response-map mask rebuilt from Boolean reachability over the model's blocks.

    Column block j may be nonzero in i's state rows iff j reaches i within
    d steps of ``oracles.reach``, and in i's input rows iff within d+1.  The
    same mask repeats at every time block.
    """
    x_owner = np.repeat(np.arange(model.n_subsystems), model.state_dims)
    u_owner = np.repeat(np.arange(model.n_subsystems), model.input_dims)
    state_part = reach(model, d)[np.ix_(x_owner, x_owner)]
    input_part = reach(model, d + 1)[np.ix_(u_owner, x_owner)]
    return np.vstack([np.tile(state_part, (horizon + 1, 1)), np.tile(input_part, (horizon, 1))])


@pytest.fixture(scope="session")
def reference_mask():
    """Builder of the global locality mask, independent of the index code."""
    return _reference_mask
