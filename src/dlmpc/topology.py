"""Interconnection topology and locality index sets.

A networked linear system ``x(t+1) = A x(t) + B u(t)`` is split into N
subsystems with block-partitioned dynamics, which the model assembles once
into the sparse A and B that every reader uses.  The directed
interconnection graph carries an arrow ``j -> i`` for each of the model's
couplings: the blocks ``(i, j)`` where A or B stores an entry.
Bounded-hop incoming sets of that graph, which must carry every coupling
the model stores, decide which entries of the closed-loop response maps may
be nonzero; each subsystem's row mask states that once (its state rows reach
the d-hop set), and column partitions and outgoing sets are read off as
transposes.  The locality index stores all of it per subsystem: no global
mask of the response map is kept, and a model's offsets are computed once,
when it is built.

Conventions used throughout the package:

* subsystem ids are 1-based (``1 <= i <= N``);
* row/column indices into assembled matrices are 0-based;
* the stacked response map has ``n*(T+1)`` state rows (time-major:
  all components at t=0, then t=1, ...) followed by ``p*T`` input rows
  (time-major), and ``n`` columns, one per initial-state component;
* state rows are localized to ``d`` hops and input rows to ``d+1`` hops.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, pairwise
from numbers import Integral, Real

import numpy as np
import scipy.sparse as sp


class ModelValidationError(ValueError):
    """Inconsistent block dimensions or malformed model data."""


def check_int(name: str, value) -> int:
    """``value`` as an int; ValueError naming ``name`` unless it is an integer.

    numpy integers count; a bool does not.
    """
    # int first: the Integral check alone costs a microsecond, once per block key
    if isinstance(value, bool) or not isinstance(value, (int, Integral)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_real(name: str, value) -> float:
    """``value`` as a float; ValueError naming ``name`` unless it is a real number.

    numpy's reals count; a bool does not.
    """
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def check_id(i: int, n_sub: int) -> int:
    """``i`` as an int; ValueError unless it is an integer, IndexError unless it is in 1..``n_sub``."""
    i = check_int("subsystem id", i)
    if not 1 <= i <= n_sub:
        raise IndexError(f"subsystem id {i} outside 1..{n_sub}")
    return i


def ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges ``starts[k] .. starts[k] + lengths[k] - 1``, concatenated."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - ends + lengths, lengths) + np.arange(lengths.sum())


def _as_block_dict(kind: str, blocks) -> dict:
    out = {}
    for key, val in blocks.items():
        i, j = key
        try:
            i, j = check_int("id", i), check_int("id", j)
        except ValueError as err:
            raise ValueError(f"{kind}_blocks key {key!r}: {err}") from None
        out[(i, j)] = np.asarray(val, dtype=float)
    return out


def _assemble(kind: str, blocks: dict, row_offsets: tuple, col_offsets: tuple) -> tuple:
    """Blocks of checked shapes as one matrix of their nonzero entries, and the keys of the blocks that have one.

    One pass; the offsets end with the total; a non-finite entry raises,
    naming its block and its place in it.
    """
    row_offsets, col_offsets = np.asarray(row_offsets), np.asarray(col_offsets)
    keys = np.array(list(blocks), dtype=np.int64).reshape(-1, 2) - 1
    widths = np.diff(col_offsets)[keys[:, 1]]
    sizes = np.diff(row_offsets)[keys[:, 0]] * widths
    vals = np.concatenate([np.zeros(0), *(blk.ravel() for blk in blocks.values())])
    owner = np.repeat(np.arange(len(keys)), sizes)
    r, c = np.divmod(ranges(0, sizes), widths[owner])
    for e in np.flatnonzero(~np.isfinite(vals))[:1]:
        i, j = keys[owner[e]] + 1
        raise ModelValidationError(f"{kind}_blocks[({i},{j})] entry ({r[e]},{c[e]}) is {vals[e]}, must be finite")
    keep = vals != 0.0
    rows, cols = row_offsets[keys[owner[keep], 0]] + r[keep], col_offsets[keys[owner[keep], 1]] + c[keep]
    stored = np.bincount(owner[keep], minlength=len(keys)) > 0
    return sp.coo_matrix((vals[keep], (rows, cols)), shape=(row_offsets[-1], col_offsets[-1])), keys[stored] + 1


@dataclass(frozen=True)
class NetworkModel:
    """Block-partitioned system matrices with per-subsystem dimensions.

    ``a_blocks`` and ``b_blocks`` map 1-based ``(i, j)`` pairs to dense
    blocks; absent blocks are exactly zero.  ``a_blocks[(i, j)]`` must have
    shape ``(state_dims[i-1], state_dims[j-1])`` and ``b_blocks[(i, j)]``
    shape ``(state_dims[i-1], input_dims[j-1])``, every entry finite, and
    every dimension and block id is an integer.  Fixed at construction: the
    totals ``n_states``/``n_inputs``, the offsets ``state_offsets``/
    ``input_offsets``, the one assembly of A and B that the package reads:
    sparse COO matrices ``a`` (n x n) and ``b`` (n x p) that store no zero
    entry, and the ``couplings``, the keys of the blocks where either does.
    """

    state_dims: tuple
    input_dims: tuple
    a_blocks: dict = field(default_factory=dict)
    b_blocks: dict = field(default_factory=dict)
    n_states: int = field(init=False, repr=False, compare=False)
    n_inputs: int = field(init=False, repr=False, compare=False)
    state_offsets: tuple = field(init=False, repr=False, compare=False)
    input_offsets: tuple = field(init=False, repr=False, compare=False)
    a: sp.coo_matrix = field(init=False, repr=False, compare=False)
    b: sp.coo_matrix = field(init=False, repr=False, compare=False)
    couplings: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("state_dims", "input_dims"):
            dims = tuple(check_int(f"{name}[{k}]", m) for k, m in enumerate(getattr(self, name)))
            object.__setattr__(self, name, dims)
        object.__setattr__(self, "a_blocks", _as_block_dict("a", self.a_blocks))
        object.__setattr__(self, "b_blocks", _as_block_dict("b", self.b_blocks))
        n_sub = len(self.state_dims)
        if n_sub == 0:
            raise ModelValidationError("need at least one subsystem")
        if len(self.input_dims) != n_sub:
            raise ModelValidationError(
                f"state_dims has {n_sub} subsystems but input_dims has "
                f"{len(self.input_dims)}"
            )
        if any(m <= 0 for m in self.state_dims):
            raise ModelValidationError("every subsystem needs at least one state")
        if any(m < 0 for m in self.input_dims):
            raise ModelValidationError("input dimensions must be nonnegative")
        for kind, blocks, dims in (("a", self.a_blocks, self.state_dims), ("b", self.b_blocks, self.input_dims)):
            for (i, j), blk in blocks.items():
                if not (1 <= i <= n_sub and 1 <= j <= n_sub):
                    raise ModelValidationError(f"block key ({i},{j}) outside 1..{n_sub}")
                name, want = f"{kind}_blocks[({i},{j})]", (self.state_dims[i - 1], dims[j - 1])
                if blk.shape != want:
                    raise ModelValidationError(f"{name} has shape {blk.shape}, expected {want}")
        x_offs = tuple(accumulate(self.state_dims, initial=0))
        u_offs = tuple(accumulate(self.input_dims, initial=0))
        a, a_keys = _assemble("a", self.a_blocks, x_offs, x_offs)
        b, b_keys = _assemble("b", self.b_blocks, x_offs, u_offs)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "couplings", frozenset(zip(*np.concatenate([a_keys, b_keys]).T.tolist())))
        object.__setattr__(self, "n_states", x_offs[-1])
        object.__setattr__(self, "n_inputs", u_offs[-1])
        object.__setattr__(self, "state_offsets", x_offs[:-1])
        object.__setattr__(self, "input_offsets", u_offs[:-1])

    @property
    def n_subsystems(self) -> int:
        return len(self.state_dims)


@dataclass(frozen=True)
class Graph:
    """Directed interconnection graph over 1-based subsystem ids.

    An edge ``(i, j)`` records that j influences i, i.e. the arrow runs
    ``j -> i``.  Every vertex implicitly belongs to its own in/out sets
    regardless of self-loop edges.  ``n_vertices`` must be an integer and
    every edge end a subsystem id (:func:`check_id`).
    """

    n_vertices: int
    edges: frozenset

    def __post_init__(self):
        n = check_int("n_vertices", self.n_vertices)
        object.__setattr__(self, "n_vertices", n)
        object.__setattr__(self, "edges", frozenset((check_id(i, n), check_id(j, n)) for i, j in self.edges))


def build_graph(model: NetworkModel) -> Graph:
    """Interconnection graph whose edges are ``model.couplings``.

    A block that is present but identically zero stores no entry and so
    contributes no edge: the edge set matches the exact nonzero support.
    """
    return Graph(n_vertices=model.n_subsystems, edges=model.couplings)


def _hops(pred: list, i: int, d: int) -> dict:
    """Hop count to ``i`` of every subsystem whose influence reaches it within ``d`` hops along ``pred``."""
    hops, frontier = {i: 0}, [i]
    for h in range(1, d + 1):
        frontier = dict.fromkeys(w for v in frontier for w in pred[v] if w not in hops)
        hops.update(dict.fromkeys(frontier, h))
    return hops


@dataclass(frozen=True)
class SubsystemIndex:
    """Index bookkeeping for one subsystem's share of the response map.

    rows            global response-map rows owned by the subsystem (its
                    ``(T+1) * state_dims[i-1]`` state rows for t = 0..T, then
                    its input rows for t = 0..T-1)
    cols            global columns owned (its initial-state components)
    row_cols        coupled column set for the row partition (state columns of
                    the (d+1)-hop incoming set, ascending)
    col_rows        coupled row set for the column partition: the global rows,
                    of any owner, whose ``row_mask`` reaches one of ``cols``
                    (ascending)
    row_mask        boolean (len(rows), len(row_cols)); True where the entry
                    may be nonzero.  State rows only reach columns of the
                    d-hop incoming set, so some of their entries are masked.
    """

    sub_id: int
    rows: np.ndarray
    cols: np.ndarray
    row_cols: np.ndarray
    col_rows: np.ndarray
    row_mask: np.ndarray


@dataclass(frozen=True)
class LocalityIndex:
    """Locality sets and ownership partitions for one (d, T).

    ``in_sets_ext`` holds the (d+1)-hop incoming sets that bound the exchange
    footprint (the outgoing sets are their transpose).  Everything else is per
    subsystem: there is no global mask, and each :class:`SubsystemIndex`
    carries the sparsity pattern of its own rows (``row_mask``).  That pattern
    is the only copy of the locality rule (state rows reach the d-hop incoming
    set, input rows d+1); the column partitions (``col_rows``) are its transpose.
    """

    d: int
    horizon: int
    n_states: int
    n_inputs: int
    in_sets_ext: tuple
    subsystems: tuple

    @property
    def n_rows(self) -> int:
        return self.n_states * (self.horizon + 1) + self.n_inputs * self.horizon


def build_locality_index(graph: Graph, model: NetworkModel, d: int, horizon: int) -> LocalityIndex:
    """Derive ownership partitions, coupled slices and row masks for locality d.

    State rows are d-localized and input rows (d+1)-localized, so the coupled
    column set of a row partition is the state-column footprint of the
    (d+1)-hop incoming set, with state rows masked down to the d-hop subset.
    A column partition holds every row whose mask reaches its columns.  A
    ``d`` or ``horizon`` that is not an integer raises ValueError, and a graph
    that lacks one of ``model.couplings`` raises ModelValidationError naming
    the first (extra edges only widen the footprint).  The arrays
    are built for all subsystems at once, from the model's offsets and the
    hop counts of one incoming search each, then sliced.
    """
    d, horizon = check_int("d", d), check_int("horizon", horizon)
    if d < 0:
        raise ValueError("locality parameter must be nonnegative")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if graph.n_vertices != model.n_subsystems:
        raise ModelValidationError("graph and model disagree on subsystem count")
    for i, j in sorted(model.couplings - graph.edges)[:1]:
        raise ModelValidationError(f"graph has no edge ({i}, {j}), but the model stores an entry in block ({i}, {j})")

    n_sub = model.n_subsystems
    n, p, t_hor = model.n_states, model.n_inputs, horizon
    n_rows = n * (t_hor + 1) + p * t_hor
    x_dim, u_dim = np.asarray(model.state_dims), np.asarray(model.input_dims)
    x_off, u_off = np.asarray(model.state_offsets), np.asarray(model.input_offsets)

    # every subsystem's rows, concatenated: its state components at each
    # time, then its inputs at each time
    starts = np.concatenate([x_off[:, None] + np.arange(t_hor + 1) * n,
                             n * (t_hor + 1) + u_off[:, None] + np.arange(t_hor) * p], axis=1)
    lengths = np.repeat([x_dim, u_dim], [t_hor + 1, t_hor], axis=0).T.ravel()
    rows = ranges(starts.ravel(), lengths)
    n_x = (t_hor + 1) * x_dim
    n_own = n_x + t_hor * u_dim  # rows per subsystem
    row_end = np.cumsum(n_own)

    # one incoming search per subsystem to d+1 hops; its hop counts, in owner
    # order, give the coupled columns and their d-hop subset
    pred = [[] for _ in range(n_sub + 1)]
    for i, j in graph.edges:
        pred[i].append(j)
    in_hops = [_hops(pred, i, d + 1) for i in range(1, n_sub + 1)]
    pairs = np.array([(i, j - 1, h) for i, hops in enumerate(in_hops) for j, h in sorted(hops.items())])
    i, j, near = pairs[:, 0], pairs[:, 1], pairs[:, 2] <= d
    row_cols = ranges(x_off[j], x_dim[j])
    in_d = np.repeat(near, x_dim[j])
    col_end = np.cumsum(x_dim[j])[np.cumsum([len(hops) for hops in in_hops]) - 1]

    # col_rows is the transpose of the masks.  A row of subsystem i reaches
    # every column of each j that i's mask reaches in that row: all of i's
    # rows if j is within d hops, its input rows if j is d+1 away.  Each row
    # has one owner, so each key (column owner, global row) comes up once.
    span = n_own[i] - np.where(near, 0, n_x[i])
    keys = np.repeat(j * n_rows, span) + rows[ranges(row_end[i] - span, span)]
    keys.sort()
    key_end = np.searchsorted(keys, np.arange(1, n_sub + 1, dtype=np.int64) * n_rows)

    bounds = zip(*(pairwise([0, *end.tolist()]) for end in (row_end, col_end, key_end)))
    subsystems = tuple(
        SubsystemIndex(
            sub_id=k + 1,
            rows=rows[r0:r1],
            cols=rows[r0 : r0 + model.state_dims[k]],  # its time-0 state rows
            row_cols=row_cols[c0:c1],
            col_rows=keys[a:b] - k * n_rows,
            row_mask=(rows[r0:r1, None] >= n * (t_hor + 1)) | in_d[c0:c1],  # input rows reach all
        )
        for k, ((r0, r1), (c0, c1), (a, b)) in enumerate(bounds)
    )
    return LocalityIndex(
        d=d,
        horizon=t_hor,
        n_states=n,
        n_inputs=p,
        in_sets_ext=tuple(frozenset(hops) for hops in in_hops),
        subsystems=subsystems,
    )
