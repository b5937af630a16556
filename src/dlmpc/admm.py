"""Distributed consensus iteration over row and column partitions.

Each subsystem alternates three local updates on its share of the stacked
response map:

* row step      -- proximal minimization of its local cost rows subject to
                   per-row boxes, solved in closed form (or by the QP solver
                   for the solver-based variant); one stacked phase solves
                   every row of every subsystem, by one point-location call
                   (which region holds each row's optimum) and one call of
                   the regions' affine laws, or by one interior-point solve
                   of every live row, and each subsystem then writes its
                   own rows back;
* column step   -- projection of its column slice onto the dynamics
                   constraint, one precomputed affine map per subsystem;
* multiplier    -- scaled dual ascent on the disagreement between the
                   relaxed row iterate alpha*phi + (1-alpha)*psi_prev and psi.

The column step projects the same relaxed iterate plus lambda
(over-relaxation, Boyd et al. 2011, section 3.4.3), and the network-wide
residual check rebalances rho by powers of two, rescaling lambda with it
(section 3.4.1).  Every step starts at the engine's rho; the stopping test
is ||phi - psi|| <= eps_primal and ||psi - psi_prev|| <= eps_dual whatever
rho has become.

Once rho has held for ``SETTLE`` iterations, psi and lambda take Nesterov
momentum (fast ADMM, Goldstein et al. 2014, Alg. 8): the next row step reads
psi_hat = psi + beta (psi - psi_prev) and lambda_hat likewise.  The momentum
restarts (O'Donoghue and Candes 2015) when the network-wide max of
||lambda - lambda_hat||^2 + ||psi - psi_hat||^2 fails to shrink by ``ETA``;
it keeps the fresh iterate.  The momentum weight a stops growing at
``A_MAX``: uncapped, beta nears 1, the iterate overshoots, and whether the
restart or a rho change catches the overshoot first hinges on a 1e-3 change
of x0, so the iteration count of one step jumps between about 65 and 115 on
the active-box chain.  A rho change or a new step disarms it, and the
stopping test reads the true psi_prev.

The row partitions hold the one copy of (phi, psi, lambda), every row of
every subsystem stacked and padded at its end to the widest block, the
layout the row phases' stacked calls read; the column partitions hold only
the column step's target (the relaxed phi plus lambda), which row owners
send, and its psi, which column owners send back, subsystem blocks
contiguous.  Both lie in subsystem-id order, the per-subsystem matrices
views into them.  The column partitions are the transpose of the row
masks, so every column-buffer entry has one row-buffer source, found by
matching the entry's ``(row, col)`` key: one index array is the whole
exchange plan, and the multiplier step is one row-buffer update.
All exchanges stay inside bounded graph neighborhoods: measurements and
column blocks travel to at most (d+1)-hop outgoing neighbors, row blocks to
at most (d+1)-hop incoming neighbors (input rows couple columns d+1 hops
away, which sets the footprint).  Execution is sequential but
order-independent: phases are barriers, so any subsystem ordering produces
bitwise identical iterates.  Every phase is ``phase(state, i)`` or
``phase(state)`` and moves data only; :meth:`DlmpcEngine.solve_step` orders
and times them by two runners that look the phase up on the instance:
``_each`` runs the row step (only each subsystem's write-back) and
extraction for i = 1..N, charging each call to subsystem i, and ``_all``
the measurement (every row's terms, one stacked call per MPC step), the
stacked row phase of either route, the exchanges, the column step (one
stacked map per slice-shape class), the multiplier step and the
convergence check (momentum included), charging equal shares; a recording
engine reads one iteration's packets off the plan after the step.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .explicit_row import InfeasibleRowError, RowTerms, apply_law, locate, row_terms
from .qp import QpStatus, check_x0, row_qp, solve_qp, stacked_profiles
from .sls import FeasibilityOperator, project_column
from .topology import LocalityIndex, NetworkModel, check_id, check_int, check_real

ALPHA = 1.5  # relaxation weight on the fresh phi
BALANCE = 10.0  # residual ratio beyond which rho moves
RHO_FACTOR = 2.0  # a power of two, so rescaling lambda is exact
SETTLE = 25  # iterations rho must hold before momentum arms
ETA = 0.999  # momentum restarts unless the restart quantity shrinks by this
A_MAX = 4.0  # cap on the momentum weight a, so beta stays at most 0.75


class ConvergenceError(RuntimeError):
    """Iteration cap reached before both residual tests passed."""

    def __init__(self, message, residual_history=None):
        super().__init__(message)
        self.residual_history = residual_history or []


class StalenessError(RuntimeError):
    """Control was requested from a state that has not converged."""


class RowSolverKind(Enum):
    EXPLICIT = "explicit"
    QP = "qp"


class Phase(Enum):
    MEASUREMENT = "measurement"
    ROW_BLOCKS = "row-blocks"
    COLUMN_BLOCKS = "column-blocks"


@dataclass(frozen=True)
class ExchangePacket:
    """One directed message: who sent what slice to whom, in which phase.

    A ``ROW_BLOCKS`` payload is a slice of the last iteration's column-step target, a ``COLUMN_BLOCKS`` one of psi.
    """

    sender: int
    receiver: int
    phase: Phase
    rows: np.ndarray | None
    cols: np.ndarray
    payload: np.ndarray


def packet_within_locality(packet: ExchangePacket, index: LocalityIndex) -> bool:
    """True iff the packet respects the bounded communication footprint.

    Row blocks go to (d+1)-hop incoming neighbors of the sender (the owners of
    the columns the rows touch); measurements and column blocks go the other
    way, to (d+1)-hop outgoing neighbors: the sender is in the receiver's in-set.
    An id that is not an integer raises ValueError, one outside 1..N IndexError.
    """
    sender, receiver = (check_id(i, len(index.subsystems)) for i in (packet.sender, packet.receiver))
    if packet.phase is Phase.ROW_BLOCKS:
        return receiver in index.in_sets_ext[sender - 1]
    return sender in index.in_sets_ext[receiver - 1]


@dataclass
class AdmmState:
    """Per-subsystem row partitions of (phi, psi, lambda) and the column step's workspace.

    ``rows`` (shape ``(4, R, W)``) holds phi, psi, lambda and the previous
    psi of the row partitions, the only copy of the iterate: every
    subsystem's rows stacked in subsystem-id order, each padded at its end
    to the widest block (the padding stays +0).  ``cols`` (shape ``(2, C)``)
    holds the column partitions' target (``ALPHA * phi + (1 - ALPHA) *
    psi_prev + lambda``, the column step's input) and psi (its output), each
    subsystem's block contiguous, in C order and subsystem-id order.
    ``phi_r`` is a tuple of views into phi's layer of the row buffer, each
    subsystem's span of rows cut at its block width, so blocks are written
    in place and cannot be rebound.  ``rho`` is the current
    penalty, by which lambda is scaled.  ``x0`` is the measured state,
    ``packets`` one iteration's :class:`ExchangePacket` list, read off the
    exchange plan after the step (None unless recording).
    :meth:`DlmpcEngine.measure` builds ``terms`` once per MPC step, the
    :func:`row_terms` of every row on the row buffer's layout, which both
    row routes and extraction read.  ``solved``, shaped like one layer of
    ``rows``, holds every row's new phi from the iteration's stacked row
    phase, on either route, until the row steps write it back.
    ``residual_history`` holds one (max primal, max dual) pair per
    iteration, ``per_sub_seconds`` each subsystem's time on this state, and
    ``held`` the iterations since rho last moved.  Once momentum arms,
    ``prev`` holds the last true (psi, lambda) of the row buffer,
    ``nesterov`` the momentum weight a, ``gap`` and ``new_gap`` the last two
    restart quantities; ``extrapolated`` and ``restarts`` count its steps.
    """

    rows: np.ndarray
    cols: np.ndarray
    phi_r: tuple
    rho: float
    iteration: int = 0
    primal: np.ndarray | None = None
    dual: np.ndarray | None = None
    residual_history: list = field(default_factory=list)
    converged: bool = False
    x0: np.ndarray | None = None
    terms: RowTerms | None = None
    solved: np.ndarray | None = None
    packets: list | None = None
    per_sub_seconds: np.ndarray | None = None
    held: int = 0
    prev: np.ndarray | None = None
    nesterov: float = 1.0
    gap: float = np.inf
    new_gap: float = np.inf
    extrapolated: int = 0
    restarts: int = 0


@dataclass
class StepResult:
    """Converged MPC step: the applied input and the state it came from.

    The iteration count, measured state and packets (the measurements and
    one iteration's block packets) are read-only views of ``state``, which
    also holds the residual history and per-subsystem times.
    """

    u: np.ndarray
    state: AdmmState

    iterations = property(lambda self: self.state.iteration)
    x0 = property(lambda self: self.state.x0)
    packets = property(lambda self: self.state.packets)


def _relaxed(phi: np.ndarray, psi_prev: np.ndarray) -> np.ndarray:
    """The over-relaxed row iterate, which the column step and the multiplier read."""
    return ALPHA * phi + (1.0 - ALPHA) * psi_prev


def _entries(heights, widths, row_ids, col_ids) -> tuple:
    """``(row, col)`` ids of every entry of blocks laid out one after another, each in C order.

    Block k has shape ``(heights[k], widths[k])``; ``row_ids`` and ``col_ids``
    are the blocks' row and column ids, concatenated in block order.
    """
    per_row = np.repeat(widths, heights)  # the width of each block row
    ends = np.cumsum(per_row)
    # where each block row's col ids start, less where its entries start
    shift = np.repeat(np.cumsum(widths) - widths, heights) + per_row - ends
    return np.repeat(row_ids, per_row), col_ids[np.repeat(shift, per_row) + np.arange(ends[-1])]


class DlmpcEngine:
    """Bulk-synchronous distributed MPC solver for one scenario.

    Holds everything that is fixed across MPC steps: index sets, column
    projectors, per-row cost/bound profiles and the exchange plan.  The
    profiles are those of :func:`dlmpc.qp.stacked_profiles`, which checks
    them (the centralized baseline reads the same), with the root of each
    row's cost as its weight.  One call to :meth:`solve_step` runs the
    consensus iteration for a measured state and returns the applied input
    with diagnostics.
    """

    def __init__(
        self,
        model: NetworkModel,
        index: LocalityIndex,
        op: FeasibilityOperator,
        *,
        q_diag=None,
        r_diag=None,
        qt_diag=None,
        state_lb=None,
        state_ub=None,
        input_lb=None,
        input_ub=None,
        rho: float = 1.0,
        eps_primal: float = 1e-4,
        eps_dual: float = 1e-4,
        max_iterations: int = 10000,
        row_solver: RowSolverKind = RowSolverKind.EXPLICIT,
        record_packets: bool = False,
    ):
        for name, value in (("rho", rho), ("eps_primal", eps_primal), ("eps_dual", eps_dual)):
            value = check_real(name, value)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        max_iterations = check_int("max_iterations", max_iterations)
        if max_iterations < 1:
            raise ValueError(f"max_iterations must be at least 1, got {max_iterations}")
        if not isinstance(row_solver, RowSolverKind):
            raise ValueError(f"row_solver must be one of {list(RowSolverKind)}, got {row_solver!r}")
        self.model = model
        self.index = index
        self.op = op
        self.rho = float(rho)
        self.eps_primal = float(eps_primal)
        self.eps_dual = float(eps_dual)
        self.max_iterations = max_iterations
        self.row_solver = row_solver
        self.record_packets = record_packets

        n = model.n_states
        cost, lo, hi = stacked_profiles(
            n, model.n_inputs, index.horizon, q_diag, r_diag, qt_diag, state_lb, state_ub, input_lb, input_ub
        )
        subs = index.subsystems
        # block shapes of the row and column partitions, and the column buffer's flat offsets
        self._shapes = {
            "r": [(s.rows.size, s.row_cols.size) for s in subs],
            "c": [(s.col_rows.size, s.cols.size) for s in subs],
        }
        self._col_offsets = np.concatenate(([0], np.cumsum([a * b for a, b in self._shapes["c"]])))
        joined = lambda attr: np.concatenate([getattr(s, attr) for s in subs])
        heights, widths = np.array(self._shapes["r"]).T
        # every subsystem's rows stacked in subsystem-id order: their global
        # rows, each subsystem's span of them, and their lo, hi and weight
        self._stack_rows = joined("rows")
        self._ends = np.cumsum(heights)
        self._spans = [slice(end - h, end) for h, end in zip(heights.tolist(), self._ends.tolist())]
        self._boxes = tuple(v[self._stack_rows] for v in (lo, hi, np.sqrt(cost)))
        # the row buffer's layout, the stacked rows padded at their ends to the
        # widest block, and where each subsystem's span starts
        self._widest = int(widths.max())
        on_row = np.arange(self._widest) < np.repeat(widths, heights)[:, None]
        self._starts = (self._ends - heights) * self._widest
        # each row-buffer entry's key row * n + col, which names it in either
        # buffer (-1 on the padding), and its x0 component: n (a +0 appended
        # to x0) off the row's mask, n + 1 (a -0) on the padding
        rows, cols = _entries(heights, widths, self._stack_rows, joined("row_cols"))
        self._row_keys = np.full(on_row.size, -1)
        self._row_keys[on_row.ravel()] = rows * n + cols
        self._x0_at = np.full(on_row.shape, n + 1)
        self._x0_at[on_row] = np.where(np.concatenate([s.row_mask.ravel() for s in subs]), cols, n)
        self._mask = self._x0_at < n  # the row masks on the padded layout
        col_entries = _entries(*np.array(self._shapes["c"]).T, joined("col_rows"), joined("cols"))
        self._src = self._build_exchange_plan(on_row, cols, col_entries)
        # each shape class's column blocks in member order, one slice if consecutive
        self._class_at = []
        for cls, ids in zip(op.classes, op.members):
            at = (self._col_offsets[np.array(ids) - 1, None] + np.arange(cls.offset[0].size)).ravel()
            self._class_at.append(slice(at[0], at[-1] + 1) if at[-1] + 1 - at[0] == at.size else at)

    def _build_exchange_plan(self, on_row, row_cols, col_entries: tuple) -> np.ndarray:
        """``src``, the flat row-buffer position of every column-buffer entry, in column-buffer order.

        Takes the row buffer's mask of non-padding entries, their columns in
        buffer order, and the ``(rows, cols)`` of the column-buffer entries.
        Each global row is one stacked row, whose columns ascend, so the
        entries keyed ``stacked row * n + col`` ascend in buffer order and one
        search finds every source.  So ``row_keys[src]`` are the column keys;
        :meth:`_packets` reads every packet off ``src``.  A column entry with
        no source raises RuntimeError.
        """
        n, (rows, cols) = self.index.n_states, col_entries
        stacked = np.empty(self.index.n_rows, dtype=np.intp)
        stacked[self._stack_rows] = np.arange(self._stack_rows.size)
        live = np.flatnonzero(on_row)
        at = np.searchsorted(live // self._widest * n + row_cols, stacked[rows] * n + cols)
        src = live[np.minimum(at, live.size - 1)]
        if np.any(self._row_keys[src] != rows * n + cols):
            raise RuntimeError("a column-buffer entry has no row-buffer source")
        return src

    # -- state management ---------------------------------------------------

    def init_state(self, warm: AdmmState | None = None) -> AdmmState:
        """Fresh all-zeros state, or a copy seeded from a converged one.

        Either way the per-subsystem timers start at zero and rho at the
        engine's; a warm state's lambda is rescaled to that rho.  A warm
        state whose partitions do not fit this engine's index raises
        ValueError.
        """
        n_sub = len(self.index.subsystems)
        cols = np.zeros((2, self._col_offsets[-1]))  # the column step's workspace
        if warm is None:
            rows = np.zeros((4,) + self._mask.shape)
        else:
            # every layer of the row buffer has phi's block shapes
            for i in range(max(n_sub, len(warm.phi_r))):
                want = self._shapes["r"][i] if i < n_sub else "no block"
                got = np.shape(warm.phi_r[i]) if i < len(warm.phi_r) else "no block"
                if got != want:
                    raise ValueError(
                        f"warm_state does not fit this engine: subsystem {i + 1} "
                        f"phi_r has {got}, expected {want}"
                    )
            rows = warm.rows.copy()
            # exact for a state of this engine: rho moves by powers of two
            rows[2] *= warm.rho / self.rho
        phi_r = tuple(rows[0, at, :w] for at, (_, w) in zip(self._spans, self._shapes["r"]))
        return AdmmState(
            rows, cols, phi_r, rho=self.rho, solved=np.zeros(self._mask.shape), per_sub_seconds=np.zeros(n_sub),
        )

    def _row_name(self, r: int) -> str:
        """``subsystem i: global row g`` for stacked row ``r``."""
        i = np.searchsorted(self._ends, r, side="right") + 1
        return f"subsystem {i}: global row {self._stack_rows[r]}"

    # -- row and column updates -----------------------------------------------

    def measure(self, state: AdmmState):
        """Every row's :class:`RowTerms` for ``state.x0`` in one stacked call, into ``state.terms``.

        Each row reads the measurements its subsystem receives, on its
        ``row_mask`` row, +0 off it and -0 on the padding.  The padding's
        targets are +0, so each padded product is -0, the exact identity of
        the sequential dot product: every row's sums are those of its block
        alone, bit for bit.  A zero row whose box excludes 0 raises
        :class:`InfeasibleRowError` naming its row.
        """
        x0 = np.append(state.x0, (0.0, -0.0))[self._x0_at]
        try:
            state.terms = row_terms(x0, *self._boxes)
        except InfeasibleRowError as err:
            raise InfeasibleRowError(f"{self._row_name(err.row)}: {err.detail}") from err

    def locate_rows(self, state: AdmmState):
        """The explicit route's row solves: every row's closed form in one stacked call.

        Writes each row's target ``psi - lambda`` into ``state.solved``, then
        one :func:`locate` (point location) and one :func:`apply_law` over the
        whole layout leave every row's new phi there.  The padding's targets
        are +0 and its x0 -0, so it stays +0.
        """
        terms, solved = state.terms, state.solved
        np.subtract(state.rows[1], state.rows[2], out=solved)
        apply_law(solved, locate(terms, solved, state.rho)[0], terms.x0, out=solved)

    def solve_row_qps(self, state: AdmmState):
        """The QP route's row solves: one stacked ``solve_qp`` call over every live row.

        Writes each row's target ``psi - lambda`` into ``state.solved`` and
        stacks the rows that the terms do not mark zero (zero rows stay at
        their targets) at the widest block width W: off the mask the target
        and x0 are zero, on the padding +0 and -0, so those variables
        decouple and keep their targets.  Without live rows it
        makes no call.  The first live row whose QP ends not optimal raises
        before ``state.solved`` changes (:class:`InfeasibleRowError` if
        infeasible, else :class:`ConvergenceError`).
        """
        terms, solved = state.terms, state.solved
        np.subtract(state.rows[1], state.rows[2], out=solved)
        live = np.flatnonzero(~terms.zero)
        if not live.size:
            return
        target = solved[live]
        lo, hi, w = (v[live] for v in self._boxes)
        res = solve_qp(row_qp(target, terms.x0[live], state.rho, lo, hi, w))
        for k in np.flatnonzero([s is not QpStatus.OPTIMAL for s in res.statuses])[:1]:
            where, status = self._row_name(live[k]), res.statuses[k]
            if status is QpStatus.INFEASIBLE:
                raise InfeasibleRowError(f"{where}: QP infeasible, box [{lo[k]}, {hi[k]}]")
            raise ConvergenceError(f"{where}: row QP ended {status.value}")
        solved[live] = np.where(self._mask[live], res.x[:, :-1], target)

    def row_step(self, state: AdmmState, i: int):
        """Subsystem i's rows of ``state.solved``, which the iteration's row phase left, into its phi block."""
        phi = state.phi_r[i - 1]
        phi[...] = state.solved[self._spans[i - 1], : phi.shape[1]]

    def column_step(self, state: AdmmState):
        """Project every column slice's target onto the dynamics constraint, by shape class."""
        target, psi = state.cols
        for cls, at in zip(self.op.classes, self._class_at):
            psi[at] = project_column(cls, target[at].reshape(cls.offset.shape)).ravel()

    def multiplier_step(self, state: AdmmState):
        """Scaled dual update on the row buffer plus per-subsystem residuals."""
        rows = state.rows
        primal = rows[0] - rows[1]
        step = _relaxed(rows[0], rows[3]) - rows[1]  # lambda - lambda_hat
        rows[2] += step
        # one segment per subsystem, its span (padding included); reduceat misreads
        # empty segments, but no row block is empty (every subsystem has a state and its T+1 rows)
        sums = lambda sq: np.add.reduceat(sq.ravel(), self._starts)
        norms = lambda diff: np.sqrt(sums(diff * diff))
        moved = rows[1] - rows[3]  # psi - psi_hat
        state.primal = norms(primal)
        if state.prev is None:
            state.dual = norms(moved)
        else:  # rows[3] is psi_hat; the dual residual reads the true psi_prev
            state.dual = norms(rows[1] - state.prev[0])
            state.new_gap = float(sums(step * step + moved * moved).max())

    def check_convergence(self, state: AdmmState) -> bool:
        """All subsystems within both residual tolerances (boundary passes).

        Short of that, rho doubles (lambda halves) while the max primal
        residual exceeds ``BALANCE`` times rho times the max dual one, and
        halves in the reverse case, which disarms the momentum; otherwise
        :meth:`momentum_step` runs.
        """
        primal, dual = float(np.max(state.primal)), float(np.max(state.dual))
        state.residual_history.append((primal, dual))
        if np.all(state.primal <= self.eps_primal) and np.all(state.dual <= self.eps_dual):
            return True
        if primal > BALANCE * state.rho * dual:
            factor = RHO_FACTOR
        elif state.rho * dual > BALANCE * primal:
            factor = 1.0 / RHO_FACTOR
        else:
            self.momentum_step(state)
            return False
        state.rho *= factor
        state.rows[2] /= factor
        state.held, state.prev = 0, None
        return False

    def momentum_step(self, state: AdmmState):
        """Extrapolate psi and lambda once rho has held ``SETTLE`` iterations.

        Arming copies the fresh iterate (a = 1, c = inf).  Armed, the step
        takes Nesterov's beta, with a capped at ``A_MAX``, while the restart
        quantity shrinks by ``ETA`` and restarts (a = 1) keeping the fresh
        iterate when it does not.
        """
        state.held += 1
        if state.held < SETTLE:
            return
        fresh = state.rows[1:3]
        if state.prev is None:
            state.prev = fresh.copy()
            state.nesterov, state.gap = 1.0, np.inf
        else:
            beta, a = 0.0, state.nesterov
            if state.new_gap < ETA * state.gap:
                state.nesterov = min(A_MAX, (1.0 + (1.0 + 4.0 * a * a) ** 0.5) / 2.0)
                beta = (a - 1.0) / state.nesterov
            else:
                state.nesterov = 1.0
                state.restarts += 1
            state.gap = state.new_gap
            state.extrapolated += beta > 0.0
            diff = fresh - state.prev
            state.prev[...] = fresh
            fresh += beta * diff

    # -- exchanges ------------------------------------------------------------

    def exchange_rows(self, state: AdmmState):
        """Row owners send the column step's target to column owners."""
        rows = state.rows
        target = _relaxed(rows[0], rows[1]) + rows[2]  # psi is still the previous one
        state.cols[0] = target.ravel()[self._src]

    def exchange_columns(self, state: AdmmState):
        """Column owners send projected blocks back to row owners."""
        state.rows[3] = state.rows[1]
        state.rows[1].reshape(-1)[self._src] = state.cols[1]

    def _packets(self, state: AdmmState) -> list:
        """One iteration's traffic, read off the exchange plan; block payloads are the last iteration's.

        Subsystem i receives the measurements of its (d+1)-hop in-set.  From
        each row owner k, column owner i receives the target of the rows k
        owns in its partition and sends back their psi, ordered by i, then k.
        """
        index, x0, cols = self.index, state.x0, self.model.state_indices
        packets = [ExchangePacket(j, i, Phase.MEASUREMENT, None, cols(j), x0[cols(j)])
                   for i, in_set in enumerate(index.in_sets_ext, start=1) for j in sorted(in_set)]
        owner = np.searchsorted(self._ends, self._src // self._widest, side="right") + 1  # of each entry's row
        off = self._col_offsets
        for phase, sent in zip((Phase.ROW_BLOCKS, Phase.COLUMN_BLOCKS), state.cols):
            for s, start, end in zip(index.subsystems, off, off[1:]):
                block = sent[start:end].reshape(s.col_rows.size, s.cols.size)
                by_owner = owner[start : start + block.size : s.cols.size]  # one per row of the block
                for k in np.unique(by_owner):
                    at = by_owner == k
                    ends = (int(k), s.sub_id) if phase is Phase.ROW_BLOCKS else (s.sub_id, int(k))
                    packets.append(ExchangePacket(*ends, phase, s.col_rows[at], s.cols, block[at]))
        return packets

    # -- instrumentation ------------------------------------------------------

    def assemble_from_rows(self, state: AdmmState, which: str = "phi") -> np.ndarray:
        """Global stacked matrix of the row partitions' phi, psi or lambda."""
        return self._scatter(state.rows.reshape(4, -1), ("phi", "psi", "lambda"), which, self._row_keys)

    def assemble_from_cols(self, state: AdmmState, which: str = "psi") -> np.ndarray:
        """Global stacked matrix of the column partitions' target or psi."""
        return self._scatter(state.cols, ("target", "psi"), which, self._row_keys[self._src])

    def _scatter(self, buffer: np.ndarray, layers: tuple, which: str, keys: np.ndarray) -> np.ndarray:
        """Layer ``which`` of flat ``buffer`` placed at its keys but -1; ValueError unless it is in ``layers``."""
        if which not in layers:
            raise ValueError(f"which must be one of {list(layers)}, got {which!r}")
        out = np.zeros((self.index.n_rows, self.index.n_states))
        on = keys >= 0
        out.flat[keys[on]] = buffer[layers.index(which)][on]
        return out

    def extract_control(self, state: AdmmState, i: int) -> np.ndarray:
        """Subsystem i's applied input: its converged time-0 input rows times x0 at its last stacked row."""
        if not state.converged:
            raise StalenessError(
                "extract_control called before the iteration converged"
            )
        # input rows follow the state rows, time-major, so the time-0 ones come
        # first; they span the whole coupled slice, so the last row's x0 block
        # is the bare slice (an input-free subsystem has no rows to multiply)
        u0 = np.count_nonzero(self.index.subsystem(i).row_is_state)
        phi, last = state.phi_r[i - 1], self._spans[i - 1].stop - 1
        return phi[u0 : u0 + self.model.input_dims[i - 1]] @ state.terms.x0[last, : phi.shape[1]]

    # -- full step --------------------------------------------------------------

    def _each(self, state: AdmmState, phase) -> list:
        """``phase(state, i)`` for i = 1..N in order, each call's time charged to subsystem i."""
        out, seconds = [], []
        for i in range(1, len(self.index.subsystems) + 1):
            t0 = time.perf_counter()
            out.append(phase(state, i))
            seconds.append(time.perf_counter() - t0)
        state.per_sub_seconds += seconds
        return out

    def _all(self, state: AdmmState, phase):
        """``phase(state)``, its time charged to every subsystem in equal shares."""
        t0 = time.perf_counter()
        out = phase(state)
        state.per_sub_seconds += (time.perf_counter() - t0) / state.per_sub_seconds.size
        return out

    def solve_step(self, x0: np.ndarray, warm_state: AdmmState | None = None) -> StepResult:
        """Run the consensus iteration for measured state ``x0`` to tolerance.

        A non-finite ``x0`` raises ValueError naming its first bad component.
        Raises :class:`ConvergenceError` with the residual trace, the final
        rho and the straggling subsystems if the iteration cap is hit first.
        """
        x0 = check_x0(x0, self.model.n_states)
        state = self.init_state(warm_state)
        state.x0 = x0

        self._all(state, self.measure)
        explicit = self.row_solver is RowSolverKind.EXPLICIT
        for k in range(1, self.max_iterations + 1):
            self._all(state, self.locate_rows if explicit else self.solve_row_qps)
            self._each(state, self.row_step)
            self._all(state, self.exchange_rows)
            self._all(state, self.column_step)
            self._all(state, self.exchange_columns)
            self._all(state, self.multiplier_step)
            state.iteration = k
            if self._all(state, self.check_convergence):
                break
        else:
            primal, dual = state.residual_history[-1]
            lag_p, lag_d = (int(np.argmax(r)) + 1 for r in (state.primal, state.dual))
            raise ConvergenceError(
                f"no convergence within {self.max_iterations} iterations at rho {state.rho:g} "
                f"(subsystem {lag_p} lags the primal test, {lag_d} the dual; "
                f"last primal {primal:.3e}, dual {dual:.3e})",
                residual_history=state.residual_history,
            )
        state.converged = True

        # inputs are numbered contiguously in subsystem-id order
        u = np.concatenate(self._each(state, self.extract_control))
        if self.record_packets:
            state.packets = self._packets(state)
        return StepResult(u=u, state=state)
