"""Distributed consensus iteration over row and column partitions.

Each subsystem alternates three local updates on its share of the stacked
response map:

* row step      -- proximal minimization of its local cost rows subject to
                   per-row boxes, solved in closed form (or by the QP solver
                   for the solver-based variant);
* column step   -- projection of its column slice onto the dynamics
                   constraint, one precomputed affine map per subsystem;
* multiplier    -- scaled dual ascent on the row/column disagreement.

Between the row and column steps the subsystems trade blocks so that every
working matrix is a consistent view of one global (phi, psi, lambda) triple.
All exchanges stay inside bounded graph neighborhoods: measurements and
column blocks travel to at most (d+1)-hop outgoing neighbors, row blocks to
at most (d+1)-hop incoming neighbors (input rows couple columns d+1 hops
away, which sets the footprint).  Execution is sequential but
order-independent: phases are barriers, so any subsystem ordering produces
bitwise identical iterates.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import sls
from .explicit_row import InfeasibleRowError, check_rows, solve_rows
from .qp import QpStatus, row_qp, solve_qp
from .sls import FeasibilityOperator, project_column
from .topology import LocalityIndex, NetworkModel


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
    """One directed message: who sent what slice to whom, in which phase."""

    sender: int
    receiver: int
    phase: Phase
    rows: np.ndarray | None
    cols: np.ndarray
    payload: np.ndarray


def packet_within_locality(packet: ExchangePacket, index: LocalityIndex) -> bool:
    """True iff the packet respects the bounded communication footprint.

    Measurements and column blocks go to (d+1)-hop outgoing neighbors of the
    sender; row blocks go to (d+1)-hop incoming neighbors (they flow back to
    the owners of the columns the rows touch).
    """
    if packet.phase is Phase.ROW_BLOCKS:
        return packet.receiver in index.in_sets_ext[packet.sender - 1]
    return packet.receiver in index.out_sets_ext[packet.sender - 1]


@dataclass
class AdmmState:
    """Per-subsystem row and column partitions of (phi, psi, lambda).

    Row partition matrices have shape (len(rows), len(row_cols)); column
    partition matrices have shape (len(col_rows), len(cols)).  After each
    exchange phase the two partitions agree on every shared entry.
    ``x0_slices`` holds each subsystem's coupled slice of the measured state
    the iteration runs for, ``residual_history`` one (max primal, max dual)
    pair per iteration, and ``per_sub_seconds`` each subsystem's wall time
    spent on this state.
    """

    phi_r: list
    psi_r: list
    lam_r: list
    phi_c: list
    psi_c: list
    lam_c: list
    psi_r_prev: list
    iteration: int = 0
    primal: np.ndarray | None = None
    dual: np.ndarray | None = None
    residual_history: list = field(default_factory=list)
    converged: bool = False
    x0_slices: list = field(default_factory=list)
    per_sub_seconds: np.ndarray | None = None


@dataclass
class StepResult:
    """Converged MPC step: applied input plus iteration diagnostics."""

    u: np.ndarray
    iterations: int
    primal_history: np.ndarray
    dual_history: np.ndarray
    per_sub_seconds: np.ndarray
    state: AdmmState
    x0: np.ndarray
    packets: list | None = None


@dataclass(frozen=True)
class _PairPlan:
    """Precomputed index maps for one (sender, receiver) block transfer.

    The same maps serve both directions: row blocks copy
    ``phi_r[sender][src_ix] -> phi_c[receiver][dst_ix]`` and column blocks
    copy ``psi_c[receiver][dst_ix] -> psi_r[sender][src_ix]`` (the receiver
    of the row phase owns the columns; the sender owns the rows).
    """

    row_owner: int
    col_owner: int
    src_ix: tuple
    dst_ix: tuple
    global_rows: np.ndarray
    global_cols: np.ndarray


@dataclass(frozen=True)
class _RowGroup:
    """Positions, boxes and weights of rows that share one x0 slice."""

    pos: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    weight: np.ndarray


def row_profiles(
    index: LocalityIndex,
    q_diag: np.ndarray,
    r_diag: np.ndarray,
    qt_diag: np.ndarray,
    state_lb: np.ndarray,
    state_ub: np.ndarray,
    input_lb: np.ndarray,
    input_ub: np.ndarray,
) -> tuple:
    """Per-global-row (weight, lo, hi) profiles of the stacked response map.

    Time-0 state rows are costless and unconstrained (they are pinned to the
    identity by the feasibility constraint); state boxes apply for t = 1..T
    and input boxes at every input time.  Weights are square roots of the
    diagonal cost entries, with the terminal weight on the t = T rows.
    """
    n, p, t_hor = index.n_states, index.n_inputs, index.horizon
    weight = np.zeros(index.n_rows)
    lo = np.full(index.n_rows, -np.inf)
    hi = np.full(index.n_rows, np.inf)
    for t in range(1, t_hor + 1):
        rows = slice(t * n, (t + 1) * n)
        weight[rows] = np.sqrt(qt_diag if t == t_hor else q_diag)
        lo[rows] = state_lb
        hi[rows] = state_ub
    if p:
        u0 = n * (t_hor + 1)
        weight[u0:] = np.tile(np.sqrt(r_diag), t_hor)
        lo[u0:] = np.tile(input_lb, t_hor)
        hi[u0:] = np.tile(input_ub, t_hor)
    return weight, lo, hi


class DlmpcEngine:
    """Bulk-synchronous distributed MPC solver for one scenario.

    Holds everything that is fixed across MPC steps: index sets, column
    projectors, per-row cost/bound profiles and the exchange plan.  One call
    to :meth:`solve_step` runs the consensus iteration for a measured state
    and returns the applied input with diagnostics.
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
        qp_tol: float = 1e-9,
        record_packets: bool = False,
        mask_check_interval: int = 0,
        order=None,
    ):
        if rho <= 0:
            raise ValueError("rho must be positive")
        if eps_primal <= 0 or eps_dual <= 0:
            raise ValueError("tolerances must be positive")
        self.model = model
        self.index = index
        self.op = op
        self.rho = float(rho)
        self.eps_primal = float(eps_primal)
        self.eps_dual = float(eps_dual)
        self.max_iterations = int(max_iterations)
        self.row_solver = row_solver
        self.qp_tol = float(qp_tol)
        self.record_packets = record_packets
        self.mask_check_interval = int(mask_check_interval)
        n_sub = model.n_subsystems
        self.order = list(range(1, n_sub + 1)) if order is None else [int(i) for i in order]
        if sorted(self.order) != list(range(1, n_sub + 1)):
            raise ValueError("order must be a permutation of 1..N")

        n, p = model.n_states, model.n_inputs
        q_diag = np.ones(n) if q_diag is None else np.asarray(q_diag, float)
        r_diag = np.ones(p) if r_diag is None else np.asarray(r_diag, float)
        qt_diag = q_diag.copy() if qt_diag is None else np.asarray(qt_diag, float)
        state_lb = np.full(n, -np.inf) if state_lb is None else np.asarray(state_lb, float)
        state_ub = np.full(n, np.inf) if state_ub is None else np.asarray(state_ub, float)
        input_lb = np.full(p, -np.inf) if input_lb is None else np.asarray(input_lb, float)
        input_ub = np.full(p, np.inf) if input_ub is None else np.asarray(input_ub, float)
        w, lo, hi = row_profiles(
            index, q_diag, r_diag, qt_diag, state_lb, state_ub, input_lb, input_ub
        )
        self.row_weight, self.row_lo, self.row_hi = w, lo, hi

        self._row_groups = []  # per subsystem: its state rows, then its input rows
        self._u0_pos = []
        for sub in index.subsystems:
            groups = []
            for pos in (np.flatnonzero(sub.row_is_state), np.flatnonzero(~sub.row_is_state)):
                rows = sub.rows[pos]
                groups.append(_RowGroup(pos, lo[rows], hi[rows], w[rows]))
            self._row_groups.append(groups)
            self._u0_pos.append(
                np.where(~sub.row_is_state & (sub.row_time == 0))[0]
            )

        self._pair_plans = self._build_exchange_plan()
        self._row_plan_by_receiver = {i: [] for i in range(1, n_sub + 1)}
        self._col_plan_by_receiver = {i: [] for i in range(1, n_sub + 1)}
        for plan in self._pair_plans:
            self._row_plan_by_receiver[plan.col_owner].append(plan)
            self._col_plan_by_receiver[plan.row_owner].append(plan)

    def _build_exchange_plan(self):
        index, model = self.index, self.model
        plans = []
        for sub_i in index.subsystems:  # column owner
            i = sub_i.sub_id
            for k in sorted(index.out_sets_ext[i - 1]):
                sub_k = index.subsystems[k - 1]
                send_x = k in index.out_sets[i - 1]
                parts = []
                if send_x:
                    parts.append(np.where(sub_k.row_is_state)[0])
                if sub_k.rows.size and np.any(~sub_k.row_is_state):
                    parts.append(np.where(~sub_k.row_is_state)[0])
                if not parts:
                    continue
                src_rows = np.concatenate(parts)
                global_rows = sub_k.rows[src_rows]
                src_cols = np.searchsorted(sub_k.row_cols, sub_i.cols)
                dst_rows = np.searchsorted(sub_i.col_rows, global_rows)
                plans.append(
                    _PairPlan(
                        row_owner=k,
                        col_owner=i,
                        src_ix=np.ix_(src_rows, src_cols),
                        dst_ix=np.ix_(dst_rows, np.arange(sub_i.cols.size)),
                        global_rows=global_rows,
                        global_cols=sub_i.cols,
                    )
                )
        return plans

    # -- state management ---------------------------------------------------

    def init_state(self, warm: AdmmState | None = None) -> AdmmState:
        """Fresh all-zeros state, or a copy seeded from a converged one.

        Either way the per-subsystem timers start at zero.  A warm state
        whose partitions do not fit this engine's index raises ValueError.
        """
        index = self.index
        n_sub = len(index.subsystems)
        times = np.zeros(n_sub)
        shapes = {
            "r": [(s.rows.size, s.row_cols.size) for s in index.subsystems],
            "c": [(s.col_rows.size, s.cols.size) for s in index.subsystems],
        }
        if warm is None:
            zeros = lambda k: [np.zeros(shape) for shape in shapes[k]]
            return AdmmState(
                phi_r=zeros("r"),
                psi_r=zeros("r"),
                lam_r=zeros("r"),
                phi_c=zeros("c"),
                psi_c=zeros("c"),
                lam_c=zeros("c"),
                psi_r_prev=zeros("r"),
                per_sub_seconds=times,
            )
        names = [f"{m}_{k}" for k in "rc" for m in ("phi", "psi", "lam")]
        for i in range(max(n_sub, *(len(getattr(warm, f)) for f in names))):
            for name in names:
                blocks = getattr(warm, name)
                want = shapes[name[-1]][i] if i < n_sub else "no block"
                got = np.shape(blocks[i]) if i < len(blocks) else "no block"
                if got != want:
                    raise ValueError(
                        f"warm_state does not fit this engine: subsystem {i + 1} "
                        f"{name} has {got}, expected {want}"
                    )
        return AdmmState(
            phi_r=[m.copy() for m in warm.phi_r],
            psi_r=[m.copy() for m in warm.psi_r],
            lam_r=[m.copy() for m in warm.lam_r],
            phi_c=[m.copy() for m in warm.phi_c],
            psi_c=[m.copy() for m in warm.psi_c],
            lam_c=[m.copy() for m in warm.lam_c],
            psi_r_prev=[m.copy() for m in warm.psi_r],
            per_sub_seconds=times,
        )

    # -- per-subsystem updates ----------------------------------------------

    def row_step(self, state: AdmmState, i: int):
        """Proximal row update for subsystem i: its state rows, then its input rows.

        State rows see only the d-hop state columns, input rows the whole
        coupled slice, so each group shares one x0 slice.
        """
        sub = self.index.subsystems[i - 1]
        x0 = state.x0_slices[i - 1]
        a = state.psi_r[i - 1] - state.lam_r[i - 1]
        out = state.phi_r[i - 1]
        states, inputs = self._row_groups[i - 1]
        scp = sub.state_col_positions
        ix = np.ix_(states.pos, scp)
        out[ix] = self._solve_group(i, states, a[ix], x0[scp])
        out[inputs.pos] = self._solve_group(i, inputs, a[inputs.pos], x0)

    def _solve_group(self, i: int, group: _RowGroup, targets, x0) -> np.ndarray:
        lo, hi, w = group.lo, group.hi, group.weight
        try:
            if self.row_solver is RowSolverKind.EXPLICIT:
                return solve_rows(targets, x0, self.rho, lo, hi, w)[0]
            if check_rows(x0, lo, hi):
                return targets.copy()
            phi = np.empty_like(targets)
            for r, target in enumerate(targets):
                qp = row_qp(target, x0, self.rho, lo[r], hi[r], w[r])
                res = solve_qp(qp, tol=self.qp_tol)
                if res.status is QpStatus.INFEASIBLE:
                    raise InfeasibleRowError(f"row {r}: QP infeasible, box [{lo[r]}, {hi[r]}]")
                phi[r] = res.x[:-1]
            return phi
        except InfeasibleRowError as err:
            sub = self.index.subsystems[i - 1]
            raise InfeasibleRowError(
                f"subsystem {i}: infeasible row among global rows "
                f"{sub.rows[group.pos].tolist()}: {err}"
            ) from err

    def column_step(self, state: AdmmState, i: int):
        """Project subsystem i's column slice onto the dynamics constraint."""
        v = state.phi_c[i - 1] + state.lam_c[i - 1]
        state.psi_c[i - 1] = project_column(self.op, i, v)

    def multiplier_step(self, state: AdmmState, i: int):
        """Scaled dual update on both partitions plus residual bookkeeping."""
        state.lam_r[i - 1] += state.phi_r[i - 1] - state.psi_r[i - 1]
        state.lam_c[i - 1] += state.phi_c[i - 1] - state.psi_c[i - 1]
        state.primal[i - 1] = np.linalg.norm(state.phi_r[i - 1] - state.psi_r[i - 1])
        state.dual[i - 1] = np.linalg.norm(state.psi_r[i - 1] - state.psi_r_prev[i - 1])

    def check_convergence(self, state: AdmmState) -> bool:
        """All subsystems within both residual tolerances (boundary passes)."""
        state.residual_history.append(
            (float(np.max(state.primal)), float(np.max(state.dual)))
        )
        return bool(
            np.all(state.primal <= self.eps_primal) and np.all(state.dual <= self.eps_dual)
        )

    # -- exchanges ------------------------------------------------------------

    def exchange_rows(self, state: AdmmState, packets=None):
        """Row owners send their freshly solved blocks to column owners."""
        for i in self.order:
            t0 = time.perf_counter()
            for plan in self._row_plan_by_receiver[i]:
                block = state.phi_r[plan.row_owner - 1][plan.src_ix]
                state.phi_c[i - 1][plan.dst_ix] = block
                if packets is not None:
                    packets.append(
                        ExchangePacket(
                            sender=plan.row_owner,
                            receiver=i,
                            phase=Phase.ROW_BLOCKS,
                            rows=plan.global_rows,
                            cols=plan.global_cols,
                            payload=block.copy(),
                        )
                    )
            state.per_sub_seconds[i - 1] += time.perf_counter() - t0

    def exchange_columns(self, state: AdmmState, packets=None):
        """Column owners send projected blocks back to row owners."""
        for k in self.order:
            t0 = time.perf_counter()
            state.psi_r_prev[k - 1], state.psi_r[k - 1] = (
                state.psi_r[k - 1],
                state.psi_r_prev[k - 1],
            )
            for plan in self._col_plan_by_receiver[k]:
                block = state.psi_c[plan.col_owner - 1][plan.dst_ix]
                state.psi_r[k - 1][plan.src_ix] = block
                if packets is not None:
                    packets.append(
                        ExchangePacket(
                            sender=plan.col_owner,
                            receiver=k,
                            phase=Phase.COLUMN_BLOCKS,
                            rows=plan.global_rows,
                            cols=plan.global_cols,
                            payload=block.copy(),
                        )
                    )
            state.per_sub_seconds[k - 1] += time.perf_counter() - t0

    # -- instrumentation ------------------------------------------------------

    def verify_masks(self, state: AdmmState):
        """Assert exact zeros outside the allowed sparsity, or raise."""
        for sub in self.index.subsystems:
            i = sub.sub_id
            inv = ~sub.row_mask
            for name, mats in (("phi", state.phi_r), ("psi", state.psi_r), ("lambda", state.lam_r)):
                bad = mats[i - 1][inv]
                if bad.size and np.any(bad != 0.0):
                    raise AssertionError(
                        f"subsystem {i}: {name} row partition has nonzeros outside the mask "
                        f"at iteration {state.iteration}"
                    )

    def assemble_from_rows(self, state: AdmmState, which: str = "phi") -> np.ndarray:
        """Global stacked matrix gathered from the row partitions."""
        mats = {"phi": state.phi_r, "psi": state.psi_r, "lambda": state.lam_r}[which]
        out = np.zeros((self.index.n_rows, self.index.n_states))
        for sub, mat in zip(self.index.subsystems, mats):
            out[np.ix_(sub.rows, sub.row_cols)] = mat
        return out

    def assemble_from_cols(self, state: AdmmState, which: str = "phi") -> np.ndarray:
        """Global stacked matrix gathered from the column partitions."""
        mats = {"phi": state.phi_c, "psi": state.psi_c, "lambda": state.lam_c}[which]
        out = np.zeros((self.index.n_rows, self.index.n_states))
        for sub, mat in zip(self.index.subsystems, mats):
            out[np.ix_(sub.col_rows, sub.cols)] = mat
        return out

    def extract_control(self, state: AdmmState, i: int) -> np.ndarray:
        """Subsystem i's applied input from its converged time-0 input rows."""
        if not state.converged:
            raise StalenessError(
                "extract_control called before the iteration converged"
            )
        rows = state.phi_r[i - 1][self._u0_pos[i - 1], :]
        return sls.extract_control(rows, state.x0_slices[i - 1])

    # -- full step --------------------------------------------------------------

    def solve_step(self, x0: np.ndarray, warm_state: AdmmState | None = None) -> StepResult:
        """Run the consensus iteration for measured state ``x0`` to tolerance.

        Raises :class:`ConvergenceError` with the residual trace if the
        iteration cap is hit first.
        """
        model, index = self.model, self.index
        x0 = np.asarray(x0, dtype=float).ravel()
        if x0.shape != (model.n_states,):
            raise ValueError(f"x0 must have {model.n_states} entries")
        n_sub = model.n_subsystems
        packets = [] if self.record_packets else None
        state = self.init_state(warm_state)
        times = state.per_sub_seconds

        # measurement phase: each subsystem gathers its coupled x0 slice
        state.x0_slices = [None] * n_sub
        for i in self.order:
            sub = index.subsystems[i - 1]
            t0 = time.perf_counter()
            state.x0_slices[i - 1] = x0[sub.row_cols]
            times[i - 1] += time.perf_counter() - t0
        if packets is not None:
            for sub in index.subsystems:
                i = sub.sub_id
                for j in sorted(index.in_sets_ext[i - 1]):
                    cols = model.state_indices(j)
                    packets.append(
                        ExchangePacket(
                            sender=j,
                            receiver=i,
                            phase=Phase.MEASUREMENT,
                            rows=None,
                            cols=cols,
                            payload=x0[cols].copy(),
                        )
                    )

        state.primal = np.full(n_sub, np.inf)
        state.dual = np.full(n_sub, np.inf)

        converged = False
        for k in range(1, self.max_iterations + 1):
            for i in self.order:
                t0 = time.perf_counter()
                self.row_step(state, i)
                times[i - 1] += time.perf_counter() - t0
            self.exchange_rows(state, packets)
            for i in self.order:
                t0 = time.perf_counter()
                self.column_step(state, i)
                times[i - 1] += time.perf_counter() - t0
            self.exchange_columns(state, packets)
            for i in self.order:
                t0 = time.perf_counter()
                self.multiplier_step(state, i)
                times[i - 1] += time.perf_counter() - t0
            state.iteration = k
            if self.mask_check_interval and k % self.mask_check_interval == 0:
                self.verify_masks(state)
            converged = self.check_convergence(state)
            if converged:
                break
        if not converged:
            primal, dual = state.residual_history[-1]
            raise ConvergenceError(
                f"no convergence within {self.max_iterations} iterations "
                f"(last primal {primal:.3e}, dual {dual:.3e})",
                residual_history=state.residual_history,
            )
        state.converged = True

        u = np.zeros(model.n_inputs)
        for i in self.order:
            t0 = time.perf_counter()
            u[model.input_indices(i)] = self.extract_control(state, i)
            times[i - 1] += time.perf_counter() - t0

        primal_history, dual_history = np.array(state.residual_history).reshape(-1, 2).T
        return StepResult(
            u=u,
            iterations=state.iteration,
            primal_history=primal_history,
            dual_history=dual_history,
            per_sub_seconds=times.copy(),
            state=state,
            x0=x0,
            packets=packets,
        )
