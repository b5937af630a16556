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
The state lives in two flat buffers, one for the row partitions and one for
the column partitions, each subsystem's blocks contiguous in subsystem-id
order; the per-subsystem matrices are views into them, written in place.
Since the entries two partitions share are fixed by the locality sets, each
exchange is one gather of precomputed flat positions, and the multiplier
step is one array update per buffer.
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
from .explicit_row import InfeasibleRowError, check_rows, empty_boxes, solve_rows
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

    ``rows`` (shape ``(4, R)``) holds phi, psi, lambda and the previous psi
    of the row partitions, ``cols`` (shape ``(3, C)``) phi, psi and lambda of
    the column partitions; each subsystem's block sits contiguously, in C
    order and subsystem-id order.  ``phi_r`` ... ``lam_c`` are tuples of
    reshaped views into those buffers, so blocks are written in place and
    cannot be rebound.  Row blocks have shape (len(rows), len(row_cols)),
    column blocks (len(col_rows), len(cols)).  After each exchange phase the
    two partitions agree on every shared entry.  ``x0_slices`` holds each
    subsystem's coupled slice of the measured state the iteration runs for,
    ``residual_history`` one (max primal, max dual) pair per iteration, and
    ``per_sub_seconds`` each subsystem's wall time spent on this state.
    """

    rows: np.ndarray
    cols: np.ndarray
    phi_r: tuple
    psi_r: tuple
    lam_r: tuple
    phi_c: tuple
    psi_c: tuple
    lam_c: tuple
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
class _RowGroup:
    """Rows that share one x0 slice: their global rows, block and x0 indices, boxes and weights."""

    rows: np.ndarray
    at: tuple | np.ndarray
    x0_at: np.ndarray | slice
    lo: np.ndarray
    hi: np.ndarray
    weight: np.ndarray


def _share(state: AdmmState, t0: float):
    """Charge the wall time since ``t0`` to every subsystem in equal parts."""
    state.per_sub_seconds += (time.perf_counter() - t0) / state.per_sub_seconds.size


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
        for name, value in (("rho", rho), ("eps_primal", eps_primal), ("eps_dual", eps_dual)):
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if max_iterations < 1:
            raise ValueError(f"max_iterations must be at least 1, got {max_iterations}")
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

        def profile(name, value, size, default):
            value = np.full(size, default) if value is None else np.asarray(value, float)
            if value.shape != (size,):
                raise ValueError(f"{name} must have {size} entries, got {value.size}")
            is_weight = name.endswith("_diag")
            bad = ~(np.isfinite(value) & (value >= 0)) if is_weight else np.isnan(value)
            for k in np.flatnonzero(bad)[:1]:
                need = "finite and nonnegative" if is_weight else "a number"
                raise ValueError(f"{name}[{k}] is {value[k]}, must be {need}")
            return value

        n, p = model.n_states, model.n_inputs
        q_diag = profile("q_diag", q_diag, n, 1.0)
        boxes = {
            kind: (profile(f"{kind}_lb", lb, size, -np.inf), profile(f"{kind}_ub", ub, size, np.inf))
            for kind, lb, ub, size in (("state", state_lb, state_ub, n), ("input", input_lb, input_ub, p))
        }
        for kind, (lb, ub) in boxes.items():
            for k in np.flatnonzero(empty_boxes(lb, ub))[:1]:
                raise ValueError(f"{kind}_lb/{kind}_ub component {k}: empty box [{lb[k]}, {ub[k]}]")
        w, lo, hi = row_profiles(
            index,
            q_diag,
            profile("r_diag", r_diag, p, 1.0),
            q_diag if qt_diag is None else profile("qt_diag", qt_diag, n, 1.0),
            *boxes["state"],
            *boxes["input"],
        )
        self.row_weight, self.row_lo, self.row_hi = w, lo, hi

        self._row_groups = []  # per subsystem: its state rows, then its input rows
        self._u0_pos = []
        for sub in index.subsystems:
            states, inputs = np.flatnonzero(sub.row_is_state), np.flatnonzero(~sub.row_is_state)
            scp = sub.state_col_positions
            groups = []
            for pos, at, x0_at in ((states, np.ix_(states, scp), scp), (inputs, inputs, slice(None))):
                rows = sub.rows[pos]
                groups.append(_RowGroup(rows, at, x0_at, lo[rows], hi[rows], w[rows]))
            self._row_groups.append(groups)
            self._u0_pos.append(
                np.where(~sub.row_is_state & (sub.row_time == 0))[0]
            )

        # block shapes and flat offsets of the row and column buffers
        self._shapes = {
            "r": [(s.rows.size, s.row_cols.size) for s in index.subsystems],
            "c": [(s.col_rows.size, s.cols.size) for s in index.subsystems],
        }
        self._offsets = {
            k: np.concatenate(([0], np.cumsum([a * b for a, b in v]))) for k, v in self._shapes.items()
        }
        self._off_mask = np.concatenate(
            [off + np.flatnonzero(~s.row_mask) for s, off in zip(index.subsystems, self._offsets["r"])]
        )
        self._src, self._dst, pairs = self._build_exchange_plan()
        rank = {s: r for r, s in enumerate(self.order)}  # packets go out receiver by receiver
        self._pairs = {
            Phase.ROW_BLOCKS: sorted(pairs, key=lambda pair: rank[pair[1]]),
            Phase.COLUMN_BLOCKS: sorted(pairs, key=lambda pair: rank[pair[0]]),
        }

    def _build_exchange_plan(self):
        """Flat positions of the entries the row and column buffers share.

        For every column owner i and row owner k in its (d+1)-hop out-set,
        k's input rows and, if k is within d hops, its state rows meet i's
        columns.  Returns ``src`` into the row buffer, ``dst`` into the
        column buffer and one ``(k, i, start, stop, global rows, global
        cols)`` record per pair, naming its segment of ``src`` and ``dst``.
        """
        index, off_r, off_c = self.index, self._offsets["r"], self._offsets["c"]
        src, dst, pairs, start = [], [], [], 0
        for sub_i in index.subsystems:  # column owner
            i = sub_i.sub_id
            for k in sorted(index.out_sets_ext[i - 1]):
                sub_k = index.subsystems[k - 1]
                # state rows come first in every row partition
                src_rows = np.flatnonzero(~sub_k.row_is_state | (k in index.out_sets[i - 1]))
                if not src_rows.size:
                    continue
                global_rows = sub_k.rows[src_rows]
                src_cols = np.searchsorted(sub_k.row_cols, sub_i.cols)
                dst_rows = np.searchsorted(sub_i.col_rows, global_rows)
                width_k, width_i = sub_k.row_cols.size, sub_i.cols.size
                src.append((off_r[k - 1] + src_rows[:, None] * width_k + src_cols).ravel())
                dst.append((off_c[i - 1] + dst_rows[:, None] * width_i + np.arange(width_i)).ravel())
                pairs.append((k, i, start, start + src[-1].size, global_rows, sub_i.cols))
                start += src[-1].size
        return np.concatenate(src), np.concatenate(dst), pairs

    # -- state management ---------------------------------------------------

    def init_state(self, warm: AdmmState | None = None) -> AdmmState:
        """Fresh all-zeros state, or a copy seeded from a converged one.

        Either way the per-subsystem timers start at zero.  A warm state
        whose partitions do not fit this engine's index raises ValueError.
        """
        shapes, offsets = self._shapes, self._offsets
        n_sub = len(self.index.subsystems)
        if warm is None:
            rows, cols = np.zeros((4, offsets["r"][-1])), np.zeros((3, offsets["c"][-1]))
        else:
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
            rows, cols = warm.rows.copy(), warm.cols.copy()

        def views(flat, k):
            off = offsets[k]
            return tuple(flat[a:b].reshape(s) for a, b, s in zip(off, off[1:], shapes[k]))

        return AdmmState(
            rows, cols, *(views(m, "r") for m in rows[:3]), *(views(m, "c") for m in cols),
            per_sub_seconds=np.zeros(n_sub),
        )

    # -- per-subsystem updates ----------------------------------------------

    def row_step(self, state: AdmmState, i: int):
        """Proximal row update for subsystem i: its state rows, then its input rows.

        State rows see only the d-hop state columns, input rows the whole
        coupled slice, so each group shares one x0 slice.
        """
        x0 = state.x0_slices[i - 1]
        a = state.psi_r[i - 1] - state.lam_r[i - 1]
        out = state.phi_r[i - 1]
        for group in self._row_groups[i - 1]:
            out[group.at] = self._solve_group(i, group, a[group.at], x0[group.x0_at])

    def _solve_group(self, i: int, group: _RowGroup, targets, x0) -> np.ndarray:
        lo, hi, w = group.lo, group.hi, group.weight
        try:
            if self.row_solver is RowSolverKind.EXPLICIT:
                return solve_rows(targets, x0, self.rho, lo, hi, w)[0]
            if not np.any(x0):
                check_rows(lo, hi)
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
            raise InfeasibleRowError(
                f"subsystem {i}: infeasible row among global rows "
                f"{group.rows.tolist()}: {err}"
            ) from err

    def column_step(self, state: AdmmState, i: int):
        """Project subsystem i's column slice onto the dynamics constraint."""
        v = state.phi_c[i - 1] + state.lam_c[i - 1]
        state.psi_c[i - 1][...] = project_column(self.op, i, v)

    def multiplier_step(self, state: AdmmState):
        """Scaled dual update on both buffers plus per-subsystem residuals."""
        t0 = time.perf_counter()
        rows, cols = state.rows, state.cols
        primal = rows[0] - rows[1]
        rows[2] += primal
        cols[2] += cols[0] - cols[1]
        off = self._offsets["r"]
        norms = lambda diff: np.array([np.linalg.norm(diff[a:b]) for a, b in zip(off, off[1:])])
        state.primal, state.dual = norms(primal), norms(rows[1] - rows[3])
        _share(state, t0)

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
        t0 = time.perf_counter()
        sent = state.rows[0][self._src]
        state.cols[0][self._dst] = sent
        _share(state, t0)
        if packets is not None:
            self._record(packets, Phase.ROW_BLOCKS, sent)

    def exchange_columns(self, state: AdmmState, packets=None):
        """Column owners send projected blocks back to row owners."""
        t0 = time.perf_counter()
        state.rows[3] = state.rows[1]
        sent = state.cols[1][self._dst]
        state.rows[1][self._src] = sent
        _share(state, t0)
        if packets is not None:
            self._record(packets, Phase.COLUMN_BLOCKS, sent)

    def _record(self, packets: list, phase: Phase, sent: np.ndarray):
        for k, i, a, b, rows, cols in self._pairs[phase]:
            sender, receiver = (k, i) if phase is Phase.ROW_BLOCKS else (i, k)
            payload = sent[a:b].reshape(rows.size, cols.size)
            packets.append(ExchangePacket(sender, receiver, phase, rows, cols, payload))

    # -- instrumentation ------------------------------------------------------

    def verify_masks(self, state: AdmmState):
        """Assert exact zeros outside the allowed sparsity, or raise."""
        bad = np.argwhere(state.rows[:3, self._off_mask].T != 0.0)
        if bad.size:
            pos, m = bad[0]
            i = int(np.searchsorted(self._offsets["r"], self._off_mask[pos], side="right"))
            raise AssertionError(
                f"subsystem {i}: {('phi', 'psi', 'lambda')[m]} row partition has nonzeros "
                f"outside the mask at iteration {state.iteration}"
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

        A non-finite ``x0`` raises ValueError naming its first bad component.
        Raises :class:`ConvergenceError` with the residual trace if the
        iteration cap is hit first.
        """
        model, index = self.model, self.index
        x0 = np.asarray(x0, dtype=float).ravel()
        if x0.shape != (model.n_states,):
            raise ValueError(f"x0 must have {model.n_states} entries")
        for k in np.flatnonzero(~np.isfinite(x0))[:1]:
            raise ValueError(f"x0[{k}] is {x0[k]}, must be finite")
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
                for j in sorted(index.in_sets_ext[sub.sub_id - 1]):
                    cols = model.state_indices(j)
                    packets.append(
                        ExchangePacket(j, sub.sub_id, Phase.MEASUREMENT, None, cols, x0[cols].copy())
                    )

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
            self.multiplier_step(state)
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
