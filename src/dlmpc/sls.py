"""Closed-loop response maps and the affine feasibility constraint.

For ``x(t+1) = A x(t) + B u(t)`` over a horizon T, the closed-loop response
to the initial state stacks into

    phi_x : (n*(T+1), n)   with  phi_x[t-block] = (state at t) / (x0)
    phi_u : (p*T,     n)   with  phi_u[t-block] = (input at t) / (x0)

A pair (phi_x, phi_u) is achievable by some causal linear controller iff it
satisfies one affine constraint: the time-0 block of phi_x is the identity
and every later block obeys the dynamics,

    phi_x[t+1] - A phi_x[t] - B phi_u[t] = 0 .

Stacked, that reads ``Z @ [phi_x; phi_u] = E`` with ``E`` the identity
embedded in the first n rows (``stacked_constraint`` builds Z on demand).
The constraint decomposes column-block by column-block, so the column step
of each subsystem i has an explicit solution: with ``Z_i`` the constraint
rows touching its coupled row set and ``E_i`` the matching slice of E,

    psi_i = (I - pinv(Z_i) Z_i) v + pinv(Z_i) E_i ,

one affine map per subsystem whose gain and offset are computed once at
set-up.  Neither Z nor E is kept afterwards.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .topology import LocalityIndex, NetworkModel


@dataclass(frozen=True)
class ColumnProjector:
    """Explicit column step of one subsystem: ``psi = gain @ v + offset``.

    ``gain = I - pinv(Z) @ Z`` (square, one row per coupled row) and
    ``offset = pinv(Z) @ rhs`` (one column per own column), where Z is the
    subsystem's slice of the stacked constraint and ``rhs`` the identity on
    its own columns' time-0 rows; the pseudo-inverse is the SVD one.
    """

    gain: np.ndarray
    offset: np.ndarray


@dataclass(frozen=True)
class FeasibilityOperator:
    """One column projector per subsystem, in subsystem order."""

    projectors: tuple


def stacked_constraint(model: NetworkModel, horizon: int) -> sp.csr_matrix:
    """Stacked dynamics constraint Z over the horizon, as a CSR matrix.

    Its right-hand side is ``np.eye(Z.shape[0], n)``.
    """
    n, p, t_hor = model.n_states, model.n_inputs, horizon
    n_rows = n * (t_hor + 1)
    eye = np.arange(n_rows)
    rows, cols, vals = [eye], [eye], [np.ones(n_rows)]
    t = np.arange(t_hor)[:, None]
    # -A and -B blocks of every time step, as COO triplets of their nonzeros
    for blocks, col_offsets, col0, width in (
        (model.a_blocks, model.state_offsets, 0, n),
        (model.b_blocks, model.input_offsets, n_rows, p),
    ):
        for (i, j), blk in blocks.items():
            r, c = np.nonzero(blk)
            rows.append(((t + 1) * n + model.state_offsets[i - 1] + r).ravel())
            cols.append((col0 + t * width + col_offsets[j - 1] + c).ravel())
            vals.append(np.tile(-blk[r, c], t_hor))
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_rows, n_rows + p * t_hor),
    )


def assemble_feasibility_operator(
    model: NetworkModel, index: LocalityIndex
) -> FeasibilityOperator:
    """Build each subsystem's column projector from the stacked constraint.

    A constraint row enters a subsystem's slice iff it has structural support
    on that subsystem's coupled row set; excluded rows read 0 = 0 for those
    columns.  The right-hand side is nonzero only on the time-0 state row of
    each own column, so at build time every such row must be in the slice.
    A slice whose projection cannot meet its constraint (``Z @ offset`` off
    ``rhs`` beyond rounding: no response map within the locality obeys the
    dynamics) raises ``ValueError``.  The stacked constraint itself is
    dropped once the projectors are built.
    """
    csc = stacked_constraint(model, index.horizon).tocsc()
    projectors = []
    for sub in index.subsystems:
        block = csc[:, sub.col_rows]
        touched = np.flatnonzero(block.getnnz(axis=1))
        z = block[touched].toarray()
        rhs = (touched[:, None] == sub.cols).astype(float)
        if not rhs.any(axis=0).all():
            raise ValueError(
                f"subsystem {sub.sub_id}: constraint rows with nonzero rhs "
                "fell outside the coupled row set"
            )
        z_plus = np.linalg.pinv(z)
        offset = z_plus @ rhs
        resid = float(np.max(np.abs(z @ offset - rhs)))
        if resid > 1e-8 * max(1.0, float(np.abs(z).max())):
            raise ValueError(
                f"subsystem {sub.sub_id}: no response map within locality d={index.d} "
                f"meets the dynamics over horizon T={index.horizon} "
                f"(constraint residual {resid:.2e})"
            )
        projectors.append(ColumnProjector(gain=np.eye(z.shape[1]) - z_plus @ z, offset=offset))
    return FeasibilityOperator(projectors=tuple(projectors))


def project_column(op: FeasibilityOperator, i: int, v: np.ndarray) -> np.ndarray:
    """Euclidean projection of a column slice onto the feasible affine set.

    Returns ``gain @ v + offset`` for subsystem i: the nearest point to v
    that satisfies the subsystem's constraint rows.  Idempotent.
    """
    proj = op.projectors[i - 1]
    v = np.asarray(v, dtype=float)
    if v.shape != proj.offset.shape:
        raise ValueError(
            f"column slice for subsystem {i} must have shape "
            f"{proj.offset.shape}, got {v.shape}"
        )
    return proj.gain @ v + proj.offset


def _check_controller_shape(model: NetworkModel, k: np.ndarray, horizon: int):
    n, p = model.n_states, model.n_inputs
    if k.shape != (p * horizon, n * (horizon + 1)):
        raise ValueError(
            f"controller must have shape {(p * horizon, n * (horizon + 1))}, got {k.shape}"
        )
    for t in range(horizon):
        for s in range(t + 1, horizon + 1):
            blk = k[t * p : (t + 1) * p, s * n : (s + 1) * n]
            if np.any(blk != 0.0):
                raise ValueError(
                    f"controller is not causal: input block t={t} reads state block s={s}"
                )


def response_from_controller(
    model: NetworkModel, k: np.ndarray, horizon: int
) -> tuple:
    """First response block column ``(phi_x, phi_u)`` realized by a causal gain.

    ``k`` maps the stacked state trajectory to the stacked input trajectory,
    block lower-triangular (input at t may read states 0..t).  The result is
    the response to the initial state, the first block column of
    :func:`full_response_from_controller`, so it satisfies the feasibility
    constraint by construction.
    """
    n = model.n_states
    phi_x, phi_u = full_response_from_controller(model, k, horizon)
    return phi_x[:, :n], phi_u[:, :n]


def full_response_from_controller(
    model: NetworkModel, k: np.ndarray, horizon: int
) -> tuple:
    """Full square response maps realized by a causal gain.

    Column block s is the response to a unit disturbance entering the state
    at time s; stacking all s gives ``phi_x`` of shape
    ``(n*(T+1), n*(T+1))`` (block lower-triangular, identity diagonal) and
    ``phi_u`` of shape ``(p*T, n*(T+1))``.
    """
    k = np.asarray(k, dtype=float)
    _check_controller_shape(model, k, horizon)
    n, p = model.n_states, model.n_inputs
    a, b = model.full_a(), model.full_b()
    phi_x = np.zeros((n * (horizon + 1), n * (horizon + 1)))
    phi_u = np.zeros((p * horizon, n * (horizon + 1)))
    for s in range(horizon + 1):
        x_blocks = {s: np.eye(n)}
        for t in range(s, horizon):
            u_t = np.zeros((p, n))
            for r in range(s, t + 1):
                u_t += k[t * p : (t + 1) * p, r * n : (r + 1) * n] @ x_blocks[r]
            phi_u[t * p : (t + 1) * p, s * n : (s + 1) * n] = u_t
            x_blocks[t + 1] = a @ x_blocks[t] + b @ u_t
        for t, blk in x_blocks.items():
            phi_x[t * n : (t + 1) * n, s * n : (s + 1) * n] = blk
    return phi_x, phi_u


def controller_from_response(phi_x: np.ndarray, phi_u: np.ndarray) -> np.ndarray:
    """Recover the realizing gain ``k = phi_u @ inv(phi_x)``.

    ``phi_x`` must be the full square response (block lower-triangular with
    identity diagonal blocks), which is always invertible.
    """
    phi_x = np.asarray(phi_x, dtype=float)
    phi_u = np.asarray(phi_u, dtype=float)
    if phi_x.shape[0] != phi_x.shape[1]:
        raise ValueError("phi_x must be the full square response map")
    return phi_u @ np.linalg.inv(phi_x)


def extract_control(u0_rows: np.ndarray, x0_slice: np.ndarray) -> np.ndarray:
    """Local input from the time-0 input rows: ``u0_rows @ x0_slice``."""
    u0_rows = np.asarray(u0_rows, dtype=float)
    x0_slice = np.asarray(x0_slice, dtype=float)
    if u0_rows.shape[1] != x0_slice.shape[0]:
        raise ValueError("row slice and x0 slice disagree on width")
    return u0_rows @ x0_slice
