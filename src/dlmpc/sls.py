"""Closed-loop response maps and the affine feasibility constraint.

For ``x(t+1) = A x(t) + B u(t)`` over a horizon T, the closed-loop response
to the initial state stacks into

    phi_x : (n*(T+1), n)   with  phi_x[t-block] = (state at t) / (x0)
    phi_u : (p*T,     n)   with  phi_u[t-block] = (input at t) / (x0)

A pair (phi_x, phi_u) is achievable by some causal linear controller iff it
satisfies one affine constraint: the time-0 block of phi_x is the identity
and every later block obeys the dynamics,

    phi_x[t+1] - A phi_x[t] - B phi_u[t] = 0 .

Stacked, that reads ``z_ab @ [phi_x; phi_u] = rhs`` with ``rhs`` the identity
embedded in the first n rows.  The constraint decomposes column-block by
column-block, so each subsystem can project its own column slice using a
precomputed pseudo-inverse of its slice of ``z_ab``.  Only those slices of
``rhs`` are stored, one per subsystem; the global right-hand side is never
formed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .topology import LocalityIndex, NetworkModel


@dataclass(frozen=True)
class ResponseColumn:
    """First block column of a closed-loop response map."""

    phi_x: np.ndarray
    phi_u: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "phi_x", np.asarray(self.phi_x, dtype=float))
        object.__setattr__(self, "phi_u", np.asarray(self.phi_u, dtype=float))
        if self.phi_x.shape[1] != self.phi_u.shape[1] and self.phi_u.size:
            raise ValueError("phi_x and phi_u must share a column count")

    @property
    def stacked(self) -> np.ndarray:
        return np.vstack([self.phi_x, self.phi_u])


@dataclass(frozen=True)
class ColumnProjector:
    """Per-subsystem slice of the feasibility constraint.

    ``constraint_rows`` are the rows of the stacked constraint that touch the
    subsystem's coupled row set; ``z_slice`` is the dense sub-block,
    ``z_pinv`` its Moore-Penrose pseudo-inverse (rank-revealing SVD), and
    ``rhs`` the matching slice of the right-hand side: the identity
    restricted to ``constraint_rows`` and the subsystem's own columns.
    """

    constraint_rows: np.ndarray
    z_slice: np.ndarray
    z_pinv: np.ndarray
    rhs: np.ndarray


@dataclass(frozen=True)
class FeasibilityOperator:
    """Stacked achievability constraint plus per-subsystem projectors.

    The right-hand side lives in the projectors only; the global one is
    ``np.eye(z_ab.shape[0], n)``.
    """

    z_ab: sp.csr_matrix
    horizon: int
    projectors: tuple

    def to_dense(self) -> np.ndarray:
        return self.z_ab.toarray()


def _stacked_z_ab(model: NetworkModel, horizon: int) -> sp.csr_matrix:
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
    """Build the stacked constraint and each subsystem's column projector.

    A constraint row enters a subsystem's slice iff it has structural support
    on that subsystem's coupled row set; excluded rows read 0 = 0 for those
    columns.  The right-hand side is nonzero only on the time-0 state row of
    each own column, so at build time every such row must be in the slice.
    """
    t_hor = index.horizon
    z_ab = _stacked_z_ab(model, t_hor)

    csc = z_ab.tocsc()
    projectors = []
    for sub in index.subsystems:
        touched = np.unique(csc[:, sub.col_rows].nonzero()[0])
        z_slice = csc[np.ix_(touched, sub.col_rows)].toarray()
        rhs = (touched[:, None] == sub.cols).astype(float)
        if not rhs.any(axis=0).all():
            raise ValueError(
                f"subsystem {sub.sub_id}: constraint rows with nonzero rhs "
                "fell outside the coupled row set"
            )
        projectors.append(
            ColumnProjector(
                constraint_rows=touched,
                z_slice=z_slice,
                z_pinv=np.linalg.pinv(z_slice),
                rhs=rhs,
            )
        )
    return FeasibilityOperator(z_ab=z_ab, horizon=t_hor, projectors=tuple(projectors))


def project_column(op: FeasibilityOperator, i: int, v: np.ndarray) -> np.ndarray:
    """Euclidean projection of a column slice onto the feasible affine set.

    Returns ``v + pinv(Z) @ (rhs - Z @ v)`` for subsystem i's slice Z: the
    minimum-norm correction that restores ``Z @ result = rhs``.  Idempotent.
    """
    proj = op.projectors[i - 1]
    v = np.asarray(v, dtype=float)
    if v.shape[0] != proj.z_slice.shape[1]:
        raise ValueError(
            f"column slice for subsystem {i} must have "
            f"{proj.z_slice.shape[1]} rows, got {v.shape[0]}"
        )
    return v + proj.z_pinv @ (proj.rhs - proj.z_slice @ v)


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
) -> ResponseColumn:
    """First response block column realized by a causal time-varying gain.

    ``k`` maps the stacked state trajectory to the stacked input trajectory,
    block lower-triangular (input at t may read states 0..t).  The response
    follows by rolling the closed loop forward from an identity at t=0, so it
    satisfies the feasibility constraint by construction.
    """
    k = np.asarray(k, dtype=float)
    _check_controller_shape(model, k, horizon)
    n, p = model.n_states, model.n_inputs
    a, b = model.full_a(), model.full_b()
    x_blocks = [np.eye(n)]
    u_blocks = []
    for t in range(horizon):
        u_t = np.zeros((p, n))
        for s in range(t + 1):
            u_t += k[t * p : (t + 1) * p, s * n : (s + 1) * n] @ x_blocks[s]
        u_blocks.append(u_t)
        x_blocks.append(a @ x_blocks[t] + b @ u_t)
    return ResponseColumn(
        phi_x=np.vstack(x_blocks),
        phi_u=np.vstack(u_blocks) if u_blocks else np.zeros((0, n)),
    )


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
