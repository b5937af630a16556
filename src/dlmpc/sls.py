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
embedded in the first n rows (``stacked_constraint`` builds Z on demand
from the entries that the model's sparse A and B store).
The constraint decomposes column-block by column-block, so the column step
of each subsystem i has an explicit solution: with ``Z_i`` the constraint
rows touching its coupled row set and ``E_i`` the matching slice of E,

    psi_i = (I - pinv(Z_i) Z_i) v + pinv(Z_i) E_i ,

one affine map per subsystem whose gain and offset are computed once at
set-up.  Each slice is read straight from the CSC storage of Z's columns
for the coupled row set, so it costs what those columns hold and no scan of
Z's rows.  When the rows of ``Z_i`` are independent, a QR factorization
``Z_i^T = q r`` gives ``pinv(Z_i) = q r^-T`` and ``pinv(Z_i) Z_i = q q^T``
without an SVD; a slice with dependent rows falls back to
``np.linalg.pinv``.  Both routes use ``numpy.linalg`` only: a
``scipy.linalg`` factorization here would start scipy's own BLAS thread
pool, which contends with numpy's for the cores the consensus loop runs
on.  Neither Z nor E is kept afterwards.  The maps of subsystems whose
slices share a shape are stacked, and :func:`project_column` applies any
:class:`ColumnProjector`, so one batched call projects a whole class.
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
    its own columns' time-0 rows; the pseudo-inverse comes from a QR
    factorization of ``Z.T`` when Z's rows are independent, else from
    ``np.linalg.pinv``.  A shape class stacks its members' maps along a
    leading axis.
    """

    gain: np.ndarray
    offset: np.ndarray


@dataclass(frozen=True)
class FeasibilityOperator:
    """The column projectors: ``classes[k]`` stacks, as their only storage, the
    maps of the subsystems ``members[k]`` (increasing ids), whose slices share a
    shape; subsystem ``members[k][s]``'s map is layer ``s`` of the stacks."""

    classes: tuple
    members: tuple


def stacked_constraint(model: NetworkModel, horizon: int) -> sp.csr_matrix:
    """Stacked dynamics constraint Z over the horizon, as a CSR matrix.

    Its entries are the identity and, at every step, ``-model.a`` and
    ``-model.b``; its right-hand side is ``np.eye(Z.shape[0], n)``.
    """
    n, p, t_hor = model.n_states, model.n_inputs, horizon
    n_rows = n * (t_hor + 1)
    eye = np.arange(n_rows)
    t = np.arange(t_hor)[:, None]
    a, b = model.a, model.b
    # the identity, then the stored entries of -A and -B at every time step
    rows = np.concatenate([eye, ((t + 1) * n + a.row).ravel(), ((t + 1) * n + b.row).ravel()])
    cols = np.concatenate([eye, (t * n + a.col).ravel(), (n_rows + t * p + b.col).ravel()])
    vals = np.concatenate([np.ones(n_rows), np.tile(-a.data, t_hor), np.tile(-b.data, t_hor)])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n_rows, n_rows + p * t_hor))


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
    dynamics) raises ``ValueError``.  A slice's rows count as independent
    when every ``|diag r|`` of the QR of its transpose exceeds ``1e-8`` of
    the largest; other slices take ``np.linalg.pinv``.  Each map is written
    into its class's preallocated stacks, and the stacked constraint is
    dropped.
    """
    csc = stacked_constraint(model, index.horizon).tocsc()
    col_nnz = np.diff(csc.indptr)
    shapes = [(sub.col_rows.size, sub.cols.size) for sub in index.subsystems]
    members = {sh: tuple(i for i, s in enumerate(shapes, 1) if s == sh) for sh in dict.fromkeys(shapes)}
    stacks = tuple(ColumnProjector(np.empty((len(v), m, m)), np.empty((len(v), m, c)))
                   for (m, c), v in members.items())
    slot = {i: (cls, s) for cls, ids in zip(stacks, members.values()) for s, i in enumerate(ids)}
    for sub in index.subsystems:
        # the slice, from the CSC storage of its columns alone
        starts, counts = csc.indptr[sub.col_rows], col_nnz[sub.col_rows]
        at = np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
        touched, row_at = np.unique(csc.indices[at], return_inverse=True)
        z = np.zeros((touched.size, sub.col_rows.size))
        z[row_at, np.repeat(np.arange(sub.col_rows.size), counts)] = csc.data[at]
        rhs = (touched[:, None] == sub.cols).astype(float)
        if not rhs.any(axis=0).all():
            raise ValueError(
                f"subsystem {sub.sub_id}: constraint rows with nonzero rhs "
                "fell outside the coupled row set"
            )
        cls, s = slot[sub.sub_id]
        q, r = np.linalg.qr(z.T)
        diag = np.abs(np.diagonal(r))
        if z.shape[0] <= z.shape[1] and diag.min() > 1e-8 * diag.max():
            # independent rows: pinv(z) = q r^-T and pinv(z) z = q q^T
            cls.offset[s] = q @ np.linalg.solve(r.T, rhs)
            cls.gain[s] = np.eye(z.shape[1]) - q @ q.T
        else:
            z_plus = np.linalg.pinv(z)
            cls.offset[s] = z_plus @ rhs
            cls.gain[s] = np.eye(z.shape[1]) - z_plus @ z
        resid = float(np.max(np.abs(z @ cls.offset[s] - rhs)))
        if resid > 1e-8 * max(1.0, float(np.abs(z).max())):
            raise ValueError(
                f"subsystem {sub.sub_id}: no response map within locality d={index.d} "
                f"meets the dynamics over horizon T={index.horizon} "
                f"(constraint residual {resid:.2e})"
            )
    return FeasibilityOperator(stacks, tuple(members.values()))


def project_column(proj: ColumnProjector, v: np.ndarray) -> np.ndarray:
    """Euclidean projection of a column slice onto the feasible affine set.

    Returns ``gain @ v + offset``: the nearest point to v that satisfies the
    constraint rows of ``proj``, one subsystem's projector or a class stack
    of them, in which case ``v`` stacks the members' slices, each projected
    bitwise as alone.  Idempotent.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != proj.offset.shape:
        raise ValueError(f"column slice must have shape {proj.offset.shape}, got {v.shape}")
    return proj.gain @ v + proj.offset
