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
rows touching its coupled row set and ``E_i`` the matching slice of E, the
projection onto ``{psi : Z_i psi = E_i}`` is the null-space form

    psi_i = pinv(Z_i) E_i + N_i (N_i^T v) ,  N_i an orthonormal basis of null(Z_i),

computed once at set-up.  All slices are read in one pass over the CSC
storage of Z's columns for the coupled row sets, so they cost what those
columns hold and no scan of Z's rows.  When the k rows of ``Z_i`` are independent, a
complete QR factorization ``Z_i^T = q r`` gives ``N_i`` (the trailing
columns of q) and ``pinv(Z_i) = q[:, :k] r[:k]^-T`` without an SVD; a slice
with dependent rows takes an SVD, cut where numpy's ``pinv`` cuts
(singular values up to ``1e-15`` of the largest are zero): ``N_i`` is the
right singular vectors past the rank, the leading ones give the offset.
Both use ``numpy.linalg`` only: a ``scipy.linalg`` factorization here would
start scipy's own BLAS thread pool, which contends with numpy's for the
cores the consensus loop runs on.  Neither Z nor E is kept afterwards.  The
maps of subsystems whose shapes match are stacked, and
:func:`project_column` applies any :class:`ColumnProjector`, so one batched
call projects a whole class.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise

import numpy as np
import scipy.sparse as sp

from .topology import LocalityIndex, NetworkModel, ranges


@dataclass(frozen=True)
class ColumnProjector:
    """Explicit column step of one subsystem: ``psi = offset + basis @ (basis.T @ v)``.

    For its slice Z of the stacked constraint (m columns, one per coupled
    row) and ``rhs``, the identity on its c own columns' time-0 rows,
    ``basis`` (m x f) is an orthonormal basis of null(Z) and ``offset =
    pinv(Z) @ rhs`` (m x c): m * f + m * c floats rather than m * m.
    A shape class stacks its members' maps along a leading axis.
    """

    basis: np.ndarray
    offset: np.ndarray


@dataclass(frozen=True)
class FeasibilityOperator:
    """The column projectors: ``classes[k]`` stacks, as their only storage, the
    maps of the subsystems ``members[k]`` (increasing ids), whose bases and
    offsets share their shapes (the null width f is part of the key);
    subsystem ``members[k][s]``'s map is layer ``s`` of the stacks."""

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


def _slices(model: NetworkModel, index: LocalityIndex):
    """Yield each subsystem, its dense slice of Z and the rows of Z that the slice touches.

    One ``np.unique`` of the keys ``slice * rows(Z) + row`` over the entries
    that the coupled columns store gives every slice's rows and each entry's
    place among them; the flat arrays go once the last slice is taken.
    """
    csc = stacked_constraint(model, index.horizon).tocsc()
    n_z, subs = csc.shape[0], index.subsystems
    coupled = np.concatenate([sub.col_rows for sub in subs])
    counts = np.diff(csc.indptr)[coupled]
    at = ranges(csc.indptr[coupled], counts)
    col_bounds = np.cumsum([0] + [sub.col_rows.size for sub in subs])
    ent_bounds = np.concatenate([[0], np.cumsum(counts)])[col_bounds]
    slice_key = np.repeat(np.arange(len(subs), dtype=np.int64) * n_z, np.diff(ent_bounds))
    touched, row_at = np.unique(slice_key + csc.indices[at], return_inverse=True)
    row_bounds = np.searchsorted(touched, np.arange(len(subs) + 1) * n_z)
    touched %= n_z
    vals = csc.data[at]
    bounds = zip(*(pairwise(b.tolist()) for b in (col_bounds, ent_bounds, row_bounds)))
    for sub, ((c0, c1), (e0, e1), (r0, r1)) in zip(subs, bounds):
        z = np.zeros((r1 - r0, c1 - c0))
        z[row_at[e0:e1] - r0, np.repeat(np.arange(c1 - c0), counts[c0:c1])] = vals[e0:e1]
        yield sub, z, touched[r0:r1]


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
    the largest; other slices take the SVD.  The null width is known only
    once a slice is factorized, so the maps are grouped into classes after
    they are built; the stacked constraint and the flat arrays of the one
    slicing pass are dropped before the classes are stacked.
    """
    groups = {}
    for sub, z, touched in _slices(model, index):
        rhs = (touched[:, None] == sub.cols).astype(float)
        if not rhs.any(axis=0).all():
            raise ValueError(
                f"subsystem {sub.sub_id}: constraint rows with nonzero rhs "
                "fell outside the coupled row set"
            )
        q, r = np.linalg.qr(z.T, mode="complete")
        k, diag = r.shape[1], np.abs(np.diagonal(r))
        if k <= z.shape[1] and diag.min() > 1e-8 * diag.max():
            # independent rows: z.T = q[:, :k] r[:k], so pinv(z) = q[:, :k] r[:k]^-T
            basis, offset = q[:, k:], q[:, :k] @ np.linalg.solve(r[:k].T, rhs)
        else:
            u, s, vt = np.linalg.svd(z)
            rank = int(np.sum(s > 1e-15 * s.max()))  # numpy pinv's cut
            basis, offset = vt[rank:].T, vt[:rank].T @ ((u[:, :rank].T @ rhs) / s[:rank, None])
        resid = float(np.max(np.abs(z @ offset - rhs)))
        if resid > 1e-8 * max(1.0, float(np.abs(z).max())):
            raise ValueError(
                f"subsystem {sub.sub_id}: no response map within locality d={index.d} "
                f"meets the dynamics over horizon T={index.horizon} "
                f"(constraint residual {resid:.2e})"
            )
        # a copy of the basis, so that the factors need not outlive the loop
        groups.setdefault((basis.shape, offset.shape), []).append((sub.sub_id, basis.copy(), offset))
    members, bases, offsets = zip(*(zip(*group) for group in groups.values()))  # per class
    return FeasibilityOperator(tuple(map(ColumnProjector, map(np.stack, bases), map(np.stack, offsets))), members)


def project_column(proj: ColumnProjector, v: np.ndarray) -> np.ndarray:
    """Euclidean projection of a column slice onto the feasible affine set.

    Returns ``offset + basis @ (basis.T @ v)``: the nearest point to v that
    satisfies the constraint rows of ``proj``, one subsystem's projector or
    a class stack of them, in which case ``v`` stacks the members' slices,
    each projected bitwise as alone.  Idempotent.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != proj.offset.shape:
        raise ValueError(f"column slice must have shape {proj.offset.shape}, got {v.shape}")
    return proj.offset + proj.basis @ (np.swapaxes(proj.basis, -1, -2) @ v)
