"""Independent references that the tests compare the package against.

They live beside the tests, not in the package, so that no controller code
path depends on them:

* ``kkt_residuals`` certifies a closed-form row solution by its KKT
  conditions (stationarity, box violation, complementarity);
* ``centralized_local_mpc`` solves the sparsity-constrained synthesis
  problem centrally with the interior-point QP solver, the diagnostic
  baseline the distributed engine is compared against at desk scale;
* ``check_masks`` asserts exact zeros off a global locality mask built
  outside the engine, and ``sample_masks`` runs it inside the consensus
  loop at every k-th iteration.
"""
from __future__ import annotations

import numpy as np

from dlmpc import (
    DenseQP,
    LocalityIndex,
    NetworkModel,
    RowProblem,
    RowSolution,
    solve_qp,
    stacked_constraint,
)


def kkt_residuals(p: RowProblem, sol: RowSolution) -> tuple:
    """(stationarity, primal violation, complementarity) of a row solution.

    Stationarity is the max-norm of
    ``2 weight^2 (phi.x0) x0 + rho (phi - a) + (lam_upper - lam_lower) x0``;
    primal violation measures the box; complementarity multiplies each
    multiplier with its slack.
    """
    prod = float(sol.phi @ p.x0)
    grad = (
        2.0 * p.weight * p.weight * prod * p.x0
        + p.rho * (sol.phi - p.target)
        + (sol.lam_upper - sol.lam_lower) * p.x0
    )
    stationarity = float(np.max(np.abs(grad))) if grad.size else 0.0
    viol = 0.0
    if np.isfinite(p.hi):
        viol = max(viol, prod - p.hi)
    if np.isfinite(p.lo):
        viol = max(viol, p.lo - prod)
    comp = 0.0
    if np.isfinite(p.hi):
        comp = max(comp, abs(sol.lam_upper * (p.hi - prod)))
    if np.isfinite(p.lo):
        comp = max(comp, abs(sol.lam_lower * (prod - p.lo)))
    return stationarity, max(viol, 0.0), comp


def centralized_local_mpc(
    model: NetworkModel,
    index: LocalityIndex,
    x0: np.ndarray,
    row_weight: np.ndarray,
    row_lb: np.ndarray,
    row_ub: np.ndarray,
    tol: float = 1e-9,
) -> dict:
    """Sparsity-constrained synthesis solved centrally (diagnostic baseline).

    Optimizes over the masked entries of the stacked response map subject to
    the feasibility constraint and per-row boxes on ``row . x0``.  Desk-scale
    only: the variable count grows with the mask support.  ``row_weight``,
    ``row_lb`` and ``row_ub`` are per-global-row profiles.
    """
    n = model.n_states
    x0 = np.asarray(x0, dtype=float).ravel()
    n_rows = index.n_rows
    mask = np.zeros((n_rows, n), dtype=bool)
    for sub in index.subsystems:
        mask[np.ix_(sub.rows, sub.row_cols)] = sub.row_mask
    var_of = -np.ones(mask.shape, dtype=int)
    var_of[mask] = np.arange(int(mask.sum()))
    nv = int(mask.sum())

    bounded = np.where(np.isfinite(row_lb) | np.isfinite(row_ub))[0]
    nz = nv + bounded.size
    h = np.zeros((nz, nz))
    g = np.zeros(nz)
    for r in range(n_rows):
        w = row_weight[r]
        if w == 0.0:
            continue
        cols = np.where(mask[r])[0]
        ids = var_of[r, cols]
        xs = x0[cols]
        h[np.ix_(ids, ids)] += 2.0 * w * w * np.outer(xs, xs)
    # each row is charged only along x0, so directions orthogonal to it carry
    # no curvature; a tiny ridge pins them (the reported cost is recomputed
    # from the true objective below, so the perturbation does not leak)
    h[np.arange(nv), np.arange(nv)] += 1e-10

    # feasibility: for each column, the constraint rows touching its masked
    # entries, with the identity as the right-hand side
    eq_rows = []
    eq_rhs = []
    csc = stacked_constraint(model, index.horizon).tocsc()
    for c in range(n):
        rows_c = np.flatnonzero(mask[:, c])
        touched = np.unique(csc[:, rows_c].nonzero()[0])
        coeffs = csc[np.ix_(touched, rows_c)].toarray()
        for r, coeff in zip(touched, coeffs):
            row = np.zeros(nz)
            row[var_of[rows_c, c]] = coeff
            eq_rows.append(row)
            eq_rhs.append(float(r == c))
    for k, r in enumerate(bounded):
        row = np.zeros(nz)
        cols = np.where(mask[r])[0]
        row[var_of[r, cols]] = x0[cols]
        row[nv + k] = -1.0
        eq_rows.append(row)
        eq_rhs.append(0.0)

    lb = np.full(nz, -np.inf)
    ub = np.full(nz, np.inf)
    lb[nv:] = row_lb[bounded]
    ub[nv:] = row_ub[bounded]
    qp = DenseQP(h, g, np.vstack(eq_rows), np.asarray(eq_rhs), lb, ub)
    res = solve_qp(qp, tol=tol)

    phi = np.zeros(mask.shape)
    phi[mask] = res.x[:nv]
    cost = float(np.sum(row_weight**2 * (phi @ x0) ** 2))
    return {"phi": phi, "cost": cost, "status": res.status, "iterations": res.iterations}


def check_masks(engine, state, mask: np.ndarray):
    """Raise AssertionError if phi, psi or lambda is nonzero off ``mask``.

    ``mask`` is the global ``(n_rows, n)`` locality pattern; each block of
    both partitions is compared with its slice of it.
    """
    for sub in engine.index.subsystems:
        for side, rows, cols, blocks in (
            ("row", sub.rows, sub.row_cols, (state.phi_r, state.psi_r, state.lam_r)),
            ("column", sub.col_rows, sub.cols, (state.phi_c, state.psi_c, state.lam_c)),
        ):
            off = ~mask[np.ix_(rows, cols)]
            for which, mats in zip(("phi", "psi", "lambda"), blocks):
                bad = np.argwhere((mats[sub.sub_id - 1] != 0.0) & off)
                if bad.size:
                    r, c = bad[0]
                    raise AssertionError(
                        f"{which} {side} partition: entry ({rows[r]}, {cols[c]}) of subsystem "
                        f"{sub.sub_id} is {mats[sub.sub_id - 1][r, c]} outside the locality "
                        f"mask at iteration {state.iteration}"
                    )


def sample_masks(engine, mask: np.ndarray, every: int = 1) -> list:
    """Make ``engine`` run :func:`check_masks` at every ``every``-th iteration.

    Wraps ``engine.check_convergence``, which the loop calls once per
    iteration right after the multiplier step.  Returns the list that each
    checked iteration number is appended to.
    """
    checked = []
    converged = engine.check_convergence

    def check_convergence(state):
        if state.iteration % every == 0:
            check_masks(engine, state, mask)
            checked.append(state.iteration)
        return converged(state)

    engine.check_convergence = check_convergence
    return checked
