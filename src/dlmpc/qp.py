"""Dense convex QP solver and centralized MPC baselines.

The solver is a standard infeasible-start primal-dual interior-point method
with Mehrotra predictor-corrector steps (path-following on the perturbed KKT
conditions), for problems of the form

    minimize    0.5 x'Hx + g'x
    subject to  A x = b,   lb <= x <= ub   (bounds may be +-inf)

It exists as an independent verification route: nothing here shares a code
path with the closed-form row solver, so agreement between the two is
evidence, not tautology.  ``row_qp`` states one row subproblem for it (the
solver-based row step and the ``validate`` cross-check both use it).
``centralized_mpc`` condenses the full MPC problem into the inputs and
solves one QP, giving the global cost baseline;
``centralized_local_mpc`` solves the sparsity-constrained synthesis problem
centrally, for use as a diagnostic second baseline at desk scale.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.linalg

from .sls import stacked_constraint
from .topology import LocalityIndex, NetworkModel


class QpStructureError(ValueError):
    """Hessian not positive semidefinite, or malformed problem data."""


class QpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    MAX_ITER = "max-iter"


@dataclass
class DenseQP:
    """min 0.5 x'Hx + g'x  s.t.  a_eq x = b_eq,  lb <= x <= ub.

    H is symmetrized on ingestion.  Missing bounds default to +-inf; missing
    equalities (``a_eq`` and ``b_eq`` are given together or not at all) are
    stored as a zero-row block, ``a_eq`` of shape ``(0, n)`` and ``b_eq`` of
    shape ``(0,)``.
    """

    h: np.ndarray
    g: np.ndarray
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=float)
        self.g = np.asarray(self.g, dtype=float).ravel()
        nv = self.g.shape[0]
        if self.h.shape != (nv, nv):
            raise QpStructureError(f"H must be {nv}x{nv}, got {self.h.shape}")
        self.h = 0.5 * (self.h + self.h.T)
        if (self.a_eq is None) != (self.b_eq is None):
            raise QpStructureError("a_eq and b_eq must be given together")
        self.a_eq = np.zeros((0, nv)) if self.a_eq is None else np.asarray(self.a_eq, dtype=float)
        self.b_eq = np.zeros(0) if self.b_eq is None else np.asarray(self.b_eq, dtype=float).ravel()
        if self.a_eq.ndim != 2 or self.a_eq.shape[1] != nv:
            raise QpStructureError("a_eq must have one column per variable")
        if self.a_eq.shape[0] != self.b_eq.shape[0]:
            raise QpStructureError("a_eq and b_eq row counts differ")
        self.lb = (
            np.full(nv, -np.inf) if self.lb is None else np.asarray(self.lb, dtype=float).ravel()
        )
        self.ub = (
            np.full(nv, np.inf) if self.ub is None else np.asarray(self.ub, dtype=float).ravel()
        )
        if self.lb.shape != (nv,) or self.ub.shape != (nv,):
            raise QpStructureError("bounds must have one entry per variable")

    @property
    def n_vars(self) -> int:
        return self.g.shape[0]


@dataclass
class QpResult:
    x: np.ndarray
    status: QpStatus
    nu: np.ndarray
    mu_lo: np.ndarray
    mu_hi: np.ndarray
    iterations: int


def _check_psd(h: np.ndarray):
    scale = max(1.0, float(np.trace(h)) / max(1, h.shape[0]))
    try:
        np.linalg.cholesky(h + 1e-10 * scale * np.eye(h.shape[0]))
    except np.linalg.LinAlgError:
        raise QpStructureError("hessian is not positive semidefinite") from None


def _solve_equality_qp(qp, tol):
    """One least-squares solve of the KKT system of a QP without finite bounds."""
    nv, ne = qp.n_vars, qp.a_eq.shape[0]
    kkt = np.block([[qp.h, qp.a_eq.T], [qp.a_eq, np.zeros((ne, ne))]])
    sol = np.linalg.lstsq(kkt, np.concatenate([-qp.g, qp.b_eq]), rcond=None)[0]
    x, nu = sol[:nv], sol[nv:]
    resid = max(
        np.max(np.abs(qp.h @ x + qp.g + qp.a_eq.T @ nu), initial=0.0),
        np.max(np.abs(qp.a_eq @ x - qp.b_eq), initial=0.0),
    )
    ok = resid <= tol * max(1.0, float(np.abs(qp.g).max(initial=0.0))) * 100
    return QpResult(x, QpStatus.OPTIMAL if ok else QpStatus.MAX_ITER, nu, np.zeros(nv), np.zeros(nv), 1)


def _max_step(v, dv):
    """Largest step in (0, 1] that keeps ``v + step * dv`` nonnegative."""
    neg = dv < 0
    if not np.any(neg):
        return 1.0
    return min(1.0, float(np.min(-v[neg] / dv[neg])))


def solve_qp(qp: DenseQP, tol: float = 1e-9, max_iter: int = 100) -> QpResult:
    """Solve a dense convex QP to the requested KKT tolerance.

    Pinned variables (lb == ub) are folded into the equality block, which
    may have zero rows.  Every other finite bound becomes one inequality
    ``sgn * x[idx] >= bnd`` (lower bounds with ``sgn = +1``, then upper
    bounds with ``sgn = -1`` and ``bnd = -ub``) with one slack and one
    multiplier, split back into ``mu_lo`` and ``mu_hi`` at the end.
    ``status`` is OPTIMAL only if all KKT residuals and the complementarity
    gap meet the tolerance; a numerical breakdown (a singular or non-finite
    KKT matrix) ends the iteration with MAX_ITER.
    """
    _check_psd(qp.h)
    nv, n_user_eq = qp.n_vars, qp.a_eq.shape[0]
    lb, ub = qp.lb.copy(), qp.ub.copy()
    pinned = np.flatnonzero(np.isfinite(lb) & (lb == ub))
    a_eq = np.vstack([qp.a_eq, (pinned[:, None] == np.arange(nv)).astype(float)])
    b_eq = np.concatenate([qp.b_eq, lb[pinned]])
    lb[pinned], ub[pinned] = -np.inf, np.inf

    x_ls = np.linalg.lstsq(a_eq, b_eq, rcond=None)[0]
    eq_scale = max(1.0, float(np.abs(b_eq).max(initial=0.0)))
    if np.any(qp.lb > qp.ub) or np.max(np.abs(a_eq @ x_ls - b_eq), initial=0.0) > 1e-8 * eq_scale:
        return QpResult(
            np.zeros(nv), QpStatus.INFEASIBLE, np.zeros(n_user_eq), np.zeros(nv), np.zeros(nv), 0
        )

    low = np.flatnonzero(np.isfinite(lb))
    upp = np.flatnonzero(np.isfinite(ub))
    if low.size == 0 and upp.size == 0:
        res = _solve_equality_qp(DenseQP(qp.h, qp.g, a_eq, b_eq), tol)
        return _fold_pinned(res, pinned, n_user_eq)
    idx = np.concatenate([low, upp])
    sgn = np.concatenate([np.ones(low.size), -np.ones(upp.size)])
    bnd = sgn * np.concatenate([lb[low], ub[upp]])

    # strictly interior start
    both = np.isfinite(lb) & np.isfinite(ub)
    width = np.where(both, ub - lb, np.inf)
    margin = np.where(both, np.minimum(1.0, width / 4.0), 1.0)
    x = np.where(np.isfinite(lb), np.maximum(x_ls, lb + margin), x_ls)
    x = np.where(np.isfinite(ub), np.minimum(x, ub - margin), x)

    ne, n_ineq = a_eq.shape[0], idx.size
    nu = np.zeros(ne)
    z = np.ones(n_ineq)
    tau = 0.995
    scale = max(eq_scale, float(np.abs(qp.g).max(initial=0.0)))

    status = QpStatus.MAX_ITER
    it = 0
    for it in range(1, max_iter + 1):
        s = np.maximum(sgn * x[idx] - bnd, 1e-300)
        r_d = qp.h @ x + qp.g + a_eq.T @ nu - np.bincount(idx, sgn * z, nv)
        r_p = a_eq @ x - b_eq
        mu = s @ z / n_ineq

        if (
            np.max(np.abs(r_d)) <= tol * scale
            and np.max(np.abs(r_p), initial=0.0) <= tol * scale
            and mu <= tol * scale
        ):
            status = QpStatus.OPTIMAL
            break

        if not (np.all(np.isfinite(x)) and np.isfinite(mu)):
            break  # numerical breakdown, leave status at MAX_ITER
        # the central path of a feasible problem stays bounded here (curvature
        # is positive along every unbounded direction for these QPs), so
        # smoothly diverging iterates certify an empty feasible set
        blowup = max(
            float(np.max(np.abs(x))), float(np.max(z)), float(np.max(np.abs(nu), initial=0.0))
        )
        if blowup > 1e13 * scale:
            status = QpStatus.INFEASIBLE
            break

        kkt = np.zeros((nv + ne, nv + ne))
        kkt[:nv, :nv] = qp.h
        kkt[np.arange(nv), np.arange(nv)] += np.bincount(idx, z / s, nv)
        kkt[:nv, nv:] = a_eq.T
        kkt[nv:, :nv] = a_eq
        lu, piv, info = scipy.linalg.lapack.dgetrf(kkt)
        if info or not np.all(np.isfinite(lu)):
            break  # singular or non-finite KKT matrix, leave status at MAX_ITER

        def newton(comp):
            """Newton step for slack-times-multiplier target ``comp``."""
            w = (comp - s * z) / s
            rhs = np.concatenate([np.bincount(idx, sgn * w, nv) - r_d, -r_p])
            sol = scipy.linalg.lapack.dgetrs(lu, piv, rhs)[0]
            ds = sgn * sol[idx]
            return sol[:nv], sol[nv:], ds, w - (z / s) * ds

        _, _, ds_a, dz_a = newton(np.zeros(n_ineq))
        alpha_p, alpha_d = _max_step(s, ds_a), _max_step(z, dz_a)
        mu_aff = (s + alpha_p * ds_a) @ (z + alpha_d * dz_a) / n_ineq
        sigma = min(0.99, max((mu_aff / mu) ** 3, 1e-10))

        dx, dnu, ds, dz = newton(sigma * mu - ds_a * dz_a)
        alpha_p, alpha_d = tau * _max_step(s, ds), tau * _max_step(z, dz)
        x = x + alpha_p * dx
        nu = nu + alpha_d * dnu
        z = z + alpha_d * dz

    # a stalled equality residual with interior-held bounds means the
    # equalities and the box cannot both be met
    if status is QpStatus.MAX_ITER and np.max(np.abs(a_eq @ x - b_eq), initial=0.0) > 1e-6 * scale:
        status = QpStatus.INFEASIBLE

    mu_lo, mu_hi = np.zeros(nv), np.zeros(nv)
    mu_lo[low], mu_hi[upp] = z[: low.size], z[low.size :]
    return _fold_pinned(QpResult(x, status, nu, mu_lo, mu_hi, it), pinned, n_user_eq)


def _fold_pinned(result: QpResult, pinned: np.ndarray, n_user_eq: int) -> QpResult:
    """Map duals of internal pin rows back onto bound multipliers."""
    extra = result.nu[n_user_eq:]
    result.nu = result.nu[:n_user_eq]
    for k, i in enumerate(pinned):
        result.mu_lo[i] += max(-extra[k], 0.0)
        result.mu_hi[i] += max(extra[k], 0.0)
    return result


def row_qp(target, x0, rho: float, lo: float, hi: float, weight: float) -> DenseQP:
    """One row's proximal subproblem in slack form, variables ``(phi, s)``.

    minimize ``(rho/2) ||phi - target||^2 + weight^2 s^2`` subject to
    ``x0 . phi - s = 0`` and ``lo <= s <= hi``; the last variable's bound
    multipliers are the row's (lower, upper) box multipliers.
    """
    m = target.size
    h = np.zeros((m + 1, m + 1))
    h[np.arange(m), np.arange(m)] = rho
    h[m, m] = 2.0 * weight * weight
    g = np.concatenate([-rho * target, [0.0]])
    a_eq = np.concatenate([x0, [-1.0]])[None, :]
    lb = np.full(m + 1, -np.inf)
    ub = np.full(m + 1, np.inf)
    lb[m], ub[m] = lo, hi
    return DenseQP(h, g, a_eq, np.zeros(1), lb, ub)


# ---------------------------------------------------------------------------
# centralized MPC baselines


@dataclass
class CentralizedSolution:
    u_sequence: np.ndarray      # (T, p)
    planned_states: np.ndarray  # (T+1, n)
    planned_cost: float
    status: QpStatus
    iterations: int


def _prediction_matrices(model: NetworkModel, horizon: int) -> tuple:
    a, b = model.full_a(), model.full_b()
    n, p = model.n_states, model.n_inputs
    g = np.zeros(((horizon + 1) * n, n))
    h = np.zeros(((horizon + 1) * n, horizon * p))
    g[:n] = np.eye(n)
    for t in range(1, horizon + 1):
        g[t * n : (t + 1) * n] = a @ g[(t - 1) * n : t * n]
        h[t * n : (t + 1) * n] = a @ h[(t - 1) * n : t * n]
        h[t * n : (t + 1) * n, (t - 1) * p : t * p] += b
    return g, h


def _stage_weight_stack(q_diag, qt_diag, horizon, n) -> np.ndarray:
    w = np.zeros((horizon + 1) * n)
    for t in range(1, horizon):
        w[t * n : (t + 1) * n] = q_diag
    w[horizon * n :] = qt_diag
    return w


def centralized_mpc(
    model: NetworkModel,
    horizon: int,
    x0: np.ndarray,
    q_diag: np.ndarray,
    r_diag: np.ndarray,
    qt_diag: np.ndarray,
    state_lb: np.ndarray | None = None,
    state_ub: np.ndarray | None = None,
    input_lb: np.ndarray | None = None,
    input_ub: np.ndarray | None = None,
    tol: float = 1e-9,
) -> CentralizedSolution:
    """Full-information MPC step via one condensed QP over the inputs.

    States are eliminated through the prediction matrices; box constraints on
    predicted states (applied for t = 1..T) enter through auxiliary variables
    pinned to the predicted values by equality rows.  Costs follow the shared
    convention: states weighted for t = 1..T-1 by ``q_diag``, terminal state
    by ``qt_diag``, all inputs by ``r_diag``.
    """
    n, p = model.n_states, model.n_inputs
    x0 = np.asarray(x0, dtype=float).ravel()
    if x0.shape != (n,):
        raise ValueError(f"x0 must have {n} entries")
    g_mat, h_mat = _prediction_matrices(model, horizon)
    w_stack = _stage_weight_stack(np.asarray(q_diag, float), np.asarray(qt_diag, float), horizon, n)
    r_stack = np.tile(np.asarray(r_diag, float), horizon)

    free_response = g_mat @ x0
    h_u = 2.0 * (h_mat.T * w_stack) @ h_mat
    h_u[np.arange(horizon * p), np.arange(horizon * p)] += 2.0 * r_stack
    g_u = 2.0 * h_mat.T @ (w_stack * free_response)

    s_lb = np.full(n, -np.inf) if state_lb is None else np.asarray(state_lb, float)
    s_ub = np.full(n, np.inf) if state_ub is None else np.asarray(state_ub, float)
    stacked_lb = np.concatenate([np.full(n, -np.inf)] + [s_lb] * horizon)
    stacked_ub = np.concatenate([np.full(n, np.inf)] + [s_ub] * horizon)
    sel = np.where(np.isfinite(stacked_lb) | np.isfinite(stacked_ub))[0]

    nu_vars = horizon * p
    lb_u = np.full(nu_vars, -np.inf) if input_lb is None else np.tile(np.asarray(input_lb, float), horizon)
    ub_u = np.full(nu_vars, np.inf) if input_ub is None else np.tile(np.asarray(input_ub, float), horizon)

    # without a state box there are no auxiliary variables and no equality rows
    nz = nu_vars + sel.size
    h_full = np.zeros((nz, nz))
    h_full[:nu_vars, :nu_vars] = h_u
    a_eq = np.zeros((sel.size, nz))
    a_eq[:, :nu_vars] = -h_mat[sel]
    a_eq[np.arange(sel.size), nu_vars + np.arange(sel.size)] = 1.0
    qp = DenseQP(
        h_full, np.concatenate([g_u, np.zeros(sel.size)]), a_eq, free_response[sel],
        np.concatenate([lb_u, stacked_lb[sel]]), np.concatenate([ub_u, stacked_ub[sel]]),
    )
    res = solve_qp(qp, tol=tol)
    u = res.x[:nu_vars]
    states = (free_response + h_mat @ u).reshape(horizon + 1, n)
    cost = float(
        np.sum(w_stack * (free_response + h_mat @ u) ** 2) + np.sum(r_stack * u**2)
    )
    return CentralizedSolution(
        u_sequence=u.reshape(horizon, p),
        planned_states=states,
        planned_cost=cost,
        status=res.status,
        iterations=res.iterations,
    )


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
