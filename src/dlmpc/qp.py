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

    H is symmetrized on ingestion.  Missing bounds default to +-inf.
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
        if self.a_eq is not None:
            self.a_eq = np.asarray(self.a_eq, dtype=float)
            self.b_eq = np.asarray(self.b_eq, dtype=float).ravel()
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


def _kkt_residual(qp, x, nu) -> float:
    """Largest stationarity or equality residual of a QP without bounds."""
    r_d = qp.h @ x + qp.g
    if qp.a_eq is not None:
        r_d = r_d + qp.a_eq.T @ nu
    r_p = qp.a_eq @ x - qp.b_eq if qp.a_eq is not None else np.zeros(0)
    stat = float(np.max(np.abs(r_d))) if r_d.size else 0.0
    prim = float(np.max(np.abs(r_p))) if r_p.size else 0.0
    return max(stat, prim)


def _solve_equality_qp(qp, tol):
    nv = qp.n_vars
    if qp.a_eq is None or qp.a_eq.shape[0] == 0:
        x = np.linalg.lstsq(qp.h, -qp.g, rcond=None)[0]
        nu = np.zeros(0)
    else:
        ne = qp.a_eq.shape[0]
        kkt = np.block([[qp.h, qp.a_eq.T], [qp.a_eq, np.zeros((ne, ne))]])
        rhs = np.concatenate([-qp.g, qp.b_eq])
        sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        x, nu = sol[:nv], sol[nv:]
    scale = max(1.0, float(np.abs(qp.g).max(initial=0.0)))
    ok = _kkt_residual(qp, x, nu) <= tol * scale * 100
    return QpResult(x, QpStatus.OPTIMAL if ok else QpStatus.MAX_ITER, nu, np.zeros(nv), np.zeros(nv), 1)


def solve_qp(qp: DenseQP, tol: float = 1e-9, max_iter: int = 100) -> QpResult:
    """Solve a dense convex QP to the requested KKT tolerance.

    Pinned variables (lb == ub) are folded into the equality block.  Returns
    duals for both bound families; ``status`` is OPTIMAL only if all KKT
    residuals and the complementarity gap meet the tolerance.
    """
    _check_psd(qp.h)
    nv = qp.n_vars
    lb, ub = qp.lb.copy(), qp.ub.copy()
    if np.any(lb > ub):
        return QpResult(
            np.zeros(nv), QpStatus.INFEASIBLE, np.zeros(0), np.zeros(nv), np.zeros(nv), 0
        )

    a_eq = qp.a_eq
    b_eq = qp.b_eq
    n_user_eq = 0 if a_eq is None else a_eq.shape[0]
    pinned = np.where(np.isfinite(lb) & (lb == ub))[0]
    if pinned.size:
        rows = np.zeros((pinned.size, nv))
        rows[np.arange(pinned.size), pinned] = 1.0
        a_eq = rows if a_eq is None else np.vstack([a_eq, rows])
        b_eq = lb[pinned] if b_eq is None else np.concatenate([b_eq, lb[pinned]])
        lb[pinned], ub[pinned] = -np.inf, np.inf

    if a_eq is not None and a_eq.shape[0]:
        x_ls, *_ = np.linalg.lstsq(a_eq, b_eq, rcond=None)
        eq_scale = max(1.0, float(np.abs(b_eq).max(initial=0.0)))
        if np.max(np.abs(a_eq @ x_ls - b_eq)) > 1e-8 * eq_scale:
            return QpResult(
                np.zeros(nv), QpStatus.INFEASIBLE, np.zeros(n_user_eq), np.zeros(nv), np.zeros(nv), 0
            )
    else:
        x_ls = np.zeros(nv)

    low = np.where(np.isfinite(lb))[0]
    upp = np.where(np.isfinite(ub))[0]

    work = DenseQP(qp.h, qp.g, a_eq, b_eq, lb, ub)
    if low.size == 0 and upp.size == 0:
        res = _solve_equality_qp(work, tol)
        return _fold_pinned(res, pinned, n_user_eq)

    # strictly interior start
    x = x_ls.copy()
    both = np.isfinite(lb) & np.isfinite(ub)
    width = np.where(both, ub - lb, np.inf)
    margin = np.where(both, np.minimum(1.0, width / 4.0), 1.0)
    x = np.where(np.isfinite(lb), np.maximum(x, lb + margin), x)
    x = np.where(np.isfinite(ub), np.minimum(x, ub - margin), x)

    ne = 0 if a_eq is None else a_eq.shape[0]
    nu = np.zeros(ne)
    z_lo = np.ones(low.size)
    z_hi = np.ones(upp.size)
    n_ineq = low.size + upp.size
    tau = 0.995
    scale = max(
        1.0,
        float(np.abs(qp.g).max(initial=0.0)),
        float(np.abs(b_eq).max(initial=0.0)) if ne else 0.0,
    )

    status = QpStatus.MAX_ITER
    it = 0
    for it in range(1, max_iter + 1):
        s_lo = np.maximum(x[low] - lb[low], 1e-300)
        s_hi = np.maximum(ub[upp] - x[upp], 1e-300)
        r_d = work.h @ x + qp.g
        if ne:
            r_d += a_eq.T @ nu
        np.subtract.at(r_d, low, z_lo)
        np.add.at(r_d, upp, z_hi)
        r_p = (a_eq @ x - b_eq) if ne else np.zeros(0)
        mu = (s_lo @ z_lo + s_hi @ z_hi) / n_ineq

        if (
            np.max(np.abs(r_d)) <= tol * scale
            and (not ne or np.max(np.abs(r_p)) <= tol * scale)
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
            float(np.max(np.abs(x))),
            float(np.max(z_lo, initial=0.0)),
            float(np.max(z_hi, initial=0.0)),
            float(np.max(np.abs(nu), initial=0.0)),
        )
        if blowup > 1e13 * scale:
            status = QpStatus.INFEASIBLE
            break

        diag = np.zeros(nv)
        np.add.at(diag, low, z_lo / s_lo)
        np.add.at(diag, upp, z_hi / s_hi)
        kkt = np.zeros((nv + ne, nv + ne))
        kkt[:nv, :nv] = work.h
        kkt[np.arange(nv), np.arange(nv)] += diag
        if ne:
            kkt[:nv, nv:] = a_eq.T
            kkt[nv:, :nv] = a_eq
        try:
            lu = scipy.linalg.lu_factor(kkt)
        except (ValueError, scipy.linalg.LinAlgError):
            break

        def newton(comp_lo, comp_hi):
            rhs1 = -r_d.copy()
            np.add.at(rhs1, low, (comp_lo - s_lo * z_lo) / s_lo)
            np.subtract.at(rhs1, upp, (comp_hi - s_hi * z_hi) / s_hi)
            rhs = np.concatenate([rhs1, -r_p]) if ne else rhs1
            sol = scipy.linalg.lu_solve(lu, rhs)
            dx = sol[:nv]
            dnu = sol[nv:] if ne else np.zeros(0)
            dz_lo = (comp_lo - s_lo * z_lo) / s_lo - (z_lo / s_lo) * dx[low]
            dz_hi = (comp_hi - s_hi * z_hi) / s_hi + (z_hi / s_hi) * dx[upp]
            return dx, dnu, dz_lo, dz_hi

        def max_step(v, dv):
            neg = dv < 0
            if not np.any(neg):
                return 1.0
            return min(1.0, float(np.min(-v[neg] / dv[neg])))

        zero_lo = np.zeros(low.size)
        zero_hi = np.zeros(upp.size)
        dx_a, dnu_a, dzl_a, dzh_a = newton(zero_lo, zero_hi)
        ds_lo_a, ds_hi_a = dx_a[low], -dx_a[upp]
        alpha_p = min(max_step(s_lo, ds_lo_a), max_step(s_hi, ds_hi_a))
        alpha_d = min(max_step(z_lo, dzl_a), max_step(z_hi, dzh_a))
        mu_aff = (
            (s_lo + alpha_p * ds_lo_a) @ (z_lo + alpha_d * dzl_a)
            + (s_hi + alpha_p * ds_hi_a) @ (z_hi + alpha_d * dzh_a)
        ) / n_ineq
        sigma = min(0.99, max((mu_aff / mu) ** 3, 1e-10))

        comp_lo = sigma * mu - ds_lo_a * dzl_a
        comp_hi = sigma * mu - ds_hi_a * dzh_a
        dx, dnu, dz_lo, dz_hi = newton(comp_lo, comp_hi)
        ds_lo, ds_hi = dx[low], -dx[upp]
        alpha_p = tau * min(max_step(s_lo, ds_lo), max_step(s_hi, ds_hi))
        alpha_d = tau * min(max_step(z_lo, dz_lo), max_step(z_hi, dz_hi))
        alpha_p, alpha_d = min(1.0, alpha_p), min(1.0, alpha_d)

        x = x + alpha_p * dx
        nu = nu + alpha_d * dnu
        z_lo = z_lo + alpha_d * dz_lo
        z_hi = z_hi + alpha_d * dz_hi

    if status is QpStatus.MAX_ITER and ne:
        # a stalled equality residual with interior-held bounds means the
        # equalities and the box cannot both be met
        if np.max(np.abs(a_eq @ x - b_eq)) > 1e-6 * scale:
            status = QpStatus.INFEASIBLE

    mu_lo_full = np.zeros(nv)
    mu_hi_full = np.zeros(nv)
    mu_lo_full[low] = z_lo
    mu_hi_full[upp] = z_hi
    result = QpResult(x=x, status=status, nu=nu, mu_lo=mu_lo_full, mu_hi=mu_hi_full, iterations=it)
    return _fold_pinned(result, pinned, n_user_eq)


def _fold_pinned(result: QpResult, pinned: np.ndarray, n_user_eq: int) -> QpResult:
    """Map duals of internal pin rows back onto bound multipliers."""
    if pinned.size:
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
