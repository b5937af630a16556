"""The MPC problem's per-row profiles, a dense convex QP solver and the centralized baseline.

:func:`stacked_profiles` states the problem that both routes solve: it
checks the cost and box profiles and returns one cost and one box per row
of the stacked trajectory, which ``DlmpcEngine`` and ``centralized_mpc``
both read.

The solver is a standard infeasible-start primal-dual interior-point method
with Mehrotra predictor-corrector steps (path-following on the perturbed KKT
conditions), for problems of the form

    minimize    0.5 x'Hx + g'x
    subject to  A x = b,   lb <= x <= ub   (bounds may be +-inf)

It exists as an independent verification route: the solver shares no code
path with the closed-form row solver, so agreement between the two is
evidence, not tautology; only the problem statement is shared.
``row_qp`` states one row subproblem for it, or a stack of them: the
solver-based row phase solves every live row as one stack.
``centralized_mpc`` condenses the full MPC problem into the inputs and
solves one QP, giving the global cost baseline.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.linalg

from .topology import NetworkModel, check_int


class QpStructureError(ValueError):
    """Hessian not positive semidefinite, or malformed problem data."""


class QpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    MAX_ITER = "max-iter"


@dataclass
class DenseQP:
    """min 0.5 x'Hx + g'x  s.t.  a_eq x = b_eq,  lb <= x <= ub, or a stack of them.

    A stack puts a leading member axis on every array (``h`` of shape
    ``(S, n, n)``, ``g`` of shape ``(S, n)`` and so on); its members share
    ``n`` and the number of equality rows.  H is symmetrized on ingestion.
    Missing bounds default to +-inf; missing equalities (``a_eq`` and
    ``b_eq`` are given together or not at all) are stored as a zero-row
    block, ``a_eq`` of shape ``(0, n)`` and ``b_eq`` of shape ``(0,)`` per
    member.  A non-finite entry of ``h``, ``g``, ``a_eq`` or ``b_eq``, a
    NaN bound, or a bound that no x meets (``lb`` of +inf, ``ub`` of -inf)
    raises :class:`QpStructureError` naming the field and the entry.
    """

    h: np.ndarray
    g: np.ndarray
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=float)
        lead = self.h.shape[:1] if self.h.ndim == 3 else ()
        per_member = lambda v: np.asarray(v, dtype=float) if lead else np.asarray(v, dtype=float).ravel()
        self.g = per_member(self.g)
        nv = self.g.shape[-1]
        if self.h.shape != lead + (nv, nv):
            raise QpStructureError(f"H must be {nv}x{nv}, got {self.h.shape}")
        if (self.a_eq is None) != (self.b_eq is None):
            raise QpStructureError("a_eq and b_eq must be given together")
        self.a_eq = np.zeros(lead + (0, nv)) if self.a_eq is None else np.asarray(self.a_eq, dtype=float)
        self.b_eq = np.zeros(lead + (0,)) if self.b_eq is None else per_member(self.b_eq)
        if self.a_eq.shape[:-2] != lead or self.a_eq.ndim != len(lead) + 2 or self.a_eq.shape[-1] != nv:
            raise QpStructureError("a_eq must have one column per variable")
        if self.a_eq.shape[-2] != self.b_eq.shape[-1]:
            raise QpStructureError("a_eq and b_eq row counts differ")
        self.lb = np.full(lead + (nv,), -np.inf) if self.lb is None else per_member(self.lb)
        self.ub = np.full(lead + (nv,), np.inf) if self.ub is None else per_member(self.ub)
        if self.lb.shape != lead + (nv,) or self.ub.shape != lead + (nv,):
            raise QpStructureError("bounds must have one entry per variable")
        for name in ("h", "g", "a_eq", "b_eq", "lb", "ub"):
            value, empty = getattr(self, name), {"lb": np.inf, "ub": -np.inf}.get(name)  # the bound no x meets
            bad = ~np.isfinite(value) if empty is None else np.isnan(value) | (value == empty)
            for at in np.argwhere(bad)[:1]:
                v = value[tuple(at)]
                need = "must be finite" if empty is None else "which no x meets" if v == empty else "must be a number"
                raise QpStructureError(f"{name}[{', '.join(map(str, at))}] is {v}, {need}")
        self.h = 0.5 * (self.h + np.swapaxes(self.h, -1, -2))


@dataclass
class QpResult:
    """A QP's solution, or a stack's with a leading member axis on every array.

    ``statuses`` holds one status per member, and ``iterations`` is the most
    interior-point iterations any member took.
    """

    x: np.ndarray
    statuses: list
    nu: np.ndarray
    mu_lo: np.ndarray
    mu_hi: np.ndarray
    iterations: int

    @property
    def status(self) -> QpStatus:
        """OPTIMAL when every member is, else the first other member status."""
        return next((s for s in self.statuses if s is not QpStatus.OPTIMAL), QpStatus.OPTIMAL)


# status codes inside solve_qp index this tuple
_STATUSES = (QpStatus.OPTIMAL, QpStatus.INFEASIBLE, QpStatus.MAX_ITER)
_OPTIMAL, _INFEASIBLE, _MAX_ITER = range(3)
MAX_ITERATIONS = 100  # interior-point iterations before a member ends MAX_ITER


def _check_psd(h: np.ndarray):
    n = h.shape[-1]
    scale = np.maximum(1.0, np.einsum("...ii->...", h) / max(1, n))
    try:
        np.linalg.cholesky(h + 1e-10 * scale[..., None, None] * np.eye(n))
    except np.linalg.LinAlgError:
        raise QpStructureError("hessian is not positive semidefinite") from None


def _mv(m, v):
    """Matrix-vector product of each member of a stack."""
    return (m @ v[..., None])[..., 0]


def _max_step(v, dv):
    """Per member, the largest step in (0, 1] that keeps ``v + step * dv`` nonnegative."""
    ratio = np.divide(-v, dv, out=np.full_like(v, np.inf), where=dv < 0)
    return ratio.min(axis=1, initial=1.0)


def solve_qp(qp: DenseQP, tol: float = 1e-9) -> QpResult:
    """Solve a dense convex QP, or each member of a stack, to the requested KKT tolerance.

    Pinned variables (lb == ub) are folded into the equality block, which
    may have zero rows; a consistent row that the other rows span is set
    aside with a zero multiplier, so that the KKT matrix stays nonsingular.
    Every other finite bound becomes one inequality
    ``sgn * x[idx] >= bnd`` (lower bounds with ``sgn = +1``, then upper
    bounds with ``sgn = -1`` and ``bnd = -ub``) with one slack and one
    multiplier, split back into ``mu_lo`` and ``mu_hi`` at the end.  A
    stack's members share one iteration: its bound slots and pinned rows
    are those of any member, masked off in a member that lacks them, each
    Newton solve is one batched ``np.linalg.solve`` over the members
    (LAPACK's LU per member, in numpy's BLAS), and a member leaves the
    iteration when it ends.  A member without a finite bound takes full
    Newton steps, so it ends at its second check.  A status is OPTIMAL
    only if all KKT residuals and the complementarity gap meet the
    tolerance; a member still running after ``MAX_ITERATIONS`` iterations
    ends MAX_ITER, and so does one that breaks down numerically (a
    non-finite KKT matrix, or one that is exactly singular: a zero pivot of
    the LU), which leaves the others to go on.
    No status says "unbounded": a QP that is unbounded below ends
    INFEASIBLE when its iterates pass the blow-up threshold, or MAX_ITER
    when a direction without curvature or bound makes the KKT matrix
    singular.
    """
    stack = qp.h.ndim == 3
    h, g, a_eq, b_eq, lb, ub = (
        v if stack else v[None] for v in (qp.h, qp.g, qp.a_eq, qp.b_eq, qp.lb, qp.ub)
    )
    _check_psd(h)
    n_qp, nv = g.shape
    n_user_eq = a_eq.shape[1]
    crossed = (lb > ub).any(axis=1)

    # a variable pinned in any member gets an equality row; in a member that
    # leaves it free the row is zero and a -1 on the KKT diagonal (``idle``)
    # holds the row's multiplier at 0
    pin = np.isfinite(lb) & (lb == ub)
    pinned = np.flatnonzero(pin.any(axis=0))
    pin_rows = pin[:, pinned]
    a_eq = np.concatenate([a_eq, pin_rows[:, :, None] * (pinned[:, None] == np.arange(nv))], axis=1)
    b_eq = np.concatenate([b_eq, np.where(pin_rows, lb[:, pinned], 0.0)], axis=1)
    idle = np.concatenate([np.zeros((n_qp, n_user_eq)), ~pin_rows], axis=1)
    lb, ub = np.where(pin, -np.inf, lb), np.where(pin, np.inf, ub)

    # least-squares start, with the rank cut of np.linalg.lstsq
    u, sv, vt = np.linalg.svd(a_eq, full_matrices=False)
    kept = sv > max(a_eq.shape[1:]) * np.finfo(float).eps * sv[:, :1]
    coef = np.divide(_mv(np.swapaxes(u, 1, 2), b_eq), sv, out=np.zeros_like(sv), where=kept)
    x_ls = _mv(np.swapaxes(vt, 1, 2), coef)
    eq_scale = np.maximum(1.0, np.abs(b_eq).max(axis=1, initial=0.0))
    eq_gap = np.abs(_mv(a_eq, x_ls) - b_eq).max(axis=1, initial=0.0)
    infeasible = crossed | (eq_gap > 1e-8 * eq_scale)
    # consistent rows that the others span are idled too, so that the KKT
    # matrix stays nonsingular; their multipliers stay 0
    for k in np.flatnonzero(~infeasible & (kept.sum(axis=1) < (idle == 0).sum(axis=1))):
        order = scipy.linalg.qr(a_eq[k].T, mode="r", pivoting=True)[1]
        drop = order[np.count_nonzero(kept[k]) :]
        a_eq[k, drop], b_eq[k, drop], idle[k, drop] = 0.0, 0.0, 1.0

    # one slot per bound of any member; a member's own slots (``sgn_on`` is
    # their sign, 0 elsewhere) carry its bounds, the others idle at s = 1 and
    # z = 0 and limit no step
    low = np.flatnonzero(np.isfinite(lb).any(axis=0))
    upp = np.flatnonzero(np.isfinite(ub).any(axis=0))
    idx = np.concatenate([low, upp])
    sgn = np.concatenate([np.ones(low.size), -np.ones(upp.size)])
    bnd = np.concatenate([lb[:, low], -ub[:, upp]], axis=1)
    on = np.isfinite(bnd)
    sgn_on = sgn * on
    bnd = np.where(on, bnd, -1.0)
    # ``w @ sel`` sums the slot values ``w`` of each variable, ``w @ ssel`` with their signs
    sel = (idx[:, None] == np.arange(nv)).astype(float)
    ssel = sgn[:, None] * sel

    # strictly interior start; primal and equality duals live in one vector
    both = np.isfinite(lb) & np.isfinite(ub)
    width = np.where(both, ub - lb, np.inf)
    margin = np.where(both, np.minimum(1.0, width / 4.0), 1.0)
    x = np.where(np.isfinite(lb), np.maximum(x_ls, lb + margin), x_ls)
    x = np.where(np.isfinite(ub), np.minimum(x, ub - margin), x)
    ne = a_eq.shape[1]
    xn = np.concatenate([x, np.zeros((n_qp, ne))], axis=1)
    z = on.astype(float)
    n_on = np.maximum(on.sum(axis=1), 1)
    tau = np.where(on.any(axis=1), 0.995, 1.0)
    scale = np.maximum(eq_scale, np.abs(g).max(axis=1, initial=0.0))

    # the KKT matrix without its barrier diagonal, and the residual offset:
    # ``kkt0 @ xn + c`` is the dual residual over the primal residual
    diag = np.arange(nv + ne)
    kkt0 = np.zeros((n_qp, nv + ne, nv + ne))
    kkt0[:, :nv, :nv] = h
    kkt0[:, :nv, nv:] = np.swapaxes(a_eq, 1, 2)
    kkt0[:, nv:, :nv] = a_eq
    kkt0[:, diag[nv:], diag[nv:]] = -idle
    c = np.concatenate([g, -b_eq], axis=1)
    kkt_all, c_all, scale_all = kkt0, c, scale

    status = np.where(infeasible, _INFEASIBLE, _MAX_ITER)
    iters = np.zeros(n_qp, dtype=int)
    out_xn, out_z = np.zeros_like(xn), np.zeros_like(z)
    live = np.flatnonzero(~infeasible)
    kkt0, c, bnd, sgn_on, n_on, tau, scale, xn, z = (
        v[live] for v in (kkt0, c, bnd, sgn_on, n_on, tau, scale, xn, z)
    )
    for it in range(1, MAX_ITERATIONS + 1):
        if not live.size:
            break
        s = np.maximum(sgn_on * xn[:, idx] - bnd, 1e-300)
        r = _mv(kkt0, xn) + c
        r[:, :nv] -= z @ ssel
        mu = np.einsum("ij,ij->i", s, z) / n_on

        tol_s = tol * scale
        ok = (np.abs(r).max(axis=1) <= tol_s) & (mu <= tol_s)
        # a numerical breakdown leaves the member at MAX_ITER
        finite = np.isfinite(xn[:, :nv]).all(axis=1) & np.isfinite(mu)
        # smoothly diverging iterates end the member INFEASIBLE; they certify
        # an empty feasible set only where curvature is positive along every
        # unbounded direction, as for the row QPs: a QP that is unbounded
        # below diverges too, and this test cannot tell the two apart
        blowup = np.maximum(np.abs(xn).max(axis=1), z.max(axis=1, initial=0.0))
        blown = ~ok & finite & (blowup > 1e13 * scale)
        done = ok | ~finite | blown

        def newton(w):
            """Newton step for the complementarity target ``w * s + s * z``."""
            rhs = -r
            rhs[:, :nv] += w @ ssel
            sol = np.linalg.solve(kkt, rhs[..., None])[..., 0]
            ds = sgn_on * sol[:, idx]
            return sol, ds, w - d * ds

        # a non-finite or singular KKT matrix also leaves the member at
        # MAX_ITER: np.linalg.solve raises on a zero pivot in LAPACK's LU, and
        # slogdet names the members with one (sign 0) so the rest solve again
        d = np.divide(z, s, out=np.zeros_like(z), where=~done[:, None])
        kkt = kkt0.copy()
        kkt[:, diag[:nv], diag[:nv]] += d @ sel
        done |= ~np.isfinite(kkt).all(axis=(1, 2))
        while True:
            if done.any():
                status[live[ok]] = _OPTIMAL
                status[live[blown]] = _INFEASIBLE
                iters[live[done]], out_xn[live[done]], out_z[live[done]] = it, xn[done], z[done]
                keep = ~done
                live, kkt0, kkt, c, bnd, sgn_on, n_on, tau, scale, xn, z, s, r, mu, d, ok, blown = (
                    v[keep] for v in (live, kkt0, kkt, c, bnd, sgn_on, n_on, tau, scale, xn, z, s, r, mu, d, ok, blown)
                )
                if not live.size:
                    break
            try:
                _, ds_a, dz_a = newton(-z)
                break
            except np.linalg.LinAlgError:
                done = np.linalg.slogdet(kkt)[0] == 0
        if not live.size:
            break
        alpha_p, alpha_d = _max_step(s, ds_a), _max_step(z, dz_a)
        mu_aff = np.einsum("ij,ij->i", s + alpha_p[:, None] * ds_a, z + alpha_d[:, None] * dz_a) / n_on
        ratio = np.divide(mu_aff, mu, out=np.zeros_like(mu), where=mu > 0)
        sigma = np.minimum(0.99, np.maximum(ratio**3, 1e-10))

        dxn, ds, dz = newton((np.where(sgn_on != 0, (sigma * mu)[:, None], 0.0) - ds_a * dz_a) / s - z)
        alpha_p, alpha_d = tau * _max_step(s, ds), tau * _max_step(z, dz)
        xn[:, :nv] += alpha_p[:, None] * dxn[:, :nv]
        xn[:, nv:] += alpha_d[:, None] * dxn[:, nv:]
        z += alpha_d[:, None] * dz
    iters[live], out_xn[live], out_z[live] = MAX_ITERATIONS, xn, z

    # a stalled equality residual with interior-held bounds means the
    # equalities and the box cannot both be met
    r_p = (_mv(kkt_all, out_xn) + c_all)[:, nv:]
    stalled = np.abs(r_p).max(axis=1, initial=0.0) > 1e-6 * scale_all
    status[(status == _MAX_ITER) & stalled] = _INFEASIBLE

    # bound multipliers from the slots, and from the signs of the pin rows' duals
    mu_lo, mu_hi = np.zeros((n_qp, nv)), np.zeros((n_qp, nv))
    mu_lo[:, low], mu_hi[:, upp] = out_z[:, : low.size], out_z[:, low.size :]
    pin_nu = out_xn[:, nv + n_user_eq :]
    mu_lo[:, pinned] += np.maximum(-pin_nu, 0.0)
    mu_hi[:, pinned] += np.maximum(pin_nu, 0.0)
    x, nu = out_xn[:, :nv], out_xn[:, nv : nv + n_user_eq]
    statuses = [_STATUSES[k] for k in status.tolist()]
    if stack:
        return QpResult(x, statuses, nu, mu_lo, mu_hi, int(iters.max(initial=0)))
    return QpResult(x[0], statuses, nu[0], mu_lo[0], mu_hi[0], int(iters[0]))


def row_qp(target, x0, rho: float, lo, hi, weight) -> DenseQP:
    """One row's proximal subproblem in slack form, variables ``(phi, s)``.

    minimize ``(rho/2) ||phi - target||^2 + weight^2 s^2`` subject to
    ``x0 . phi - s = 0`` and ``lo <= s <= hi``; the last variable's bound
    multipliers are the row's (lower, upper) box multipliers.  Rows given
    as ``(S, m)`` arrays with per-row ``lo``, ``hi`` and ``weight`` build a
    stack of ``S`` such problems.
    """
    target, x0 = np.asarray(target, dtype=float), np.asarray(x0, dtype=float)
    lead, m = target.shape[:-1], target.shape[-1]
    h = np.zeros(lead + (m + 1, m + 1))
    h[..., np.arange(m), np.arange(m)] = rho
    h[..., m, m] = 2.0 * np.square(weight)
    g = np.concatenate([-rho * target, np.zeros(lead + (1,))], axis=-1)
    a_eq = np.concatenate([x0, np.full(lead + (1,), -1.0)], axis=-1)[..., None, :]
    lb = np.full(lead + (m + 1,), -np.inf)
    ub = np.full(lead + (m + 1,), np.inf)
    lb[..., m], ub[..., m] = lo, hi
    return DenseQP(h, g, a_eq, np.zeros(lead + (1,)), lb, ub)


# ---------------------------------------------------------------------------
# centralized MPC baseline

BASELINE_TOL = 1e-10  # the baseline's KKT tolerance, tighter than the row QPs'


@dataclass
class CentralizedSolution:
    u_sequence: np.ndarray      # (T, p)
    planned_states: np.ndarray  # (T+1, n)
    planned_cost: float
    status: QpStatus
    iterations: int


def _prediction_matrices(model: NetworkModel, horizon: int, x0: np.ndarray) -> tuple:
    """The stacked states ``x_0..x_T`` as ``free + h @ u``: the free response to x0 and the input map."""
    a, b = model.a, model.b
    n, p = model.n_states, model.n_inputs
    free = np.zeros((horizon + 1, n))
    h = np.zeros(((horizon + 1) * n, horizon * p))
    free[0] = x0
    for t in range(1, horizon + 1):
        free[t] = a @ free[t - 1]
        h[t * n : (t + 1) * n] = a @ h[(t - 1) * n : t * n]
        h[t * n + b.row, (t - 1) * p + b.col] += b.data
    return free.ravel(), h


def check_profile(name: str, value, size: int, default: float) -> np.ndarray:
    """``value`` as a float array of ``size`` entries (``default`` if None), else ValueError.

    A name ending in ``_diag`` is a cost weight, which must be finite and
    nonnegative; any other profile is a bound, which must not be NaN.
    """
    value = np.full(size, default) if value is None else np.asarray(value, float)
    if value.shape != (size,):
        raise ValueError(f"{name} must have {size} entries, got {value.size}")
    is_weight = name.endswith("_diag")
    bad = ~(np.isfinite(value) & (value >= 0)) if is_weight else np.isnan(value)
    for k in np.flatnonzero(bad)[:1]:
        need = "finite and nonnegative" if is_weight else "a number"
        raise ValueError(f"{name}[{k}] is {value[k]}, must be {need}")
    return value


def stacked_profiles(n: int, p: int, horizon: int, q_diag=None, r_diag=None, qt_diag=None,
                     state_lb=None, state_ub=None, input_lb=None, input_ub=None) -> tuple:
    """Checked per-row ``(cost, lo, hi)`` of the stacked trajectory ``x_0..x_T, u_0..u_{T-1}``.

    Every profile goes through :func:`check_profile` (weights default to 1,
    bounds to +-inf, ``qt_diag`` to ``q_diag``), and a box that no finite
    value satisfies (``lb > ub``, ``lb = +inf`` or ``ub = -inf``) raises
    ValueError naming its component.  ``cost`` is the diagonal cost entry
    of each row: 0 on the time-0 state rows, ``q_diag`` for t = 1..T-1,
    ``qt_diag`` for t = T and ``r_diag`` on every input row.  The time-0
    state rows are unbounded, state boxes apply for t = 1..T and input
    boxes at every input time.
    """
    q = check_profile("q_diag", q_diag, n, 1.0)
    qt = q if qt_diag is None else check_profile("qt_diag", qt_diag, n, 1.0)
    r = check_profile("r_diag", r_diag, p, 1.0)
    boxes = []
    for kind, lb, ub, size in (("state", state_lb, state_ub, n), ("input", input_lb, input_ub, p)):
        lb, ub = check_profile(f"{kind}_lb", lb, size, -np.inf), check_profile(f"{kind}_ub", ub, size, np.inf)
        for k in np.flatnonzero((lb > ub) | (lb == np.inf) | (ub == -np.inf))[:1]:
            raise ValueError(f"{kind}_lb/{kind}_ub component {k}: empty box [{lb[k]}, {ub[k]}]")
        boxes.append((lb, ub))
    (s_lb, s_ub), (u_lb, u_ub) = boxes
    cost = np.concatenate([np.zeros(n)] + [q] * (horizon - 1) + [qt] + [r] * horizon)
    lo = np.concatenate([np.full(n, -np.inf)] + [s_lb] * horizon + [u_lb] * horizon)
    hi = np.concatenate([np.full(n, np.inf)] + [s_ub] * horizon + [u_ub] * horizon)
    return cost, lo, hi


def check_x0(x0, n: int) -> np.ndarray:
    """``x0`` as a float vector of ``n`` finite entries; ValueError for the wrong size or the first non-finite entry."""
    x0 = np.asarray(x0, dtype=float).ravel()
    if x0.shape != (n,):
        raise ValueError(f"x0 must have {n} entries")
    for k in np.flatnonzero(~np.isfinite(x0))[:1]:
        raise ValueError(f"x0[{k}] is {x0[k]}, must be finite")
    return x0


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
) -> CentralizedSolution:
    """Full-information MPC step via one condensed QP over the inputs, solved to ``BASELINE_TOL``.

    States are eliminated through the prediction matrices; box constraints on
    predicted states (applied for t = 1..T) enter through auxiliary variables
    pinned to the predicted values by equality rows.  The costs and boxes
    are the engine's, read from :func:`stacked_profiles` with its checks
    and defaults (``qt_diag`` is ``q_diag`` if None).  A ``horizon`` that is
    not an integer, or is below 1, or a non-finite ``x0`` raises ValueError.
    """
    horizon = check_int("horizon", horizon)
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    n, p = model.n_states, model.n_inputs
    x0 = check_x0(x0, n)
    free_response, h_mat = _prediction_matrices(model, horizon, x0)
    cost, lo, hi = stacked_profiles(n, p, horizon, q_diag, r_diag, qt_diag, state_lb, state_ub, input_lb, input_ub)
    nx = n * (horizon + 1)
    w_stack, r_stack = cost[:nx], cost[nx:]

    h_u = 2.0 * (h_mat.T * w_stack) @ h_mat
    h_u[np.arange(horizon * p), np.arange(horizon * p)] += 2.0 * r_stack
    g_u = 2.0 * h_mat.T @ (w_stack * free_response)
    sel = np.where(np.isfinite(lo[:nx]) | np.isfinite(hi[:nx]))[0]
    nu_vars = horizon * p

    # without a state box there are no auxiliary variables and no equality rows
    nz = nu_vars + sel.size
    h_full = np.zeros((nz, nz))
    h_full[:nu_vars, :nu_vars] = h_u
    a_eq = np.zeros((sel.size, nz))
    a_eq[:, :nu_vars] = -h_mat[sel]
    a_eq[np.arange(sel.size), nu_vars + np.arange(sel.size)] = 1.0
    qp = DenseQP(
        h_full, np.concatenate([g_u, np.zeros(sel.size)]), a_eq, free_response[sel],
        np.concatenate([lo[nx:], lo[sel]]), np.concatenate([hi[nx:], hi[sel]]),
    )
    res = solve_qp(qp, tol=BASELINE_TOL)
    u = res.x[:nu_vars]
    states = (free_response + h_mat @ u).reshape(horizon + 1, n)
    planned = float(
        np.sum(w_stack * (free_response + h_mat @ u) ** 2) + np.sum(r_stack * u**2)
    )
    return CentralizedSolution(
        u_sequence=u.reshape(horizon, p),
        planned_states=states,
        planned_cost=planned,
        status=res.status,
        iterations=res.iterations,
    )
