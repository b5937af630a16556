"""Correctness checks made apart from the program.

Everything here is rebuilt with plain numpy (and scipy's SLSQP for the
boxed reference) from the model blocks and the workload's own description:
the stacked dynamics constraint, the chain's hop distances, the box, the
plant and a centralized receding-horizon reference.  Nothing is compared
against a stored copy of earlier output.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Layout:
    """Dense plant and response-map row layout of one chain workload."""

    a: np.ndarray
    b: np.ndarray
    horizon: int
    d: int
    state_owner: np.ndarray  # 0-based subsystem of each state component
    input_owner: np.ndarray
    lo: np.ndarray  # per state component box (t >= 1)
    hi: np.ndarray
    q: float
    r: float
    qt: float

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def p(self) -> int:
        return self.b.shape[1]

    def row_owner(self) -> np.ndarray:
        t = self.horizon
        return np.concatenate([np.tile(self.state_owner, t + 1), np.tile(self.input_owner, t)])

    def row_box(self) -> tuple:
        """Per global response-map row (lo, hi); time-0 rows and inputs are free."""
        t, n, p = self.horizon, self.n, self.p
        lo = np.concatenate([np.full(n, -np.inf)] + [self.lo] * t + [np.full(p * t, -np.inf)])
        hi = np.concatenate([np.full(n, np.inf)] + [self.hi] * t + [np.full(p * t, np.inf)])
        return lo, hi


def chain_layout(model, horizon, d, bound_component, lower, upper, q, r, qt, boxed) -> Layout:
    """Dense A, B and the box from the model's blocks, with own offsets."""
    sdims = np.asarray(model.state_dims)
    idims = np.asarray(model.input_dims)
    soff = np.concatenate([[0], np.cumsum(sdims)])
    ioff = np.concatenate([[0], np.cumsum(idims)])
    a = np.zeros((soff[-1], soff[-1]))
    b = np.zeros((soff[-1], ioff[-1]))
    for (i, j), blk in model.a_blocks.items():
        a[soff[i - 1] : soff[i], soff[j - 1] : soff[j]] = blk
    for (i, j), blk in model.b_blocks.items():
        b[soff[i - 1] : soff[i], ioff[j - 1] : ioff[j]] = blk
    lo = np.full(soff[-1], -np.inf)
    hi = np.full(soff[-1], np.inf)
    if boxed:
        lo[soff[:-1] + bound_component] = lower
        hi[soff[:-1] + bound_component] = upper
    return Layout(
        a=a,
        b=b,
        horizon=horizon,
        d=d,
        state_owner=np.repeat(np.arange(sdims.size), sdims),
        input_owner=np.repeat(np.arange(idims.size), idims),
        lo=lo,
        hi=hi,
        q=q,
        r=r,
        qt=qt,
    )


def region_codes(prod: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per-row region: 0 interior, 1 upper-active, 2 lower-active.

    ``prod`` is ``phi . x0`` of each row.  The closed form puts an active
    row exactly on its bound, so a row counts as active when its product
    sits on the bound to rounding.
    """
    code = np.zeros(prod.size, dtype=np.int8)
    with np.errstate(invalid="ignore"):
        code[prod >= hi - 1e-9 * np.maximum(1.0, np.abs(hi))] = 1
        code[prod <= lo + 1e-9 * np.maximum(1.0, np.abs(lo))] = 2
    return code


def regions(lay: Layout, phi: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Region code of every row of a plan (see :func:`region_codes`)."""
    lo, hi = lay.row_box()
    return region_codes(phi @ x0, lo, hi)


def plan_problems(lay: Layout, phi: np.ndarray, psi: np.ndarray, x0: np.ndarray, eps_primal: float) -> list:
    """Violations of dynamics feasibility, consensus, locality and the box."""
    n, p, t = lay.n, lay.p, lay.horizon
    bad = []
    # stacked constraint: psi_x[0] = I, psi_x[s+1] = A psi_x[s] + B psi_u[s]
    px, pu = psi[: n * (t + 1)], psi[n * (t + 1) :]
    res = [np.abs(px[:n] - np.eye(n)).max()]
    for s in range(t):
        nxt = lay.a @ px[s * n : (s + 1) * n] + lay.b @ pu[s * p : (s + 1) * p]
        res.append(np.abs(px[(s + 1) * n : (s + 2) * n] - nxt).max())
    if max(res) > 1e-9:
        bad.append(f"psi violates the dynamics constraint by {max(res):.2e}")
    owner = lay.row_owner()
    n_sub = int(lay.state_owner.max()) + 1
    gap = max(np.linalg.norm((phi - psi)[owner == k]) for k in range(n_sub))
    if gap > eps_primal * (1 + 1e-9):
        bad.append(f"per-subsystem ||phi - psi|| {gap:.2e} above {eps_primal:.0e}")
    hops = np.abs(owner[:, None] - lay.state_owner[None, :])
    reach = np.concatenate([np.full(n * (t + 1), lay.d), np.full(p * t, lay.d + 1)])
    outside = hops > reach[:, None]
    for name, mat in (("phi", phi), ("psi", psi)):
        if np.any(mat[outside] != 0.0):
            bad.append(f"{name} has nonzeros outside the d-hop/(d+1)-hop pattern")
    lo, hi = lay.row_box()
    prod = phi @ x0
    over = max(float(np.max(prod - hi)), float(np.max(lo - prod)))
    if over > 1e-8:
        bad.append(f"planned rows leave the box by {over:.2e}")
    return bad


def trajectory_problems(lay: Layout, states, inputs, eps_primal: float) -> list:
    """Plant replay x+ = A x + B u and realized states inside the box.

    A realized state differs from its planned row by the row/column
    disagreement, at most ``eps_primal * ||x|| * (1 + ||B||_inf)``.
    """
    bad = []
    for k in range(len(inputs)):
        want = lay.a @ states[k] + lay.b @ inputs[k]
        err = np.abs(states[k + 1] - want).max()
        if err > 1e-12 * max(1.0, np.abs(want).max()):
            bad.append(f"step {k}: state differs from A x + B u by {err:.2e}")
        tol = eps_primal * np.linalg.norm(states[k]) * (1 + np.abs(lay.b).sum(axis=1).max())
        over = max(float(np.max(states[k + 1] - lay.hi)), float(np.max(lay.lo - states[k + 1])))
        if over > tol:
            bad.append(f"step {k}: realized state leaves the box by {over:.2e} (tol {tol:.1e})")
    return bad


def _prediction(lay: Layout) -> tuple:
    """x_{1..T} = G x0 + H u_{0..T-1}, stacked time-major."""
    n, p, t = lay.n, lay.p, lay.horizon
    g = np.zeros((n * t, n))
    h = np.zeros((n * t, p * t))
    power = np.eye(n)
    for s in range(t):
        power = lay.a @ power
        g[s * n : (s + 1) * n] = power
    for s in range(t):
        blk = lay.b
        for k in range(s, t):
            h[k * n : (k + 1) * n, s * p : (s + 1) * p] = blk
            blk = lay.a @ blk
    return g, h


def reference_cost(lay: Layout, x0: np.ndarray, steps: int):
    """Realized cost of a centralized receding-horizon loop from ``x0``.

    Each step minimizes the full-network cost over the inputs.  With no box
    touched the condensed least-squares optimum is the answer (after
    checking that it satisfies the box); otherwise SLSQP solves the boxed
    problem.  Returns ``None`` if a step has no valid solution.
    """
    n, p, t = lay.n, lay.p, lay.horizon
    g, h = _prediction(lay)
    w = np.sqrt(np.concatenate([np.full(n * (t - 1), lay.q), np.full(n, lay.qt)]))
    wh = w[:, None] * h
    m = np.vstack([wh, np.sqrt(lay.r) * np.eye(p * t)])
    lo, hi = np.tile(lay.lo, t), np.tile(lay.hi, t)
    sel = np.isfinite(lo) | np.isfinite(hi)
    x = np.asarray(x0, float).copy()
    states, inputs = [x.copy()], []
    for _ in range(steps):
        free = g @ x
        u = np.linalg.lstsq(m, np.concatenate([-w * free, np.zeros(p * t)]), rcond=None)[0]
        pred = free + h @ u
        if np.any(pred[sel] > hi[sel]) or np.any(pred[sel] < lo[sel]):
            u = _slsqp(m, w * free, free[sel], h[sel], lo[sel], hi[sel], u)
            if u is None:
                return None
        inputs.append(u[:p].copy())
        x = lay.a @ x + lay.b @ u[:p]
        states.append(x.copy())
    return realized_cost(lay, np.asarray(states), np.asarray(inputs))


def _slsqp(m, wfree, free_sel, h_sel, lo, hi, u_start):
    # imported here so that it stays out of the peak memory of a run
    from scipy.optimize import minimize

    k = wfree.size
    mm = m.T @ m
    c = m[:k].T @ wfree

    def f(u):
        return float(u @ mm @ u + 2 * c @ u)

    def jac(u):
        return 2 * (mm @ u + c)

    fin_hi, fin_lo = np.isfinite(hi), np.isfinite(lo)
    a_ineq = np.vstack([-h_sel[fin_hi], h_sel[fin_lo]])
    b_ineq = np.concatenate([hi[fin_hi] - free_sel[fin_hi], free_sel[fin_lo] - lo[fin_lo]])
    cons = {"type": "ineq", "fun": lambda u: b_ineq + a_ineq @ u, "jac": lambda u: a_ineq}
    res = minimize(f, u_start, jac=jac, constraints=[cons], method="SLSQP",
                   options={"ftol": 1e-14, "maxiter": 1000})
    if not res.success or np.min(b_ineq + a_ineq @ res.x) < -1e-8:
        return None
    return res.x


def realized_cost(lay: Layout, states, inputs) -> float:
    return float(lay.q * np.sum(states[1:] ** 2) + lay.r * np.sum(inputs**2))
