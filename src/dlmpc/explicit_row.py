"""Closed-form solution of the per-row proximal subproblem.

Each row update in the splitting scheme solves, for a row vector phi over its
allowed support,

    minimize    weight^2 * (phi . x0)^2  +  (rho/2) * ||phi - a||^2
    subject to  lo <= phi . x0 <= hi

with ``a`` the proximal target.  Stationarity gives
``phi* = (rho*a - lam*x0') M`` with ``M = (2*weight^2*x0*x0' + rho*I)^{-1}``
and ``lam`` the (upper minus lower) bound multiplier.  Because the
constraint is a single scalar inequality pair, the multiplier has a
closed form with exactly three cases:

    unconstrained optimum  rho*a M x0  above hi  ->  upper bound active,
                           below lo             ->  lower bound active,
                           otherwise            ->  interior, lam = 0.

M is a rank-one update of a scaled identity (Sherman-Morrison), so it is
never formed: ``v M = (v - (2 w^2 (v.x0) / (rho + 2 w^2 ||x0||^2)) x0) / rho``.
Boundary ties classify as INTERIOR (the multiplier is zero there, so the
solutions agree).

A row depends on its own target, box and weight and on an ``x0`` and ``rho``
shared by every row of a subsystem's row group, so :func:`solve_rows` solves
a whole group in one array expression; :func:`solve_row` is its one-row
case.  The dot products are row-wise sums (``np.sum(targets * x0, axis=1)``)
rather than a matrix-vector product: the product's BLAS kernel may reorder
the additions by the block's shape, while the row-wise sum does the same
additions for a row whether it is solved alone or in a block, so both give
bitwise identical rows.

The kernel assumes that no bound is NaN and no box is empty (see
:func:`empty_boxes`), and does not check it: boxes are checked where they
enter, by ``DlmpcEngine`` once when it is built and by :func:`solve_row`.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class InfeasibleRowError(ValueError):
    """The row's box constraint cannot be satisfied."""


class Region(Enum):
    INTERIOR = "interior"
    UPPER_ACTIVE = "upper-active"
    LOWER_ACTIVE = "lower-active"


@dataclass(frozen=True)
class RowProblem:
    """One row's proximal subproblem over its allowed support.

    target  proximal target row ``a`` (current consensus minus multiplier)
    x0      initial-state slice seen by this row (same length as target)
    rho     proximal weight, > 0
    lo, hi  box on the scalar ``phi . x0``; either may be infinite
    weight  square root of the row's cost weight (0 for costless rows)
    """

    target: np.ndarray
    x0: np.ndarray
    rho: float
    lo: float = -np.inf
    hi: float = np.inf
    weight: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "target", np.asarray(self.target, dtype=float).ravel())
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float).ravel())
        if self.target.shape != self.x0.shape:
            raise ValueError(
                f"target has length {self.target.shape[0]} but x0 has {self.x0.shape[0]}"
            )
        if not self.rho > 0:
            raise ValueError("rho must be positive")
        if self.weight < 0:
            raise ValueError("weight must be nonnegative")
        if np.isnan(self.lo) or np.isnan(self.hi):
            raise ValueError("bounds must not be NaN")


@dataclass(frozen=True)
class RowSolution:
    """Optimal row, its bound multipliers and the active region."""

    phi: np.ndarray
    lam_upper: float
    lam_lower: float
    region: Region

    @property
    def lam(self) -> float:
        return self.lam_upper - self.lam_lower


_REGIONS = (Region.INTERIOR, Region.UPPER_ACTIVE, Region.LOWER_ACTIVE)


def empty_boxes(lo, hi) -> np.ndarray:
    """Mask of boxes no finite value satisfies: ``lo > hi``, ``lo = +inf`` or ``hi = -inf``."""
    return (lo > hi) | (lo == np.inf) | (hi == -np.inf)


def check_rows(lo: np.ndarray, hi: np.ndarray):
    """Raise InfeasibleRowError naming the first row whose box excludes 0 (for a zero x0)."""
    excluded = np.flatnonzero((lo > 0.0) | (hi < 0.0))
    if excluded.size:
        k = excluded[0]
        raise InfeasibleRowError(
            f"row {k}: x0 slice is zero but the box [{lo[k]}, {hi[k]}] excludes 0"
        )


def solve_rows(targets, x0, rho: float, lo, hi, weight) -> tuple:
    """Closed-form minimizers of a group of rows that share ``x0`` and ``rho``.

    ``targets`` has one row per problem; ``lo``, ``hi`` and ``weight`` are
    per-row arrays or scalars.  Returns ``(phi, lam_upper, lam_lower,
    region)`` with int8 region codes 0 interior, 1 upper-active and 2
    lower-active.  Precondition, left to the caller: no bound is NaN and no
    box is empty.  A zero ``x0`` (``x0 . x0 == 0``) leaves every row at its
    target; a box that then excludes 0 raises :class:`InfeasibleRowError`
    naming its position in the group.
    """
    targets = np.asarray(targets, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    lo, hi, weight = np.asarray(lo, float), np.asarray(hi, float), np.asarray(weight, float)
    if targets.ndim != 2 or x0.shape != targets.shape[1:]:
        raise ValueError(f"targets of shape {targets.shape} do not match x0 of shape {x0.shape}")
    x0_sq = float(x0 @ x0)
    if not x0_sq:  # x0 is zero, or so small that its square underflows
        k = targets.shape[0]
        check_rows(np.broadcast_to(lo, (k,)), np.broadcast_to(hi, (k,)))
        return targets.copy(), np.zeros(k), np.zeros(k), np.zeros(k, dtype=np.int8)
    c2 = 2.0 * weight * weight
    denom = rho + c2 * x0_sq
    # M x0 = x0 / denom, so the scalars below avoid any matrix work.
    unconstrained = rho * np.sum(targets * x0, axis=1) / denom  # rho * a M x0
    x_m_x = x0_sq / denom  # x0' M x0
    lam_upper = np.maximum(unconstrained - hi, 0.0) / x_m_x
    lam_lower = np.maximum(lo - unconstrained, 0.0) / x_m_x
    region = np.int8(1) * (unconstrained > hi) + np.int8(2) * (unconstrained < lo)

    v = rho * targets - (lam_upper - lam_lower)[:, None] * x0
    phi = (v - (c2 * np.sum(v * x0, axis=1) / denom)[:, None] * x0) / rho
    return phi, lam_upper, lam_lower, region


def solve_row(p: RowProblem) -> RowSolution:
    """Closed-form minimizer of one row subproblem; an empty box raises InfeasibleRowError."""
    if empty_boxes(p.lo, p.hi):
        raise InfeasibleRowError(f"empty box: [{p.lo}, {p.hi}]")
    phi, lam_upper, lam_lower, region = solve_rows(
        p.target[None, :], p.x0, p.rho, p.lo, p.hi, p.weight
    )
    return RowSolution(phi[0], float(lam_upper[0]), float(lam_lower[0]), _REGIONS[region[0]])


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
