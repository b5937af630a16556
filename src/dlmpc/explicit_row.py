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

A row depends on its own target, box, weight and ``x0``, and on a ``rho``
shared by every row, so :func:`solve_rows` solves a block of rows in one
array expression; :func:`solve_row` is its one-row case.  It runs in two
halves, for callers that solve many targets for one ``x0`` (an MPC step):
:func:`row_terms` computes what ``x0``, the boxes and the weights fix, once,
and :func:`solve_terms` the point location and the affine map per target
and ``rho``.  The rows may share one ``x0`` or each carry their own, zero
off the row's support.  The dot products are sequential left-to-right sums
(``np.add.accumulate``), not BLAS or pairwise sums: zeros padded around a
row's support leave such a sum unchanged, so a padded row in a block is
bitwise the row solved alone.

The kernel assumes that no bound is NaN and no box is empty (see
:func:`empty_boxes`), and does not check it: boxes are checked where they
enter, by ``DlmpcEngine`` once when it is built and by :func:`solve_row`.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class InfeasibleRowError(ValueError):
    """The row's box constraint cannot be satisfied.

    ``row`` is its position in its block, if known; ``detail`` omits it.
    """

    def __init__(self, detail: str, row: int | None = None):
        super().__init__(detail if row is None else f"row {row}: {detail}")
        self.row, self.detail = row, detail


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
        if not (np.isfinite(self.rho) and self.rho > 0):
            raise ValueError(f"rho must be positive and finite, got {self.rho}")
        if not (np.isfinite(self.weight) and self.weight >= 0):
            raise ValueError(f"weight must be finite and nonnegative, got {self.weight}")
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


def check_rows(lo, hi, zero):
    """Raise InfeasibleRowError naming the first row with a zero x0 whose box excludes 0."""
    excluded = np.flatnonzero(zero & ((lo > 0.0) | (hi < 0.0)))
    if excluded.size:
        k = excluded[0]
        lo, hi = np.broadcast_to(lo, zero.shape), np.broadcast_to(hi, zero.shape)
        raise InfeasibleRowError(f"x0 slice is zero but the box [{lo[k]}, {hi[k]}] excludes 0", row=k)


def _dot(a, b) -> np.ndarray:
    """Row-wise dot products as sequential left-to-right sums (zeros for zero width)."""
    return np.add.accumulate(a * b, axis=1)[:, -1] if a.shape[1] else np.zeros(a.shape[0])


def row_terms(x0, lo, hi, weight) -> tuple:
    """``(x0, x0 . x0, zero, c2, c2 x0 . x0, lo, hi)`` for one x0 slice per row, ``c2 = 2 weight^2``.

    A ``zero`` row (``x0 . x0 == 0``; None if none) gets a zero x0 and a square of 1;
    if its box excludes 0, :class:`InfeasibleRowError` names its position in the block.
    """
    x0_sq = _dot(x0, x0)
    zero = x0_sq == 0.0  # x0 is zero, or so small that its square underflows
    if zero.any():
        check_rows(lo, hi, zero)
        # the box holds 0, so a zeroed x0 gives a zero multiplier
        x0, x0_sq = x0 * ~zero[:, None], np.where(zero, 1.0, x0_sq)
    c2 = 2.0 * weight * weight
    return x0, x0_sq, zero if zero.any() else None, c2, c2 * x0_sq, lo, hi


def solve_terms(terms: tuple, targets, rho: float) -> tuple:
    """``(phi, lam, rho a M x0)`` for :func:`row_terms`' terms, with ``lam = lam_upper - lam_lower``.

    At most one of ``lam_upper`` and ``lam_lower`` is nonzero, so ``lam`` has the bits of both.
    """
    x0, x0_sq, zero, c2, c2_x0_sq, lo, hi = terms
    denom = rho + c2_x0_sq
    # M x0 = x0 / denom, so the scalars below avoid any matrix work.
    unconstrained = rho * _dot(targets, x0) / denom  # rho * a M x0
    x_m_x = x0_sq / denom  # x0' M x0
    # the distance past the violated bound, negative below lo, locates the region
    lam = (unconstrained - np.minimum(np.maximum(unconstrained, lo), hi)) / x_m_x
    v = rho * targets - lam[:, None] * x0
    phi = (v - (c2 * _dot(v, x0) / denom)[:, None] * x0) / rho
    if zero is not None:
        phi[zero] = targets[zero]
    return phi, lam, unconstrained


def solve_rows(targets, x0, rho: float, lo, hi, weight) -> tuple:
    """Closed-form minimizers of a block of rows that share ``rho``.

    ``targets`` has one row per problem; ``x0`` is one slice shared by all
    rows or one per row, zero off the row's support (where the target is zero
    too, the row is bitwise the row solved alone over its support); ``lo``,
    ``hi`` and ``weight`` are per-row arrays or scalars.  Returns ``(phi,
    lam_upper, lam_lower, region)`` with int8 region codes 0 interior, 1
    upper-active and 2 lower-active.  Precondition, left to the caller: no
    bound is NaN and no box is empty.  A zero row (see :func:`row_terms`)
    stays at its target.
    """
    targets = np.asarray(targets, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    lo, hi, weight = np.asarray(lo, float), np.asarray(hi, float), np.asarray(weight, float)
    if targets.ndim != 2 or x0.shape not in (targets.shape[1:], targets.shape):
        raise ValueError(f"targets of shape {targets.shape} do not match x0 of shape {x0.shape}")
    terms = row_terms(np.broadcast_to(x0, targets.shape), lo, hi, weight)
    phi, lam, unconstrained = solve_terms(terms, targets, rho)
    region = np.int8(1) * (unconstrained > hi) + np.int8(2) * (unconstrained < lo)
    return phi, np.maximum(lam, 0.0), np.maximum(-lam, 0.0), region


def solve_row(p: RowProblem) -> RowSolution:
    """Closed-form minimizer of one row subproblem; an empty box raises InfeasibleRowError."""
    if empty_boxes(p.lo, p.hi):
        raise InfeasibleRowError(f"empty box: [{p.lo}, {p.hi}]")
    phi, lam_upper, lam_lower, region = solve_rows(
        p.target[None, :], p.x0, p.rho, p.lo, p.hi, p.weight
    )
    return RowSolution(phi[0], float(lam_upper[0]), float(lam_lower[0]), _REGIONS[region[0]])
