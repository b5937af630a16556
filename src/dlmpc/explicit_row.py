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
Boundary ties are interior (the multiplier is zero there, so the
solutions agree).

A row depends on its own target, box, weight and ``x0``, and on a ``rho``
shared by every row, so a block of rows is solved in one array expression,
in two halves: :func:`row_terms` computes what ``x0``, the boxes and the
weights fix, once per MPC step, and :func:`solve_terms` the point location
and the affine map per target and ``rho``.  The rows may share one ``x0``
or each carry their own, zero off the row's support.  The dot products are
sequential left-to-right sums (``np.add.accumulate``), not BLAS or pairwise
sums: zeros padded around a row's support leave such a sum unchanged, so a
padded row in a block is bitwise the row solved alone.  A row's region is
the sign of its signed multiplier ``lam``: positive upper-active, negative
lower-active, zero interior.

The kernel assumes that no bound is NaN and no box is empty (see
:func:`empty_boxes`), and does not check it: ``DlmpcEngine`` checks the
boxes once, when it is built.
"""
from __future__ import annotations

import numpy as np


class InfeasibleRowError(ValueError):
    """The row's box constraint cannot be satisfied.

    ``row`` is its position in its block, if known; ``detail`` omits it.
    """

    def __init__(self, detail: str, row: int | None = None):
        super().__init__(detail if row is None else f"row {row}: {detail}")
        self.row, self.detail = row, detail


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
    """``(phi, lam)`` for :func:`row_terms`' terms, with ``lam = lam_upper - lam_lower``.

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
    return phi, lam
