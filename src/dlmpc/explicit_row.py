"""Closed-form solution of the per-row proximal subproblem.

Each row update in the splitting scheme solves, for a row vector phi over its
allowed support,

    minimize    weight^2 * (phi . x0)^2  +  (rho/2) * ||phi - a||^2
    subject to  lo <= phi . x0 <= hi

with ``a`` the proximal target.  For a fixed ``y = phi . x0`` the nearest
phi to ``a`` is ``a - ((s - y) / ||x0||^2) x0`` with ``s = a . x0``, so y
solves a scalar convex problem: it is the unconstrained optimum
``s - s c2 ||x0||^2 / (rho + c2 ||x0||^2)`` (``c2 = 2 weight^2``) clipped to
the box.  So a row costs one clip and one rank-one correction of its target,
and its region is where that optimum lies: above hi upper-active, below lo
lower-active, otherwise (ties included) interior.  A costless, unboxed row
returns its target bit for bit.

A row depends on its own target, box, weight and ``x0``, and on a ``rho``
shared by every row, so a block of rows is solved in one array expression,
in two halves: :func:`row_terms` computes what ``x0``, the boxes and the
weights fix, once per MPC step, and the clip and the correction follow per
target and ``rho``.  That second half is the two parts of explicit MPC's
online work (Bemporad et al., Automatica 2002): point location,
:func:`locate`, clips the optimum, which fixes the row's region and its
coefficient ``(s - y) / ||x0||^2``; the region's affine law,
:func:`apply_law`, corrects the target, ``a - coef x0``.  Each runs over a
whole block of rows in one call.  The rows may share one ``x0`` or
each carry their own, zero off the row's support.  The dot products are
sequential left-to-right sums, not BLAS or pairwise sums: padding after a
row's support whose products are -0 leaves such a sum unchanged (+0 would
turn a -0 sum into +0), so a padded row in a block is the row solved
alone, bit for bit.  A zero row (x0 zeroed, square 1) keeps its target
with no special case: ``s = y = 0``.

The kernel assumes that no bound is NaN and no box is empty, and does
not check it: ``DlmpcEngine`` reads its boxes from
:func:`dlmpc.qp.stacked_profiles`, which checks them once, when the engine
is built.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np


class InfeasibleRowError(ValueError):
    """The row's box constraint cannot be satisfied.

    ``row`` is its position in its block, if known; ``detail`` omits it.
    """

    def __init__(self, detail: str, row: int | None = None):
        super().__init__(detail if row is None else f"row {row}: {detail}")
        self.row, self.detail = row, detail


def _dot(a, b) -> np.ndarray:
    """Row-wise dot products as sequential left-to-right sums (zeros for zero width).

    One vector add per column: a block has many more rows than columns, and
    ``np.add.accumulate`` along a short row is about three times slower.
    """
    terms = a * b
    if not terms.shape[1]:
        return np.zeros(terms.shape[0])
    out = terms[:, 0].copy()
    for column in terms.T[1:]:
        out += column
    return out


class RowTerms(NamedTuple):
    """What the x0 slices, boxes and weights fix: ``x0_sq = x0 . x0`` (1 on the rows
    ``zero`` marks, whose x0 is zeroed) and ``c2_x0_sq = 2 weight^2 x0_sq``."""

    x0: np.ndarray
    x0_sq: np.ndarray
    zero: np.ndarray
    c2_x0_sq: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


def row_terms(x0, lo, hi, weight) -> RowTerms:
    """The :class:`RowTerms` of one x0 slice per row.

    If a zero row's box excludes 0, :class:`InfeasibleRowError` names its position in the block.
    """
    x0_sq = _dot(x0, x0)
    zero = x0_sq == 0.0  # x0 is zero, or so small that its square underflows
    if zero.any():
        for k in np.flatnonzero(zero & ((lo > 0.0) | (hi < 0.0)))[:1]:
            lo, hi = np.broadcast_to(lo, zero.shape), np.broadcast_to(hi, zero.shape)
            raise InfeasibleRowError(f"x0 slice is zero but the box [{lo[k]}, {hi[k]}] excludes 0", row=k)
        # the box holds 0, so a zeroed x0 gives y = s = 0 and the row keeps its target
        x0, x0_sq = x0 * ~zero[:, None], np.where(zero, 1.0, x0_sq)
    return RowTerms(x0, x0_sq, zero, 2.0 * weight * weight * x0_sq, lo, hi)


def locate(terms: RowTerms, targets, rho: float) -> tuple:
    """Point location: ``(coef, past)`` for :func:`row_terms`' terms.

    ``coef`` is the clip-and-correct coefficient ``(s - y) / x0_sq`` of
    :func:`apply_law`.  ``past`` is how far the unconstrained ``phi . x0`` lies
    past the box, positive above ``hi``, negative below ``lo`` and zero inside
    it: its sign is the row's region, and ``past * (rho + c2_x0_sq) / x0_sq``
    is ``lam_upper - lam_lower``.
    """
    s = _dot(targets, terms.x0)
    unconstrained = s - s * terms.c2_x0_sq / (rho + terms.c2_x0_sq)
    y = np.minimum(np.maximum(unconstrained, terms.lo), terms.hi)
    return (s - y) / terms.x0_sq, unconstrained - y


def apply_law(targets, coef, x0, out=None) -> np.ndarray:
    """The located region's affine law, ``targets - coef x0`` row by row, into ``out`` if given."""
    return np.subtract(targets, coef[:, None] * x0, out=out)

