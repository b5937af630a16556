"""Closed-form row solver: frozen values, QP cross-checks, region oracle.

Two independent routes are compared throughout: the closed-form solution,
run through the engine's own kernel (``row_terms`` and ``solve_terms``, by
the thin ``solve_rows``/``solve_row`` adapters of ``oracles``), and the
interior-point QP solver.  Neither shares code with the other.
"""
import numpy as np
import pytest

from dlmpc import DenseQP, InfeasibleRowError, solve_qp
from oracles import (
    INTERIOR,
    LOWER_ACTIVE,
    UPPER_ACTIVE,
    RowProblem,
    kkt_residuals,
    solve_row,
    solve_rows,
)


def qp_reference(p: RowProblem, tol=1e-11):
    """Solve the row problem in slack form with the interior-point solver."""
    m = p.target.size
    h = np.zeros((m + 1, m + 1))
    h[np.arange(m), np.arange(m)] = p.rho
    h[m, m] = 2.0 * p.weight**2
    g = np.concatenate([-p.rho * p.target, [0.0]])
    a_eq = np.concatenate([p.x0, [-1.0]])[None, :]
    lb = np.full(m + 1, -np.inf)
    ub = np.full(m + 1, np.inf)
    lb[m], ub[m] = p.lo, p.hi
    return solve_qp(DenseQP(h, g, a_eq, np.zeros(1), lb, ub), tol=tol)


def random_problem(rng, dim_hi=9):
    m = int(rng.integers(1, dim_hi))
    x0 = rng.normal(size=m)
    target = rng.normal(scale=2.0, size=m)
    rho = float(rng.choice([0.5, 1.0, 10.0]))
    weight = float(rng.uniform(0.0, 3.0))
    lo, hi = sorted(rng.normal(scale=1.5, size=2))
    if rng.random() < 0.25:
        lo = -np.inf
    if rng.random() < 0.25:
        hi = np.inf
    return RowProblem(target=target, x0=x0, rho=rho, lo=lo, hi=hi, weight=weight)


def region_oracle(p: RowProblem) -> int:
    """Exhaustive sign check of the concave dual over the three candidates.

    The dual of the row problem has one multiplier per bound.  Each KKT
    candidate (interior, upper active, lower active) is screened for dual
    feasibility and primal feasibility; the dual objective picks the winner,
    with ties resolved toward the interior.
    """
    denom = p.rho + 2.0 * p.weight**2 * float(p.x0 @ p.x0)
    a_x0 = float(p.target @ p.x0)
    free = p.rho * a_x0 / denom
    k = float(p.x0 @ p.x0) / denom
    if k == 0.0:
        return INTERIOR

    def dual_value(lam_up, lam_lo):
        lam = lam_up - lam_lo
        # g(lam) = -k lam^2 / 2 + lam (free - hi or lo terms folded below)
        val = -0.5 * k * lam * lam + lam * free
        if lam_up:
            val -= lam_up * p.hi
        if lam_lo:
            val += lam_lo * p.lo
        return val

    candidates = []
    if p.lo - 1e-300 <= free <= p.hi + 1e-300:
        candidates.append((INTERIOR, 0.0, 0.0))
    if np.isfinite(p.hi):
        lam = (free - p.hi) / k
        if lam >= 0.0:
            candidates.append((UPPER_ACTIVE, lam, 0.0))
    if np.isfinite(p.lo):
        lam = (p.lo - free) / k
        if lam >= 0.0:
            candidates.append((LOWER_ACTIVE, 0.0, lam))
    assert candidates, "no KKT candidate (infeasible or bug)"
    best = max(candidates, key=lambda c: dual_value(c[1], c[2]))
    # a zero multiplier on an active-bound candidate is the interior case
    if best[0] != INTERIOR and best[1] == 0.0 and best[2] == 0.0:
        return INTERIOR
    return best[0]


class TestShermanMorrison:
    """Interior rows are ``inv(2 w^2 x0 x0' + rho I) @ (rho a)``."""

    def test_scalar_frozen_value(self):
        # rho * a = 1 and inv(2 + 2) = 0.25
        phi, _, _, region = solve_rows(
            np.array([[0.5]]), np.array([1.0]), 2.0, -np.inf, np.inf, 1.0
        )
        np.testing.assert_allclose(phi, [[0.25]], atol=1e-15)
        assert region[0] == 0

    def test_matches_dense_inverse(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            m = int(rng.integers(1, 10))
            x0 = rng.normal(size=m)
            targets = rng.normal(size=(4, m))
            rho = float(rng.uniform(0.2, 5.0))
            w = rng.uniform(0.0, 3.0, size=4)
            phi, lam_upper, lam_lower, region = solve_rows(
                targets, x0, rho, -np.inf, np.inf, w
            )
            assert not region.any() and not lam_upper.any() and not lam_lower.any()
            for k in range(4):
                dense = np.linalg.inv(2 * w[k] ** 2 * np.outer(x0, x0) + rho * np.eye(m))
                np.testing.assert_allclose(phi[k], dense @ (rho * targets[k]), atol=1e-11)


class TestFrozenRowSolutions:
    def test_upper_active_hand_value(self):
        p = RowProblem(
            target=np.array([2.0]), x0=np.array([1.0]), rho=1.0,
            lo=-0.5, hi=0.5, weight=1.0,
        )
        phi, lam_upper, lam_lower, region = solve_row(p)
        np.testing.assert_allclose(phi, [0.5], atol=1e-14)
        np.testing.assert_allclose(lam_upper, 0.5, atol=1e-14)
        assert lam_lower == 0.0
        assert region == UPPER_ACTIVE

    def test_interior_hand_value(self):
        p = RowProblem(
            target=np.array([0.0]), x0=np.array([1.0]), rho=1.0,
            lo=-1.0, hi=1.0, weight=1.0,
        )
        phi, _, _, region = solve_row(p)
        np.testing.assert_allclose(phi, [0.0], atol=1e-15)
        assert region == INTERIOR

    def test_boundary_tie_is_interior(self):
        # unconstrained optimum lands exactly on the bound
        p = RowProblem(
            target=np.array([3.0]), x0=np.array([1.0]), rho=1.0,
            lo=-10.0, hi=1.0, weight=1.0,
        )
        phi, lam_upper, lam_lower, region = solve_row(p)
        np.testing.assert_allclose(phi @ p.x0, 1.0, atol=1e-14)
        assert region == INTERIOR
        assert lam_upper - lam_lower == 0.0

    def test_zero_weight_is_halfspace_projection(self):
        p = RowProblem(
            target=np.array([2.0, 0.0]), x0=np.array([1.0, 1.0]), rho=1.0,
            lo=-np.inf, hi=1.0, weight=0.0,
        )
        phi, _, _, region = solve_row(p)
        # projection of the target onto {phi : phi.x0 <= 1}
        np.testing.assert_allclose(phi, [1.5, -0.5], atol=1e-14)
        assert region == UPPER_ACTIVE


class TestDegenerateRows:
    def test_zero_x0_keeps_target(self):
        p = RowProblem(
            target=np.array([1.0, -2.0]), x0=np.zeros(2), rho=1.0,
            lo=-1.0, hi=1.0, weight=1.0,
        )
        phi, _, _, region = solve_row(p)
        np.testing.assert_array_equal(phi, p.target)
        assert region == INTERIOR

    def test_costless_unboxed_rows_keep_their_targets_bitwise(self):
        # with no cost and no box the row is its target; a kernel that scales
        # the target by rho and back returns (rho * t) / rho, off t in the last bit
        rng = np.random.default_rng(23)
        targets = rng.normal(size=(500, 4))
        phi, _, _, region = solve_rows(targets, rng.normal(size=4), 0.3, -np.inf, np.inf, 0.0)
        np.testing.assert_array_equal(phi, targets)
        assert not region.any()

    def test_zero_x0_with_excluding_box_raises(self):
        p = RowProblem(
            target=np.array([1.0]), x0=np.zeros(1), rho=1.0,
            lo=0.5, hi=1.0, weight=1.0,
        )
        with pytest.raises(InfeasibleRowError):
            solve_row(p)


class TestAgainstQpSolver:
    def test_random_sweep_matches(self):
        rng = np.random.default_rng(21)
        worst = 0.0
        for _ in range(300):
            p = random_problem(rng)
            phi = solve_row(p)[0]
            ref = qp_reference(p)
            worst = max(worst, float(np.max(np.abs(phi - ref.x[:-1]))))
        assert worst < 1e-6

    def test_kkt_certificates(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            p = random_problem(rng)
            stat, prim, comp = kkt_residuals(p, solve_row(p))
            assert stat < 1e-8
            assert prim < 1e-10
            assert comp < 1e-8

    def test_multipliers_match_qp_duals(self):
        rng = np.random.default_rng(23)
        for _ in range(150):
            p = random_problem(rng)
            _, lam_upper, lam_lower, _ = solve_row(p)
            ref = qp_reference(p)
            assert abs(lam_upper - ref.mu_hi[-1]) < 1e-6
            assert abs(lam_lower - ref.mu_lo[-1]) < 1e-6


class TestRegionClassification:
    def test_matches_dual_sign_oracle(self):
        rng = np.random.default_rng(24)
        seen = set()
        for _ in range(600):
            p = random_problem(rng)
            region = solve_row(p)[3]
            assert region == region_oracle(p)
            seen.add(region)
        assert seen == {INTERIOR, UPPER_ACTIVE, LOWER_ACTIVE}

    def test_active_region_pins_constraint(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            p = random_problem(rng)
            phi, lam_upper, lam_lower, region = solve_row(p)
            value = float(phi @ p.x0)
            if region == UPPER_ACTIVE:
                assert abs(value - p.hi) < 1e-9
                assert lam_upper > 0
            elif region == LOWER_ACTIVE:
                assert abs(value - p.lo) < 1e-9
                assert lam_lower > 0
            else:
                assert p.lo - 1e-9 <= value <= p.hi + 1e-9


class TestRowBlocks:
    def test_block_equals_per_row_bitwise(self):
        rng = np.random.default_rng(26)
        x0 = rng.normal(size=6)
        targets = rng.normal(scale=2.0, size=(12, 6))
        weights = rng.uniform(0.5, 2.0, size=12)
        lows, highs = rng.uniform(-1.0, 0.0, size=12), rng.uniform(0.0, 1.0, size=12)
        # scalar boxes with per-row weights, then per-row boxes with a scalar weight
        for lo, hi, weight in ((-0.4, 0.9, weights), (lows, highs, 1.0)):
            phi, lam_upper, lam_lower, region = solve_rows(targets, x0, 2.0, lo, hi, weight)
            lo, hi, weight = (np.broadcast_to(v, (12,)) for v in (lo, hi, weight))
            for k in range(12):
                single = solve_row(
                    RowProblem(target=targets[k], x0=x0, rho=2.0, lo=lo[k], hi=hi[k], weight=weight[k])
                )
                np.testing.assert_array_equal(phi[k], single[0])
                assert (lam_upper[k], lam_lower[k], region[k]) == single[1:]
            assert set(region.tolist()) == {0, 1, 2}

    def test_block_error_names_offending_row(self):
        with pytest.raises(InfeasibleRowError, match="row 1"):
            solve_rows(np.ones((2, 2)), np.zeros(2), 1.0, [-1.0, 0.5], [1.0, 1.0], 1.0)

    @staticmethod
    def alone(targets, x0, masks, rho, lo, hi, weight):
        """Each row solved by ``solve_row`` over its own support only."""
        out = []
        for k, m in enumerate(masks):
            out.append(solve_row(RowProblem(
                target=targets[k, m], x0=x0[m], rho=rho, lo=lo[k], hi=hi[k], weight=weight[k]
            )))
        return out

    def test_padded_rows_equal_rows_solved_alone_bitwise(self):
        rng = np.random.default_rng(27)
        # supports long enough that a pairwise sum would group the additions differently
        masks = rng.random((40, 24)) < 0.7
        x0 = rng.normal(size=24)
        targets = rng.normal(scale=2.0, size=masks.shape) * masks
        lo, hi = rng.uniform(-1.0, 0.0, size=40), rng.uniform(0.0, 1.0, size=40)
        weight = rng.uniform(0.0, 2.0, size=40)
        phi, lam_upper, lam_lower, region = solve_rows(
            targets, np.where(masks, x0, 0.0), 1.5, lo, hi, weight
        )
        for k, single in enumerate(self.alone(targets, x0, masks, 1.5, lo, hi, weight)):
            np.testing.assert_array_equal(phi[k, masks[k]], single[0])
            assert not phi[k, ~masks[k]].any()
            assert (lam_upper[k], lam_lower[k], region[k]) == single[1:]
        assert set(region.tolist()) == {0, 1, 2}

    def test_zero_rows_keep_their_targets(self):
        rng = np.random.default_rng(28)
        x0 = rng.normal(size=(5, 4))
        x0[1] = 0.0
        x0[3] = 1e-200  # its square underflows to 0
        targets = rng.normal(scale=2.0, size=(5, 4))
        lo, hi = np.full(5, -0.1), np.full(5, 0.1)
        phi, lam_upper, lam_lower, region = solve_rows(targets, x0, 3.0, lo, hi, 1.0)
        np.testing.assert_array_equal(phi[[1, 3]], targets[[1, 3]])
        assert not lam_upper[[1, 3]].any() and not lam_lower[[1, 3]].any()
        assert not region[[1, 3]].any()
        for k in (0, 2, 4):
            single = solve_row(RowProblem(target=targets[k], x0=x0[k], rho=3.0, lo=-0.1, hi=0.1))
            np.testing.assert_array_equal(phi[k], single[0])
            assert (lam_upper[k], lam_lower[k]) == single[1:3]

    def test_zero_row_error_names_its_position(self):
        x0 = np.array([[1.0, 2.0], [0.0, 0.0], [0.0, 0.0]])
        # row 0 excludes 0 but has a non-zero x0; row 1 is zero and holds 0
        with pytest.raises(InfeasibleRowError, match="row 2") as err:
            solve_rows(np.ones((3, 2)), x0, 1.0, [0.5, -1.0, 0.5], [1.0, 1.0, 1.0], 1.0)
        assert err.value.row == 2

    @pytest.mark.parametrize("x0", [np.zeros(0), np.zeros((2, 0))], ids=["shared", "per-row"])
    def test_zero_width_block(self, x0):
        phi, lam_upper, lam_lower, region = solve_rows(np.ones((2, 0)), x0, 1.0, -1.0, 1.0, 1.0)
        assert phi.shape == (2, 0)
        assert not lam_upper.any() and not lam_lower.any() and not region.any()
        with pytest.raises(InfeasibleRowError, match="row 1"):
            solve_rows(np.ones((2, 0)), x0, 1.0, [-1.0, 0.5], 1.0, 1.0)
