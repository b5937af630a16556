"""Closed-form row solver: frozen values, QP cross-checks, region oracle.

Two independent routes are compared throughout: the closed-form solution
and the interior-point QP solver.  Neither shares code with the other.
"""
import numpy as np
import pytest

from dlmpc import (
    DenseQP,
    InfeasibleRowError,
    Region,
    RowProblem,
    RowSolution,
    kkt_residuals,
    solve_qp,
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


def region_oracle(p: RowProblem) -> Region:
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
        return Region.INTERIOR

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
        candidates.append((Region.INTERIOR, 0.0, 0.0))
    if np.isfinite(p.hi):
        lam = (free - p.hi) / k
        if lam >= 0.0:
            candidates.append((Region.UPPER_ACTIVE, lam, 0.0))
    if np.isfinite(p.lo):
        lam = (p.lo - free) / k
        if lam >= 0.0:
            candidates.append((Region.LOWER_ACTIVE, 0.0, lam))
    assert candidates, "no KKT candidate (infeasible or bug)"
    best = max(candidates, key=lambda c: dual_value(c[1], c[2]))
    # a zero multiplier on an active-bound candidate is the interior case
    if best[0] is not Region.INTERIOR and best[1] == 0.0 and best[2] == 0.0:
        return Region.INTERIOR
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
        sol = solve_row(p)
        np.testing.assert_allclose(sol.phi, [0.5], atol=1e-14)
        np.testing.assert_allclose(sol.lam_upper, 0.5, atol=1e-14)
        assert sol.lam_lower == 0.0
        assert sol.region is Region.UPPER_ACTIVE

    def test_interior_hand_value(self):
        p = RowProblem(
            target=np.array([0.0]), x0=np.array([1.0]), rho=1.0,
            lo=-1.0, hi=1.0, weight=1.0,
        )
        sol = solve_row(p)
        np.testing.assert_allclose(sol.phi, [0.0], atol=1e-15)
        assert sol.region is Region.INTERIOR

    def test_boundary_tie_is_interior(self):
        # unconstrained optimum lands exactly on the bound
        p = RowProblem(
            target=np.array([3.0]), x0=np.array([1.0]), rho=1.0,
            lo=-10.0, hi=1.0, weight=1.0,
        )
        sol = solve_row(p)
        np.testing.assert_allclose(sol.phi @ p.x0, 1.0, atol=1e-14)
        assert sol.region is Region.INTERIOR
        assert sol.lam == 0.0

    def test_zero_weight_is_halfspace_projection(self):
        p = RowProblem(
            target=np.array([2.0, 0.0]), x0=np.array([1.0, 1.0]), rho=1.0,
            lo=-np.inf, hi=1.0, weight=0.0,
        )
        sol = solve_row(p)
        # projection of the target onto {phi : phi.x0 <= 1}
        np.testing.assert_allclose(sol.phi, [1.5, -0.5], atol=1e-14)
        assert sol.region is Region.UPPER_ACTIVE


class TestDegenerateRows:
    def test_zero_x0_keeps_target(self):
        p = RowProblem(
            target=np.array([1.0, -2.0]), x0=np.zeros(2), rho=1.0,
            lo=-1.0, hi=1.0, weight=1.0,
        )
        sol = solve_row(p)
        np.testing.assert_array_equal(sol.phi, p.target)
        assert sol.region is Region.INTERIOR

    def test_zero_x0_with_excluding_box_raises(self):
        p = RowProblem(
            target=np.array([1.0]), x0=np.zeros(1), rho=1.0,
            lo=0.5, hi=1.0, weight=1.0,
        )
        with pytest.raises(InfeasibleRowError):
            solve_row(p)

    def test_empty_box_raises(self):
        p = RowProblem(
            target=np.array([1.0]), x0=np.array([1.0]), rho=1.0,
            lo=1.0, hi=0.5, weight=1.0,
        )
        with pytest.raises(InfeasibleRowError):
            solve_row(p)

    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError):
            RowProblem(target=np.ones(1), x0=np.ones(1), rho=0.0)

    def test_rejects_nan_bound(self):
        with pytest.raises(ValueError):
            RowProblem(target=np.ones(1), x0=np.ones(1), rho=1.0, lo=np.nan)


class TestAgainstQpSolver:
    def test_random_sweep_matches(self):
        rng = np.random.default_rng(21)
        worst = 0.0
        for _ in range(300):
            p = random_problem(rng)
            sol = solve_row(p)
            ref = qp_reference(p)
            worst = max(worst, float(np.max(np.abs(sol.phi - ref.x[:-1]))))
        assert worst < 1e-6

    def test_kkt_certificates(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            p = random_problem(rng)
            sol = solve_row(p)
            stat, prim, comp = kkt_residuals(p, sol)
            assert stat < 1e-8
            assert prim < 1e-10
            assert comp < 1e-8

    def test_multipliers_match_qp_duals(self):
        rng = np.random.default_rng(23)
        for _ in range(150):
            p = random_problem(rng)
            sol = solve_row(p)
            ref = qp_reference(p)
            assert abs(sol.lam_upper - ref.mu_hi[-1]) < 1e-6
            assert abs(sol.lam_lower - ref.mu_lo[-1]) < 1e-6


class TestRegionClassification:
    def test_matches_dual_sign_oracle(self):
        rng = np.random.default_rng(24)
        seen = set()
        for _ in range(600):
            p = random_problem(rng)
            sol = solve_row(p)
            assert sol.region is region_oracle(p)
            seen.add(sol.region)
        assert seen == {Region.INTERIOR, Region.UPPER_ACTIVE, Region.LOWER_ACTIVE}

    def test_active_region_pins_constraint(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            p = random_problem(rng)
            sol = solve_row(p)
            value = float(sol.phi @ p.x0)
            if sol.region is Region.UPPER_ACTIVE:
                assert abs(value - p.hi) < 1e-9
                assert sol.lam_upper > 0
            elif sol.region is Region.LOWER_ACTIVE:
                assert abs(value - p.lo) < 1e-9
                assert sol.lam_lower > 0
            else:
                assert p.lo - 1e-9 <= value <= p.hi + 1e-9


class TestRowBlocks:
    def test_block_equals_per_row_bitwise(self):
        rng = np.random.default_rng(26)
        x0 = rng.normal(size=6)
        targets = rng.normal(scale=2.0, size=(12, 6))
        weights = rng.uniform(0.5, 2.0, size=12)
        lows, highs = rng.uniform(-1.0, 0.0, size=12), rng.uniform(0.0, 1.0, size=12)
        codes = {Region.INTERIOR: 0, Region.UPPER_ACTIVE: 1, Region.LOWER_ACTIVE: 2}
        # scalar boxes with per-row weights, then per-row boxes with a scalar weight
        for lo, hi, weight in ((-0.4, 0.9, weights), (lows, highs, 1.0)):
            phi, lam_upper, lam_lower, region = solve_rows(targets, x0, 2.0, lo, hi, weight)
            lo, hi, weight = (np.broadcast_to(v, (12,)) for v in (lo, hi, weight))
            for k in range(12):
                single = solve_row(
                    RowProblem(target=targets[k], x0=x0, rho=2.0, lo=lo[k], hi=hi[k], weight=weight[k])
                )
                np.testing.assert_array_equal(phi[k], single.phi)
                assert lam_upper[k] == single.lam_upper
                assert lam_lower[k] == single.lam_lower
                assert region[k] == codes[single.region]
            assert set(region.tolist()) == {0, 1, 2}

    def test_block_rejects_width_mismatch(self):
        with pytest.raises(ValueError):
            solve_rows(np.ones((2, 3)), np.ones(2), 1.0, -np.inf, np.inf, 1.0)

    def test_block_error_names_offending_row(self):
        with pytest.raises(InfeasibleRowError, match="row 1"):
            solve_rows(np.ones((2, 2)), np.zeros(2), 1.0, [-1.0, 0.5], [1.0, 1.0], 1.0)

    def test_solution_lam_property(self):
        sol = RowSolution(np.zeros(1), lam_upper=0.3, lam_lower=0.0, region=Region.UPPER_ACTIVE)
        assert sol.lam == 0.3
        sol = RowSolution(np.zeros(1), lam_upper=0.0, lam_lower=0.7, region=Region.LOWER_ACTIVE)
        assert sol.lam == -0.7
