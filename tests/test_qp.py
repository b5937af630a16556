"""Interior-point QP solver against brute-force and closed-form references.

For tiny problems every active set is enumerated outright, which gives an
exact reference that shares nothing with the interior-point code path.
"""
import itertools

import numpy as np
import pytest

from dlmpc import (
    DenseQP,
    QpStatus,
    QpStructureError,
    build_chain_model,
    build_graph,
    build_locality_index,
    centralized_mpc,
    solve_qp,
    stacked_profiles,
)
from oracles import centralized_local_mpc, dense_dynamics


def brute_force_box_qp(qp, grid=None):
    """Global minimum by enumerating every combination of active bounds.

    Each variable is either free, pinned at its lower bound or pinned at its
    upper bound; for each combination the equality-constrained problem in
    the free variables is solved and feasibility checked.
    """
    n = qp.g.shape[-1]
    lb = qp.lb if qp.lb is not None else np.full(n, -np.inf)
    ub = qp.ub if qp.ub is not None else np.full(n, np.inf)
    best_x, best_val = None, np.inf
    options = []
    for i in range(n):
        opts = [None]
        if np.isfinite(lb[i]):
            opts.append(("lo", lb[i]))
        if np.isfinite(ub[i]):
            opts.append(("up", ub[i]))
        options.append(opts)
    for combo in itertools.product(*options):
        fixed = {i: c[1] for i, c in enumerate(combo) if c is not None}
        free = [i for i in range(n) if i not in fixed]
        x = np.zeros(n)
        for i, val in fixed.items():
            x[i] = val
        if free:
            h_ff = qp.h[np.ix_(free, free)]
            g_f = qp.g[free].copy()
            if fixed:
                fixed_idx = list(fixed)
                g_f += qp.h[np.ix_(free, fixed_idx)] @ x[fixed_idx]
            if qp.a_eq is not None and qp.a_eq.size:
                a_f = qp.a_eq[:, free]
                b = qp.b_eq - (qp.a_eq @ x - a_f @ x[free])
                m = a_f.shape[0]
                kkt = np.block([[h_ff, a_f.T], [a_f, np.zeros((m, m))]])
                rhs = np.concatenate([-g_f, b])
                sol, res, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
                if np.linalg.norm(kkt @ sol - rhs) > 1e-8 * max(1, np.abs(rhs).max()):
                    continue
                x[free] = sol[: len(free)]
            else:
                x[free] = np.linalg.lstsq(h_ff, -g_f, rcond=None)[0]
        else:
            if qp.a_eq is not None and qp.a_eq.size:
                if np.linalg.norm(qp.a_eq @ x - qp.b_eq) > 1e-9:
                    continue
        if np.any(x < lb - 1e-9) or np.any(x > ub + 1e-9):
            continue
        if qp.a_eq is not None and qp.a_eq.size:
            if np.linalg.norm(qp.a_eq @ x - qp.b_eq) > 1e-7:
                continue
        val = 0.5 * x @ qp.h @ x + qp.g @ x
        if val < best_val - 1e-12:
            best_val, best_x = val, x.copy()
    return best_x, best_val


def random_psd(rng, n, scale=1.0):
    m = rng.normal(size=(n, n))
    return scale * (m @ m.T + 0.5 * np.eye(n))


class TestSolveQp:
    def test_unconstrained_matches_linear_solve(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 8))
            h = random_psd(rng, n)
            g = rng.normal(size=n)
            res = solve_qp(DenseQP(h, g))
            assert res.status is QpStatus.OPTIMAL
            np.testing.assert_allclose(res.x, np.linalg.solve(h, -g), atol=1e-7)

    def test_equality_constrained_matches_kkt(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            m = int(rng.integers(1, n))
            h = random_psd(rng, n)
            g = rng.normal(size=n)
            a = rng.normal(size=(m, n))
            b = rng.normal(size=m)
            res = solve_qp(DenseQP(h, g, a, b))
            kkt = np.block([[h, a.T], [a, np.zeros((m, m))]])
            ref = np.linalg.solve(kkt, np.concatenate([-g, b]))
            assert res.status is QpStatus.OPTIMAL
            np.testing.assert_allclose(res.x, ref[:n], atol=1e-7)
            # stationarity with the returned multipliers
            np.testing.assert_allclose(h @ res.x + g + a.T @ res.nu, 0, atol=1e-6)

    def test_box_constrained_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            h = random_psd(rng, n)
            g = rng.normal(size=n, scale=2.0)
            lb = rng.normal(size=n) - 1.0
            ub = lb + rng.uniform(0.1, 2.0, size=n)
            qp = DenseQP(h, g, lb=lb, ub=ub)
            res = solve_qp(qp, tol=1e-10)
            ref_x, ref_val = brute_force_box_qp(qp)
            assert res.status is QpStatus.OPTIMAL
            val = 0.5 * res.x @ h @ res.x + g @ res.x
            assert val <= ref_val + 1e-7
            np.testing.assert_allclose(res.x, ref_x, atol=1e-5)

    def test_box_and_equality_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(2, 4))
            h = random_psd(rng, n)
            g = rng.normal(size=n)
            a = rng.normal(size=(1, n))
            lb = np.full(n, -1.5)
            ub = np.full(n, 1.5)
            x_feas = rng.uniform(-1.0, 1.0, size=n)
            b = a @ x_feas  # guarantees a feasible interior point
            qp = DenseQP(h, g, a, b, lb, ub)
            res = solve_qp(qp, tol=1e-10)
            ref_x, ref_val = brute_force_box_qp(qp)
            assert res.status is QpStatus.OPTIMAL
            np.testing.assert_allclose(res.x, ref_x, atol=1e-5)

    def test_semidefinite_hessian(self):
        # rank-deficient curvature with bounds still has a unique optimum
        h = np.array([[1.0, 0.0], [0.0, 0.0]])
        g = np.array([0.0, 1.0])
        qp = DenseQP(h, g, lb=np.array([-1.0, -1.0]), ub=np.array([1.0, 1.0]))
        res = solve_qp(qp)
        assert res.status is QpStatus.OPTIMAL
        np.testing.assert_allclose(res.x, [0.0, -1.0], atol=1e-6)

    def test_pinned_variables(self):
        h = np.eye(3)
        g = np.array([1.0, -2.0, 0.5])
        lb = np.array([0.5, -np.inf, -1.0])
        ub = np.array([0.5, np.inf, 1.0])
        res = solve_qp(DenseQP(h, g, lb=lb, ub=ub))
        assert res.status is QpStatus.OPTIMAL
        np.testing.assert_allclose(res.x, [0.5, 2.0, -0.5], atol=1e-8)
        # pinned variable owns a bound multiplier consistent with its sign
        assert res.mu_lo[0] >= -1e-9

    def test_infeasible_bounds_detected(self):
        qp = DenseQP(np.eye(2), np.zeros(2), lb=np.array([1.0, 0.0]), ub=np.array([0.0, 1.0]))
        res = solve_qp(qp)
        assert res.status is QpStatus.INFEASIBLE

    def test_inconsistent_equalities_detected(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        b = np.array([1.0, 2.0])
        res = solve_qp(DenseQP(np.eye(2), np.zeros(2), a, b))
        assert res.status is QpStatus.INFEASIBLE

    def test_bound_multiplier_signs_and_complementarity(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            h = random_psd(rng, n)
            g = rng.normal(size=n, scale=2.0)
            lb = np.full(n, -0.5)
            ub = np.full(n, 0.5)
            res = solve_qp(DenseQP(h, g, lb=lb, ub=ub), tol=1e-10)
            assert res.status is QpStatus.OPTIMAL
            assert np.all(res.mu_lo >= -1e-8)
            assert np.all(res.mu_hi >= -1e-8)
            comp_lo = res.mu_lo * (res.x - lb)
            comp_hi = res.mu_hi * (ub - res.x)
            assert np.max(np.abs(comp_lo)) < 1e-6
            assert np.max(np.abs(comp_hi)) < 1e-6

    @pytest.mark.parametrize("n_eq", [None, 0, 1, 2])
    def test_mixed_bound_patterns_match_brute_force(self, n_eq):
        # per variable: free, lower-only, upper-only, two-sided or pinned
        rng = np.random.default_rng(10 + [None, 0, 1, 2].index(n_eq))
        for _ in range(40):
            n = int(rng.integers(2, 5))
            h = random_psd(rng, n)
            g = rng.normal(size=n, scale=2.0)
            lb = np.full(n, -np.inf)
            ub = np.full(n, np.inf)
            x_feas = rng.uniform(-1.0, 1.0, size=n)
            for i, pattern in enumerate(rng.integers(0, 5, size=n)):
                if pattern in (1, 3):
                    lb[i] = x_feas[i] - rng.uniform(0.1, 1.0)
                if pattern in (2, 3):
                    ub[i] = x_feas[i] + rng.uniform(0.1, 1.0)
                if pattern == 4:
                    lb[i] = ub[i] = x_feas[i]
            if n_eq is None:
                a = b = None
                qp = DenseQP(h, g, lb=lb, ub=ub)
            else:
                a = rng.normal(size=(n_eq, n))
                b = a @ x_feas  # x_feas meets every bound, so the QP is feasible
                qp = DenseQP(h, g, a, b, lb, ub)
            res = solve_qp(qp, tol=1e-10)
            ref_x, ref_val = brute_force_box_qp(qp)
            assert res.status is QpStatus.OPTIMAL
            np.testing.assert_allclose(res.x, ref_x, atol=1e-5)
            assert res.nu.shape == (0 if n_eq is None else n_eq,)
            # both multipliers: nonnegative, zero on a missing bound,
            # complementary to their bound, and stationary together with nu
            assert np.all(res.mu_lo >= -1e-8) and np.all(res.mu_hi >= -1e-8)
            assert np.all(res.mu_lo[np.isinf(lb)] == 0) and np.all(res.mu_hi[np.isinf(ub)] == 0)
            fin_lo, fin_hi = np.isfinite(lb), np.isfinite(ub)
            assert np.max(np.abs(res.mu_lo[fin_lo] * (res.x - lb)[fin_lo]), initial=0.0) < 1e-6
            assert np.max(np.abs(res.mu_hi[fin_hi] * (ub - res.x)[fin_hi]), initial=0.0) < 1e-6
            grad = h @ res.x + g - res.mu_lo + res.mu_hi
            if a is not None:
                grad = grad + a.T @ res.nu
            np.testing.assert_allclose(grad, 0, atol=1e-6)

    def test_missing_equalities_are_a_zero_row_block(self):
        qp = DenseQP(np.eye(3), np.zeros(3))
        assert qp.a_eq.shape == (0, 3)
        assert qp.b_eq.shape == (0,)
        with pytest.raises(QpStructureError):
            DenseQP(np.eye(3), np.zeros(3), a_eq=np.ones((1, 3)))
        with pytest.raises(QpStructureError):
            DenseQP(np.eye(3), np.zeros(3), b_eq=np.ones(1))

    def test_infeasible_results_have_one_nu_per_equality_row(self):
        a, b = np.ones((1, 2)), np.ones(1)
        crossed = solve_qp(DenseQP(np.eye(2), np.zeros(2), a, b, [1, -1], [0, 1]))
        assert crossed.status is QpStatus.INFEASIBLE
        assert crossed.nu.shape == (1,)
        inconsistent = solve_qp(DenseQP(np.eye(2), np.zeros(2), np.vstack([a, a]), [1.0, 2.0]))
        assert inconsistent.status is QpStatus.INFEASIBLE
        assert inconsistent.nu.shape == (2,)

    def test_unbounded_linear_objective_ends_as_max_iter(self):
        # x[1] is free with zero curvature and a nonzero gradient: the KKT
        # matrix is exactly singular, a numerical breakdown and not a crash
        qp = DenseQP(np.zeros((2, 2)), np.array([1.4, 1.0]), ub=np.array([1.0, np.inf]))
        res = solve_qp(qp)
        assert res.status is QpStatus.MAX_ITER
        assert np.all(np.isfinite(res.x))

    def test_singular_member_ends_alone_in_a_stack(self):
        # the unbounded QP above among regular members with the same bound
        # slots: its singular KKT matrix ends it at MAX_ITER, and every other
        # member comes out bit for bit as it does alone
        rng = np.random.default_rng(4)
        h = np.stack([random_psd(rng, 2) for _ in range(4)])
        h[1] = 0.0
        g = rng.normal(size=(4, 2))
        g[1] = [1.4, 1.0]
        lb = np.full((4, 2), -np.inf)
        ub = np.stack([np.full(4, 1.0), np.full(4, np.inf)], axis=1)
        ub[[0, 2, 3], 0] = [-0.5, 0.2, 3.0]
        stacked = solve_qp(DenseQP(h, g, lb=lb, ub=ub))
        assert stacked.statuses[1] is QpStatus.MAX_ITER and np.all(np.isfinite(stacked.x[1]))
        for k in (0, 2, 3):
            one = slice(k, k + 1)
            alone = solve_qp(DenseQP(h[one], g[one], lb=lb[one], ub=ub[one]))
            assert stacked.statuses[k] is alone.statuses[0] is QpStatus.OPTIMAL
            for field in ("x", "nu", "mu_lo", "mu_hi"):
                assert getattr(stacked, field)[k].tobytes() == getattr(alone, field)[0].tobytes(), (k, field)

    def test_stack_members_match_their_solves_as_stacks_of_one(self, monkeypatch):
        # one stack of equal-size QPs (three variables, one equality row)
        # whose members differ in their bounds; each must come out as it does
        # alone, so a failing member (crossed bounds, or out of iterations)
        # changes nothing for the others
        inf = np.inf
        x_feas = np.array([0.25, 0.0, 0.15])
        members = [  # name, lb, ub, gradient scale, status
            ("free", [-inf] * 3, [inf] * 3, 1.0, QpStatus.OPTIMAL),
            ("lower-only", [0.0, -inf, 0.1], [inf] * 3, 1.0, QpStatus.OPTIMAL),
            ("upper-only", [-inf] * 3, [0.5, inf, 0.2], 1.0, QpStatus.OPTIMAL),
            ("two-sided", [0.2, -0.3, -inf], [0.3, 0.3, inf], 1.0, QpStatus.OPTIMAL),
            ("pinned", [0.25, -inf, -1.0], [0.25, inf, 1.0], 1.0, QpStatus.OPTIMAL),
            ("crossed", [1.0, -inf, -inf], [0.0, inf, inf], 1.0, QpStatus.INFEASIBLE),
            ("capped", [0.0, -inf, 0.1], [inf] * 3, 1e6, QpStatus.MAX_ITER),
        ]
        rng = np.random.default_rng(20)
        h = np.stack([random_psd(rng, 3) for _ in members])
        g = np.stack([rng.normal(size=3) * m[3] for m in members])
        a = rng.normal(size=(len(members), 1, 3))
        b = a @ x_feas
        lb = np.array([m[1] for m in members])
        ub = np.array([m[2] for m in members])
        max_iter = 12
        monkeypatch.setattr("dlmpc.qp.MAX_ITERATIONS", max_iter)
        stacked = solve_qp(DenseQP(h, g, a, b, lb, ub), tol=1e-10)
        assert stacked.x.shape == (len(members), 3) and stacked.nu.shape == (len(members), 1)
        assert stacked.status is QpStatus.INFEASIBLE  # the first member that is not optimal
        assert stacked.iterations == max_iter
        for k, (name, *_, status) in enumerate(members):
            one = slice(k, k + 1)
            alone = solve_qp(DenseQP(h[one], g[one], a[one], b[one], lb[one], ub[one]), tol=1e-10)
            assert alone.statuses == [status], name
            assert stacked.statuses[k] is status, name
            for field in ("x", "nu", "mu_lo", "mu_hi"):
                np.testing.assert_allclose(
                    getattr(stacked, field)[k], getattr(alone, field)[0], rtol=1e-9, atol=1e-8,
                    err_msg=f"{name}: {field}",
                )
            if status is QpStatus.OPTIMAL:
                ref_x, _ = brute_force_box_qp(DenseQP(h[k], g[k], a[k], b[k], lb[k], ub[k]))
                np.testing.assert_allclose(stacked.x[k], ref_x, atol=1e-5, err_msg=name)

    @pytest.mark.parametrize(
        "lb, ub",
        [(None, None), ([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]), ([0.0, -np.inf, 0.0], None)],
    )
    def test_redundant_equality_rows_are_set_aside(self, lb, ub):
        # the second row is twice the first: the multipliers are not unique
        # and the KKT matrix with both rows is singular, yet the QP is fine
        h, g = np.eye(3), np.array([1.0, -1.0, 0.5])
        a, b = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]]), np.array([1.0, 2.0])
        qp = DenseQP(h, g, a, b, lb, ub)
        res = solve_qp(qp, tol=1e-10)
        assert res.status is QpStatus.OPTIMAL
        np.testing.assert_allclose(res.x, brute_force_box_qp(qp)[0], atol=1e-5)
        grad = h @ res.x + g + a.T @ res.nu - res.mu_lo + res.mu_hi
        np.testing.assert_allclose(grad, 0, atol=1e-6)

    def test_rejects_indefinite_hessian(self):
        with pytest.raises(QpStructureError):
            solve_qp(DenseQP(np.array([[-1.0]]), np.zeros(1)))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(QpStructureError):
            DenseQP(np.eye(2), np.zeros(3))

    @pytest.mark.parametrize(
        "data, message",
        [
            (dict(g=[np.inf]), r"g\[0\] is inf, must be finite"),
            (dict(g=[np.nan]), r"g\[0\] is nan, must be finite"),
            (dict(h=[[np.nan]]), r"h\[0, 0\] is nan, must be finite"),
            (dict(a_eq=[[-np.inf]], b_eq=[0.0]), r"a_eq\[0, 0\] is -inf, must be finite"),
            (dict(a_eq=[[1.0]], b_eq=[np.nan]), r"b_eq\[0\] is nan, must be finite"),
            (dict(lb=[np.nan]), r"lb\[0\] is nan, must be a number"),
            (dict(ub=[np.nan]), r"ub\[0\] is nan, must be a number"),
            (dict(lb=[np.inf]), r"lb\[0\] is inf, which no x meets"),
            (dict(ub=[-np.inf]), r"ub\[0\] is -inf, which no x meets"),
            (dict(h=np.ones((2, 1, 1)), g=[[1.0], [np.nan]]), r"g\[1, 0\] is nan, must be finite"),
        ],
        ids=["g-inf", "g-nan", "h-nan", "a_eq-inf", "b_eq-nan", "lb-nan", "ub-nan", "lb-inf", "ub-minus-inf",
             "stack-member"],
    )
    def test_rejects_non_finite_data(self, data, message):
        # inf in g once ended OPTIMAL at x = 0 (its tolerance scale was inf), a
        # NaN bound bounded nothing, NaN data ended MAX_ITER with a NaN x, and
        # an lb of +inf or a ub of -inf was dropped: the QP ended OPTIMAL at x = 0
        with pytest.raises(QpStructureError, match=f"^{message}$"):
            DenseQP(**({"h": np.eye(1), "g": [1.0]} | data))


def simulate(model, x0, inputs, horizon):
    a, b = dense_dynamics(model)
    x = np.asarray(x0, float)
    states = [x]
    for t in range(horizon):
        x = a @ x + b @ inputs[t]
        states.append(x)
    return np.asarray(states)


class TestCentralizedMpc:
    def test_unconstrained_matches_normal_equations(self):
        model = build_chain_model(3)
        horizon = 4
        rng = np.random.default_rng(5)
        x0 = rng.uniform(0, 1, model.n_states)
        n, p = model.n_states, model.n_inputs
        q = np.ones(n)
        r = 0.5 * np.ones(p)
        qt = 2.0 * np.ones(n)
        sol = centralized_mpc(model, horizon, x0, q, r, qt)
        assert sol.status is QpStatus.OPTIMAL

        # reference: stack the prediction map and solve the normal equations
        a, b = dense_dynamics(model)
        blocks = np.zeros((n * (horizon + 1), p * horizon))
        free = np.zeros((n * (horizon + 1), ))
        powers = [np.linalg.matrix_power(a, t) for t in range(horizon + 1)]
        for t in range(horizon + 1):
            free[t * n : (t + 1) * n] = powers[t] @ x0
            for s in range(t):
                blocks[t * n : (t + 1) * n, s * p : (s + 1) * p] = powers[t - 1 - s] @ b
        w = np.concatenate([np.zeros(n)] + [q] * (horizon - 1) + [qt])
        rw = np.tile(r, horizon)
        lhs = blocks.T @ (w[:, None] * blocks) + np.diag(rw)
        rhs = -blocks.T @ (w * free)
        u_ref = np.linalg.solve(lhs, rhs)
        np.testing.assert_allclose(sol.u_sequence.ravel(), u_ref, atol=1e-7)

    def test_constrained_solution_kkt_certificate(self):
        # active box: optimum must be feasible and no feasible point beats it
        model = build_chain_model(2)
        horizon = 3
        x0 = np.array([0.2, 1.0, 0.2, 1.0])
        state_ub = np.array([0.35, np.inf, 0.35, np.inf])
        state_lb = np.full(4, -np.inf)
        sol = centralized_mpc(
            model, horizon, x0,
            q_diag=np.ones(4), r_diag=np.ones(2), qt_diag=np.ones(4),
            state_lb=state_lb, state_ub=state_ub,
        )
        assert sol.status is QpStatus.OPTIMAL
        states = simulate(model, x0, sol.u_sequence, horizon)
        assert np.all(states[1:] <= state_ub + 1e-7)
        # the box binds for this setup
        assert np.any(states[1:, [0, 2]] > 0.35 - 1e-4)
        # perturbing inputs inside the feasible set never improves the cost
        rng = np.random.default_rng(6)
        def cost_of(useq):
            st = simulate(model, x0, useq, horizon)
            return float(np.sum(st[1:] ** 2) + np.sum(useq**2))
        base = cost_of(sol.u_sequence)
        for _ in range(60):
            cand = sol.u_sequence + rng.normal(scale=1e-3, size=sol.u_sequence.shape)
            st = simulate(model, x0, cand, horizon)
            if np.all(st[1:] <= state_ub + 1e-12):
                assert cost_of(cand) >= base - 1e-9

    def test_planned_cost_consistency(self):
        model = build_chain_model(2)
        x0 = np.full(4, 0.5)
        sol = centralized_mpc(
            model, 3, x0, np.ones(4), np.ones(2), np.ones(4)
        )
        states = simulate(model, x0, sol.u_sequence, 3)
        manual = float(np.sum(states[1:] ** 2) + np.sum(sol.u_sequence**2))
        assert abs(sol.planned_cost - manual) < 1e-8
        np.testing.assert_allclose(sol.planned_states, states, atol=1e-10)

    def test_infeasible_box_raises_or_flags(self):
        model = build_chain_model(2)
        x0 = np.array([1.0, 1.0, 1.0, 1.0])
        # first component of the one-step state is fixed by x0; an impossible
        # box on it cannot be satisfied by any input
        state_ub = np.array([0.5, np.inf, 0.5, np.inf])
        sol = centralized_mpc(
            model, 2, x0, np.ones(4), np.ones(2), np.ones(4),
            state_lb=np.full(4, -np.inf), state_ub=state_ub,
        )
        assert sol.status is QpStatus.INFEASIBLE

    @pytest.mark.parametrize(
        "profiles, name",
        [(dict(state_lb=[-np.inf], state_ub=[0.6]), "state_lb"), (dict(q_diag=[1.0]), "q_diag")],
    )
    def test_rejects_profiles_of_wrong_length(self, profiles, name):
        # the engine's check: a short profile must not bound or weight the wrong rows
        kwargs = dict(q_diag=np.ones(4), r_diag=np.ones(2), qt_diag=np.ones(4)) | profiles
        with pytest.raises(ValueError, match=f"{name} must have 4 entries, got 1"):
            centralized_mpc(build_chain_model(2), 3, np.array([0.5, 0.9, 0.5, 0.9]), **kwargs)

    def test_terminal_weight_defaults_to_stage_weight(self):
        # the engine's default: qt_diag=None weights the terminal state by q_diag, not by ones
        model, x0 = build_chain_model(2), np.array([0.5, 0.9, 0.5, 0.9])
        q, r = np.full(4, 3.0), np.ones(2)
        default = centralized_mpc(model, 3, x0, q, r, None)
        stated = centralized_mpc(model, 3, x0, q, r, q)
        np.testing.assert_array_equal(default.u_sequence, stated.u_sequence)
        assert default.planned_cost == stated.planned_cost

    @pytest.mark.parametrize(
        "boxes, named",
        [
            (dict(state_lb=[-np.inf, 0.5, -np.inf, -np.inf], state_ub=[np.inf, 0.0, np.inf, np.inf]),
             "state_lb/state_ub component 1"),
            (dict(input_lb=[np.inf, -1.0]), "input_lb/input_ub component 0"),
        ],
        ids=["state", "input-lower-plus-inf"],
    )
    def test_rejects_an_empty_box(self, boxes, named):
        # the engine's check and message, not an INFEASIBLE status
        with pytest.raises(ValueError, match=f"^{named}: empty box"):
            centralized_mpc(
                build_chain_model(2), 3, np.array([0.5, 0.9, 0.5, 0.9]), np.ones(4), np.ones(2), np.ones(4), **boxes
            )

    @pytest.mark.parametrize(
        "horizon, message",
        [(0, "horizon must be at least 1"), (-1, "horizon must be at least 1"),
         (1.5, "horizon must be an integer, got 1.5"), (True, "horizon must be an integer, got True")],
    )
    def test_rejects_a_horizon_that_is_not_a_positive_integer(self, horizon, message):
        # the locality index's rule and messages, not a numpy error from deep inside
        with pytest.raises(ValueError, match=f"^{message}$"):
            centralized_mpc(build_chain_model(2), horizon, np.ones(4), np.ones(4), np.ones(2), np.ones(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_state(self, bad):
        # the engine's message, not MAX_ITER with NaN inputs
        x0 = np.array([0.5, 0.9, bad, 0.9])
        with pytest.raises(ValueError, match=rf"^x0\[2\] is {bad}, must be finite$"):
            centralized_mpc(build_chain_model(2), 2, x0, np.ones(4), np.ones(2), np.ones(4))


class TestCentralizedLocalMpc:
    def test_wide_locality_matches_unrestricted(self):
        model = build_chain_model(3)
        horizon = 3
        graph = build_graph(model)
        index = build_locality_index(graph, model, d=3, horizon=horizon)
        rng = np.random.default_rng(8)
        x0 = rng.uniform(0, 1, model.n_states)
        cost, lo, hi = stacked_profiles(
            model.n_states, model.n_inputs, horizon,
            np.ones(model.n_states), np.ones(model.n_inputs), np.ones(model.n_states),
            np.full(model.n_states, -np.inf), np.full(model.n_states, np.inf),
            np.full(model.n_inputs, -np.inf), np.full(model.n_inputs, np.inf),
        )
        local = centralized_local_mpc(model, index, x0, np.sqrt(cost), lo, hi)
        assert local["status"] is QpStatus.OPTIMAL
        plain = centralized_mpc(
            model, horizon, x0, np.ones(model.n_states),
            np.ones(model.n_inputs), np.ones(model.n_states),
        )
        assert abs(local["cost"] - plain.planned_cost) < 1e-6
