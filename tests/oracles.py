"""Independent references and thin adapters that the tests read.

They live beside the tests, not in the package, so that no controller code
path depends on them:

* ``RowProblem``, ``solve_rows`` and ``solve_row`` state one row, or a
  block of rows, and solve it with the engine's own kernel (``row_terms``,
  then ``closed_form``: ``locate`` and ``apply_law``), reading each row's region from the
  sign of how far the unconstrained optimum lies past the box, and the
  signed multiplier from that distance;
* ``kkt_residuals`` certifies a closed-form row solution by its KKT
  conditions (stationarity, box violation, complementarity);
* ``response_from_controller``, ``full_response_from_controller`` and
  ``controller_from_response`` realize the response maps of a causal gain
  and recover the gain, the gain-response correspondence of System Level
  Synthesis (Anderson, Doyle, Low and Matni, Annual Reviews in Control,
  2019), which the controller never needs since it runs on the responses;
* ``input_free_chain`` is the 4-node chain with subsystem 2's input
  taken away, and ``mixed_dims_chain`` a 5-node chain whose subsystems
  differ in state and input dimension, models that more than one test
  file reads;
* ``save_model_file`` writes a model in the text format that
  ``dlmpc.load_model_file`` reads, so the loader's round trips start from
  a file the package did not write;
* ``reach`` is the Boolean reachability ``(I + M)^d`` over the model's
  nonzero blocks, from which ``conftest.reference_mask`` builds the
  locality mask without the package's graph or hop search;
* ``dense_dynamics`` rebuilds dense A and B from the model's blocks with
  plain numpy and offsets of its own, apart from the model's sparse
  assembly that the package reads;
* ``dense_constraint`` rebuilds the stacked dynamics constraint densely,
  and ``reference_projectors`` derives every subsystem's column projector
  from it with ``np.linalg.pinv``, keeping all constraint rows;
  ``projector`` cuts one subsystem's map out of the engine's class stacks;
* ``centralized_local_mpc`` solves the sparsity-constrained synthesis
  problem centrally with the interior-point QP solver, the diagnostic
  baseline the distributed engine is compared against at desk scale;
* ``check_masks`` asserts exact zeros off a global locality mask built
  outside the engine, and ``sample_masks`` runs it inside the consensus
  loop at every k-th iteration;
* ``column_blocks`` and ``row_blocks`` cut a layer of the column or row
  buffer into per-subsystem blocks (views) by the index's partition
  shapes, ``row_target`` cuts one subsystem's psi - lambda, and
  ``assemble_blocks`` places those blocks in the global stacked
  matrix one ``np.ix_`` block at a time, the reference for the engine's
  one-scatter assembly.
"""
from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

import numpy as np

from dlmpc import DenseQP, LocalityIndex, NetworkModel, build_chain_model, solve_qp
from dlmpc.explicit_row import apply_law, locate, row_terms
from dlmpc.sls import ColumnProjector

INTERIOR, UPPER_ACTIVE, LOWER_ACTIVE = 0, 1, 2  # the region codes of solve_rows


class RowProblem(NamedTuple):
    """One row's proximal subproblem over its allowed support (see ``dlmpc.explicit_row``).

    target  proximal target row ``a``
    x0      initial-state slice seen by this row (same length as target)
    rho     proximal weight
    lo, hi  box on the scalar ``phi . x0``; either may be infinite
    weight  square root of the row's cost weight
    """

    target: np.ndarray
    x0: np.ndarray
    rho: float
    lo: float = -np.inf
    hi: float = np.inf
    weight: float = 1.0


def solve_rows(targets, x0, rho: float, lo, hi, weight) -> tuple:
    """``(phi, lam_upper, lam_lower, region)`` of a block of rows, by the engine's kernel.

    ``x0`` is one slice for every row or one per row; ``lo``, ``hi`` and
    ``weight`` are per-row arrays or scalars.  The int8 region code is 0
    interior, 1 upper-active (``lam > 0``) and 2 lower-active (``lam < 0``);
    ``lam`` has the sign of :func:`closed_form`'s ``past``.
    """
    targets = np.asarray(targets, dtype=float)
    lo, hi, weight = np.asarray(lo, float), np.asarray(hi, float), np.asarray(weight, float)
    terms = row_terms(np.broadcast_to(np.asarray(x0, dtype=float), targets.shape), lo, hi, weight)
    phi, past = closed_form(terms, targets, rho)
    lam = past * (rho + terms.c2_x0_sq) / terms.x0_sq
    region = np.int8(UPPER_ACTIVE) * (past > 0.0) + np.int8(LOWER_ACTIVE) * (past < 0.0)
    return phi, np.maximum(lam, 0.0), np.maximum(-lam, 0.0), region


def closed_form(terms, targets, rho: float) -> tuple:
    """``(phi, past)`` of a block of rows from its ``row_terms``: ``locate``, then ``apply_law``."""
    coef, past = locate(terms, targets, rho)
    return apply_law(targets, coef, terms.x0), past


def solve_row(p: RowProblem) -> tuple:
    """``(phi, lam_upper, lam_lower, region)`` of one row: :func:`solve_rows` on a block of one."""
    phi, lam_upper, lam_lower, region = solve_rows([p.target], p.x0, p.rho, p.lo, p.hi, p.weight)
    return phi[0], float(lam_upper[0]), float(lam_lower[0]), int(region[0])


def kkt_residuals(p: RowProblem, sol: tuple) -> tuple:
    """(stationarity, primal violation, complementarity) of a :func:`solve_row` result.

    Stationarity is the max-norm of
    ``2 weight^2 (phi.x0) x0 + rho (phi - a) + (lam_upper - lam_lower) x0``;
    primal violation measures the box; complementarity multiplies each
    multiplier with its slack.
    """
    phi, lam_upper, lam_lower, _ = sol
    prod = float(phi @ p.x0)
    grad = (
        2.0 * p.weight * p.weight * prod * p.x0
        + p.rho * (phi - p.target)
        + (lam_upper - lam_lower) * p.x0
    )
    stationarity = float(np.max(np.abs(grad))) if grad.size else 0.0
    viol = 0.0
    if np.isfinite(p.hi):
        viol = max(viol, prod - p.hi)
    if np.isfinite(p.lo):
        viol = max(viol, p.lo - prod)
    comp = 0.0
    if np.isfinite(p.hi):
        comp = max(comp, abs(lam_upper * (p.hi - prod)))
    if np.isfinite(p.lo):
        comp = max(comp, abs(lam_lower * (prod - p.lo)))
    return stationarity, max(viol, 0.0), comp


def input_free_chain() -> NetworkModel:
    """The 4-node chain with subsystem 2's input taken away."""
    chain = build_chain_model(4)
    return NetworkModel(
        state_dims=chain.state_dims,
        input_dims=(1, 0, 1, 1),
        a_blocks=chain.a_blocks,
        b_blocks={k: b for k, b in chain.b_blocks.items() if k != (2, 2)},
    )


def mixed_dims_chain() -> NetworkModel:
    """Five-node chain whose subsystems differ in state and input dimension.

    Self blocks are near 0.9 I; each neighbor feeds, weakly and at random,
    only the actuated components of a node (its first ``input_dims``), so
    subsystem 2, which has no input, receives no coupling.
    """
    state_dims, input_dims = (1, 3, 2, 1, 2), (1, 0, 2, 1, 1)
    rng = np.random.default_rng(7)
    a_blocks, b_blocks = {}, {}
    for i, (n, m) in enumerate(zip(state_dims, input_dims), start=1):
        a_blocks[(i, i)] = 0.9 * np.eye(n) + 0.1 * rng.standard_normal((n, n))
        if not m:
            continue
        b_blocks[(i, i)] = np.eye(n, m) + 0.1 * rng.standard_normal((n, m))
        for j in (i - 1, i + 1):
            if 1 <= j <= len(state_dims):
                a_blocks[(i, j)] = np.zeros((n, state_dims[j - 1]))
                a_blocks[(i, j)][:m] = 0.1 * rng.standard_normal((m, state_dims[j - 1]))
    return NetworkModel(state_dims=state_dims, input_dims=input_dims, a_blocks=a_blocks, b_blocks=b_blocks)


def save_model_file(model: NetworkModel, path) -> Path:
    """Write ``model`` as a model file: the three header lines, then every block, its rows one per line."""
    lines = [f"subsystems {model.n_subsystems}",
             "state_dims " + " ".join(map(str, model.state_dims)),
             "input_dims " + " ".join(map(str, model.input_dims))]
    for kind, blocks in (("A", model.a_blocks), ("B", model.b_blocks)):
        for (i, j) in sorted(blocks):
            lines.append(f"{kind} {i} {j}")
            lines += [" ".join(repr(v) for v in row) for row in np.asarray(blocks[(i, j)], dtype=float).tolist()]
    path = Path(path)
    path.write_text("\n".join(lines) + "\n")
    return path


def reach(model: NetworkModel, d: int) -> np.ndarray:
    """Boolean (I + M)^d, with M[i-1, j-1] set where block (i, j) of A or B is nonzero."""
    step = np.eye(model.n_subsystems, dtype=int)
    for (i, j), blk in [*model.a_blocks.items(), *model.b_blocks.items()]:
        step[i - 1, j - 1] |= int(np.any(blk != 0.0))
    out = np.eye(model.n_subsystems, dtype=int)
    for _ in range(d):
        out = np.minimum(out @ step, 1)
    return out.astype(bool)


def dense_dynamics(model: NetworkModel) -> tuple:
    """Dense ``(A, B)`` written block by block from ``a_blocks`` and ``b_blocks``."""
    x_off = np.concatenate([[0], np.cumsum(model.state_dims)])
    u_off = np.concatenate([[0], np.cumsum(model.input_dims)])
    a = np.zeros((x_off[-1], x_off[-1]))
    b = np.zeros((x_off[-1], u_off[-1]))
    for out, blocks, col_off in ((a, model.a_blocks, x_off), (b, model.b_blocks, u_off)):
        for (i, j), blk in blocks.items():
            out[x_off[i - 1] : x_off[i], col_off[j - 1] : col_off[j]] = blk
    return a, b


def dense_constraint(model: NetworkModel, horizon: int) -> np.ndarray:
    """Independent dense construction of the dynamics constraint matrix.

    Its right-hand side is the identity in the first n rows:
    ``np.eye(rows, n)``.
    """
    n, p = model.n_states, model.n_inputs
    a, b = dense_dynamics(model)
    rows = n * (horizon + 1)
    cols = rows + p * horizon
    z = np.zeros((rows, cols))
    z[:n, :n] = np.eye(n)
    for t in range(horizon):
        r = slice((t + 1) * n, (t + 2) * n)
        z[r, (t + 1) * n : (t + 2) * n] = np.eye(n)
        z[r, t * n : (t + 1) * n] = -a
        z[r, rows + t * p : rows + (t + 1) * p] = -b
    return z


def reference_projectors(model: NetworkModel, index: LocalityIndex) -> list:
    """``(gain, offset)`` of each subsystem's column projector, in id order.

    Built from :func:`dense_constraint` with ``np.linalg.pinv`` on all of the
    subsystem's columns: rows that miss them are zero and change neither map.
    """
    z = dense_constraint(model, index.horizon)
    identity = np.eye(z.shape[0], model.n_states)
    maps = []
    for sub in index.subsystems:
        z_i = z[:, sub.col_rows]
        z_plus = np.linalg.pinv(z_i)
        maps.append((np.eye(sub.col_rows.size) - z_plus @ z_i, z_plus @ identity[:, sub.cols]))
    return maps


def projector(op, i: int) -> ColumnProjector:
    """Subsystem i's column projector in ``op``: its class's shared map, or views into its class's stacks."""
    ((k, s),) = [(k, ids.index(i)) for k, ids in enumerate(op.members) if i in ids]
    cls = op.classes[k]
    return cls if cls.offset.ndim == 2 else ColumnProjector(cls.basis[s], cls.offset[s])


def dense_gain(proj: ColumnProjector) -> np.ndarray:
    """The m x m gain ``I - pinv(Z) Z`` of one subsystem's projector, from its null-space basis."""
    return proj.basis @ proj.basis.T


def _check_controller_shape(model: NetworkModel, k: np.ndarray, horizon: int):
    n, p = model.n_states, model.n_inputs
    if k.shape != (p * horizon, n * (horizon + 1)):
        raise ValueError(
            f"controller must have shape {(p * horizon, n * (horizon + 1))}, got {k.shape}"
        )
    for t in range(horizon):
        for s in range(t + 1, horizon + 1):
            blk = k[t * p : (t + 1) * p, s * n : (s + 1) * n]
            if np.any(blk != 0.0):
                raise ValueError(
                    f"controller is not causal: input block t={t} reads state block s={s}"
                )


def response_from_controller(
    model: NetworkModel, k: np.ndarray, horizon: int
) -> tuple:
    """First response block column ``(phi_x, phi_u)`` realized by a causal gain.

    ``k`` maps the stacked state trajectory to the stacked input trajectory,
    block lower-triangular (input at t may read states 0..t).  The result is
    the response to the initial state, the first block column of
    :func:`full_response_from_controller`, so it satisfies the feasibility
    constraint by construction.
    """
    n = model.n_states
    phi_x, phi_u = full_response_from_controller(model, k, horizon)
    return phi_x[:, :n], phi_u[:, :n]


def full_response_from_controller(
    model: NetworkModel, k: np.ndarray, horizon: int
) -> tuple:
    """Full square response maps realized by a causal gain.

    Column block s is the response to a unit disturbance entering the state
    at time s; stacking all s gives ``phi_x`` of shape
    ``(n*(T+1), n*(T+1))`` (block lower-triangular, identity diagonal) and
    ``phi_u`` of shape ``(p*T, n*(T+1))``.
    """
    k = np.asarray(k, dtype=float)
    _check_controller_shape(model, k, horizon)
    n, p = model.n_states, model.n_inputs
    a, b = dense_dynamics(model)
    phi_x = np.zeros((n * (horizon + 1), n * (horizon + 1)))
    phi_u = np.zeros((p * horizon, n * (horizon + 1)))
    for s in range(horizon + 1):
        x_blocks = {s: np.eye(n)}
        for t in range(s, horizon):
            u_t = np.zeros((p, n))
            for r in range(s, t + 1):
                u_t += k[t * p : (t + 1) * p, r * n : (r + 1) * n] @ x_blocks[r]
            phi_u[t * p : (t + 1) * p, s * n : (s + 1) * n] = u_t
            x_blocks[t + 1] = a @ x_blocks[t] + b @ u_t
        for t, blk in x_blocks.items():
            phi_x[t * n : (t + 1) * n, s * n : (s + 1) * n] = blk
    return phi_x, phi_u


def controller_from_response(phi_x: np.ndarray, phi_u: np.ndarray) -> np.ndarray:
    """Recover the realizing gain ``k = phi_u @ inv(phi_x)``.

    ``phi_x`` must be the full square response (block lower-triangular with
    identity diagonal blocks), which is always invertible.
    """
    phi_x = np.asarray(phi_x, dtype=float)
    phi_u = np.asarray(phi_u, dtype=float)
    if phi_x.shape[0] != phi_x.shape[1]:
        raise ValueError("phi_x must be the full square response map")
    return phi_u @ np.linalg.inv(phi_x)


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
    z = dense_constraint(model, index.horizon)
    for c in range(n):
        rows_c = np.flatnonzero(mask[:, c])
        touched = np.flatnonzero(np.any(z[:, rows_c] != 0.0, axis=1))
        coeffs = z[np.ix_(touched, rows_c)]
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


def column_blocks(index: LocalityIndex, state, k: int) -> list:
    """Row ``k`` of ``state.cols`` (0 the target, 1 psi) as per-subsystem blocks."""
    shapes = [(s.col_rows.size, s.cols.size) for s in index.subsystems]
    ends = np.cumsum([a * b for a, b in shapes])
    return [part.reshape(shape) for part, shape in zip(np.split(state.cols[k], ends[:-1]), shapes)]


def row_blocks(index: LocalityIndex, state, k: int) -> list:
    """Layer ``k`` of ``state.rows`` (0 phi, 1 psi, 2 lambda, 3 the previous psi) as
    per-subsystem blocks: each subsystem's span of stacked rows, cut at its block width."""
    shapes = [(s.rows.size, s.row_cols.size) for s in index.subsystems]
    ends = np.cumsum([h for h, _ in shapes])
    return [part[:, :w] for part, (_, w) in zip(np.split(state.rows[k], ends[:-1]), shapes)]


def row_target(engine, state, i: int) -> np.ndarray:
    """Subsystem i's row-step target, psi - lambda: its span of the row buffer cut at its block width.

    Reads the engine's span alone, not every block as :func:`row_blocks`
    does, so that a row step can call it once per subsystem and iteration.
    """
    span, width = engine._spans[i - 1], engine.index.subsystems[i - 1].row_cols.size
    return state.rows[1, span, :width] - state.rows[2, span, :width]


def assemble_blocks(index: LocalityIndex, state, side: str, k: int) -> np.ndarray:
    """Global ``(n_rows, n)`` matrix of layer ``k`` of the row partitions (``side="row"``,
    :func:`row_blocks`) or of ``state.cols`` (:func:`column_blocks`).

    Each subsystem's block goes to its rows and columns by ``np.ix_``.
    """
    out = np.zeros((index.n_rows, index.n_states))
    if side == "row":
        spans = [(s.rows, s.row_cols) for s in index.subsystems]
        blocks = row_blocks(index, state, k)
    else:
        spans = [(s.col_rows, s.cols) for s in index.subsystems]
        blocks = column_blocks(index, state, k)
    for (rows, cols), block in zip(spans, blocks, strict=True):
        out[np.ix_(rows, cols)] = block
    return out


def check_masks(engine, state, mask: np.ndarray):
    """Raise AssertionError if an entry of the iterate is nonzero off ``mask``.

    ``mask`` is the global ``(n_rows, n)`` locality pattern; each block of
    phi, psi and lambda of the row partitions, and of the target and psi of
    the column partitions, is compared with its slice of it.
    """
    rows_of = [(which, row_blocks(engine.index, state, k)) for k, which in enumerate(("phi", "psi", "lambda"))]
    cols_of = [(which, column_blocks(engine.index, state, k)) for k, which in enumerate(("target", "psi"))]
    for sub in engine.index.subsystems:
        for side, rows, cols, blocks in (
            ("row", sub.rows, sub.row_cols, rows_of),
            ("column", sub.col_rows, sub.cols, cols_of),
        ):
            off = ~mask[np.ix_(rows, cols)]
            for which, mats in blocks:
                bad = np.argwhere((mats[sub.sub_id - 1] != 0.0) & off)
                if bad.size:
                    r, c = bad[0]
                    raise AssertionError(
                        f"{which} {side} partition: entry ({rows[r]}, {cols[c]}) of subsystem "
                        f"{sub.sub_id} is {mats[sub.sub_id - 1][r, c]} outside the locality "
                        f"mask at iteration {state.iteration}"
                    )


def sample_masks(engine, mask: np.ndarray, every: int = 1) -> list:
    """Make ``engine`` run :func:`check_masks` at every ``every``-th iteration.

    Wraps ``engine.check_convergence``, which the loop calls once per
    iteration right after the multiplier step.  Returns the list that each
    checked iteration number is appended to.
    """
    checked = []
    converged = engine.check_convergence

    def check_convergence(state):
        if state.iteration % every == 0:
            check_masks(engine, state, mask)
            checked.append(state.iteration)
        return converged(state)

    engine.check_convergence = check_convergence
    return checked
