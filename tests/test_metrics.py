"""Tests for objective/gap evaluation and convergence trace bookkeeping.

Oracle notes:
  - the nuclear projection is checked against an independent spectrum
    bisection (solve for the soft-threshold level directly);
  - the inner minimization of the dual objective is checked against SLSQP on
    the positive/negative split formulation of the l1 ball.
"""

import numpy as np
import pytest
from scipy.optimize import minimize

from pdbfw.core_linalg import SparseDesignMatrix
from pdbfw.data_io import PortableRng
from pdbfw.losses import (MatrixQuadraticLoss, Regularizer, quadratic_loss,
                          smooth_hinge_loss)
from pdbfw.metrics import (ConvergenceTrace, DivergenceError, dual_objective,
                           dual_objective_trace, duality_gap,
                           project_nuclear_ball, relative_primal_error)


# ---------------------------------------------------------------------------
# ConvergenceTrace


def test_trace_append_and_accessors():
    # [TRIVIAL] gap is primal - dual by definition
    tr = ConvergenceTrace()
    tr.append(0, 0.0, 3.0, 1.0, 10, 2)
    tr.append(5, 0.5, 2.0, 1.5, 30, 3)
    assert len(tr) == 2
    assert tr.final.iteration == 5
    assert tr.final.gap == pytest.approx(0.5, abs=0.0)
    assert tr.gap_at(0) == pytest.approx(2.0, abs=0.0)
    np.testing.assert_array_equal(tr.iterations(), [0, 5])
    np.testing.assert_array_equal(tr.primals(), [3.0, 2.0])
    np.testing.assert_array_equal(tr.gaps(), [2.0, 0.5])


def test_trace_rejects_non_increasing_iterations():
    tr = ConvergenceTrace()
    tr.append(3, 0.0, 1.0, 0.0, 0, 0)
    with pytest.raises(ValueError, match="strictly increasing"):
        tr.append(3, 0.1, 0.9, 0.0, 1, 0)
    with pytest.raises(ValueError, match="strictly increasing"):
        tr.append(2, 0.1, 0.9, 0.0, 1, 0)


def test_trace_nonfinite_objective_raises_divergence_error():
    tr = ConvergenceTrace()
    tr.append(0, 0.0, 1.0, 0.0, 0, 0)
    with pytest.raises(DivergenceError) as exc:
        tr.append(1, 0.1, float("nan"), 0.0, 1, 0)
    assert exc.value.iteration == 1
    with pytest.raises(DivergenceError):
        tr.append(1, 0.1, 1.0, float("inf"), 1, 0)
    # the failed appends must not have grown the trace
    assert len(tr) == 1


def test_trace_gap_at_missing_iteration():
    tr = ConvergenceTrace()
    tr.append(0, 0.0, 1.0, 0.0, 0, 0)
    with pytest.raises(KeyError):
        tr.gap_at(7)


# ---------------------------------------------------------------------------
# Nuclear-ball projection


def test_project_nuclear_ball_frozen_diagonal():
    # [DERIVED] spectrum (3, 1), radius 2: simplex projection with level
    # theta = 1 gives (2, 0). Frozen from the l1-projection identity on the
    # singular values.
    M = np.diag([3.0, 1.0])
    P = project_nuclear_ball(M, 2.0)
    np.testing.assert_allclose(P, np.diag([2.0, 0.0]), atol=1e-12)


def test_project_nuclear_ball_feasible_input_copied():
    M = np.diag([0.5, 0.25])
    P = project_nuclear_ball(M, 2.0)
    np.testing.assert_array_equal(P, M)
    assert P is not M
    P[0, 0] = 99.0
    assert M[0, 0] == 0.5


def test_project_nuclear_ball_rejects_bad_radius():
    with pytest.raises(ValueError, match="radius"):
        project_nuclear_ball(np.eye(2), 0.0)
    with pytest.raises(ValueError, match="radius"):
        project_nuclear_ball(np.eye(2), -1.0)


def _spectrum_bisection_projection(M, radius):
    """Independent oracle: bisect the soft-threshold level on the spectrum."""
    u, s, vt = np.linalg.svd(M, full_matrices=False)
    if s.sum() <= radius:
        return M.copy()
    lo, hi = 0.0, s.max()
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.maximum(s - mid, 0.0).sum() > radius:
            lo = mid
        else:
            hi = mid
    s_proj = np.maximum(s - 0.5 * (lo + hi), 0.0)
    return (u * s_proj) @ vt


def test_project_nuclear_ball_matches_spectrum_bisection():
    # [DERIVED] oracle recomputes the projection by bisecting the threshold
    rng = PortableRng(314)
    for trial in range(20):
        d = 3 + trial % 4
        c = 2 + trial % 3
        M = rng.normals(d * c).reshape(d, c) * (1.0 + trial)
        radius = 0.5 + 2.0 * rng.uniforms(1)[0]
        got = project_nuclear_ball(M, radius)
        want = _spectrum_bisection_projection(M, radius)
        np.testing.assert_allclose(got, want, atol=1e-9)
        sv = np.linalg.svd(got, compute_uv=False)
        assert sv.sum() <= radius * (1.0 + 1e-9)


# ---------------------------------------------------------------------------
# Dual objective (vector case)


def _small_problem(kind, seed=11, n=4, d=3):
    rng = PortableRng(seed)
    A = SparseDesignMatrix.from_dense(rng.normals(n * d).reshape(n, d))
    if kind == "hinge":
        labels = np.where(rng.uniforms(n) > 0.5, 1.0, -1.0)
        loss = smooth_hinge_loss(labels)
    else:
        loss = quadratic_loss(rng.normals(n))
    return A, loss


def test_dual_objective_at_zero_is_zero():
    # [DERIVED] f*(0) = 0 for both losses, z = 0, and the inner minimizer is
    # x = 0, so every term vanishes exactly.
    for kind in ("hinge", "quadratic"):
        A, loss = _small_problem(kind)
        reg = Regularizer(mu=0.4)
        assert dual_objective(A, loss, reg, np.zeros(A.n_rows), 2.0) == 0.0


def test_dual_objective_outside_conjugate_box_is_neg_inf():
    A, _ = _small_problem("hinge", seed=3)
    loss = smooth_hinge_loss(np.ones(A.n_rows))
    reg = Regularizer(mu=0.4)
    y = np.zeros(A.n_rows)
    y[0] = 0.5  # label +1 requires y in [-1, 0]
    assert dual_objective(A, loss, reg, y, 2.0) == -np.inf


def _slsqp_inner_min(z, n, mu, radius):
    """Oracle for min_{||x||_1 <= radius} (mu/2)||x||^2 + <z, x>/n via the
    split x = p - q with p, q >= 0 and sum(p + q) <= radius."""
    d = z.size

    def obj(v):
        x = v[:d] - v[d:]
        return 0.5 * mu * float(x @ x) + float(z @ x) / n

    cons = [{"type": "ineq", "fun": lambda v: radius - v.sum()}]
    best = None
    for scale in (0.0, 0.5, 1.0):
        x0 = np.full(2 * d, scale * radius / (2 * d))
        res = minimize(obj, x0, method="SLSQP", bounds=[(0, None)] * 2 * d,
                       constraints=cons,
                       options={"maxiter": 400, "ftol": 1e-14})
        if best is None or res.fun < best:
            best = res.fun
    return best


def test_dual_objective_inner_min_matches_slsqp():
    # [DERIVED] closed-form inner minimization vs a generic NLP solver
    reg = Regularizer(mu=0.7)
    for seed, kind in ((5, "quadratic"), (6, "hinge"), (7, "quadratic")):
        A, loss = _small_problem(kind, seed=seed)
        n = A.n_rows
        rng = PortableRng(seed + 100)
        y = rng.uniforms(n) - 1.0  # in [-1, 0]: feasible for both losses
        radius = 1.5
        got = dual_objective(A, loss, reg, y, radius)
        z = A.rmatvec(y)
        inner = _slsqp_inner_min(z, n, reg.mu, radius)
        want = inner - loss.conjugate_sum(y) / n
        assert got == pytest.approx(want, abs=1e-6)
        # closed form can only be at least as good as the NLP iterate
        assert got <= want + 1e-9


def test_dual_objective_accepts_precomputed_z():
    A, loss = _small_problem("quadratic", seed=9)
    reg = Regularizer(mu=0.3)
    y = PortableRng(10).normals(A.n_rows)
    z = A.rmatvec(y)
    assert dual_objective(A, loss, reg, y, 2.0, z=z) == \
        dual_objective(A, loss, reg, y, 2.0)


def test_dual_objective_concave_along_midpoints():
    # [TRIVIAL] D is concave: midpoint value dominates the average
    A, loss = _small_problem("quadratic", seed=13)
    reg = Regularizer(mu=0.5)
    rng = PortableRng(77)
    for _ in range(10):
        y1 = rng.normals(A.n_rows)
        y2 = rng.normals(A.n_rows)
        mid = dual_objective(A, loss, reg, 0.5 * (y1 + y2), 2.0)
        avg = 0.5 * (dual_objective(A, loss, reg, y1, 2.0)
                     + dual_objective(A, loss, reg, y2, 2.0))
        assert mid >= avg - 1e-12


# ---------------------------------------------------------------------------
# Duality gap


def test_duality_gap_frozen_hinge_origin():
    # [DERIVED] x = 0, y = 0: every margin is 0 so each loss term is 1/2,
    # D(0) = 0, hence gap = 1/2 regardless of labels.
    A, _ = _small_problem("hinge", seed=21)
    labels = np.array([1.0, -1.0, 1.0, -1.0])
    loss = smooth_hinge_loss(labels)
    reg = Regularizer(mu=1.0)
    gap = duality_gap(A, loss, reg, np.zeros(A.n_cols),
                      np.zeros(A.n_rows), 3.0)
    assert gap == pytest.approx(0.5, abs=1e-15)


def test_duality_gap_rejects_infeasible_x():
    A, loss = _small_problem("quadratic", seed=23)
    reg = Regularizer(mu=1.0)
    x = np.full(A.n_cols, 10.0)
    with pytest.raises(ValueError, match="infeasible"):
        duality_gap(A, loss, reg, x, np.zeros(A.n_rows), 1.0)


def test_duality_gap_nonnegative_for_feasible_pairs():
    # weak duality: P(x) >= D(y) for any feasible x and y in the box
    A, loss = _small_problem("hinge", seed=25)
    reg = Regularizer(mu=0.6)
    rng = PortableRng(400)
    for _ in range(25):
        x = rng.normals(A.n_cols)
        x *= 2.0 * rng.uniforms(1)[0] / max(np.abs(x).sum(), 1e-12)
        y = -rng.uniforms(A.n_rows)  # wrong box for -1 labels is fine:
        y = np.where(loss.targets > 0, y, -y)
        assert duality_gap(A, loss, reg, x, y, 2.0) >= -1e-12


# ---------------------------------------------------------------------------
# Matrix (trace-norm) dual objective


def test_dual_objective_trace_at_zero_is_zero():
    rng = PortableRng(31)
    n, d, c = 5, 4, 3
    A = SparseDesignMatrix.from_dense(rng.normals(n * d).reshape(n, d))
    loss = MatrixQuadraticLoss(B=rng.normals(n * c).reshape(n, c))
    reg = Regularizer(mu=0.2)
    assert dual_objective_trace(A, loss, reg, np.zeros((n, c)), 2.0) == 0.0


def test_dual_objective_trace_inner_min_dominates_samples():
    # [DERIVED] the closed-form inner minimizer must beat any sampled point
    # of the trace-norm ball, and match the value at its own minimizer.
    rng = PortableRng(33)
    n, d, c = 5, 4, 3
    A = SparseDesignMatrix.from_dense(rng.normals(n * d).reshape(n, d))
    loss = MatrixQuadraticLoss(B=rng.normals(n * c).reshape(n, c))
    reg = Regularizer(mu=0.3)
    Y = rng.normals(n * c).reshape(n, c)
    radius = 1.7
    got = dual_objective_trace(A, loss, reg, Y, radius)
    Z = A.rmatvec(Y)

    def inner(X):
        return reg.value(X) + float(np.vdot(Z, X)) / n

    const = loss.conjugate_sum(Y) / n
    for _ in range(50):
        V = rng.normals(d * c).reshape(d, c)
        V *= radius * rng.uniforms(1)[0] / np.linalg.svd(V, compute_uv=False).sum()
        assert got <= inner(V) - const + 1e-12
    X_hat = project_nuclear_ball(-Z / (n * reg.mu), radius)
    assert got == pytest.approx(inner(X_hat) - const, abs=1e-12)


def test_dual_objective_trace_accepts_precomputed_z():
    rng = PortableRng(35)
    n, d, c = 4, 3, 2
    A = SparseDesignMatrix.from_dense(rng.normals(n * d).reshape(n, d))
    loss = MatrixQuadraticLoss(B=rng.normals(n * c).reshape(n, c))
    reg = Regularizer(mu=0.5)
    Y = rng.normals(n * c).reshape(n, c)
    Z = A.rmatvec(Y)
    assert dual_objective_trace(A, loss, reg, Y, 1.0, Z=Z) == \
        dual_objective_trace(A, loss, reg, Y, 1.0)


# ---------------------------------------------------------------------------
# Error metrics


def test_relative_primal_error_values():
    # [TRIVIAL] (P - P*)/P* elementwise
    tr = ConvergenceTrace()
    tr.append(0, 0.0, 4.0, 0.0, 0, 0)
    tr.append(1, 0.1, 2.5, 0.0, 1, 0)
    np.testing.assert_allclose(relative_primal_error(tr, 2.0), [1.0, 0.25])


def test_relative_primal_error_rejects_nonpositive_reference():
    tr = ConvergenceTrace()
    tr.append(0, 0.0, 4.0, 0.0, 0, 0)
    with pytest.raises(ValueError, match="p_star"):
        relative_primal_error(tr, 0.0)
    with pytest.raises(ValueError, match="p_star"):
        relative_primal_error(tr, -1.0)
