"""Tests for the l1-ball block primal-dual solver: frozen single-step
examples, invariants of the iterates, cache maintenance, and equivalence to a
dense full-budget reference implementation.
"""

import math

import numpy as np
import pytest

from pdbfw.core_linalg import SparseDesignMatrix, project_l1_ball
from pdbfw.data_io import PortableRng
from pdbfw.losses import Regularizer, quadratic_loss, smooth_hinge_loss
from pdbfw.metrics import DivergenceError
from pdbfw.pdbfw_l1 import (ConfigurationError, SolverConfig, SolverState,
                            default_delta, dual_step, l1_defaults, primal_step,
                            resolve, solve)


def _random_instance(seed, n, d, kind="quadratic"):
    rng = PortableRng(seed)
    A = SparseDesignMatrix.from_dense(rng.normals(n * d).reshape(n, d))
    if kind == "quadratic":
        loss = quadratic_loss(rng.normals(n))
    else:
        loss = smooth_hinge_loss(np.where(rng.uniforms(n) > 0.5, 1.0, -1.0))
    return A, loss


def _resolve(cfg, A, loss, reg):
    return resolve(cfg, A, loss, reg, *l1_defaults(cfg, A))


# ---------------------------------------------------------------------------
# Single steps, frozen


def test_primal_step_frozen_example():
    # [DERIVED] n=2, z=(-8,2,0), x=0, mu=L=1, eta=1/2, radius 1, s=1:
    #   c = z/n = (-4,1,0); v = -c/(L eta) = (8,-2,0);
    #   the 1-sparse prox keeps coordinate 0 clipped to the ball: (1,0,0);
    #   x <- (1-eta) x + eta x_tilde = (0.5, 0, 0); w = Ax = (0.5, 0.5)
    #   costs the 2 nonzeros of column 0.
    A = SparseDesignMatrix.from_dense(np.ones((2, 3)))
    reg = Regularizer(mu=1.0)
    cfg = SolverConfig(radius=1.0, s=1, eta=0.5, delta=1.0, k=1)
    state = SolverState.zeros(2, 3)
    state.z = np.array([-8.0, 2.0, 0.0])
    x_tilde = primal_step(state, cfg, A, quadratic_loss(np.zeros(2)), reg)
    np.testing.assert_array_equal(state.x, [0.5, 0.0, 0.0])
    assert x_tilde.indices.tolist() == [0]
    np.testing.assert_array_equal(x_tilde.values, [1.0])
    np.testing.assert_array_equal(state.w, [0.5, 0.5])
    assert state.flops == 2


def test_dual_step_tie_break_picks_first_rows():
    # all proximal displacements equal: the greedy rule keeps the first k
    A = SparseDesignMatrix.from_dense(np.eye(4))
    loss = quadratic_loss(np.zeros(4))
    cfg = SolverConfig(radius=1.0, s=1, eta=0.5, delta=1.0, k=2)
    state = SolverState.zeros(4, 4)
    state.w = np.ones(4)
    rows = dual_step(state, cfg, A, loss)
    assert sorted(rows.tolist()) == [0, 1]
    # y_tilde = (delta/n) w / (1 + delta/n) = 0.25/1.25 = 0.2 on chosen rows
    np.testing.assert_allclose(state.y, [0.2, 0.2, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(state.z, [0.2, 0.2, 0.0, 0.0], atol=1e-15)
    assert state.flops == 2  # one nonzero in each chosen row


def test_dual_step_only_touches_selected_rows():
    A, loss = _random_instance(40, 6, 5)
    cfg = SolverConfig(radius=1.0, s=2, eta=0.5, delta=0.7, k=2)
    state = SolverState.zeros(6, 5)
    state.w = PortableRng(41).normals(6)
    y_before = state.y.copy()
    rows = dual_step(state, cfg, A, loss)
    untouched = np.setdiff1d(np.arange(6), rows)
    np.testing.assert_array_equal(state.y[untouched], y_before[untouched])
    np.testing.assert_allclose(state.z, A.rmatvec(state.y), atol=1e-12)


# ---------------------------------------------------------------------------
# solve(): trivial and structural behavior


def test_solve_zero_problem_stops_immediately():
    A = SparseDesignMatrix.from_dense(np.eye(3))
    loss = quadratic_loss(np.zeros(3))
    reg = Regularizer(mu=1.0)
    x, y, trace = solve(A, loss, reg, SolverConfig(radius=1.0, s=1))
    np.testing.assert_array_equal(x, np.zeros(3))
    np.testing.assert_array_equal(y, np.zeros(3))
    assert len(trace) == 1
    assert trace.final.iteration == 0
    assert trace.final.gap == 0.0


def test_solve_records_every_iteration_from_zero():
    A, loss = _random_instance(50, 12, 8)
    reg = Regularizer(mu=0.5)
    cfg = SolverConfig(radius=2.0, s=2, max_iters=7, gap_tol=0.0)
    _, _, trace = solve(A, loss, reg, cfg)
    np.testing.assert_array_equal(trace.iterations(), np.arange(8))
    # flops are cumulative and nondecreasing
    flops = np.array([r.flops for r in trace.records])
    assert flops[0] == 0
    assert np.all(np.diff(flops) > 0)


def test_solve_rejects_sample_count_mismatch():
    A = SparseDesignMatrix.from_dense(np.eye(3))
    loss = quadratic_loss(np.zeros(4))
    with pytest.raises(ValueError, match="sample count"):
        solve(A, loss, Regularizer(mu=1.0), SolverConfig(radius=1.0, s=1))


# ---------------------------------------------------------------------------
# Invariants along the trajectory (manual stepping through the public API)


def _box_bounds(labels):
    lo = np.where(labels > 0, -1.0, 0.0)
    hi = np.where(labels > 0, 0.0, 1.0)
    return lo, hi


def test_iterates_stay_feasible_hinge():
    A, loss = _random_instance(60, 20, 15, kind="hinge")
    reg = Regularizer(mu=0.2)
    cfg = _resolve(SolverConfig(radius=1.5, s=3), A, loss, reg)
    state = SolverState.zeros(20, 15)
    lo, hi = _box_bounds(loss.targets)
    for t in range(1, 101):
        state.iteration = t
        x_tilde = primal_step(state, cfg, A, loss, reg)
        dual_step(state, cfg, A, loss)
        assert np.abs(state.x).sum() <= cfg.radius * (1 + 1e-12)
        assert np.all(state.y >= lo - 1e-12)
        assert np.all(state.y <= hi + 1e-12)
        assert len(x_tilde.indices) <= cfg.s


def test_cache_maintenance_matches_dense_products():
    # w and z are maintained incrementally; compare against fresh products
    A, loss = _random_instance(70, 25, 18)
    reg = Regularizer(mu=0.4)
    cfg = _resolve(SolverConfig(radius=2.0, s=4, k=6, delta=1.0),
                   A, loss, reg)
    state = SolverState.zeros(25, 18)
    for t in range(1, 101):
        state.iteration = t
        primal_step(state, cfg, A, loss, reg)
        dual_step(state, cfg, A, loss)
    np.testing.assert_allclose(state.w, A.matvec(state.x),
                               rtol=0, atol=1e-9)
    np.testing.assert_allclose(state.z, A.rmatvec(state.y),
                               rtol=0, atol=1e-9)


def test_recorded_gaps_never_materially_negative():
    A, loss = _random_instance(80, 30, 12, kind="hinge")
    reg = Regularizer(mu=0.3)
    cfg = SolverConfig(radius=1.0, s=3, max_iters=150, gap_tol=0.0)
    _, _, trace = solve(A, loss, reg, cfg)
    assert trace.gaps().min() >= -1e-9


# ---------------------------------------------------------------------------
# Full-budget equivalence to a dense reference


def _dense_reference(A_dense, b, reg, radius, eta, delta, iters):
    """Same algorithm at s=d, k=n written with dense numpy throughout."""
    n, d = A_dense.shape
    x = np.zeros(d)
    y = np.zeros(n)
    for _ in range(iters):
        c = A_dense.T @ y / n + reg.mu * x
        v = x - c / (reg.l_smooth * eta)
        x = (1 - eta) * x + eta * project_l1_ball(v, radius)
        w = A_dense @ x
        y = (y + (delta / n) * (w - b)) / (1.0 + delta / n)
    return x, y


def test_full_budget_matches_dense_reference():
    # s = d and k = n reduce both block rules to their dense counterparts
    n, d = 15, 9
    rng = PortableRng(90)
    A_dense = rng.normals(n * d).reshape(n, d)
    b = rng.normals(n)
    A = SparseDesignMatrix.from_dense(A_dense)
    loss = quadratic_loss(b)
    reg = Regularizer(mu=0.6)
    cfg = SolverConfig(radius=1.2, s=d, k=n, eta=0.5, delta=0.8,
                       max_iters=50, gap_tol=-1.0)
    x, y, _ = solve(A, loss, reg, cfg)
    x_ref, y_ref = _dense_reference(A_dense, b, reg, 1.2, 0.5, 0.8, 50)
    np.testing.assert_allclose(x, x_ref, rtol=0, atol=1e-9)
    np.testing.assert_allclose(y, y_ref, rtol=0, atol=1e-9)


# ---------------------------------------------------------------------------
# Divergence surfacing


class _PoisonedLoss:
    """Quadratic-loss stand-in whose objective turns NaN mid-run."""

    beta = 1.0
    alpha = 1.0

    def __init__(self, n, poison_after):
        self.n = n
        self._calls = 0
        self._poison_after = poison_after

    def mean_value(self, w):
        self._calls += 1
        if self._calls > self._poison_after:
            return float("nan")
        return 0.5 * float(w @ w) / self.n

    def conjugate_sum(self, y):
        return 0.5 * float(y @ y)

    def dual_prox(self, w, y, delta, n):
        return (y + (delta / n) * w) / (1.0 + delta / n)


def test_divergence_error_names_iteration():
    A = SparseDesignMatrix.from_dense(PortableRng(95).normals(12).reshape(4, 3))
    loss = _PoisonedLoss(n=4, poison_after=3)  # records 0..2 fine, 3 poisoned
    reg = Regularizer(mu=1.0)
    cfg = SolverConfig(radius=1.0, s=1, max_iters=10, gap_tol=-1.0)
    with pytest.raises(DivergenceError) as exc:
        solve(A, loss, reg, cfg)
    assert exc.value.iteration == 3
    assert "iteration 3" in str(exc.value)


# ---------------------------------------------------------------------------
# Configuration resolution and validation


def test_resolve_fills_theory_defaults():
    A, loss = _random_instance(99, 20, 10)
    reg = Regularizer(mu=0.5)
    rc = _resolve(SolverConfig(radius=1.0, s=3), A, loss, reg)
    assert rc.eta == pytest.approx(0.5)  # mu/(2L) with L = mu
    assert rc.k == math.ceil(20 * 3 / 10)
    want_delta = default_delta(rc.k, 20, loss.beta, loss.alpha,
                               A.max_row_norm_sq, reg, curvature_factor=4.0)
    assert rc.delta == pytest.approx(want_delta, rel=1e-15)


def test_resolve_respects_overrides():
    A, loss = _random_instance(99, 20, 10)
    reg = Regularizer(mu=0.5)
    rc = _resolve(SolverConfig(radius=1.0, s=3, k=7, eta=0.25, delta=2.0),
                  A, loss, reg)
    assert (rc.k, rc.eta, rc.delta) == (7, 0.25, 2.0)


def test_resolve_rejects_oversized_budgets():
    A, loss = _random_instance(99, 8, 5)
    reg = Regularizer(mu=0.5)
    with pytest.raises(ValueError, match="exceeds feature dimension"):
        _resolve(SolverConfig(radius=1.0, s=6), A, loss, reg)
    with pytest.raises(ValueError, match="exceeds sample count"):
        _resolve(SolverConfig(radius=1.0, s=1, k=9), A, loss, reg)


def test_resolve_rejects_degenerate_eta():
    A, loss = _random_instance(99, 8, 5)
    reg = Regularizer(mu=3.0, l_smooth=1.0)  # mu/(2L) = 1.5 > 1
    with pytest.raises(ConfigurationError, match="eta"):
        _resolve(SolverConfig(radius=1.0, s=1), A, loss, reg)


def test_default_delta_rejects_degenerate_result():
    reg = Regularizer(mu=1.0)
    with pytest.raises(ConfigurationError, match="degenerate"):
        default_delta(1, 10, 1.0, 1.0, math.inf, reg, curvature_factor=4.0)


@pytest.mark.parametrize("kwargs", [
    dict(radius=0.0, s=1),
    dict(radius=-1.0, s=1),
    dict(radius=1.0, s=0),
    dict(radius=1.0, s=1, eta=0.0),
    dict(radius=1.0, s=1, eta=1.5),
    dict(radius=1.0, s=1, delta=0.0),
    dict(radius=1.0, s=1, k=0),
    dict(radius=1.0, s=1, max_iters=-1),
])
def test_solver_config_validation(kwargs):
    with pytest.raises(ValueError):
        SolverConfig(**kwargs)
