"""Tests for the reference solvers (Frank-Wolfe, accelerated projected
gradient, prox-SVRG): trivial fixed points, a hand-checked one-dimensional
boundary instance, reduction of single-sample SVRG to projected gradient,
determinism, feasibility, and trace thinning."""

import math

import numpy as np
import pytest

from pdbfw.baselines import (BASELINE_KINDS, BaselineConfig, solve_acc_pgd,
                             solve_baseline, solve_fw, solve_svrg,
                             total_smoothness)
from pdbfw.core_linalg import SparseDesignMatrix, project_l1_ball
from pdbfw.data_io import PortableRng
from pdbfw.losses import Regularizer, quadratic_loss, smooth_hinge_loss

_SOLVERS = {"fw": solve_fw, "acc_pgd": solve_acc_pgd, "svrg": solve_svrg}


def _random_instance(seed, n, d, kind="quadratic"):
    rng = PortableRng(seed)
    A = SparseDesignMatrix(rng.normals(n * d).reshape(n, d))
    if kind == "quadratic":
        loss = quadratic_loss(rng.normals(n))
    else:
        loss = smooth_hinge_loss(np.where(rng.uniforms(n) > 0.5, 1.0, -1.0))
    return A, loss


# ---------------------------------------------------------------------------
# Configuration


@pytest.mark.parametrize("kwargs,fragment", [
    (dict(kind="sgd", radius=1.0), "unknown baseline"),
    (dict(kind="fw", radius=0.0), "radius"),
    (dict(kind="fw", radius=1.0, max_iters=-1), "max_iters"),
    (dict(kind="fw", radius=math.nan), "radius"),
    (dict(kind="acc_pgd", radius=1.0, gap_tol=math.nan), "gap_tol"),
    (dict(kind="fw", radius=1.0, record_every=0), "record_every"),
    (dict(kind="fw", radius=1.0, record_every=1.5), "record_every"),
    (dict(kind="fw", radius=1.0, max_iters=3.0), "max_iters"),
    (dict(kind="svrg", radius=1.0, seed=0.5), "seed"),
])
def test_baseline_config_validation(kwargs, fragment):
    with pytest.raises(ValueError, match=fragment):
        BaselineConfig(**kwargs)


@pytest.mark.parametrize("kind", BASELINE_KINDS)
@pytest.mark.parametrize("gap_tol", [0.0, -1.0])
def test_nonpositive_gap_tol_runs_whole_budget(kind, gap_tol):
    # the rule of SolverConfig: any gap_tol but NaN; at or below 0 a run
    # with positive gaps stops only at max_iters
    A, loss = _random_instance(340, 12, 5)
    cfg = BaselineConfig(kind=kind, radius=1.0, max_iters=5, gap_tol=gap_tol)
    _, trace = solve_baseline(A, loss, Regularizer(mu=0.5), cfg)
    assert [r.iteration for r in trace.records] == list(range(6))


def test_total_smoothness_frozen():
    # [DERIVED] max row norm sq of [[3,4],[0,1]] is 25; beta = 1; mu = 0.5
    A = SparseDesignMatrix(np.array([[3.0, 4.0], [0.0, 1.0]]))
    assert total_smoothness(A, Regularizer(mu=0.5)) == \
        pytest.approx(25.5, abs=1e-12)


# ---------------------------------------------------------------------------
# Trivial and frozen instances


@pytest.mark.parametrize("kind", BASELINE_KINDS)
def test_zero_targets_are_a_fixed_point(kind):
    A = SparseDesignMatrix(np.eye(3))
    loss = quadratic_loss(np.zeros(3))
    cfg = BaselineConfig(kind=kind, radius=1.0, max_iters=50)
    x, trace = _SOLVERS[kind](A, loss, Regularizer(mu=1.0), cfg)
    np.testing.assert_array_equal(x, np.zeros(3))
    assert len(trace) == 1  # gap 0 at iteration 0 stops immediately
    assert trace.final.gap == 0.0


def test_fw_one_dimensional_boundary_optimum():
    # [DERIVED] a = 1, b = 2, mu = 1: unconstrained optimum 1.0 sits outside
    # the ball of radius 0.5, so x* = 0.5 and
    # P* = (0.5 - 2)^2/2 + 0.5 * 0.25 = 1.25. The first step (eta = 1) lands
    # exactly on the optimal vertex.
    A = SparseDesignMatrix(np.array([[1.0]]))
    loss = quadratic_loss(np.array([2.0]))
    cfg = BaselineConfig(kind="fw", radius=0.5, max_iters=500, gap_tol=1e-12)
    x, trace = solve_fw(A, loss, Regularizer(mu=1.0), cfg)
    np.testing.assert_allclose(x, [0.5], atol=1e-12)
    assert trace.final.primal == pytest.approx(1.25, abs=1e-12)
    assert trace.final.gap <= 1e-12


def test_acc_pgd_reaches_tight_gap_early():
    A, loss = _random_instance(300, 30, 12)
    cfg = BaselineConfig(kind="acc_pgd", radius=1.5, max_iters=2000,
                         gap_tol=1e-8)
    _, trace = solve_acc_pgd(A, loss, Regularizer(mu=0.5), cfg)
    assert trace.final.gap <= 1e-8
    assert trace.final.iteration < 200  # early stop, nowhere near the budget


# ---------------------------------------------------------------------------
# SVRG structure


def test_svrg_single_sample_reduces_to_projected_gradient():
    # [DERIVED] with n = 1 the variance-reduction correction cancels the
    # snapshot gradient, leaving deterministic projected gradient descent
    a = np.array([0.6, -0.8, 0.2])
    A = SparseDesignMatrix(a[None, :])
    loss = quadratic_loss(np.array([1.5]))
    reg = Regularizer(mu=0.4)
    cfg = BaselineConfig(kind="svrg", radius=1.2, max_iters=40, gap_tol=1e-16)
    x, _ = solve_svrg(A, loss, reg, cfg)

    step = 0.1 / total_smoothness(A, reg)
    x_ref = np.zeros(3)
    for _ in range(40):
        g = a * (a @ x_ref - 1.5) + reg.mu * x_ref
        x_ref = project_l1_ball(x_ref - step * g, 1.2)
    np.testing.assert_allclose(x, x_ref, rtol=0, atol=1e-12)


def test_svrg_seeded_runs_are_bitwise_identical():
    A, loss = _random_instance(310, 25, 10)
    reg = Regularizer(mu=0.3)
    cfg = BaselineConfig(kind="svrg", radius=1.0, max_iters=15, gap_tol=1e-16,
                         seed=4)
    x1, tr1 = solve_svrg(A, loss, reg, cfg)
    x2, tr2 = solve_svrg(A, loss, reg, cfg)
    np.testing.assert_array_equal(x1, x2)
    assert [r.primal for r in tr1.records] == [r.primal for r in tr2.records]


def test_svrg_seed_changes_trajectory():
    A, loss = _random_instance(310, 25, 10)
    reg = Regularizer(mu=0.3)
    base = dict(kind="svrg", radius=1.0, max_iters=5, gap_tol=1e-16)
    x1, _ = solve_svrg(A, loss, reg, BaselineConfig(seed=0, **base))
    x2, _ = solve_svrg(A, loss, reg, BaselineConfig(seed=1, **base))
    assert not np.array_equal(x1, x2)


# ---------------------------------------------------------------------------
# Shared behavior


@pytest.mark.parametrize("kind", BASELINE_KINDS)
def test_iterates_feasible_and_gaps_nonnegative(kind):
    A, loss = _random_instance(301, 30, 12, kind="hinge")
    cfg = BaselineConfig(kind=kind, radius=1.0, max_iters=60, gap_tol=1e-14)
    x, trace = _SOLVERS[kind](A, loss, Regularizer(mu=0.5), cfg)
    assert np.abs(x).sum() <= 1.0 * (1 + 1e-9)
    # plug-in dual certificate lies in the conjugate box: weak duality holds
    assert min(r.gap for r in trace.records) >= -1e-9


def test_record_every_thins_trace():
    A, loss = _random_instance(320, 20, 8)
    cfg = BaselineConfig(kind="fw", radius=1.0, max_iters=10, gap_tol=1e-16,
                         record_every=3)
    _, trace = solve_fw(A, loss, Regularizer(mu=0.5), cfg)
    assert [r.iteration for r in trace.records] == [0, 3, 6, 9, 10]


@pytest.mark.parametrize("kind", BASELINE_KINDS)
def test_dispatch_matches_direct_call(kind):
    A, loss = _random_instance(330, 15, 6)
    reg = Regularizer(mu=0.5)
    cfg = BaselineConfig(kind=kind, radius=1.0, max_iters=8, gap_tol=1e-16)
    x_direct, tr_direct = _SOLVERS[kind](A, loss, reg, cfg)
    x_disp, tr_disp = solve_baseline(A, loss, reg, cfg)
    np.testing.assert_array_equal(x_direct, x_disp)
    assert [r.primal for r in tr_direct.records] == \
        [r.primal for r in tr_disp.records]


@pytest.mark.parametrize("kind", BASELINE_KINDS)
def test_sample_count_mismatch_raises(kind):
    A = SparseDesignMatrix(np.eye(3))
    loss = quadratic_loss(np.zeros(4))
    cfg = BaselineConfig(kind=kind, radius=1.0)
    with pytest.raises(ValueError, match="sample count"):
        _SOLVERS[kind](A, loss, Regularizer(mu=1.0), cfg)


def test_flops_grow_monotonically():
    A, loss = _random_instance(340, 20, 8)
    for kind in BASELINE_KINDS:
        cfg = BaselineConfig(kind=kind, radius=1.0, max_iters=10,
                             gap_tol=1e-16)
        _, trace = _SOLVERS[kind](A, loss, Regularizer(mu=0.5), cfg)
        flops = np.array([r.flops for r in trace.records])
        assert flops[0] == 0
        assert np.all(np.diff(flops) > 0)
