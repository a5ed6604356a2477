import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from pdbfw.core_linalg import SparseDesignMatrix
from pdbfw.losses import (LossModel, MatrixQuadraticLoss, Regularizer,
                          conjugate_value, dual_prox_step, loss_derivative,
                          loss_value, primal_objective, quadratic_loss,
                          smooth_hinge_loss)


def hinge_scalar(z):
    if z < 0.0:
        return 0.5 - z
    if z <= 1.0:
        return 0.5 * (1.0 - z) ** 2
    return 0.0


# ------------------------------------------------------------- smooth hinge

def test_hinge_frozen_values():
    h = smooth_hinge_loss(np.array([1.0]))
    assert loss_value(h, 0.0, 0) == 0.5
    assert loss_value(h, -1.0, 0) == 1.5
    assert loss_value(h, 0.5, 0) == 0.125
    assert loss_value(h, 2.0, 0) == 0.0
    assert loss_derivative(h, -1.0, 0) == -1.0
    assert loss_derivative(h, 0.5, 0) == -0.5
    assert loss_derivative(h, 2.0, 0) == 0.0


def test_hinge_conjugate_frozen_values():
    h = smooth_hinge_loss(np.array([1.0]))
    assert conjugate_value(h, -1.0, 0) == -0.5
    assert conjugate_value(h, 0.0, 0) == 0.0
    assert conjugate_value(h, -0.5, 0) == -0.375
    assert conjugate_value(h, 0.5, 0) == np.inf
    assert conjugate_value(h, -1.5, 0) == np.inf


def test_hinge_negative_label_mirrors():
    h = smooth_hinge_loss(np.array([-1.0]))
    # f_i(p) = h(p * label), so the loss falls as p decreases
    assert loss_value(h, -2.0, 0) == 0.0
    assert loss_value(h, 0.0, 0) == 0.5
    assert loss_value(h, 1.0, 0) == 1.5
    assert loss_derivative(h, 1.0, 0) == 1.0
    lower, upper = h.conjugate_box()
    assert lower[0] == 0.0 and upper[0] == 1.0


def test_hinge_is_continuously_differentiable_at_branch_points():
    h = smooth_hinge_loss(np.array([1.0]))
    for z in (0.0, 1.0):
        left = loss_derivative(h, z - 1e-9, 0)
        right = loss_derivative(h, z + 1e-9, 0)
        assert abs(left - right) < 1e-8


def test_hinge_derivative_matches_central_differences():
    h = smooth_hinge_loss(np.array([1.0, -1.0]))
    eps = 1e-6
    for i in (0, 1):
        for z in np.linspace(-2.5, 2.5, 101):
            # stay clear of the branch points where the quadratic starts/ends
            if min(abs(z), abs(z - 1.0), abs(z + 1.0)) < 1e-4:
                continue
            approx = (loss_value(h, z + eps, i) - loss_value(h, z - eps, i)) / (2 * eps)
            assert loss_derivative(h, z, i) == pytest.approx(approx, abs=1e-8)


def test_hinge_second_differences_nonnegative():
    h = smooth_hinge_loss(np.array([1.0]))
    grid = np.linspace(-2.0, 2.0, 401)
    vals = h.values(grid * 1.0)
    second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
    assert np.all(second >= -1e-12)


@settings(max_examples=200, deadline=None)
@given(st.floats(-5, 5))
def test_hinge_fenchel_young_equality(z):
    h = smooth_hinge_loss(np.array([1.0]))
    u = loss_derivative(h, z, 0)
    assert loss_value(h, z, 0) + conjugate_value(h, u, 0) == pytest.approx(
        z * u, abs=1e-12)


# ---------------------------------------------------------------- quadratic

def test_quadratic_values_and_conjugate():
    q = quadratic_loss(np.array([2.0, -1.0]))
    assert loss_value(q, 2.0, 0) == 0.0
    assert loss_value(q, 0.0, 0) == 2.0
    assert loss_derivative(q, 0.0, 0) == -2.0
    # f*(y) = y^2/2 + b y
    assert conjugate_value(q, 1.0, 0) == 2.5
    assert conjugate_value(q, -2.0, 1) == 4.0
    lower, upper = q.conjugate_box()
    assert np.all(np.isinf(lower)) and np.all(np.isinf(upper))


def test_quadratic_fenchel_young_on_grid():
    q = quadratic_loss(np.array([0.7]))
    for p in np.linspace(-4, 4, 101):
        u = loss_derivative(q, p, 0)
        gap = loss_value(q, p, 0) + conjugate_value(q, u, 0) - p * u
        assert abs(gap) < 1e-12


# ---------------------------------------------------------------- dual prox

def test_dual_prox_step_frozen_quadratic():
    # [DERIVED] (0.2 + 0.5*(1 - 0.5)) / 1.5
    q = quadratic_loss(np.array([0.5]))
    assert dual_prox_step(q, 1.0, 0.2, 2.0, 4, 0) == pytest.approx(0.3, abs=1e-15)


def test_dual_prox_step_frozen_hinge_clipped():
    # [DERIVED] unclipped -2.2/1.5 lands outside the box, clips to -1
    h = smooth_hinge_loss(np.array([1.0]))
    assert dual_prox_step(h, -3.0, -0.2, 2.0, 1, 0) == -1.0


def test_dual_prox_step_frozen_hinge_interior():
    # [DERIVED] (0.1 + 0.5*(0.5 + 1)) / 1.5 = 17/30, inside [0, 1]
    h = smooth_hinge_loss(np.array([1.0, -1.0]))
    assert dual_prox_step(h, 0.5, 0.1, 1.0, 2, 1) == pytest.approx(
        17.0 / 30.0, abs=1e-15)


def test_dual_prox_vector_matches_scalar():
    rng = np.random.default_rng(2)
    labels = rng.choice([-1.0, 1.0], size=8)
    h = smooth_hinge_loss(labels)
    w = rng.normal(size=8) * 2
    lower, upper = h.conjugate_box()
    y = rng.uniform(lower, upper)
    out = h.dual_prox(w, y, 1.7, 8)
    for i in range(8):
        assert out[i] == pytest.approx(
            dual_prox_step(h, float(w[i]), float(y[i]), 1.7, 8, i), abs=1e-14)


def test_dual_prox_maximizes_prox_objective():
    # the returned point beats nearby feasible perturbations
    h = smooth_hinge_loss(np.array([1.0]))
    w, y, delta, n = 0.4, -0.3, 1.2, 3
    u = dual_prox_step(h, w, y, delta, n, 0)

    def obj(v):
        return (v * w - conjugate_value(h, v, 0)) / n - (v - y) ** 2 / (2 * delta)

    for eps in (1e-3, -1e-3, 0.05, -0.05):
        v = float(np.clip(u + eps, -1.0, 0.0))
        assert obj(u) >= obj(v) - 1e-12


def test_dual_prox_rejects_bad_delta():
    q = quadratic_loss(np.array([1.0]))
    with pytest.raises(ValueError):
        q.dual_prox(np.zeros(1), np.zeros(1), 0.0, 1)


# ------------------------------------------------------------ loss plumbing

def test_loss_model_validation():
    with pytest.raises(ValueError):
        smooth_hinge_loss(np.array([1.0, 2.0]))  # labels must be -1/+1
    with pytest.raises(ValueError):
        quadratic_loss(np.array([np.nan]))
    with pytest.raises(ValueError):
        LossModel(kind="huber", targets=np.array([1.0]))


def test_vector_ops_match_scalar_ops():
    rng = np.random.default_rng(4)
    labels = rng.choice([-1.0, 1.0], size=6)
    for m in (smooth_hinge_loss(labels), quadratic_loss(rng.normal(size=6))):
        p = rng.normal(size=6) * 2
        assert_allclose(m.values(p), [loss_value(m, float(p[i]), i) for i in range(6)])
        assert_allclose(m.derivatives(p),
                        [loss_derivative(m, float(p[i]), i) for i in range(6)])
        assert m.mean_value(p) == pytest.approx(float(np.mean(m.values(p))))


def test_conjugate_sum_infinite_outside_box():
    h = smooth_hinge_loss(np.array([1.0, -1.0]))
    assert h.conjugate_sum(np.array([-0.5, 0.5])) < np.inf
    assert h.conjugate_sum(np.array([-1.5, 0.5])) == np.inf
    assert h.conjugate_sum(np.array([-0.5, 1.5])) == np.inf


def test_primal_objective_matches_manual_sum():
    rng = np.random.default_rng(9)
    dense = rng.normal(size=(5, 3))
    A = SparseDesignMatrix.from_dense(dense)
    x = rng.normal(size=3)
    labels = rng.choice([-1.0, 1.0], size=5)
    m = smooth_hinge_loss(labels)
    g = Regularizer(mu=0.3)
    manual = np.mean([hinge_scalar(float(dense[i] @ x) * labels[i])
                      for i in range(5)]) + 0.15 * float(x @ x)
    assert primal_objective(m, g, A, x) == pytest.approx(manual, abs=1e-12)


# -------------------------------------------------------------- regularizer

def test_regularizer_value_grad_and_default_smoothness():
    g = Regularizer(mu=0.5)
    assert g.l_smooth == 0.5
    x = np.array([1.0, -2.0])
    assert g.value(x) == pytest.approx(1.25)
    assert_allclose(g.grad(x), [0.5, -1.0])
    g2 = Regularizer(mu=0.5, l_smooth=2.0)
    assert g2.l_smooth == 2.0
    with pytest.raises(ValueError):
        Regularizer(mu=0.0)


# ------------------------------------------------------------ matrix targets

def test_matrix_quadratic_loss_values():
    B = np.array([[1.0, 0.0], [0.0, 2.0]])
    m = MatrixQuadraticLoss(B=B)
    assert m.n == 2 and m.n_tasks == 2
    P = np.zeros((2, 2))
    # 0.5 * ||B||_F^2 / n = 0.5 * 5 / 2
    assert m.mean_value(P) == pytest.approx(1.25)
    Y = np.array([[1.0, 1.0], [0.0, -1.0]])
    # 0.5<Y,Y> + <B,Y> = 0.5*3 + (1 - 2)
    assert m.conjugate_sum(Y) == pytest.approx(0.5)


def test_matrix_dual_prox_matches_rowwise_scalar():
    rng = np.random.default_rng(12)
    B = rng.normal(size=(4, 3))
    m = MatrixQuadraticLoss(B=B)
    W = rng.normal(size=(4, 3))
    Y = rng.normal(size=(4, 3))
    out = m.dual_prox(W, Y, 2.5, 4)
    expect = (Y + (2.5 / 4) * (W - B)) / (1 + 2.5 / 4)
    assert_allclose(out, expect, atol=1e-14)


def test_matrix_loss_validation():
    with pytest.raises(ValueError):
        MatrixQuadraticLoss(B=np.array([1.0, 2.0]))  # needs 2-D targets
    with pytest.raises(ValueError):
        MatrixQuadraticLoss(B=np.array([[np.inf, 0.0]]))
