import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from pdbfw.core_linalg import SparseDesignMatrix
from pdbfw.losses import (LossModel, MatrixQuadraticLoss, Regularizer,
                          loss_derivative, quadratic_loss, smooth_hinge_loss)


def hinge_scalar(z):
    if z < 0.0:
        return 0.5 - z
    if z <= 1.0:
        return 0.5 * (1.0 - z) ** 2
    return 0.0


# ------------------------------------------------------------- smooth hinge

def test_hinge_frozen_values():
    h = smooth_hinge_loss(np.array([1.0]))
    assert smooth_hinge_loss(np.ones(4)).values(
        np.array([0.0, -1.0, 0.5, 2.0])).tolist() == [0.5, 1.5, 0.125, 0.0]
    assert loss_derivative(h, -1.0, 0) == -1.0
    assert loss_derivative(h, 0.5, 0) == -0.5
    assert loss_derivative(h, 2.0, 0) == 0.0


def test_hinge_conjugate_frozen_values():
    h = smooth_hinge_loss(np.ones(5))
    assert h.conjugates(np.array([-1.0, 0.0, -0.5, 0.5, -1.5])).tolist() == \
        [-0.5, 0.0, -0.375, np.inf, np.inf]


def test_hinge_negative_label_mirrors():
    h = smooth_hinge_loss(-np.ones(3))
    # f_i(p) = h(p * label), so the loss falls as p decreases
    assert h.values(np.array([-2.0, 0.0, 1.0])).tolist() == [0.0, 0.5, 1.5]
    assert loss_derivative(h, 1.0, 0) == 1.0
    # the conjugate is finite on [0, 1] for label -1
    assert np.isinf(h.conjugates(np.array([-1e-9, 0.0, 1.0 + 1e-9]))).tolist() \
        == [True, False, True]
    assert np.isfinite(h.conjugates(np.array([1.0, 0.5, 0.0]))).all()


def test_hinge_is_continuously_differentiable_at_branch_points():
    h = smooth_hinge_loss(np.array([1.0]))
    for z in (0.0, 1.0):
        left = loss_derivative(h, z - 1e-9, 0)
        right = loss_derivative(h, z + 1e-9, 0)
        assert abs(left - right) < 1e-8


def test_hinge_derivative_matches_central_differences():
    h = smooth_hinge_loss(np.array([1.0, -1.0]))
    eps = 1e-6
    z = np.linspace(-2.5, 2.5, 101)
    # stay clear of the branch points where the quadratic starts/ends
    z = z[np.min(np.abs(z[:, None] - [0.0, 1.0, -1.0]), axis=1) >= 1e-4]
    for i, label in enumerate(h.targets):
        same = smooth_hinge_loss(np.full(z.size, label))
        approx = (same.values(z + eps) - same.values(z - eps)) / (2 * eps)
        assert_allclose(same.derivatives(z), approx, rtol=0, atol=1e-8)
        assert_allclose([loss_derivative(h, float(zi), i) for zi in z],
                        approx, rtol=0, atol=1e-8)


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
    p = np.array([z])
    u = h.derivatives(p)
    assert h.values(p)[0] + h.conjugates(u)[0] == pytest.approx(
        z * u[0], abs=1e-12)


# ---------------------------------------------------------------- quadratic

def test_quadratic_values_and_conjugate():
    q = quadratic_loss(np.array([2.0, -1.0]))
    assert q.values(np.array([2.0, -1.0])).tolist() == [0.0, 0.0]
    assert q.values(np.zeros(2)).tolist() == [2.0, 0.5]
    assert loss_derivative(q, 0.0, 0) == -2.0
    # f*(y) = y^2/2 + b y
    assert q.conjugates(np.array([1.0, -2.0])).tolist() == [2.5, 4.0]
    assert np.isfinite(q.conjugates(np.array([-1e150, 1e150]))).all()


def test_quadratic_fenchel_young_on_grid():
    p = np.linspace(-4, 4, 101)
    q = quadratic_loss(np.full(p.size, 0.7))
    u = q.derivatives(p)
    gap = q.values(p) + q.conjugates(u) - p * u
    assert np.abs(gap).max() < 1e-12


# ---------------------------------------------------------------- dual prox

def test_dual_prox_step_frozen_quadratic():
    # [DERIVED] (0.2 + 0.5*(1 - 0.5)) / 1.5
    q = quadratic_loss(np.array([0.5]))
    assert q.dual_prox(np.array([1.0]), np.array([0.2]), 2.0, 4)[0] == \
        pytest.approx(0.3, abs=1e-15)


def test_dual_prox_step_frozen_hinge_clipped():
    # [DERIVED] unclipped -2.2/1.5 lands outside the box, clips to -1
    h = smooth_hinge_loss(np.array([1.0]))
    assert h.dual_prox(np.array([-3.0]), np.array([-0.2]), 2.0, 1)[0] == -1.0


def test_dual_prox_step_frozen_hinge_interior():
    # [DERIVED] (0.1 + 0.5*(0.5 + 1)) / 1.5 = 17/30, inside [0, 1]
    h = smooth_hinge_loss(np.array([1.0, -1.0]))
    u = h.dual_prox(np.array([0.0, 0.5]), np.array([-0.5, 0.1]), 1.0, 2)
    assert u[1] == pytest.approx(17.0 / 30.0, abs=1e-15)


def test_dual_prox_vector_matches_scalar():
    # each coordinate is the prox of its own one-sample loss
    rng = np.random.default_rng(2)
    labels = rng.choice([-1.0, 1.0], size=8)
    h = smooth_hinge_loss(labels)
    w = rng.normal(size=8) * 2
    lower, upper = box_oracle(h)
    y = rng.uniform(lower, upper)
    out = h.dual_prox(w, y, 1.7, 8)
    for i in range(8):
        one = smooth_hinge_loss(labels[i:i + 1])
        assert out[i] == one.dual_prox(w[i:i + 1], y[i:i + 1], 1.7, 8)[0]


def test_dual_prox_maximizes_prox_objective():
    # the returned point beats nearby feasible perturbations
    h = smooth_hinge_loss(np.array([1.0]))
    w, y, delta, n = 0.4, -0.3, 1.2, 3
    u = float(h.dual_prox(np.array([w]), np.array([y]), delta, n)[0])

    def obj(v):
        conj = h.conjugates(np.array([v]))[0]
        return (v * w - conj) / n - (v - y) ** 2 / (2 * delta)

    for eps in (1e-3, -1e-3, 0.05, -0.05):
        v = float(np.clip(u + eps, -1.0, 0.0))
        assert obj(u) >= obj(v) - 1e-12


def test_dual_prox_rejects_bad_delta():
    q = quadratic_loss(np.array([1.0]))
    with pytest.raises(ValueError):
        q.dual_prox(np.zeros(1), np.zeros(1), 0.0, 1)
    m = MatrixQuadraticLoss(B=np.zeros((1, 2)))
    for loss, shape in ((q, 1), (m, (1, 2))):
        for delta in (np.nan, np.inf):
            with pytest.raises(ValueError, match="delta must be positive"):
                loss.dual_prox(np.zeros(shape), np.zeros(shape), delta, 1)


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
    targets = rng.normal(size=6)
    for m in (smooth_hinge_loss(labels), quadratic_loss(targets)):
        p = rng.normal(size=6) * 2
        if m.kind == "smooth_hinge":
            want = [hinge_scalar(float(p[i] * labels[i])) for i in range(6)]
        else:
            want = [0.5 * (float(p[i]) - targets[i]) ** 2 for i in range(6)]
        assert_allclose(m.values(p), want)
        assert_allclose(m.derivatives(p),
                        [loss_derivative(m, float(p[i]), i) for i in range(6)])
        assert m.mean_value(p) == pytest.approx(float(np.mean(m.values(p))))


_EPS = np.finfo(np.float64).eps
# margins z = p * label at and next to the hinge's kinks, signed zeros too
_KINKS = [0.0, -0.0, 1.0, -1.0, _EPS, -_EPS, 1.0 - _EPS / 2, 1.0 + _EPS]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["smooth_hinge", "quadratic"]),
       st.lists(st.tuples(
           st.one_of(st.sampled_from(_KINKS),
                     st.floats(-1e6, 1e6, allow_subnormal=True)),
           st.sampled_from([-1.0, 1.0]),
           st.floats(-1e3, 1e3)), min_size=1, max_size=8))
def test_loss_derivative_has_the_bits_of_derivatives(kind, rows):
    # svrg's per-sample derivative and the vector one agree bit for bit,
    # the sign of a zero included, at the kinks z = 0 and z = 1 too
    p, labels, targets = (np.array(col) for col in zip(*rows))
    m = smooth_hinge_loss(labels) if kind == "smooth_hinge" else \
        quadratic_loss(targets)
    if kind == "smooth_hinge":
        p = p * labels  # so the drawn value is the margin z
    want = m.derivatives(p)
    got = np.array([loss_derivative(m, float(p[i]), i)
                    for i in range(p.size)])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_conjugate_sum_infinite_outside_box():
    h = smooth_hinge_loss(np.array([1.0, -1.0]))
    assert h.conjugate_sum(np.array([-0.5, 0.5])) < np.inf
    assert h.conjugate_sum(np.array([-1.5, 0.5])) == np.inf
    assert h.conjugate_sum(np.array([-0.5, 1.5])) == np.inf
    assert smooth_hinge_loss(np.array([])).conjugate_sum(np.array([])) == 0.0


def box_oracle(m):
    """The conjugate box as built on every call before it was stored."""
    if m.kind == "smooth_hinge":
        return (np.where(m.targets > 0, -1.0, 0.0),
                np.where(m.targets > 0, 0.0, 1.0))
    return np.full(m.n, -np.inf), np.full(m.n, np.inf)


def conjugate_sum_oracle(m, y):
    vals = m.conjugates(y)
    if np.any(np.isinf(vals)):
        return np.inf
    return float(vals.sum())


def dual_prox_oracle(m, w, y, delta, n):
    r = delta / n
    u = (y + r * (w - m.targets)) / (1.0 + r)
    if m.kind == "smooth_hinge":
        u = np.clip(u, *box_oracle(m))
    return u


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2**32 - 1),
       st.sampled_from(["inside", "edges", "outside", "nan"]),
       st.floats(1e-3, 1e6))
def test_stored_box_and_conjugate_sum_keep_their_bits(n, seed, where, delta):
    rng = np.random.default_rng(seed)
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    h = smooth_hinge_loss(labels)
    lower, upper = box_oracle(h)
    # y = -u * label with u in [-1, 0] lies in the box
    y = -labels * rng.uniform(0.0, 1.0, size=n)
    if where == "edges":
        y = np.where(rng.random(n) < 0.5, lower, upper)
    elif where == "outside":
        y[rng.integers(n)] += rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 3.0)
    elif where == "nan":
        y[rng.integers(n)] = np.nan
    got, want = h.conjugate_sum(y), conjugate_sum_oracle(h, y)
    assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64)
    w = rng.normal(size=n) * 10.0
    y_in = np.clip(y, lower, upper)
    for m in (h, quadratic_loss(rng.normal(size=n))):
        assert np.array_equal(m.dual_prox(w, y_in, delta, n).view(np.int64),
                              dual_prox_oracle(m, w, y_in, delta, n)
                              .view(np.int64))
        # the sum over n keeps the bits of the mean it replaced
        assert (np.float64(m.mean_value(w)).view(np.int64)
                == np.float64(m.values(w).mean()).view(np.int64))
    q = quadratic_loss(rng.normal(size=n))
    assert (np.float64(q.conjugate_sum(w)).view(np.int64)
            == np.float64(conjugate_sum_oracle(q, w)).view(np.int64))


def test_primal_objective_matches_manual_sum():
    rng = np.random.default_rng(9)
    dense = rng.normal(size=(5, 3))
    A = SparseDesignMatrix(dense)
    x = rng.normal(size=3)
    labels = rng.choice([-1.0, 1.0], size=5)
    m = smooth_hinge_loss(labels)
    g = Regularizer(mu=0.3)
    manual = np.mean([hinge_scalar(float(dense[i] @ x) * labels[i])
                      for i in range(5)]) + 0.15 * float(x @ x)
    assert m.mean_value(A.matvec(x)) + g.value(x) == pytest.approx(manual,
                                                                   abs=1e-12)


# -------------------------------------------------------------- regularizer

def test_regularizer_value_grad_and_default_smoothness():
    g = Regularizer(mu=0.5)
    x = np.array([1.0, -2.0])
    assert g.value(x) == pytest.approx(1.25)
    assert_allclose(g.grad(x), [0.5, -1.0])


@pytest.mark.parametrize("mu", [0.0, -1.0, np.nan, np.inf, True])
def test_regularizer_rejects_nonpositive_mu(mu):
    with pytest.raises(ValueError, match="mu must be positive"):
        Regularizer(mu=mu)


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


def _matrix_loss(kind, rng, n, c):
    if kind == "smooth_hinge":
        return smooth_hinge_loss(np.where(rng.random((n, c)) < 0.5, 1.0, -1.0))
    return LossModel(kind="quadratic", targets=rng.normal(size=(n, c)))


@pytest.mark.parametrize("kind", ["smooth_hinge", "quadratic"])
def test_matrix_targets_keep_the_conjugate_identities(kind):
    # every identity holds entrywise on n x c targets, and each column
    # gives the bits of the vector loss on that column's targets
    rng = np.random.default_rng(31)
    n, c, delta = 7, 4, 2.5
    m = _matrix_loss(kind, rng, n, c)
    assert (m.n, m.n_tasks) == (n, c)
    P, Q, W = (3.0 * rng.normal(size=(n, c)) for _ in range(3))
    G = m.derivatives(P)
    # Fenchel-Young: equality at y = f'(p), inequality at any other q
    assert_allclose(m.values(P) + m.conjugates(G), P * G, rtol=0, atol=1e-12)
    assert np.all(m.values(Q) + m.conjugates(G) >= Q * G - 1e-12)
    # the conjugate is the supremum of q y - f(q) over a grid that holds p
    assert np.abs(P).max() < 15.0
    grid = np.linspace(-15.0, 15.0, 3001)[:, None, None]
    sup = np.max(grid * G - m.values(np.broadcast_to(grid, (3001, n, c))),
                 axis=0)
    assert np.all(sup <= m.conjugates(G) + 1e-12)
    assert_allclose(sup, m.conjugates(G), rtol=0, atol=1e-4)
    assert m.mean_value(P) == pytest.approx(m.values(P).sum(axis=1).mean())
    assert m.conjugate_sum(G) == pytest.approx(m.conjugates(G).sum())
    # the dual prox maximizes its concave objective entrywise
    Y = m.dual_prox(W, G, delta, n)

    def objective(U):
        return (W * U - m.conjugates(U)) / n - (U - G) ** 2 / (2 * delta)

    lower, upper = -np.inf, np.inf
    if kind == "smooth_hinge":
        lower = np.where(m.targets > 0, -1.0, 0.0)
        upper = lower + 1.0
    for eps in (1e-3, -1e-3, 0.05, -0.05):
        assert np.all(objective(Y) >= objective(np.clip(Y + eps, lower, upper))
                      - 1e-12)
    for j in range(c):
        col = LossModel(kind=kind, targets=m.targets[:, j])
        assert np.array_equal(Y[:, j], col.dual_prox(W[:, j], G[:, j], delta, n))
        assert np.array_equal(m.conjugates(G)[:, j], col.conjugates(G[:, j]))
        assert np.array_equal(G[:, j], col.derivatives(P[:, j]))


def test_matrix_quadratic_blas_sums_match_the_entrywise_loss():
    rng = np.random.default_rng(32)
    B = rng.normal(size=(9, 5))
    m, entry = MatrixQuadraticLoss(B=B), LossModel(kind="quadratic", targets=B)
    # the targets' shape, not the constructor, picks the BLAS sums
    assert type(quadratic_loss(B)) is MatrixQuadraticLoss
    assert type(quadratic_loss(B[:, 0])) is LossModel
    assert isinstance(m, LossModel) and (m.n, m.n_tasks) == (9, 5)
    for scale in (1e-3, 1.0, 1e3):
        P, Y, W = (scale * rng.normal(size=B.shape) for _ in range(3))
        assert m.mean_value(P) == pytest.approx(entry.mean_value(P),
                                                rel=1e-13)
        tol = 1e-13 * (float(np.vdot(Y, Y)) + np.abs(B * Y).sum())
        assert abs(m.conjugate_sum(Y) - entry.conjugate_sum(Y)) <= tol
        assert np.array_equal(m.dual_prox(W, Y, 1.5, 9),
                              entry.dual_prox(W, Y, 1.5, 9))
