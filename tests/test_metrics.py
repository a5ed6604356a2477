"""Tests for objective/gap evaluation and convergence trace bookkeeping.

Oracle notes:
  - the nuclear projection is checked against an independent spectrum
    bisection (solve for the soft-threshold level directly);
  - the inner minimization of the dual objective is checked against SLSQP on
    the positive/negative split formulation of the l1 ball;
  - the trace-norm dual objective, which works from singular values alone,
    is checked against the dense route: project -Z/(n mu) onto the ball with
    project_nuclear_ball and evaluate the inner objective at that matrix;
  - both certificates read their inner value off the l1 threshold; they are
    checked against the value at the projected point, built with the
    full-sort projection oracle of test_core_linalg.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize

from pdbfw.core_linalg import SparseDesignMatrix
from pdbfw.data_io import PortableRng
from pdbfw.losses import (MatrixQuadraticLoss, Regularizer, quadratic_loss,
                          smooth_hinge_loss)
from pdbfw import metrics
from pdbfw.metrics import (ConvergenceTrace, DivergenceError, SketchedSpectrum,
                           _inner_value, _sketched_singular_values,
                           dual_objective, dual_objective_trace,
                           project_nuclear_ball, rank_count)
from pdbfw.pdbfw_trace import _power_start
from test_core_linalg import project_full_sort_oracle, projection_cases


# ---------------------------------------------------------------------------
# ConvergenceTrace


def test_trace_append_and_accessors():
    # [TRIVIAL] gap is primal - dual by definition
    tr = ConvergenceTrace()
    tr.append(0, 0.0, 3.0, 1.0, 10, 2)
    tr.append(5, 0.5, 2.0, 1.5, 30, 3)
    assert len(tr.records) == 2
    assert tr.final.iteration == 5
    assert tr.final.gap == pytest.approx(0.5, abs=0.0)
    assert [(r.iteration, r.elapsed_seconds, r.primal, r.dual, r.gap,
             r.flops, r.support) for r in tr.records] == \
        [(0, 0.0, 3.0, 1.0, 2.0, 10, 2), (5, 0.5, 2.0, 1.5, 0.5, 30, 3)]


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
    assert len(tr.records) == 1


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
    with pytest.raises(ValueError, match="radius must be positive"):
        project_nuclear_ball(np.eye(2), np.nan)


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
    A = SparseDesignMatrix(rng.normals(n * d).reshape(n, d))
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
        got = dual_objective(A, loss, reg, np.zeros(A.n_rows), 2.0)
        assert got == 0.0 and math.copysign(1.0, got) == 1.0


@settings(max_examples=200, deadline=None)
@given(projection_cases(), st.floats(0.05, 5.0), st.integers(1, 50),
       st.integers(0, 2**32 - 1))
def test_dual_objective_keeps_the_bits_of_the_scaled_magnitudes(case, mu, n,
                                                                 seed):
    # the certificate divides |z| in place: the same quotients as
    # |z| / (n mu), so the same bits
    z, radius = case
    rng = PortableRng(seed)
    A = SparseDesignMatrix(rng.normals(n * z.size).reshape(n, -1))
    loss = quadratic_loss(rng.normals(n))
    reg = Regularizer(mu=mu)
    y = rng.normals(n)
    want = _inner_value(np.abs(z) / (n * mu), radius, mu) - \
        loss.conjugate_sum(y) / n
    assert dual_objective(A, loss, reg, y, radius, z=z) == want


def test_dual_objective_names_non_finite_z():
    A, loss = _small_problem("quadratic")
    reg = Regularizer(mu=0.4)
    for bad in (np.nan, np.inf, -np.inf):
        z = np.array([1.0, bad, -2.0])
        with pytest.raises(ValueError, match="must be finite"):
            dual_objective(A, loss, reg, np.zeros(A.n_rows), 2.0, z=z)


def _certificate_tolerance(c, mu, const):
    # [DERIVED] for one theta, both sides sum at most d terms whose
    # magnitudes add to at most (3/2) mu sum c_i^2, then subtract the same
    # conjugate term; each sum is within d eps of that total
    eps = np.finfo(float).eps
    return 4.0 * (c.size + 2) * eps * (mu * float(np.dot(c, c)) + abs(const))


@settings(max_examples=200, deadline=None)
@given(projection_cases(), st.floats(0.05, 5.0), st.integers(0, 2**32 - 1))
def test_dual_objective_matches_the_projected_point(case, mu, seed):
    # the projected-point formula: x_hat = proj(-z/(n mu)), then
    # (mu/2)||x_hat||^2 + <z, x_hat>/n - conj/n
    c, radius = case
    rng = PortableRng(seed)
    n = 3
    A = SparseDesignMatrix(rng.normals(n * c.size).reshape(n, -1))
    loss = quadratic_loss(rng.normals(n))
    reg = Regularizer(mu=mu)
    y = rng.normals(n)
    z = -n * mu * c
    got = dual_objective(A, loss, reg, y, radius, z=z)
    x_hat = project_full_sort_oracle(-z / (n * mu), radius)
    const = loss.conjugate_sum(y) / n
    want = reg.value(x_hat) + float(np.dot(z, x_hat)) / n - const
    assert abs(got - want) <= _certificate_tolerance(c, mu, const)


@settings(max_examples=200, deadline=None)
@given(projection_cases(), st.floats(0.05, 5.0), st.integers(0, 2**32 - 1))
def test_dual_objective_trace_matches_the_p_formula(case, mu, seed):
    # the projected-value formula on the singular values sv:
    # p = proj(sv), (mu/2) p.p - mu sv.p - conj/n
    c, radius = case
    sv = np.sort(np.abs(c))[::-1]
    rng = PortableRng(seed)
    n, d, cols = 3, 4, 2
    A = SparseDesignMatrix(rng.normals(n * d).reshape(n, d))
    loss = MatrixQuadraticLoss(B=rng.normals(n * cols).reshape(n, cols))
    reg = Regularizer(mu=mu)
    Y = rng.normals(n * cols).reshape(n, cols)
    got = dual_objective_trace(A, loss, reg, Y, radius,
                               singular_values=lambda _: sv)
    p = project_full_sort_oracle(sv, radius)
    const = loss.conjugate_sum(Y) / n
    want = 0.5 * mu * float(p @ p) - mu * float(sv @ p) - const
    assert abs(got - want) <= _certificate_tolerance(sv, mu, const)


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
    primal = loss.mean_value(np.zeros(A.n_rows))
    dual = dual_objective(A, loss, reg, np.zeros(A.n_rows), 3.0)
    assert primal - dual == pytest.approx(0.5, abs=1e-15)


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
        primal = loss.mean_value(A.matvec(x)) + reg.value(x)
        assert primal - dual_objective(A, loss, reg, y, 2.0) >= -1e-12


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       n=st.integers(1, 8), d=st.integers(1, 8),
       kind=st.sampled_from(["quadratic", "hinge"]),
       fully_stored=st.booleans(),
       mu=st.floats(0.05, 5.0), radius=st.floats(0.1, 10.0),
       fill=st.floats(0.0, 1.0))
def test_l1_weak_duality_on_random_instances(seed, n, d, kind, fully_stored,
                                             mu, radius, fill):
    # weak duality: P(x) >= D(y) for every x in the l1 ball and every y in
    # the conjugate box, on fully stored designs (A'y through the dense
    # columns) and on sparse ones (through the CSR layout)
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=(n, d))
    if not fully_stored:
        dense[rng.random((n, d)) < 0.5] = 0.0
        dense[0, 0] = 0.0
    A = SparseDesignMatrix(dense)
    assert (A._dense_cols is not None) == fully_stored
    if kind == "hinge":
        labels = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        loss = smooth_hinge_loss(labels)
        y = -labels * rng.random(n)  # y_i * label_i in [-1, 0]
    else:
        loss = quadratic_loss(rng.normal(size=n))
        y = 3.0 * rng.normal(size=n)  # the quadratic box is every y
    reg = Regularizer(mu=mu)
    x = rng.normal(size=d)
    x *= fill * radius / np.abs(x).sum()
    primal = loss.mean_value(A.matvec(x)) + reg.value(x)
    dual = dual_objective(A, loss, reg, y, radius)
    scale = max(1.0, abs(primal), abs(dual))
    assert primal - dual >= -1e-12 * scale


# ---------------------------------------------------------------------------
# Matrix (trace-norm) dual objective


def test_dual_objective_trace_at_zero_is_zero():
    rng = PortableRng(31)
    n, d, c = 5, 4, 3
    A = SparseDesignMatrix(rng.normals(n * d).reshape(n, d))
    loss = MatrixQuadraticLoss(B=rng.normals(n * c).reshape(n, c))
    reg = Regularizer(mu=0.2)
    got = dual_objective_trace(A, loss, reg, np.zeros((n, c)), 2.0)
    assert got == 0.0 and math.copysign(1.0, got) == 1.0


def test_dual_objective_trace_inner_min_dominates_samples():
    # [DERIVED] the closed-form inner minimizer must beat any sampled point
    # of the trace-norm ball, and match the value at its own minimizer.
    rng = PortableRng(33)
    n, d, c = 5, 4, 3
    A = SparseDesignMatrix(rng.normals(n * d).reshape(n, d))
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
    A = SparseDesignMatrix(rng.normals(n * d).reshape(n, d))
    loss = MatrixQuadraticLoss(B=rng.normals(n * c).reshape(n, c))
    reg = Regularizer(mu=0.5)
    Y = rng.normals(n * c).reshape(n, c)
    Z = A.rmatvec(Y)
    assert dual_objective_trace(A, loss, reg, Y, 1.0, Z=Z) == \
        dual_objective_trace(A, loss, reg, Y, 1.0)


def _dense_route_dual_trace(A, loss, reg, Y, radius, Z):
    """Oracle: D(Y) through the dense minimizer X_hat; returns the value and
    its inner part, the objective at X_hat before the conjugate term."""
    n = A.n_rows
    X_hat = project_nuclear_ball(-Z / (n * reg.mu), radius)
    inner = reg.value(X_hat) + float(np.vdot(Z, X_hat)) / n
    return inner - loss.conjugate_sum(Y) / n, inner


def _low_rank(rng, d, c, rank, scale):
    if rank == 0:
        return np.zeros((d, c))
    return scale * (rng.normals(d * rank).reshape(d, rank)
                    @ rng.normals(c * rank).reshape(rank, c))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       d=st.integers(1, 7), c=st.integers(1, 7),
       rank_cut=st.integers(0, 7),
       scale=st.floats(1e-3, 1e3),
       mu=st.floats(0.05, 5.0),
       radius_factor=st.floats(0.01, 3.0))
def test_dual_objective_trace_matches_dense_route(seed, d, c, rank_cut, scale,
                                                  mu, radius_factor):
    # [DERIVED] tall (d > c), wide (d < c), rank-deficient and zero Z; the
    # radius is a multiple of the nuclear norm of -Z/(n mu), so a factor
    # below 1 binds and one of 1 or more leaves the ball feasible
    rng = PortableRng(seed)
    n = 4
    A = SparseDesignMatrix(rng.normals(n * d).reshape(n, d))
    loss = MatrixQuadraticLoss(B=rng.normals(n * c).reshape(n, c))
    reg = Regularizer(mu=mu)
    Y = rng.normals(n * c).reshape(n, c)
    Z = _low_rank(rng, d, c, min(rank_cut, d, c), scale)
    nuclear = np.linalg.svd(Z, compute_uv=False).sum() / (n * mu)
    radius = max(radius_factor * nuclear, 1e-3)
    got = dual_objective_trace(A, loss, reg, Y, radius, Z=Z)
    want, inner = _dense_route_dual_trace(A, loss, reg, Y, radius, Z)
    # both routes subtract the same conjugate term, which can cancel the
    # inner value; the tolerance is relative to the larger of the two
    assert abs(got - want) <= 1e-12 * max(abs(want), abs(inner))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       n=st.integers(1, 6), d=st.integers(1, 6), c=st.integers(1, 6),
       mu=st.floats(0.05, 5.0), radius=st.floats(0.1, 10.0),
       fill=st.floats(0.0, 1.0))
def test_trace_weak_duality_on_random_instances(seed, n, d, c, mu, radius,
                                                fill):
    # weak duality: P(X) >= D(Y) for every X in the trace-norm ball and
    # every Y (the matrix quadratic conjugate is finite everywhere)
    rng = PortableRng(seed)
    A = SparseDesignMatrix(rng.normals(n * d).reshape(n, d))
    loss = MatrixQuadraticLoss(B=rng.normals(n * c).reshape(n, c))
    reg = Regularizer(mu=mu)
    Y = 3.0 * rng.normals(n * c).reshape(n, c)
    X = rng.normals(d * c).reshape(d, c)
    X *= fill * radius / np.linalg.svd(X, compute_uv=False).sum()
    primal = loss.mean_value(A.matvec(X)) + reg.value(X)
    dual = dual_objective_trace(A, loss, reg, Y, radius)
    assert primal >= dual - 1e-12 * max(1.0, abs(primal), abs(dual))


# ---------------------------------------------------------------------------
# Singular values from a range sketch

_EPS = np.finfo(float).eps


def _rank_count(sv, shape):
    """The numerical-rank count of the trace solver's support column."""
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > sv[0] * max(shape) * _EPS))


def _spectrum_matrix(rng, d, c, spectrum):
    r = len(spectrum)
    if r == 0:
        return np.zeros((d, c))
    U, _ = np.linalg.qr(rng.normals(d * r).reshape(d, r))
    V, _ = np.linalg.qr(rng.normals(c * r).reshape(c, r))
    return (U * np.asarray(spectrum)) @ V.T


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       d=st.integers(1, 40), c=st.integers(1, 40),
       rank_frac=st.floats(0.0, 1.0),
       near_tau=st.integers(0, 3),
       noise=st.sampled_from([0.0, 1e-18, 1e-14, 1e-8]),
       scale_exp=st.floats(-3.0, 3.0),
       full_width=st.booleans(), extra=st.integers(0, 6))
def test_sketched_singular_values_match_full_svd(seed, d, c, rank_frac,
                                                 near_tau, noise, scale_exp,
                                                 full_width, extra):
    # [DERIVED] Weyl: with residual r = ||M - QB||_F, every accepted value
    # lies within r of M's and M's later values lie below r; the rank count
    # must equal the full SVD's. Tall, wide and zero M, ranks 0..min(d, c),
    # values placed between tau/2 and 2 tau, and noise scaled to a fraction
    # of sigma_1 in Frobenius norm.
    rng = PortableRng(seed)
    m = min(d, c)
    rank = int(round(rank_frac * m))
    sigma1 = 10.0 ** scale_exp
    tau = max(d, c) * _EPS * sigma1
    spectrum = sigma1 * np.sort(10.0 ** (-6.0 * rng.uniforms(rank)))[::-1]
    if rank:
        spectrum[0] = sigma1
        tail = min(near_tau, rank - 1)
        if tail:
            spectrum[rank - tail:] = tau * (0.5 + 1.5 * rng.uniforms(tail))
    M = _spectrum_matrix(rng, d, c, spectrum)
    if noise and rank:
        G = rng.normals(d * c).reshape(d, c)
        M += noise * sigma1 * G / np.linalg.norm(G)
    width = min(c, max(1, (m if full_width else rank) + extra))
    block = _power_start(c, width)
    full = np.linalg.svd(M, compute_uv=False)
    got = _sketched_singular_values(M, block)
    if _rank_count(full, M.shape) == m:
        assert got is None
    if got is None:
        return
    Q, _ = np.linalg.qr(M @ block)
    residual = np.linalg.norm(M - Q @ (Q.T @ M))
    assert _rank_count(got, M.shape) == _rank_count(full, M.shape)
    # plus the two SVDs' own rounding: up to 4.4 eps sigma_1 in 60,000
    # random draws of this test's matrices
    slack = residual + 16.0 * _EPS * full[0]
    assert np.all(np.abs(got - full[:got.size]) <= slack)
    assert np.all(full[got.size:] <= slack)


def test_sketched_singular_values_zero_full_rank_and_non_finite():
    # a 20 x 15 matrix of rank 3 leaves a residual far below tau/4; small
    # matrices, whose tau is a few eps, often miss
    rng = PortableRng(41)
    block = _power_start(15, 7)
    np.testing.assert_array_equal(
        _sketched_singular_values(np.zeros((20, 15)), block), np.zeros(7))
    assert _sketched_singular_values(rng.normals(300).reshape(20, 15),
                                     block) is None
    M = _spectrum_matrix(rng, 20, 15, [3.0, 2.0, 1.0])
    assert _rank_count(_sketched_singular_values(M, block), M.shape) == 3
    M[0, 0] = np.nan  # raises as the full SVD does
    with pytest.raises(np.linalg.LinAlgError):
        _sketched_singular_values(M, block)


def test_sketched_spectrum_switches_to_full_svd_after_a_miss():
    rng = PortableRng(43)
    spectrum = SketchedSpectrum(_power_start(15, 7))
    low = _spectrum_matrix(rng, 20, 15, [3.0, 2.0, 1.0])
    assert spectrum(low).size == 7
    full_rank = rng.normals(300).reshape(20, 15)
    np.testing.assert_array_equal(spectrum(full_rank),
                                  np.linalg.svd(full_rank, compute_uv=False))
    assert spectrum.block is None
    np.testing.assert_array_equal(spectrum(low),
                                  np.linalg.svd(low, compute_uv=False))


def _spied_widths(monkeypatch):
    """The (block width, hit) of every range sketch from here on."""
    log, sketch = [], metrics._sketched_singular_values

    def spy(M, block):
        sv = sketch(M, block)
        log.append((block.shape[1], sv is not None))
        return sv

    monkeypatch.setattr(metrics, "_sketched_singular_values", spy)
    return log


def test_sketched_spectrum_narrows_to_the_rank_it_finds(monkeypatch):
    # a rank-3 hit on a 12-column block: the next sketch takes 3 + 4 columns
    log = _spied_widths(monkeypatch)
    rng = PortableRng(47)
    spectrum = SketchedSpectrum(_power_start(30, 12))
    low = _spectrum_matrix(rng, 40, 30, [3.0, 2.0, 1.0])
    assert spectrum(low).size == 12
    sv = spectrum(low)
    assert log == [(12, True), (7, True)]
    assert sv.size == 7 and rank_count(sv, low.shape) == 3


def test_sketched_spectrum_keeps_its_width_on_a_zero_matrix(monkeypatch):
    log = _spied_widths(monkeypatch)
    rng = PortableRng(47)
    spectrum = SketchedSpectrum(_power_start(30, 12))
    zero = np.zeros((40, 30))
    low = _spectrum_matrix(rng, 40, 30, [3.0, 2.0, 1.0])
    spectrum(zero)
    spectrum(zero)
    spectrum(low)
    spectrum(zero)
    spectrum(low)
    assert [width for width, _ in log] == [12, 12, 12, 7, 7]
    assert all(hit for _, hit in log)


def test_sketched_spectrum_retries_a_rank_rise_on_the_whole_block(
        monkeypatch):
    # rank 9 misses at the narrowed width 7, hits on the whole block in the
    # same call, and widens the next sketch to min(9 + 4, 12) columns
    log = _spied_widths(monkeypatch)
    rng = PortableRng(47)
    spectrum = SketchedSpectrum(_power_start(30, 12))
    spectrum(_spectrum_matrix(rng, 40, 30, [3.0, 2.0, 1.0]))
    rise = _spectrum_matrix(rng, 40, 30, np.arange(9.0, 0.0, -1.0))
    sv = spectrum(rise)
    assert log == [(12, True), (7, False), (12, True)]
    full = np.linalg.svd(rise, compute_uv=False)
    assert rank_count(sv, rise.shape) == rank_count(full, rise.shape) == 9
    assert spectrum.width == 12 and spectrum.block is not None


def test_sketched_spectrum_keeps_the_full_svd_after_a_whole_block_miss(
        monkeypatch):
    log = _spied_widths(monkeypatch)
    rng = PortableRng(47)
    spectrum = SketchedSpectrum(_power_start(30, 12))
    low = _spectrum_matrix(rng, 40, 30, [3.0, 2.0, 1.0])
    spectrum(low)
    full_rank = rng.normals(1200).reshape(40, 30)
    np.testing.assert_array_equal(spectrum(full_rank),
                                  np.linalg.svd(full_rank, compute_uv=False))
    assert log == [(12, True), (7, False), (12, False)]
    assert spectrum.block is None
    np.testing.assert_array_equal(spectrum(low),
                                  np.linalg.svd(low, compute_uv=False))
    assert len(log) == 3
