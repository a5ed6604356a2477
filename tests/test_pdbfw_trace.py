"""Tests for the trace-norm-ball solver: the rank-s spectral prox against a
dense-SVD oracle, the greedy row dual step, cache maintenance, audit records,
and end-to-end recovery of a planted low-rank matrix."""

import math

import numpy as np
import pytest

from pdbfw.core_linalg import SparseDesignMatrix
from pdbfw.data_io import PortableRng, SyntheticSpec, generate_synthetic
from pdbfw.losses import MatrixQuadraticLoss, Regularizer, quadratic_loss
from pdbfw.metrics import project_nuclear_ball
from pdbfw.pdbfw_l1 import SolverConfig, SolverState, resolve
from pdbfw.pdbfw_l1 import dual_step as dual_step_vector
from pdbfw import pdbfw_trace
from pdbfw.pdbfw_trace import (ApproximationError, LmoAuditRecord,
                               LowRankFactor, _exact_lowrank_prox_dense,
                               approx_lowrank_prox, compute_r_k,
                               dual_step_trace, primal_step_trace,
                               solve_trace, trace_defaults)


def _spectrum_matrix(rng, d, c, spectrum):
    """Matrix with prescribed singular values and random orthogonal factors."""
    r = len(spectrum)
    U, _ = np.linalg.qr(rng.normals(d * r).reshape(d, r))
    V, _ = np.linalg.qr(rng.normals(c * r).reshape(c, r))
    return (U * np.asarray(spectrum)) @ V.T


def _resolve(cfg, A, loss, reg):
    return resolve(cfg, A, loss, reg, *trace_defaults(cfg, A, loss.n_tasks))


# ---------------------------------------------------------------------------
# LowRankFactor


def test_zero_factor():
    f = LowRankFactor.zero(4, 3)
    assert f.rank == 0
    assert f.trace_norm == 0.0
    np.testing.assert_array_equal(f.to_dense(), np.zeros((4, 3)))


def test_factor_dense_reconstruction():
    # [TRIVIAL] left diag(singular) right'
    f = LowRankFactor(left=np.array([[1.0], [0.0]]),
                      singular=np.array([2.0]),
                      right=np.array([[0.0], [1.0], [0.0]]))
    np.testing.assert_array_equal(f.to_dense(),
                                  [[0.0, 2.0, 0.0], [0.0, 0.0, 0.0]])
    assert f.trace_norm == 2.0


# ---------------------------------------------------------------------------
# Rank-s spectral prox


def test_approx_prox_frozen_diagonal():
    # [DERIVED] spectrum (2.5, 1.5, 0.5), s=2 keeps (2.5, 1.5); projecting
    # onto the l1 ball of radius 2.5 subtracts theta = 0.75 from each.
    M = np.diag([2.5, 1.5, 0.5])
    f = approx_lowrank_prox(M, 2.5, 2)
    np.testing.assert_allclose(f.to_dense(), np.diag([1.75, 0.75, 0.0]),
                               atol=1e-8)
    assert f.rank == 2


def test_approx_prox_zero_matrix():
    f = approx_lowrank_prox(np.zeros((5, 4)), 1.0, 2)
    assert f.rank == 0


def test_approx_prox_factors_orthonormal():
    rng = PortableRng(200)
    M = _spectrum_matrix(rng, 9, 7, [5.0, 3.0, 1.0, 0.2])
    f = approx_lowrank_prox(M, 4.0, 3)
    np.testing.assert_allclose(f.left.T @ f.left, np.eye(f.rank), atol=1e-10)
    np.testing.assert_allclose(f.right.T @ f.right, np.eye(f.rank), atol=1e-10)
    assert np.all(f.singular > 0.0)
    assert np.all(np.diff(f.singular) <= 1e-12)
    assert f.trace_norm <= 4.0 * (1 + 1e-12)


def test_approx_prox_matches_dense_svd_oracle():
    # [DERIVED] oracle: full SVD, keep top s, project the kept values
    rng = PortableRng(210)
    cases = [
        (8, 6, [4.0, 2.5, 1.5, 0.8, 0.3], 2, 3.0),
        (10, 10, [6.0, 3.0, 1.0], 3, 5.0),
        (5, 9, [2.0, 1.0, 0.5, 0.25], 1, 1.5),
    ]
    for d, c, spectrum, s, radius in cases:
        M = _spectrum_matrix(rng, d, c, spectrum)
        got = approx_lowrank_prox(M, radius, s).to_dense()
        want = _exact_lowrank_prox_dense(M, radius, s)
        np.testing.assert_allclose(got, want, atol=1e-8)


def test_exact_prox_with_full_rank_budget_is_nuclear_projection():
    # cross-validates the two oracles against each other
    rng = PortableRng(220)
    M = rng.normals(30).reshape(6, 5) * 2.0
    np.testing.assert_allclose(
        _exact_lowrank_prox_dense(M, 3.0, 5),
        project_nuclear_ball(M, 3.0), atol=1e-12)


def test_approx_prox_budget_clamped_to_shape():
    M = np.diag([3.0, 1.0])
    f = approx_lowrank_prox(M, 10.0, 7)  # s > min(d, c): clamp, keep all
    np.testing.assert_allclose(f.to_dense(), M, atol=1e-9)


def test_approx_prox_sweep_budget_failure():
    # a slowly decaying spectrum cannot certify in a single sweep
    M = PortableRng(1234).normals(144).reshape(12, 12)
    with pytest.raises(ApproximationError) as exc:
        approx_lowrank_prox(M, 1.0, 2, max_sweeps=1)
    assert exc.value.residual > 1e-10
    assert "did not converge" in str(exc.value)


def _fresh_power_start(c, b):
    """The power-iteration start built from scratch on every call."""
    start = PortableRng(pdbfw_trace._POWER_SEED).normals(c * b).reshape(c, b)
    Q, _ = np.linalg.qr(start)
    return Q


def test_power_start_is_read_only_and_matches_fresh_build():
    for c, b in ((7, 3), (12, 6), (60, 12)):
        Q = pdbfw_trace._power_start(c, b)
        np.testing.assert_array_equal(Q, _fresh_power_start(c, b))
        assert not Q.flags.writeable
        with pytest.raises(ValueError):
            Q[0, 0] = 1.0
        assert pdbfw_trace._power_start(c, b) is Q


def test_approx_prox_bit_identical_with_and_without_cache(monkeypatch):
    rng = PortableRng(230)
    cases = [(_spectrum_matrix(rng, 9, 7, [5.0, 3.0, 1.0, 0.2]), 4.0, 3),
             (_spectrum_matrix(rng, 6, 11, [2.0, 1.5, 0.5]), 2.0, 2)]
    cached = [approx_lowrank_prox(M, r, s) for M, r, s in cases]
    again = [approx_lowrank_prox(M, r, s) for M, r, s in cases]
    monkeypatch.setattr(pdbfw_trace, "_power_start", _fresh_power_start)
    fresh = [approx_lowrank_prox(M, r, s) for M, r, s in cases]
    for f, g, h in zip(cached, again, fresh):
        for attr in ("left", "singular", "right"):
            assert np.array_equal(getattr(f, attr), getattr(h, attr))
            assert np.array_equal(getattr(g, attr), getattr(h, attr))


def test_approx_prox_validation():
    with pytest.raises(ValueError, match="radius"):
        approx_lowrank_prox(np.eye(2), 0.0, 1)
    with pytest.raises(ValueError, match="rank budget"):
        approx_lowrank_prox(np.eye(2), 1.0, 0)


# ---------------------------------------------------------------------------
# Dual step


def test_dual_step_trace_single_task_matches_vector_rule():
    # with c = 1 the row-norm selection degenerates to the magnitude rule
    n, d = 10, 6
    rng = PortableRng(230)
    dense = rng.normals(n * d).reshape(n, d)
    b = rng.normals(n)
    w = rng.normals(n)
    A = SparseDesignMatrix.from_dense(dense)
    cfg = SolverConfig(radius=1.0, s=1, eta=0.5, delta=0.9, k=3)

    mstate = SolverState.zeros(n, d, 1)
    mstate.w = w.reshape(n, 1).copy()
    rows_m = dual_step_trace(mstate, cfg, A, MatrixQuadraticLoss(B=b.reshape(n, 1)))

    vstate = SolverState.zeros(n, d)
    vstate.w = w.copy()
    rows_v = dual_step_vector(vstate, cfg, A, quadratic_loss(b))

    np.testing.assert_array_equal(np.sort(rows_m), np.sort(rows_v))
    np.testing.assert_allclose(mstate.y[:, 0], vstate.y, atol=1e-14)
    np.testing.assert_allclose(mstate.z[:, 0], vstate.z, atol=1e-14)
    assert mstate.flops == vstate.flops


def test_dual_step_trace_maintains_z():
    n, d, c = 12, 7, 4
    rng = PortableRng(240)
    A = SparseDesignMatrix.from_dense(rng.normals(n * d).reshape(n, d))
    loss = MatrixQuadraticLoss(B=rng.normals(n * c).reshape(n, c))
    cfg = SolverConfig(radius=1.0, s=1, eta=0.5, delta=1.3, k=4)
    state = SolverState.zeros(n, d, c)
    for _ in range(5):
        state.w = state.w + rng.normals(n * c).reshape(n, c)
        dual_step_trace(state, cfg, A, loss)
    np.testing.assert_allclose(state.z, A.to_dense().T @ state.y, atol=1e-10)


# ---------------------------------------------------------------------------
# Primal step and joint maintenance


def test_primal_step_trace_rank_and_cache_maintenance():
    n, d, c = 20, 10, 8
    rng = PortableRng(250)
    A = SparseDesignMatrix.from_dense(rng.normals(n * d).reshape(n, d))
    loss = MatrixQuadraticLoss(B=rng.normals(n * c).reshape(n, c))
    reg = Regularizer(mu=0.3)
    cfg = _resolve(SolverConfig(radius=4.0, s=2, k=8, delta=2.0),
                   A, loss, reg)
    state = SolverState.zeros(n, d, c)
    for t in range(1, 31):
        state.iteration = t
        factor = primal_step_trace(state, cfg, A, loss, reg)
        assert factor.rank <= cfg.s
        dual_step_trace(state, cfg, A, loss)
        sv = np.linalg.svd(state.x, compute_uv=False)
        assert sv.sum() <= cfg.radius * (1 + 1e-9)
    np.testing.assert_allclose(state.w, A.to_dense() @ state.x, atol=1e-8)
    np.testing.assert_allclose(state.z, A.to_dense().T @ state.y, atol=1e-8)


def test_primal_step_trace_audit_against_exact_oracle():
    n, d, c = 15, 8, 6
    rng = PortableRng(260)
    A = SparseDesignMatrix.from_dense(rng.normals(n * d).reshape(n, d))
    loss = MatrixQuadraticLoss(B=rng.normals(n * c).reshape(n, c))
    reg = Regularizer(mu=0.5)
    cfg = _resolve(SolverConfig(radius=2.0, s=2, k=5, delta=1.0,
                                gap_tol=1e-8), A, loss, reg)
    state = SolverState.zeros(n, d, c)
    audit = []
    for t in range(1, 11):
        state.iteration = t
        primal_step_trace(state, cfg, A, loss, reg, audit=audit)
        dual_step_trace(state, cfg, A, loss)
    assert len(audit) == 10
    for rec in audit:
        assert rec.l_star <= 1e-12  # exact subproblem value is never positive
        assert rec.eps == cfg.gap_tol / 8.0
        assert rec.satisfied()


# ---------------------------------------------------------------------------
# End-to-end recovery


def test_solve_trace_recovers_planted_low_rank():
    spec = SyntheticSpec(kind="trace_sensing", n=40, d=12, c=9,
                         true_sparsity_or_rank=2, seed=13)
    ds, X0 = generate_synthetic(spec)
    radius = float(np.linalg.svd(X0, compute_uv=False).sum())
    loss = MatrixQuadraticLoss(B=ds.labels)
    reg = Regularizer(mu=0.1)
    cfg = SolverConfig(radius=radius, s=5, k=40, delta=50.0,
                       max_iters=300, gap_tol=1e-9)
    audit = []
    X, Y, trace = solve_trace(ds.matrix, loss, reg, cfg, lmo_audit=audit)
    assert trace.final.gap <= 1e-9
    assert trace.final.support == 2  # numerical rank of the solution
    assert all(rec.satisfied() for rec in audit)
    # gap column is P - D for the recorded pair throughout
    assert trace.gaps().min() >= -1e-9


def test_solve_trace_zero_targets_stop_immediately():
    A = SparseDesignMatrix.from_dense(np.eye(4))
    loss = MatrixQuadraticLoss(B=np.zeros((4, 3)))
    _, _, trace = solve_trace(A, loss, Regularizer(mu=1.0),
                              SolverConfig(radius=1.0, s=1))
    assert len(trace) == 1
    assert trace.final.gap == 0.0


def test_solve_trace_rejects_sample_mismatch():
    A = SparseDesignMatrix.from_dense(np.eye(4))
    loss = MatrixQuadraticLoss(B=np.zeros((5, 2)))
    with pytest.raises(ValueError, match="sample count"):
        solve_trace(A, loss, Regularizer(mu=1.0),
                    SolverConfig(radius=1.0, s=1))


# ---------------------------------------------------------------------------
# Configuration resolution


def test_resolve_trace_defaults():
    n, d, c = 30, 10, 6
    rng = PortableRng(270)
    A = SparseDesignMatrix.from_dense(rng.normals(n * d).reshape(n, d))
    loss = MatrixQuadraticLoss(B=rng.normals(n * c).reshape(n, c))
    reg = Regularizer(mu=0.5)
    rc = _resolve(SolverConfig(radius=1.0, s=2), A, loss, reg)
    assert rc.eta == pytest.approx(0.5)
    assert rc.k == min(n, math.ceil(n * 2 * (1 / c + 1 / d)))
    assert rc.delta > 0.0


def test_resolve_trace_rejects_oversized_rank_budget():
    A = SparseDesignMatrix.from_dense(np.eye(5))
    loss = MatrixQuadraticLoss(B=np.zeros((5, 3)))
    with pytest.raises(ValueError, match="rank budget"):
        _resolve(SolverConfig(radius=1.0, s=4), A, loss,
                 Regularizer(mu=1.0))


# ---------------------------------------------------------------------------
# Restricted spectral bound and audit record


def test_compute_r_k_small_cases():
    rng = PortableRng(280)
    A_dense = rng.normals(12).reshape(4, 3)
    A = SparseDesignMatrix.from_dense(A_dense)
    # independent enumeration of all 2-row submatrices
    import itertools
    want = max(np.linalg.norm(A_dense[list(pair)], 2) ** 2
               for pair in itertools.combinations(range(4), 2))
    assert compute_r_k(A, 2) == pytest.approx(want, rel=1e-12)
    # k = n is the full spectral norm
    assert compute_r_k(A, 4) == pytest.approx(
        np.linalg.norm(A_dense, 2) ** 2, rel=1e-10)
    # r_k is nondecreasing in k
    values = [compute_r_k(A, k) for k in (1, 2, 3, 4)]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_compute_r_k_falls_back_to_global_bound():
    rng = PortableRng(281)
    A = SparseDesignMatrix.from_dense(rng.normals(12).reshape(4, 3))
    assert compute_r_k(A, 2, exact_limit=0) == pytest.approx(
        A.spectral_norm_sq(), rel=1e-12)
    with pytest.raises(ValueError, match="k must be"):
        compute_r_k(A, 0)
    with pytest.raises(ValueError, match="k must be"):
        compute_r_k(A, 5)


def test_compute_r_k_ends_never_densify(monkeypatch):
    # k = 1 and k = n have comb(n, k) <= 2000 at any n; neither may build
    # the dense copy of a wide sparse design
    n, d = 3, 100_000
    A = SparseDesignMatrix.from_coo(
        n, d, rows=np.array([0, 0, 1, 1, 2]),
        cols=np.array([5, 70_000, 5, 99_999, 123]),
        vals=np.array([1.0, -2.0, 0.5, 1.5, 2.5]))
    sigma_max_sq = np.linalg.norm(A.to_dense(), 2) ** 2

    def refuse(self):
        raise AssertionError("to_dense called")

    monkeypatch.setattr(SparseDesignMatrix, "to_dense", refuse)
    assert compute_r_k(A, 1) == 6.25
    assert compute_r_k(A, n) == A.spectral_norm_sq()
    assert compute_r_k(A, n) == pytest.approx(sigma_max_sq, rel=1e-9)


def test_lmo_audit_record_arithmetic():
    # [TRIVIAL] l <= (1 - gamma) l* + eps
    assert LmoAuditRecord(l_value=-0.4, l_star=-0.8, gamma=0.5,
                          eps=0.0).satisfied()
    assert not LmoAuditRecord(l_value=-0.3, l_star=-0.8, gamma=0.5,
                              eps=0.0).satisfied()
    assert LmoAuditRecord(l_value=-0.35, l_star=-0.8, gamma=0.5,
                          eps=0.1).satisfied()
