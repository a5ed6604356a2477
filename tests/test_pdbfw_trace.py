"""Tests for the trace-norm-ball solver: the rank-s spectral prox against a
dense-SVD oracle, the greedy row dual step, cache maintenance, audited prox
calls, and end-to-end recovery of a planted low-rank matrix."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from pdbfw.core_linalg import SparseDesignMatrix
from pdbfw.data_io import PortableRng, SyntheticSpec, generate_synthetic
from pdbfw.losses import MatrixQuadraticLoss, Regularizer, quadratic_loss
from pdbfw.metrics import project_nuclear_ball
from pdbfw.pdbfw_l1 import SolverConfig, SolverState, resolve
from pdbfw.pdbfw_l1 import dual_step as dual_step_vector
from pdbfw import metrics, pdbfw_trace
from pdbfw.pdbfw_trace import (ApproximationError, LowRankFactor,
                               approx_lowrank_prox, dual_step_trace,
                               primal_step_trace, solve_trace)

from lowrank_audit import (ProxAudit, audit_prox_calls,
                           exact_lowrank_prox_dense)


def _spectrum_matrix(rng, d, c, spectrum):
    """Matrix with prescribed singular values and random orthogonal factors."""
    r = len(spectrum)
    U, _ = np.linalg.qr(rng.normals(d * r).reshape(d, r))
    V, _ = np.linalg.qr(rng.normals(c * r).reshape(c, r))
    return (U * np.asarray(spectrum)) @ V.T


# ---------------------------------------------------------------------------
# LowRankFactor


def test_zero_factor():
    # a zero M gives the rank-0 factor, which hands its start block on
    given = np.eye(3)
    for start, block in ((None, pdbfw_trace._power_start(3, 3)),
                         (given, given)):
        f = approx_lowrank_prox(np.zeros((4, 3)), 1.0, 2, start)
        assert f.rank == 0
        assert f.singular.sum() == 0.0
        np.testing.assert_array_equal(f.to_dense(), np.zeros((4, 3)))
        assert f.block is block


def test_factor_dense_reconstruction():
    # [TRIVIAL] left diag(singular) right'
    f = LowRankFactor(left=np.array([[1.0], [0.0]]),
                      singular=np.array([2.0]),
                      right=np.array([[0.0], [1.0], [0.0]]))
    np.testing.assert_array_equal(f.to_dense(),
                                  [[0.0, 2.0, 0.0], [0.0, 0.0, 0.0]])
    assert f.singular.sum() == 2.0


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
    assert f.singular.sum() <= 4.0 * (1 + 1e-12)


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
        want = exact_lowrank_prox_dense(M, radius, s)
        np.testing.assert_allclose(got, want, atol=1e-8)


def test_exact_prox_with_full_rank_budget_is_nuclear_projection():
    # cross-validates the two oracles against each other
    rng = PortableRng(220)
    M = rng.normals(30).reshape(6, 5) * 2.0
    np.testing.assert_allclose(
        exact_lowrank_prox_dense(M, 3.0, 5),
        project_nuclear_ball(M, 3.0), atol=1e-12)


def test_approx_prox_budget_clamped_to_shape():
    M = np.diag([3.0, 1.0])
    f = approx_lowrank_prox(M, 10.0, 7)  # s > min(d, c): clamp, keep all
    np.testing.assert_allclose(f.to_dense(), M, atol=1e-9)


def test_approx_prox_sweep_budget_failure(monkeypatch):
    # a slowly decaying spectrum cannot certify in a single sweep
    M = PortableRng(1234).normals(144).reshape(12, 12)
    monkeypatch.setattr(pdbfw_trace, "POWER_MAX_SWEEPS", 1)
    with pytest.raises(ApproximationError) as exc:
        approx_lowrank_prox(M, 1.0, 2)
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


def test_approx_prox_warm_start_is_a_pure_argument():
    # the same (M, radius, s, start) twice gives the same bits, the start
    # block is not written to, and the warm result is still the prox
    rng = PortableRng(235)
    M = _spectrum_matrix(rng, 12, 10, [5.0, 3.0, 1.0, 0.5, 0.2, 0.1])
    nearby = M + 1e-3 * rng.normals(120).reshape(12, 10)
    start = approx_lowrank_prox(nearby, 4.0, 3).block
    assert start.shape == (10, 3 + pdbfw_trace.POWER_OVERSAMPLE)
    kept = start.copy()
    f = approx_lowrank_prox(M, 4.0, 3, start)
    g = approx_lowrank_prox(M, 4.0, 3, start)
    for attr in ("left", "singular", "right", "block"):
        assert np.array_equal(getattr(f, attr), getattr(g, attr))
    assert np.array_equal(start, kept)
    np.testing.assert_allclose(f.to_dense(),
                               exact_lowrank_prox_dense(M, 4.0, 3), atol=1e-8)


def test_approx_prox_validation():
    with pytest.raises(ValueError, match="radius"):
        approx_lowrank_prox(np.eye(2), 0.0, 1)
    with pytest.raises(ValueError, match="radius must be positive"):
        approx_lowrank_prox(np.eye(2), np.nan, 1)
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
    A = SparseDesignMatrix(dense)
    cfg = SolverConfig(radius=1.0, s=1, delta=0.9, k=3)

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
    A = SparseDesignMatrix(rng.normals(n * d).reshape(n, d))
    loss = MatrixQuadraticLoss(B=rng.normals(n * c).reshape(n, c))
    cfg = SolverConfig(radius=1.0, s=1, delta=1.3, k=4)
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
    A = SparseDesignMatrix(rng.normals(n * d).reshape(n, d))
    loss = MatrixQuadraticLoss(B=rng.normals(n * c).reshape(n, c))
    reg = Regularizer(mu=0.3)
    cfg = resolve(SolverConfig(radius=4.0, s=2, k=8, delta=2.0), A, c)
    state = SolverState.zeros(n, d, c)
    for t in range(1, 31):
        state.iteration = t
        factor = primal_step_trace(state, cfg, A, reg)
        assert factor.rank <= cfg.s
        dual_step_trace(state, cfg, A, loss)
        sv = np.linalg.svd(state.x, compute_uv=False)
        assert sv.sum() <= cfg.radius * (1 + 1e-9)
    np.testing.assert_allclose(state.w, A.to_dense() @ state.x, atol=1e-8)
    np.testing.assert_allclose(state.z, A.to_dense().T @ state.y, atol=1e-8)


@pytest.mark.parametrize("sparse", [False, True])
def test_primal_step_trace_zero_shift_adds_exact_zeros(sparse):
    # at X = Z = 0 the rank-0 factor's empty products leave X and W +0.0,
    # bit for bit, charge no flops and hand the start block on
    n, d, c = 6, 5, 4
    dense = PortableRng(255).normals(n * d).reshape(n, d)
    if sparse:
        dense[::2, 1::2] = 0.0  # not fully stored: the sparse route
    A = SparseDesignMatrix(dense)
    assert (A._dense_rows is None) == sparse
    cfg = resolve(SolverConfig(radius=2.0, s=2), A, c)
    state = SolverState.zeros(n, d, c)
    start = pdbfw_trace._power_start(c, 4)
    factor = primal_step_trace(state, cfg, A, Regularizer(mu=0.5), start)
    assert factor.rank == 0 and factor.block is start
    assert np.all(state.x.view(np.int64) == 0)
    assert np.all(state.w.view(np.int64) == 0)
    assert state.flops == 0


def test_primal_step_trace_audit_against_exact_oracle(monkeypatch):
    n, d, c = 15, 8, 6
    rng = PortableRng(260)
    A = SparseDesignMatrix(rng.normals(n * d).reshape(n, d))
    loss = MatrixQuadraticLoss(B=rng.normals(n * c).reshape(n, c))
    reg = Regularizer(mu=0.5)
    cfg = resolve(SolverConfig(radius=2.0, s=2, k=5, delta=1.0, gap_tol=1e-8),
                  A, c)
    state = SolverState.zeros(n, d, c)
    audit = audit_prox_calls(monkeypatch)
    for t in range(1, 11):
        state.iteration = t
        pdbfw_trace.primal_step_trace(state, cfg, A, reg)
        dual_step_trace(state, cfg, A, loss)
    assert len(audit) == 10
    for rec in audit:
        assert rec.exact <= 1e-12  # exact subproblem value is never positive
        assert rec.satisfied(0.5, cfg.gap_tol / 8.0)


# ---------------------------------------------------------------------------
# End-to-end recovery


def test_solve_trace_recovers_planted_low_rank(monkeypatch):
    spec = SyntheticSpec(kind="trace_sensing", n=40, d=12, c=9,
                         true_sparsity_or_rank=2, seed=13)
    ds, X0 = generate_synthetic(spec)
    radius = float(np.linalg.svd(X0, compute_uv=False).sum())
    loss = MatrixQuadraticLoss(B=ds.labels)
    reg = Regularizer(mu=0.1)
    cfg = SolverConfig(radius=radius, s=5, k=40, delta=50.0,
                       max_iters=300, gap_tol=1e-9)
    audit = audit_prox_calls(monkeypatch)
    X, Y, trace = solve_trace(ds.matrix, loss, reg, cfg)
    assert trace.final.gap <= 1e-9
    assert trace.final.support == 2  # numerical rank of the solution
    assert len(audit) == trace.final.iteration
    assert all(rec.satisfied(0.5, cfg.gap_tol / 8.0) for rec in audit)
    # gap column is P - D for the recorded pair throughout
    assert min(r.gap for r in trace.records) >= -1e-9


def _spied_record_spectra(monkeypatch):
    """The record spectra of the solves that follow, in order of creation.
    Each one's `calls` holds, per call, the (block width, rank count or
    None on a miss) of every range sketch the call made."""
    spectra, in_call, sketch = [], [], metrics._sketched_singular_values

    def spy(M, block):
        sv = sketch(M, block)
        in_call[-1].append((block.shape[1], None if sv is None
                            else metrics.rank_count(sv, M.shape)))
        return sv

    class Spied(metrics.SketchedSpectrum):
        def __init__(self, block):
            super().__init__(block)
            self.calls = []
            spectra.append(self)

        def __call__(self, M):
            self.calls.append([])
            in_call.append(self.calls[-1])
            return super().__call__(M)

    monkeypatch.setattr(metrics, "_sketched_singular_values", spy)
    monkeypatch.setattr(pdbfw_trace, "SketchedSpectrum", Spied)
    return spectra


@pytest.mark.parametrize("noise, max_iters", [(0.0, 300), (1e-3, 20)])
def test_solve_trace_sketched_records_match_full_svd(monkeypatch, noise,
                                                     max_iters):
    # the sketch only replaces the two records' SVDs, so every column but
    # dual and gap repeats bit for bit, and those agree to rounding. Noise
    # makes C = -Z/(n mu) and then X full rank: each record function misses
    # once on the whole block, after at most one miss at a narrowed width,
    # and keeps the full SVD for the rest of the run
    spec = SyntheticSpec(kind="trace_sensing", n=60, d=40, c=30,
                         true_sparsity_or_rank=3, noise_level=noise, seed=0)
    ds, _ = generate_synthetic(spec)
    loss = MatrixQuadraticLoss(B=ds.labels)
    reg = Regularizer(mu=10.0 / 60)
    cfg = SolverConfig(radius=10.0, s=5, k=30, delta=100.0,
                       max_iters=max_iters, gap_tol=1e-8)
    spectra = _spied_record_spectra(monkeypatch)
    X, Y, sketched = solve_trace(ds.matrix, loss, reg, cfg)
    monkeypatch.setattr(metrics, "_sketched_singular_values",
                        lambda M, block: None)
    X_full, Y_full, full = solve_trace(ds.matrix, loss, reg, cfg)

    sketches = [[sketch for call in spectrum.calls for sketch in call]
                for spectrum in spectra[:2]]
    hits = [count is not None for run in sketches for _, count in run]
    if noise:
        for run in sketches:
            whole = run[0][0]
            misses = [width for width, count in run if count is None]
            assert misses.count(whole) == 1
            assert len(misses) <= 2
    else:
        assert sketched.final.gap <= cfg.gap_tol
        assert hits.count(True) == 2 * len(sketched.records)
    np.testing.assert_array_equal(X, X_full)
    np.testing.assert_array_equal(Y, Y_full)
    assert len(sketched.records) == len(full.records)
    for got, want in zip(sketched.records, full.records):
        assert (got.iteration, got.flops, got.support, got.primal) == \
            (want.iteration, want.flops, want.support, want.primal)
        scale = max(abs(want.primal), abs(want.dual))
        assert abs(got.dual - want.dual) <= 1e-12 * scale
        assert abs(got.gap - want.gap) <= 1e-12 * scale


def test_record_sketches_narrow_to_the_rank_on_the_benchmark_shape(
        monkeypatch):
    # [MEASURED] the shape of the benchmark's trace_lowrank workload: both
    # record matrices reach rank 10 against a block of s + 4 = 20 columns.
    # Once a sketch has found a nonzero rank, every later one of the same
    # record takes count + 4 columns and hits, and no record needs the
    # full SVD
    spec = SyntheticSpec(kind="trace_sensing", n=200, d=150, c=100,
                         true_sparsity_or_rank=10, noise_level=0.0, seed=5)
    ds, _ = generate_synthetic(spec)
    cfg = SolverConfig(radius=40.0, s=16, k=100, delta=100.0, gap_tol=1e-8)
    spectra = _spied_record_spectra(monkeypatch)

    def refuse(M):
        raise AssertionError("a record took the full SVD")

    monkeypatch.setattr(metrics, "_full_singular_values", refuse)
    _, _, trace = solve_trace(ds.matrix, MatrixQuadraticLoss(B=ds.labels),
                              Regularizer(mu=10.0 / 200), cfg)
    assert trace.final.gap <= cfg.gap_tol
    assert len(spectra) == 2
    for spectrum in spectra:
        assert len(spectrum.calls) == len(trace.records)
        assert spectrum.calls[0] == [(20, 0)]
        found = 0
        for call in spectrum.calls:
            if found:
                assert len(call) == 1 and call[0][0] <= found + 4
            found = call[-1][1] or found
        assert spectrum.calls[-1] == [(14, 10)]


@pytest.mark.parametrize("noise", [1e-3, 0.03])
def test_solve_trace_noisy_instances_certify_in_few_sweeps(monkeypatch,
                                                           noise):
    # [MEASURED] on the benchmark's trace shape the warm-started prox made
    # 3.4 (noise 1e-3) and 4.8 (noise 0.03) sweeps per call at seed 5; from
    # the fixed start block it made about 79 per call at 1e-3 and hit the
    # 100-sweep cap at 0.03. Counts, not seconds.
    spec = SyntheticSpec(kind="trace_sensing", n=200, d=150, c=100,
                         true_sparsity_or_rank=10, noise_level=noise, seed=5)
    ds, _ = generate_synthetic(spec)
    cfg = SolverConfig(radius=40.0, s=16, k=100, delta=100.0, gap_tol=1e-8)
    audit = audit_prox_calls(monkeypatch)
    sweeps = []
    sweep = pdbfw_trace.range_svd

    def counted(*args, **kwargs):
        sweeps.append(None)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(pdbfw_trace, "range_svd", counted)
    _, _, trace = solve_trace(ds.matrix, MatrixQuadraticLoss(B=ds.labels),
                              Regularizer(mu=10.0 / 200), cfg)
    assert trace.final.gap <= cfg.gap_tol
    assert len(audit) == trace.final.iteration
    assert all(rec.satisfied(0.5, cfg.gap_tol / 8.0) for rec in audit)
    assert len(sweeps) <= 6 * len(audit)


def test_solve_trace_runs_share_no_warm_block():
    # the warm block lives in one solve: a run in between changes no bit
    def run(seed):
        spec = SyntheticSpec(kind="trace_sensing", n=40, d=12, c=9,
                             true_sparsity_or_rank=2, noise_level=1e-3,
                             seed=seed)
        ds, _ = generate_synthetic(spec)
        return solve_trace(ds.matrix, MatrixQuadraticLoss(B=ds.labels),
                           Regularizer(mu=0.25),
                           SolverConfig(radius=5.0, s=3, max_iters=30))

    first = run(13)
    run(14)
    again = run(13)
    np.testing.assert_array_equal(first[0], again[0])
    np.testing.assert_array_equal(first[1], again[1])
    assert len(first[2].records) == len(again[2].records)
    for got, want in zip(first[2].records, again[2].records):
        assert replace(got, elapsed_seconds=0.0) == \
            replace(want, elapsed_seconds=0.0)


def test_solve_trace_draws_the_power_start_once(monkeypatch):
    # the records' block starts the first prox; its zero shift hands the
    # block on, so no later prox draws a start of its own
    drawn = []
    power_start = pdbfw_trace._power_start

    def spy(c, b):
        drawn.append((c, b))
        return power_start(c, b)

    monkeypatch.setattr(pdbfw_trace, "_power_start", spy)
    spec = SyntheticSpec(kind="trace_sensing", n=40, d=12, c=9,
                         true_sparsity_or_rank=2, seed=13)
    ds, _ = generate_synthetic(spec)
    _, _, trace = solve_trace(ds.matrix, MatrixQuadraticLoss(B=ds.labels),
                              Regularizer(mu=0.25),
                              SolverConfig(radius=5.0, s=3, max_iters=30))
    assert trace.final.iteration >= 2
    assert drawn == [(9, 7)]


def test_solve_trace_zero_targets_stop_immediately():
    A = SparseDesignMatrix(np.eye(4))
    loss = MatrixQuadraticLoss(B=np.zeros((4, 3)))
    _, _, trace = solve_trace(A, loss, Regularizer(mu=1.0),
                              SolverConfig(radius=1.0, s=1))
    assert len(trace.records) == 1
    assert trace.final.gap == 0.0


def test_solve_trace_rejects_sample_mismatch():
    A = SparseDesignMatrix(np.eye(4))
    loss = MatrixQuadraticLoss(B=np.zeros((5, 2)))
    with pytest.raises(ValueError, match="sample count"):
        solve_trace(A, loss, Regularizer(mu=1.0),
                    SolverConfig(radius=1.0, s=1))


# ---------------------------------------------------------------------------
# Configuration resolution


def test_resolve_trace_defaults():
    n, d, c = 30, 10, 6
    rng = PortableRng(270)
    A = SparseDesignMatrix(rng.normals(n * d).reshape(n, d))
    rc = resolve(SolverConfig(radius=1.0, s=2), A, c)
    assert rc.k == min(n, math.ceil(n * 2 * (1 / c + 1 / d)))
    assert rc.delta == float(n)


def test_default_steps_certify_the_trace_sweep_grid():
    # everything but s and mu = 10/n left at its default, on planted rank-3
    # instances of two shapes, at a binding radius (half the planted
    # trace norm) and at radius 30
    failed = []
    for (n, d, c), seed, binding in itertools.product(
            [(200, 100, 20), (60, 40, 30)], range(4), [True, False]):
        ds, X0 = generate_synthetic(SyntheticSpec(
            kind="trace_sensing", n=n, d=d, c=c, true_sparsity_or_rank=3,
            seed=seed))
        radius = (0.5 * np.linalg.svd(X0, compute_uv=False).sum()
                  if binding else 30.0)
        _, _, trace = solve_trace(ds.matrix, MatrixQuadraticLoss(B=ds.labels),
                                  Regularizer(mu=10.0 / n),
                                  SolverConfig(radius=radius, s=min(10, d, c)))
        if not trace.final.gap <= 1e-8:
            failed.append((n, d, c, seed, radius, trace.final.gap))
    assert not failed, failed


def test_resolve_trace_rejects_oversized_rank_budget():
    A = SparseDesignMatrix(np.eye(5))
    with pytest.raises(ValueError, match="rank budget"):
        resolve(SolverConfig(radius=1.0, s=4), A, 3)


# ---------------------------------------------------------------------------
# Prox audit record


def test_lmo_audit_record_arithmetic():
    # [TRIVIAL] l <= (1 - gamma) l* + eps
    assert ProxAudit(value=-0.4, exact=-0.8).satisfied(0.5, 0.0)
    assert not ProxAudit(value=-0.3, exact=-0.8).satisfied(0.5, 0.0)
    assert ProxAudit(value=-0.35, exact=-0.8).satisfied(0.5, 0.1)
