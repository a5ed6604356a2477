"""Tests for the l1-ball block primal-dual solver: frozen single-step
examples, invariants of the iterates, cache maintenance, and equivalence to a
dense full-budget reference implementation.
"""

import functools
import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pdbfw import pdbfw_l1, pdbfw_trace
from pdbfw.baselines import BASELINE_KINDS, BaselineConfig, solve_baseline
from pdbfw.core_linalg import SparseDesignMatrix, project_l1_ball
from pdbfw.data_io import PortableRng, SyntheticSpec, generate_synthetic
from pdbfw.losses import (MatrixQuadraticLoss, Regularizer, quadratic_loss,
                          smooth_hinge_loss)
from pdbfw.metrics import DivergenceError, dual_objective
from pdbfw.pdbfw_l1 import (ETA, SolverConfig, SolverState, dual_step,
                            primal_step, resolve, solve)
from pdbfw.pdbfw_trace import primal_step_trace, solve_trace

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402  (perfbench/ is not a package)


def _random_instance(seed, n, d, kind="quadratic"):
    rng = PortableRng(seed)
    A = SparseDesignMatrix(rng.normals(n * d).reshape(n, d))
    if kind == "quadratic":
        loss = quadratic_loss(rng.normals(n))
    else:
        loss = smooth_hinge_loss(np.where(rng.uniforms(n) > 0.5, 1.0, -1.0))
    return A, loss


# ---------------------------------------------------------------------------
# Single steps, frozen


def test_primal_step_frozen_example():
    # [DERIVED] n=2, z=(-8,2,0), x=0, mu=L=1, eta=1/2, radius 1, s=1:
    #   c = z/n = (-4,1,0); v = -c/(L eta) = (8,-2,0);
    #   the 1-sparse prox keeps coordinate 0 clipped to the ball: (1,0,0);
    #   x <- (1-eta) x + eta x_tilde = (0.5, 0, 0); w = Ax = (0.5, 0.5)
    #   costs the 2 nonzeros of column 0.
    A = SparseDesignMatrix(np.ones((2, 3)))
    reg = Regularizer(mu=1.0)
    cfg = SolverConfig(radius=1.0, s=1, delta=1.0, k=1)
    state = SolverState.zeros(2, 3)
    state.z = np.array([-8.0, 2.0, 0.0])
    x_tilde = primal_step(state, cfg, A, reg)
    np.testing.assert_array_equal(state.x, [0.5, 0.0, 0.0])
    assert x_tilde.indices.tolist() == [0]
    np.testing.assert_array_equal(x_tilde.values, [1.0])
    np.testing.assert_array_equal(state.w, [0.5, 0.5])
    assert state.flops == 2


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30),
       d=st.integers(1, 12), c=st.integers(0, 6),
       mu=st.floats(1e-3, 1e3), scale=st.floats(-6.0, 6.0))
def test_shift_point_is_the_prox_argument_to_rounding(seed, n, d, c, mu,
                                                      scale):
    # [DERIVED] the step builds -z/(n mu ETA) - x, which is
    # x - (z/n + mu x)/(mu ETA) at ETA = 1/2. With S = (|x| + |z|/(n mu))/ETA
    # each side's roundings add to at most 4.5 eps S, so they differ by at
    # most 9 eps S (2.8 eps S in 20,000 random draws). c = 0 takes the l1
    # ball, c > 0 the trace-norm ball
    rng = PortableRng(seed)
    shape = (d, c) if c else (d,)
    x = rng.normals(d * max(c, 1)).reshape(shape)
    z = 10.0 ** scale * rng.normals(d * max(c, 1)).reshape(shape)
    A = SparseDesignMatrix(rng.normals(n * d).reshape(n, d))
    reg = Regularizer(mu=mu)
    cfg = SolverConfig(radius=1.0, s=1, k=1, delta=1.0)
    state = SolverState.zeros(n, d, c or None)
    state.x, state.z = x.copy(), z.copy()
    seen = []
    module, prox, step = ((pdbfw_trace, "approx_lowrank_prox",
                           primal_step_trace) if c else
                          (pdbfw_l1, "sparse_l1_prox", primal_step))
    inner = getattr(module, prox)

    def spy(v, *args):
        seen.append(v.copy())
        return inner(v, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, prox, spy)
        step(state, cfg, A, reg)
    want = x - (z / n + reg.grad(x)) / (mu * ETA)
    bound = 9 * np.finfo(float).eps * (np.abs(x) + np.abs(z) / (n * mu)) / ETA
    assert np.all(np.abs(seen[0] - want) <= bound)


def test_dual_step_tie_break_picks_first_rows():
    # all proximal displacements equal: the greedy rule keeps the first k
    A = SparseDesignMatrix(np.eye(4))
    loss = quadratic_loss(np.zeros(4))
    cfg = SolverConfig(radius=1.0, s=1, delta=1.0, k=2)
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
    cfg = SolverConfig(radius=1.0, s=2, delta=0.7, k=2)
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
    A = SparseDesignMatrix(np.eye(3))
    loss = quadratic_loss(np.zeros(3))
    reg = Regularizer(mu=1.0)
    x, y, trace = solve(A, loss, reg, SolverConfig(radius=1.0, s=1))
    np.testing.assert_array_equal(x, np.zeros(3))
    np.testing.assert_array_equal(y, np.zeros(3))
    assert len(trace.records) == 1
    assert trace.final.iteration == 0
    assert trace.final.gap == 0.0


def _trace_of(entry_point, max_iters, gap_tol):
    """Trace of one solver entry point on the same 12 x 8 instance; the
    trace-norm solver gets 3-column targets."""
    A, loss = _random_instance(50, 12, 8)
    reg = Regularizer(mu=0.5)
    cfg = SolverConfig(radius=2.0, s=2, max_iters=max_iters, gap_tol=gap_tol)
    if entry_point == "solve":
        return solve(A, loss, reg, cfg)[-1]
    if entry_point == "solve_trace":
        B = PortableRng(51).normals(36).reshape(12, 3)
        return solve_trace(A, MatrixQuadraticLoss(B=B), reg, cfg)[-1]
    bcfg = BaselineConfig(kind=entry_point, radius=2.0, max_iters=max_iters,
                          gap_tol=gap_tol)
    return solve_baseline(A, loss, reg, bcfg)[-1]


# every solver runs in the same loop, so all of them keep its contract
@pytest.mark.parametrize("entry_point",
                         ["solve", "solve_trace", *BASELINE_KINDS])
def test_solve_records_every_iteration_from_zero(entry_point):
    # a gap no record reaches: every step is recorded, from iteration 0
    trace = _trace_of(entry_point, max_iters=7, gap_tol=1e-300)
    assert [r.iteration for r in trace.records] == list(range(8))
    # flops are cumulative and nondecreasing
    flops = np.array([r.flops for r in trace.records])
    assert flops[0] == 0
    assert np.all(np.diff(flops) > 0)
    # a gap every record reaches: the run stops at iteration 0
    trace = _trace_of(entry_point, max_iters=7, gap_tol=math.inf)
    assert [r.iteration for r in trace.records] == [0]


def test_solve_rejects_sample_count_mismatch():
    A = SparseDesignMatrix(np.eye(3))
    loss = quadratic_loss(np.zeros(4))
    with pytest.raises(ValueError, match="sample count"):
        solve(A, loss, Regularizer(mu=1.0), SolverConfig(radius=1.0, s=1))


@pytest.mark.parametrize("entry_point",
                         ["solve", "solve_trace", *BASELINE_KINDS])
def test_a_loss_on_the_wrong_ball_is_rejected_by_name(entry_point):
    # vector targets fit the l1 ball and n x c targets the trace-norm ball;
    # every solver checks the shape before its first step
    A, vector = _random_instance(52, 6, 4)
    matrix = smooth_hinge_loss(
        np.where(PortableRng(53).uniforms(18) > 0.5, 1.0, -1.0).reshape(6, 3))
    reg = Regularizer(mu=0.5)
    cfg = SolverConfig(radius=1.0, s=1)
    if entry_point == "solve_trace":
        with pytest.raises(ValueError, match=r"the trace-norm ball needs 2-D "
                           r"targets, got targets of shape \(6,\)"):
            solve_trace(A, vector, reg, cfg)
        return
    with pytest.raises(ValueError, match=r"the l1 ball needs 1-D targets, "
                       r"got targets of shape \(6, 3\)"):
        if entry_point == "solve":
            solve(A, matrix, reg, cfg)
        else:
            solve_baseline(A, matrix, reg,
                           BaselineConfig(kind=entry_point, radius=1.0))


# ---------------------------------------------------------------------------
# Invariants along the trajectory (manual stepping through the public API)


def _box_bounds(labels):
    lo = np.where(labels > 0, -1.0, 0.0)
    hi = np.where(labels > 0, 0.0, 1.0)
    return lo, hi


def test_iterates_stay_feasible_hinge():
    A, loss = _random_instance(60, 20, 15, kind="hinge")
    reg = Regularizer(mu=0.2)
    cfg = resolve(SolverConfig(radius=1.5, s=3), A)
    state = SolverState.zeros(20, 15)
    lo, hi = _box_bounds(loss.targets)
    for t in range(1, 101):
        state.iteration = t
        x_tilde = primal_step(state, cfg, A, reg)
        dual_step(state, cfg, A, loss)
        assert np.abs(state.x).sum() <= cfg.radius * (1 + 1e-12)
        assert np.all(state.y >= lo - 1e-12)
        assert np.all(state.y <= hi + 1e-12)
        assert len(x_tilde.indices) <= cfg.s


def test_cache_maintenance_matches_dense_products():
    # w and z are maintained incrementally; compare against fresh products
    A, loss = _random_instance(70, 25, 18)
    reg = Regularizer(mu=0.4)
    cfg = resolve(SolverConfig(radius=2.0, s=4, k=6, delta=1.0), A)
    state = SolverState.zeros(25, 18)
    for t in range(1, 101):
        state.iteration = t
        primal_step(state, cfg, A, reg)
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
    assert min(r.gap for r in trace.records) >= -1e-9


# ---------------------------------------------------------------------------
# Stopping on the certificate's point x_hat = proj(-z/(n mu))


@functools.lru_cache(maxsize=None)
def _workload_problem(name, seed):
    """The benchmark workload's problem and its pdbfw config for one seed."""
    wl = workloads.WORKLOADS[name]
    problem = workloads.load(wl, workloads.generate_inputs(wl, seed))
    cfg = SolverConfig(radius=wl.radius, s=wl.s, k=wl.k, delta=wl.delta,
                       gap_tol=wl.gap_tol)
    return problem.matrix, problem.loss, problem.reg, cfg


def _solve_counting_x_hat(monkeypatch, name, seed):
    """solve() on a workload; also returns the iteration of each record
    that formed an A x_hat product."""
    A, loss, reg, cfg = _workload_problem(name, seed)
    steps, products = [], []
    dual = pdbfw_l1.dual_step
    product = pdbfw_l1._restricted_sum

    def counted_step(*args):
        steps.append(None)
        return dual(*args)

    def spy(*args):
        products.append(len(steps))
        return product(*args)

    monkeypatch.setattr(pdbfw_l1, "dual_step", counted_step)
    monkeypatch.setattr(pdbfw_l1, "_restricted_sum", spy)
    return (*solve(A, loss, reg, cfg), products)


@pytest.mark.parametrize("seed", [1, 5, 11])
def test_l1_dense_stops_on_x_hat_at_iteration_15(monkeypatch, seed):
    # x's own gap reaches 1e-8 only at iteration 21 or 22: old steps leave
    # mass that decays as 2^-t, which x_hat does not carry
    _, _, trace, products = _solve_counting_x_hat(monkeypatch, "l1_dense",
                                                  seed)
    assert trace.final.iteration == 15
    assert products == [15]
    assert trace.final.gap <= 1e-8


def test_sparse_hinge_forms_x_hat_only_at_the_stopping_record(monkeypatch):
    _, _, trace, products = _solve_counting_x_hat(
        monkeypatch, "l1_sparse_hinge", 5)
    assert products == [trace.final.iteration]


@pytest.mark.parametrize("name", ["l1_dense", "l1_sparse_hinge"])
def test_records_before_the_stop_keep_their_bits(monkeypatch, name):
    A, loss, reg, cfg = _workload_problem(name, 5)
    _, _, trace = solve(A, loss, reg, cfg)
    # an A x_hat shifted by 1e3 never certifies, at the same flop charge
    product = pdbfw_l1._restricted_sum
    monkeypatch.setattr(pdbfw_l1, "_restricted_sum",
                        lambda *args: product(*args) + 1e3)
    x_iterate, _, kept = solve(A, loss, reg, cfg)

    def fields(r):
        return (r.iteration, r.primal, r.dual, r.gap, r.flops, r.support)

    assert len(kept.records) >= len(trace.records)
    assert ([fields(r) for r in trace.records[:-1]]
            == [fields(r) for r in kept.records[:len(trace.records) - 1]])
    # the iterate carries more coordinates than x_hat at the same gap
    assert kept.final.support == np.count_nonzero(x_iterate)
    assert kept.final.support > trace.final.support


def _split_gaps(A, loss, reg, radius, steps, s, k):
    """(G, FY, inner gap, |P| + |D|) at each of `steps` iterates of the
    solver's own steps: G = P(x) - D(y), FY = (1/n) sum_i f_i(w_i) +
    f_i*(y_i) - y_i w_i, inner gap = g(x) + <z, x>/n - min over the ball."""
    rc = resolve(SolverConfig(radius=radius, s=s, k=k), A)
    state = SolverState.zeros(A.n_rows, A.n_cols)
    n = A.n_rows
    out = []
    for _ in range(steps):
        primal_step(state, rc, A, reg)
        dual_step(state, rc, A, loss)
        value = loss.mean_value(state.w)
        P = value + reg.value(state.x)
        D = dual_objective(A, loss, reg, state.y, radius, state.z)
        fy = value + (loss.conjugate_sum(state.y)
                      - np.dot(state.y, state.w)) / n
        x_hat = project_l1_ball(-state.z / (n * reg.mu), radius)
        inner = (reg.value(state.x) + np.dot(state.z, state.x) / n
                 - reg.value(x_hat) - np.dot(state.z, x_hat) / n)
        out.append((P - D, fy, inner, abs(P) + abs(D)))
    return out


@pytest.mark.parametrize("kind", ["quadratic", "hinge"])
@pytest.mark.parametrize("radius", [0.5, 50.0])
def test_gap_splits_into_fenchel_young_and_inner_gaps(kind, radius):
    # <y, w>/n = <z, x>/n in exact arithmetic, so G = FY + inner gap; the
    # caches w = Ax and z = A'y, the threshold's sums and the dots each
    # round to a few ulps of |P| + |D|, well inside a thousand
    A, loss = _random_instance(31, 60, 40, kind)
    reg = Regularizer(mu=0.2)
    for gap, fy, inner, scale in _split_gaps(A, loss, reg, radius, 40, 8, 15):
        bound = 1e3 * np.finfo(float).eps * scale
        assert abs(gap - fy - inner) <= bound
        assert fy >= -bound and inner >= -bound


@pytest.mark.parametrize("name, seed", [("l1_dense", 1), ("l1_dense", 5),
                                        ("l1_dense", 11),
                                        ("l1_sparse_hinge", 5)])
def test_returned_x_is_the_certified_point_the_final_record_describes(
        name, seed):
    A, loss, reg, cfg = _workload_problem(name, seed)
    x, _, trace = solve(A, loss, reg, cfg)
    final = trace.final
    assert np.abs(x).sum() <= cfg.radius * (1.0 + x.size * np.finfo(float).eps)
    assert final.gap <= cfg.gap_tol
    assert final.support == np.count_nonzero(x)
    primal = loss.mean_value(A.matvec(x)) + reg.value(x)
    assert primal == pytest.approx(final.primal, rel=1e-14)


@pytest.mark.parametrize("name, seed", [("l1_dense", 5), ("l1_dense", 11),
                                        ("l1_sparse_hinge", 5)])
def test_support_holds_every_feature_the_gap_resolves(name, seed):
    # P is mu-strongly convex, so ||x - x*|| <= sqrt(2 G / mu) for a point
    # certified at gap G; a reference x_ref at gap G_ref is as close. Every
    # feature with |x_ref_j| above the sum is nonzero in x. (Not every
    # reference feature is: at seed 11 on l1_dense one lies below it.)
    A, loss, reg, cfg = _workload_problem(name, seed)
    x, _, trace = solve(A, loss, reg, cfg)
    x_ref, ref = solve_baseline(A, loss, reg, BaselineConfig(
        kind="acc_pgd", radius=cfg.radius, max_iters=5000, gap_tol=1e-12))
    assert ref.final.gap <= 1e-12
    resolution = (math.sqrt(2.0 * max(trace.final.gap, 0.0) / reg.mu)
                  + math.sqrt(2.0 * max(ref.final.gap, 0.0) / reg.mu))
    resolved = np.abs(x_ref) > resolution * (1.0 + 1e-6)
    assert resolved.sum() > 100
    assert np.all(x[resolved] != 0.0)


# ---------------------------------------------------------------------------
# Full-budget equivalence to a dense reference


def _dense_reference(A_dense, b, reg, radius, eta, delta, iters):
    """Same algorithm at s=d, k=n written with dense numpy throughout."""
    n, d = A_dense.shape
    x = np.zeros(d)
    y = np.zeros(n)
    for _ in range(iters):
        c = A_dense.T @ y / n + reg.mu * x
        v = x - c / (reg.mu * eta)
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
    A = SparseDesignMatrix(A_dense)
    loss = quadratic_loss(b)
    reg = Regularizer(mu=0.6)
    cfg = SolverConfig(radius=1.2, s=d, k=n, delta=0.8,
                       max_iters=50, gap_tol=-1.0)
    x, y, _ = solve(A, loss, reg, cfg)
    x_ref, y_ref = _dense_reference(A_dense, b, reg, 1.2, 0.5, 0.8, 50)
    np.testing.assert_allclose(x, x_ref, rtol=0, atol=1e-9)
    np.testing.assert_allclose(y, y_ref, rtol=0, atol=1e-9)


# ---------------------------------------------------------------------------
# Divergence surfacing


class _PoisonedLoss:
    """Quadratic-loss stand-in whose objective turns NaN mid-run."""

    def __init__(self, n, poison_after):
        self.n = n
        self.targets = np.zeros(n)  # vector targets: the l1 ball's shape
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
    A = SparseDesignMatrix(PortableRng(95).normals(12).reshape(4, 3))
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
    A, _ = _random_instance(99, 20, 10)
    rc = resolve(SolverConfig(radius=1.0, s=3), A)
    assert ETA == 0.5  # mu/(2L) with L = mu
    assert rc.k == math.ceil(20 * 3 / 10)
    assert rc.delta == 20.0  # n, the sample count


def test_default_steps_certify_the_sweep_grid():
    # k and delta left unset on every mu = 10/n instance of a seeded grid:
    # two shapes, an interior and a binding radius, both losses, two seeds
    failed = []
    for (n, d), radius, kind, seed in itertools.product(
            [(200, 400), (400, 100)], [1.0, 100.0],
            ["quadratic", "smooth_hinge"], [1, 2]):
        ds, _ = generate_synthetic(SyntheticSpec(
            kind="sparse_regression", n=n, d=d, true_sparsity_or_rank=10,
            noise_level=0.1, seed=seed))
        loss = (quadratic_loss(ds.labels) if kind == "quadratic" else
                smooth_hinge_loss(np.where(ds.labels >= 0.0, 1.0, -1.0)))
        _, _, trace = solve(ds.matrix, loss, Regularizer(mu=10.0 / n),
                            SolverConfig(radius=radius, s=d, max_iters=1000,
                                         gap_tol=1e-8))
        if not trace.final.gap <= 1e-8:
            failed.append((n, d, radius, kind, seed, trace.final.gap))
    assert not failed, failed


def test_resolve_respects_overrides():
    A, _ = _random_instance(99, 20, 10)
    rc = resolve(SolverConfig(radius=1.0, s=3, k=7, delta=2.0), A)
    assert (rc.k, rc.delta) == (7, 2.0)


def test_resolve_rejects_oversized_budgets():
    A, _ = _random_instance(99, 8, 5)
    with pytest.raises(ValueError, match="exceeds feature dimension"):
        resolve(SolverConfig(radius=1.0, s=6), A)
    with pytest.raises(ValueError, match="exceeds sample count"):
        resolve(SolverConfig(radius=1.0, s=1, k=9), A)


@pytest.mark.parametrize("kwargs", [
    dict(radius=0.0, s=1),
    dict(radius=-1.0, s=1),
    dict(radius=1.0, s=0),
    dict(radius=math.inf, s=1),
    dict(radius=1.0, s=1, delta=-1.0),
    dict(radius=1.0, s=1, delta=0.0),
    dict(radius=1.0, s=1, k=0),
    dict(radius=1.0, s=1, max_iters=-1),
    dict(radius=math.nan, s=1),
    dict(radius=1.0, s=-1),
    dict(radius=1.0, s=1, delta=math.nan),
    dict(radius=1.0, s=1, gap_tol=math.nan),
    dict(radius=1.0, s=1, delta=math.inf),
    dict(radius=1.0, s=2.5),
    dict(radius=1.0, s=2.0),
    dict(radius=1.0, s=1, k=2.5),
    dict(radius=1.0, s=1, max_iters=2.0),
    dict(radius=1.0, s=True),
    dict(radius=1.0, s=1, k=True),
    dict(radius=1.0, s=1, max_iters=True),
    dict(radius=1.0, s=1, max_iters=False),
    dict(radius=True, s=1),
    dict(radius=1.0, s=1, delta=True),
    dict(radius=1.0, s=1, gap_tol=True),
    dict(radius=np.True_, s=1),
    dict(radius=1.0, s=1, delta=np.True_),
    dict(radius=1.0, s=1, gap_tol=np.False_),
    dict(radius=1.0, s=np.True_),
])
def test_solver_config_validation(kwargs):
    with pytest.raises(ValueError):
        SolverConfig(**kwargs)


def test_configs_accept_numpy_integers():
    cfg = SolverConfig(radius=1.0, s=np.int64(2), k=np.int32(3),
                       max_iters=np.uint16(4))
    assert (cfg.s, cfg.k, cfg.max_iters) == (2, 3, 4)
    bcfg = BaselineConfig(kind="svrg", radius=1.0, max_iters=np.int64(4),
                          seed=np.uint32(5), record_every=np.int8(2))
    assert (bcfg.max_iters, bcfg.seed, bcfg.record_every) == (4, 5, 2)


def test_solver_config_has_no_step_size_field():
    # the primal step is the constant ETA, not a setting
    with pytest.raises(TypeError):
        SolverConfig(radius=1.0, s=1, eta=0.5)


@pytest.mark.parametrize("bad", [
    dict(radius=0.0), dict(radius=math.inf), dict(radius=math.nan),
    dict(max_iters=-1), dict(gap_tol=math.nan), dict(max_iters=2.0),
    dict(radius=True), dict(gap_tol=True), dict(radius=np.True_),
    dict(gap_tol=np.True_), dict(max_iters=np.True_),
], ids=["radius_zero", "radius_inf", "radius_nan", "max_iters", "gap_tol",
        "max_iters_float", "radius_bool", "gap_tol_bool", "radius_numpy_bool",
        "gap_tol_numpy_bool", "max_iters_numpy_bool"])
def test_both_configs_reject_shared_settings_alike(bad):
    # the block solvers' and the reference solvers' configs share one check
    settings = {"radius": 1.0, **bad}
    with pytest.raises(ValueError) as block:
        SolverConfig(s=1, **settings)
    with pytest.raises(ValueError) as reference:
        BaselineConfig(kind="fw", **settings)
    assert str(block.value) == str(reference.value)
