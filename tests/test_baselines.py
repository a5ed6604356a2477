"""Tests for the reference solvers (Frank-Wolfe, accelerated projected
gradient, prox-SVRG): trivial fixed points, a hand-checked one-dimensional
boundary instance, reduction of single-sample SVRG to projected gradient,
determinism, feasibility, trace thinning, frozen bits, and the count of
full passes over the design."""

import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from pdbfw import baselines
from pdbfw.baselines import (BASELINE_KINDS, BaselineConfig, solve_baseline,
                             total_smoothness)
from pdbfw.core_linalg import SparseDesignMatrix, project_l1_ball
from pdbfw.data_io import PortableRng
from pdbfw.losses import Regularizer, quadratic_loss, smooth_hinge_loss


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
    (dict(kind="svrg", radius=1.0, seed=False), "seed must be an integer"),
    (dict(kind="fw", radius=1.0, record_every=True),
     "record_every must be an integer"),
    (dict(kind="fw", radius=1.0, max_iters=True),
     "max_iters must be an integer"),
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
    x, trace = solve_baseline(A, loss, Regularizer(mu=1.0), cfg)
    np.testing.assert_array_equal(x, np.zeros(3))
    assert len(trace.records) == 1  # gap 0 at iteration 0 stops immediately
    assert trace.final.gap == 0.0


def test_fw_one_dimensional_boundary_optimum():
    # [DERIVED] a = 1, b = 2, mu = 1: unconstrained optimum 1.0 sits outside
    # the ball of radius 0.5, so x* = 0.5 and
    # P* = (0.5 - 2)^2/2 + 0.5 * 0.25 = 1.25. The first step (eta = 1) lands
    # exactly on the optimal vertex.
    A = SparseDesignMatrix(np.array([[1.0]]))
    loss = quadratic_loss(np.array([2.0]))
    cfg = BaselineConfig(kind="fw", radius=0.5, max_iters=500, gap_tol=1e-12)
    x, trace = solve_baseline(A, loss, Regularizer(mu=1.0), cfg)
    np.testing.assert_allclose(x, [0.5], atol=1e-12)
    assert trace.final.primal == pytest.approx(1.25, abs=1e-12)
    assert trace.final.gap <= 1e-12


def test_acc_pgd_reaches_tight_gap_early():
    A, loss = _random_instance(300, 30, 12)
    cfg = BaselineConfig(kind="acc_pgd", radius=1.5, max_iters=2000,
                         gap_tol=1e-8)
    _, trace = solve_baseline(A, loss, Regularizer(mu=0.5), cfg)
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
    x, _ = solve_baseline(A, loss, reg, cfg)

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
    x1, tr1 = solve_baseline(A, loss, reg, cfg)
    x2, tr2 = solve_baseline(A, loss, reg, cfg)
    np.testing.assert_array_equal(x1, x2)
    assert [r.primal for r in tr1.records] == [r.primal for r in tr2.records]


def test_svrg_seed_changes_trajectory():
    A, loss = _random_instance(310, 25, 10)
    reg = Regularizer(mu=0.3)
    base = dict(kind="svrg", radius=1.0, max_iters=5, gap_tol=1e-16)
    x1, _ = solve_baseline(A, loss, reg, BaselineConfig(seed=0, **base))
    x2, _ = solve_baseline(A, loss, reg, BaselineConfig(seed=1, **base))
    assert not np.array_equal(x1, x2)


# ---------------------------------------------------------------------------
# Shared behavior


@pytest.mark.parametrize("kind", BASELINE_KINDS)
def test_iterates_feasible_and_gaps_nonnegative(kind):
    A, loss = _random_instance(301, 30, 12, kind="hinge")
    cfg = BaselineConfig(kind=kind, radius=1.0, max_iters=60, gap_tol=1e-14)
    x, trace = solve_baseline(A, loss, Regularizer(mu=0.5), cfg)
    assert np.abs(x).sum() <= 1.0 * (1 + 1e-9)
    # plug-in dual certificate lies in the conjugate box: weak duality holds
    assert min(r.gap for r in trace.records) >= -1e-9


def test_record_every_thins_trace():
    A, loss = _random_instance(320, 20, 8)
    cfg = BaselineConfig(kind="fw", radius=1.0, max_iters=10, gap_tol=1e-16,
                         record_every=3)
    _, trace = solve_baseline(A, loss, Regularizer(mu=0.5), cfg)
    assert [r.iteration for r in trace.records] == [0, 3, 6, 9, 10]


@pytest.mark.parametrize("kind", BASELINE_KINDS)
def test_dispatch_matches_direct_call(kind, monkeypatch):
    # the run builds the step of cfg.kind's builder and of no other one
    A, loss = _random_instance(330, 15, 6)
    reg = Regularizer(mu=0.5)
    cfg = BaselineConfig(kind=kind, radius=1.0, max_iters=8, gap_tol=1e-16)
    x_direct, tr_direct = solve_baseline(A, loss, reg, cfg)
    built = []

    def spy(name, builder):
        def build(*args):
            built.append(name)
            return builder(*args)
        return build

    for name in BASELINE_KINDS:
        monkeypatch.setattr(baselines, f"_{name}",
                            spy(name, getattr(baselines, f"_{name}")))
    x_disp, tr_disp = solve_baseline(A, loss, reg, cfg)
    assert built == [kind]
    np.testing.assert_array_equal(x_direct, x_disp)
    assert [r.primal for r in tr_direct.records] == \
        [r.primal for r in tr_disp.records]


@pytest.mark.parametrize("kind", BASELINE_KINDS)
def test_sample_count_mismatch_raises(kind):
    A = SparseDesignMatrix(np.eye(3))
    loss = quadratic_loss(np.zeros(4))
    cfg = BaselineConfig(kind=kind, radius=1.0)
    with pytest.raises(ValueError, match="sample count"):
        solve_baseline(A, loss, Regularizer(mu=1.0), cfg)


def test_flops_grow_monotonically():
    A, loss = _random_instance(340, 20, 8)
    for kind in BASELINE_KINDS:
        cfg = BaselineConfig(kind=kind, radius=1.0, max_iters=10,
                             gap_tol=1e-16)
        _, trace = solve_baseline(A, loss, Regularizer(mu=0.5), cfg)
        flops = np.array([r.flops for r in trace.records])
        assert flops[0] == 0
        assert np.all(np.diff(flops) > 0)


# ---------------------------------------------------------------------------
# Frozen bits and design passes

# Recorded before the certificate's product was shared with the steps: fw's
# and svrg's final x and records (primal and dual as float.hex, flops), and
# acc_pgd's final iteration, flops and support. acc_pgd's gradients now come
# from a two-column product, whose last bits may differ from a gemv's.
FROZEN = json.loads(
    (Path(__file__).parent / "frozen_baseline_bits.json").read_text())
FROZEN_BUDGETS = {"fw": 15, "acc_pgd": 300, "svrg": 4}


def _frozen_instance(design):
    """A 40 x 30 dense quadratic instance or a 60 x 50 hinge one with
    about a fifth of its entries stored."""
    rng = PortableRng(27)
    if design == "dense":
        A = SparseDesignMatrix(rng.normals(40 * 30).reshape(40, 30))
        return A, quadratic_loss(rng.normals(40))
    M = rng.normals(60 * 50).reshape(60, 50)
    M[rng.uniforms(60 * 50).reshape(60, 50) > 0.2] = 0.0
    A = SparseDesignMatrix(sp.csr_matrix(M))
    return A, smooth_hinge_loss(np.where(rng.uniforms(60) > 0.5, 1.0, -1.0))


@pytest.mark.parametrize("design", ["dense", "sparse"])
@pytest.mark.parametrize("kind", BASELINE_KINDS)
def test_frozen_bits(design, kind):
    A, loss = _frozen_instance(design)
    assert (A._dense_rows is not None) == (design == "dense")
    cfg = BaselineConfig(kind=kind, radius=1.0, max_iters=FROZEN_BUDGETS[kind],
                         seed=3, gap_tol=1e-10)
    x, trace = solve_baseline(A, loss, Regularizer(mu=0.05), cfg)
    want = FROZEN[f"{design}/{kind}"]
    if kind == "acc_pgd":
        final = trace.final
        assert (final.iteration, final.flops, final.support) == \
            (want["iteration"], want["flops"], want["support"])
        return
    assert [v.hex() for v in x.tolist()] == want["x"]
    assert [[r.primal.hex(), r.dual.hex(), r.flops]
            for r in trace.records] == want["records"]


def _count_passes(monkeypatch):
    """Count the full products A x and A'y through the design class."""
    calls = Counter()
    for name in ("matvec", "rmatvec"):
        def counted(self, v, _name=name,
                    _full=getattr(SparseDesignMatrix, name)):
            calls[_name] += 1
            return _full(self, v)
        monkeypatch.setattr(SparseDesignMatrix, name, counted)
    return calls


# acc_pgd restarts at iteration 30 on the dense instance, 85 on the sparse
PASS_BUDGETS = {"fw": 30, "acc_pgd": 90, "svrg": 4}


@pytest.mark.parametrize("design", ["dense", "sparse"])
def test_one_transpose_pass_per_step(monkeypatch, design):
    # the certificate's A'f'(w) feeds the next step, so a run recorded at
    # every step makes one A' pass per step, plus record 0's; acc_pgd adds
    # one A pass per step, and one more per restart (a restart charges
    # 2 nnz more flops)
    A, loss = _frozen_instance(design)
    calls = _count_passes(monkeypatch)
    for kind, t in PASS_BUDGETS.items():
        calls.clear()
        cfg = BaselineConfig(kind=kind, radius=1.0, max_iters=t, seed=3,
                             gap_tol=-1.0)
        _, trace = solve_baseline(A, loss, Regularizer(mu=0.05), cfg)
        assert trace.final.iteration == t
        assert calls["rmatvec"] == t + 1, kind
        if kind == "acc_pgd":
            restarts, rest = divmod(trace.final.flops - 2 * t * A.nnz,
                                    2 * A.nnz)
            assert rest == 0 and restarts >= 1
            assert calls["matvec"] == t + restarts
        else:
            assert calls["matvec"] == (t if kind == "svrg" else 0), kind


@pytest.mark.parametrize("design", ["dense", "sparse"])
@pytest.mark.parametrize("kind", BASELINE_KINDS)
def test_x_does_not_depend_on_record_every(design, kind):
    # a step whose point was not recorded forms its own product (acc_pgd:
    # takes it from the previous step), with the same bits
    A, loss = _frozen_instance(design)
    t = PASS_BUDGETS[kind]
    xs = []
    for every in (1, 3):
        cfg = BaselineConfig(kind=kind, radius=1.0, max_iters=t, seed=3,
                             gap_tol=-1.0, record_every=every)
        x, trace = solve_baseline(A, loss, Regularizer(mu=0.05), cfg)
        assert len(trace.records) == 1 + -(-t // every)
        xs.append(x)
    assert np.array_equal(xs[0].view(np.int64), xs[1].view(np.int64))
