"""Acceptance battery: one pass/fail test per shipped guarantee.

Each test states its tolerance and (where applicable) its runtime budget.
Oracles are independent reimplementations: support enumeration with bisection
projection for the sparse prox, grid plus golden-section search for the
scalar dual prox, a dense accelerated projected-gradient reference for the
trace-norm recovery, and closed-form ridge solutions for solver agreement
(L-BFGS for the radius of the binding cases).

Traces produced here are registered in _ALL_TRACES so the weak-duality
criterion can sweep every recorded iterate of every solver run by the
battery; the unit-test modules additionally assert the same bound locally on
the traces they create.
"""

import itertools
import math
import os
import time

import numpy as np
import pytest
from scipy.optimize import minimize

from pdbfw.baselines import BaselineConfig, solve_baseline
from pdbfw.cli import main as cli_main
from pdbfw.core_linalg import SparseDesignMatrix, sparse_l1_prox
from pdbfw.data_io import PortableRng, SyntheticSpec, generate_synthetic
from pdbfw.losses import (MatrixQuadraticLoss, Regularizer, quadratic_loss,
                          smooth_hinge_loss)
from pdbfw.metrics import project_nuclear_ball
from pdbfw.pdbfw_l1 import (SolverConfig, SolverState, dual_step, primal_step,
                            resolve, solve)
from pdbfw.pdbfw_trace import dual_step_trace, primal_step_trace, solve_trace

from lowrank_audit import audit_prox_calls

# (name, trace) pairs appended by the tests below; swept by criterion 9
_ALL_TRACES = []


# ---------------------------------------------------------------------------
# Criterion 1: the s-sparse l1 prox against support enumeration


def _enumeration_prox_objective(v, radius, s):
    """min_{||u||_0 <= s, ||u||_1 <= radius} 0.5||u - v||^2 by enumerating
    all supports of size s and projecting each restriction by bisection."""
    d = v.size
    supports = np.array(list(itertools.combinations(range(d), min(s, d))))
    sub = np.abs(v)[supports]                       # (m, s) magnitudes
    need = sub.sum(axis=1) > radius
    lo = np.zeros(len(sub))
    hi = sub.max(axis=1)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        over = np.maximum(sub - mid[:, None], 0.0).sum(axis=1) > radius
        lo = np.where(over, mid, lo)
        hi = np.where(over, hi, mid)
    theta = np.where(need, 0.5 * (lo + hi), 0.0)
    proj = np.maximum(sub - theta[:, None], 0.0)
    off_support = float(v @ v) - (sub ** 2).sum(axis=1)
    objectives = 0.5 * off_support + 0.5 * ((proj - sub) ** 2).sum(axis=1)
    return float(objectives.min())


def test_criterion_01_sparse_prox_matches_enumeration_oracle():
    # tolerance 1e-10 on the objective, 500 instances, budget 10 s
    start = time.perf_counter()
    rng = PortableRng(2025)
    worst = 0.0
    for _ in range(500):
        d = int(rng.integers(1, 9)[0]) + 2          # 2..10
        s = min(int(rng.integers(1, 3)[0]) + 1, d)  # 1..3
        radius = 0.5 + 2.0 * rng.uniforms(1)[0]
        v = 4.0 * rng.normals(d)
        update = sparse_l1_prox(v, radius, s)
        u = np.zeros(d)
        u[update.indices] = update.values
        achieved = 0.5 * float((u - v) @ (u - v))
        oracle = _enumeration_prox_objective(v, radius, s)
        worst = max(worst, abs(achieved - oracle))
    assert worst <= 1e-10, f"worst objective mismatch {worst:.3e}"
    assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------------------
# Criterion 2: the one-sample dual prox against grid + golden-section search


def _golden_section_prox(w, y, delta, n, t, lo, hi):
    """Maximize u*w/n - (u^2/2 + t*u)/n - (u - y)^2/(2 delta) over [lo, hi].

    Both conjugates in scope are u^2/2 + t*u on their domain, so objective
    differences factor exactly; comparing through the factored form keeps
    full precision where direct evaluation flattens out near the maximum.
    """
    def better(c, d_):
        # sign of phi(c) - phi(d_)
        return (c - d_) * ((w - t) / n - (c + d_) / (2 * n)
                           - (c + d_ - 2 * y) / (2 * delta)) > 0

    grid = [lo + (hi - lo) * i / 128 for i in range(129)]
    best = 0
    for i in range(1, 129):
        if better(grid[i], grid[best]):
            best = i
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, 128)]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d_ = a + inv_phi * (b - a)
    for _ in range(100):
        if better(c, d_):
            b = d_
        else:
            a = c
        c = b - inv_phi * (b - a)
        d_ = a + inv_phi * (b - a)
    return 0.5 * (a + b)


def test_criterion_02_dual_prox_matches_grid_golden_oracle():
    # tolerance 1e-8 on the prox point, 1000 tuples, budget 5 s
    start = time.perf_counter()
    rng = PortableRng(2024)
    worst = 0.0
    for trial in range(1000):
        w = 4.0 * rng.uniforms(1)[0] - 2.0
        y = 4.0 * rng.uniforms(1)[0] - 2.0
        delta = 0.5 + 1.5 * rng.uniforms(1)[0]
        n = int(rng.integers(1, 5)[0]) + 1
        if trial % 2 == 0:
            label = 1.0 if rng.uniforms(1)[0] > 0.5 else -1.0
            loss = smooth_hinge_loss(np.array([label]))
            lo, hi = (-1.0, 0.0) if label > 0 else (0.0, 1.0)
            y = min(max(y, lo), hi)
            t = label
        else:
            b = 4.0 * rng.uniforms(1)[0] - 2.0
            loss = quadratic_loss(np.array([b]))
            lo, hi = -20.0, 20.0
            t = b
        got = float(loss.dual_prox(np.array([w]), np.array([y]), delta, n)[0])
        want = _golden_section_prox(w, y, delta, n, t, lo, hi)
        worst = max(worst, abs(got - want))
    assert worst <= 1e-8, f"worst prox mismatch {worst:.3e}"
    assert time.perf_counter() - start < 5.0


# ---------------------------------------------------------------------------
# Criterion 3: conjugate pairs


def test_criterion_03_fenchel_young_and_hinge_constants():
    # the three hinge constants hold exactly
    plus = smooth_hinge_loss(np.ones(2))
    assert plus.values(np.zeros(2))[0] == 0.5
    assert plus.conjugates(np.array([-1.0, 0.0])).tolist() == [-0.5, 0.0]
    # Fenchel-Young equality f(p) + f*(f'(p)) = p f'(p) to 1e-10 on a
    # 1000-point grid, for both losses and both hinge label signs
    grid = np.linspace(-5.0, 5.0, 1000)
    losses = [smooth_hinge_loss(np.ones(grid.size)),
              smooth_hinge_loss(-np.ones(grid.size)),
              quadratic_loss(np.full(grid.size, 0.7))]
    for loss in losses:
        yv = loss.derivatives(grid)
        residual = loss.values(grid) + loss.conjugates(yv) - grid * yv
        worst = int(np.argmax(np.abs(residual)))
        assert abs(residual[worst]) <= 1e-10, \
            (loss.kind, grid[worst], residual[worst])


# ---------------------------------------------------------------------------
# Criterion 4: linear duality-gap decay


def test_criterion_04_linear_gap_decay_on_sparse_regression():
    # gap(200)/gap(10) <= 1e-4 and negative log-gap slope; budget 30 s
    start = time.perf_counter()
    spec = SyntheticSpec(kind="sparse_regression", n=500, d=1000,
                         true_sparsity_or_rank=10, noise_level=8.0, seed=7)
    ds, x0 = generate_synthetic(spec)
    radius = float(np.abs(x0).sum())  # lambda = ||x0||_1
    loss = quadratic_loss(ds.labels)
    reg = Regularizer(mu=10.0 / 500)
    cfg = SolverConfig(radius=radius, s=64, k=125, delta=500.0,
                       max_iters=200, gap_tol=1e-16)
    _, _, trace = solve(ds.matrix, loss, reg, cfg)
    _ALL_TRACES.append(("pdbfw-c4", trace))

    assert trace.records[10].iteration == 10
    gap_10 = trace.records[10].gap
    gap_200 = trace.final.gap  # iteration 200, or earlier past tolerance
    assert gap_10 > 0.0
    assert gap_200 / gap_10 <= 1e-4, f"ratio {gap_200 / gap_10:.3e}"

    positive = [(r.iteration, r.gap) for r in trace.records
                if r.iteration >= 1 and r.gap > 0.0]
    iters = np.array([p[0] for p in positive], dtype=float)
    slope = np.polyfit(iters, np.log([p[1] for p in positive]), 1)[0]
    assert slope < 0.0, f"log-gap slope {slope:.3e}"
    assert time.perf_counter() - start < 30.0


# ---------------------------------------------------------------------------
# Criterion 5: per-iteration cost linear in s


def test_criterion_05_per_iteration_flops_linear_in_s():
    budgets = (1, 2, 4, 8, 16)
    per_iter = []
    for s in budgets:
        spec = SyntheticSpec(kind="sparse_regression", n=128, d=64,
                             true_sparsity_or_rank=8, noise_level=0.5,
                             seed=21)
        ds, _ = generate_synthetic(spec)
        cfg = SolverConfig(radius=50.0, s=s, max_iters=30, gap_tol=-1.0)
        _, _, trace = solve(ds.matrix, quadratic_loss(ds.labels),
                            Regularizer(mu=10.0 / 128), cfg)
        _ALL_TRACES.append((f"pdbfw-c5-s{s}", trace))
        flops = np.array([r.flops for r in trace.records])
        per_iter.append(np.diff(flops)[1:].mean())  # skip warmup iteration

    s_arr = np.array(budgets, dtype=float)
    design = np.vstack([np.ones_like(s_arr), s_arr]).T
    coef, *_ = np.linalg.lstsq(design, np.array(per_iter), rcond=None)
    predicted = design @ coef
    ss_res = float(((per_iter - predicted) ** 2).sum())
    ss_tot = float(((per_iter - np.mean(per_iter)) ** 2).sum())
    r_squared = 1.0 - ss_res / ss_tot
    assert r_squared >= 0.99, f"R^2 = {r_squared:.6f}"
    assert coef[1] > 0.0  # cost must actually grow with s


# ---------------------------------------------------------------------------
# Criterion 6: solver agreement


def test_criterion_06_solver_agreement_across_methods():
    # four solvers within 1e-6 relative of each other on 10 instances
    worst = 0.0
    for seed in range(100, 110):
        spec = SyntheticSpec(kind="sparse_regression", n=25, d=12,
                             true_sparsity_or_rank=3, noise_level=0.2,
                             seed=seed)
        ds, _ = generate_synthetic(spec)
        dense = ds.matrix.to_dense()
        n, d = dense.shape
        mu = 1.0
        # radius 1.5x the unconstrained ridge solution keeps the optimum
        # interior, where every method converges to the same point
        x_ridge = np.linalg.solve(dense.T @ dense / n + mu * np.eye(d),
                                  dense.T @ ds.labels / n)
        radius = 1.5 * float(np.abs(x_ridge).sum())
        loss = quadratic_loss(ds.labels)
        reg = Regularizer(mu=mu)

        finals = {}
        _, _, trace = solve(ds.matrix, loss, reg,
                            SolverConfig(radius=radius, s=d, k=n, delta=25.0,
                                         max_iters=2000, gap_tol=1e-10))
        finals["pdbfw"] = trace.final.primal
        _ALL_TRACES.append((f"pdbfw-c6-{seed}", trace))
        runs = (("fw", 20000, 50), ("acc_pgd", 2000, 1), ("svrg", 2000, 1))
        for kind, iters, every in runs:  # fw runs 10x longer
            cfg = BaselineConfig(kind=kind, radius=radius, max_iters=iters,
                                 gap_tol=1e-10, record_every=every)
            _, tr = solve_baseline(ds.matrix, loss, reg, cfg)
            finals[kind] = tr.final.primal
            _ALL_TRACES.append((f"{kind}-c6-{seed}", tr))

        values = np.array(list(finals.values()))
        spread = (values.max() - values.min()) / values.min()
        worst = max(worst, spread)
    assert worst <= 1e-6, f"worst pairwise relative spread {worst:.3e}"


@pytest.mark.parametrize("kind", ["quadratic", "smooth_hinge"])
def test_criterion_06_solver_agreement_at_binding_radii(kind):
    # radius 0.3x the unconstrained optimum's l1 norm binds: pdbfw and
    # acc_pgd both end on the sphere to 1e-6 relative, and their primal
    # values differ by at most the larger final gap
    for seed in range(100, 104):
        spec = SyntheticSpec(kind="sparse_regression", n=40, d=30,
                             true_sparsity_or_rank=4, noise_level=0.2,
                             seed=seed)
        ds, _ = generate_synthetic(spec)
        dense = ds.matrix.to_dense()
        n, d = dense.shape
        if kind == "quadratic":
            loss = quadratic_loss(ds.labels)
        else:
            loss = smooth_hinge_loss(np.where(ds.labels >= 0.0, 1.0, -1.0))
        reg = Regularizer(mu=10.0 / n)

        def objective(x):
            p = dense @ x
            return (loss.mean_value(p) + reg.value(x),
                    dense.T @ loss.derivatives(p) / n + reg.grad(x))

        free = minimize(objective, np.zeros(d), jac=True, method="L-BFGS-B",
                        options=dict(gtol=1e-12, ftol=1e-15, maxiter=10000))
        radius = 0.3 * float(np.abs(free.x).sum())

        x_pd, _, trace = solve(ds.matrix, loss, reg,
                               SolverConfig(radius=radius, s=d, k=n,
                                            delta=1e3, max_iters=2000,
                                            gap_tol=1e-10))
        x_pg, tr = solve_baseline(ds.matrix, loss, reg,
                                  BaselineConfig(kind="acc_pgd", radius=radius,
                                                 max_iters=2000,
                                                 gap_tol=1e-10))
        _ALL_TRACES.append((f"pdbfw-c6-binding-{kind}-{seed}", trace))
        _ALL_TRACES.append((f"acc_pgd-c6-binding-{kind}-{seed}", tr))
        assert trace.final.gap <= 1e-10 and tr.final.gap <= 1e-10
        for x in (x_pd, x_pg):
            assert abs(np.abs(x).sum() - radius) <= 1e-6 * radius
        assert abs(trace.final.primal - tr.final.primal) <= \
            max(trace.final.gap, tr.final.gap)


# ---------------------------------------------------------------------------
# Criterion 7: cache maintenance invariants


def _relative_distance(got, want):
    scale = max(float(np.linalg.norm(want)), 1e-12)
    return float(np.linalg.norm(got - want)) / scale


def test_criterion_07_cache_maintenance_after_100_iterations():
    # vector caches to 1e-9 relative
    rng = PortableRng(700)
    n, d = 60, 40
    A = SparseDesignMatrix(rng.normals(n * d).reshape(n, d))
    loss = smooth_hinge_loss(np.where(rng.uniforms(n) > 0.5, 1.0, -1.0))
    reg = Regularizer(mu=0.2)
    cfg = SolverConfig(radius=2.0, s=5, k=10, delta=1.0)
    cfg = resolve(cfg, A)
    state = SolverState.zeros(n, d)
    for t in range(1, 101):
        state.iteration = t
        primal_step(state, cfg, A, reg)
        dual_step(state, cfg, A, loss)
    assert _relative_distance(state.w, A.matvec(state.x)) <= 1e-9
    assert _relative_distance(state.z, A.rmatvec(state.y)) <= 1e-9

    # matrix caches to 1e-8 relative
    n, d, c = 40, 20, 12
    rng = PortableRng(701)
    A = SparseDesignMatrix(rng.normals(n * d).reshape(n, d))
    mloss = MatrixQuadraticLoss(B=rng.normals(n * c).reshape(n, c))
    mcfg = SolverConfig(radius=5.0, s=3, k=12, delta=2.0)
    mcfg = resolve(mcfg, A, c)
    mstate = SolverState.zeros(n, d, c)
    for t in range(1, 101):
        mstate.iteration = t
        primal_step_trace(mstate, mcfg, A, reg)
        dual_step_trace(mstate, mcfg, A, mloss)
    dense = A.to_dense()
    assert _relative_distance(mstate.w, dense @ mstate.x) <= 1e-8
    assert _relative_distance(mstate.z, dense.T @ mstate.y) <= 1e-8


# ---------------------------------------------------------------------------
# Criterion 8: trace-norm recovery with audited prox calls


def _nuclear_ball_reference(dense, B, mu, radius, iters=3000):
    """Accelerated projected gradient on the trace-norm ball, restarted on
    objective increase; dense SVD projection every step."""
    n, d = dense.shape
    c = B.shape[1]
    lipschitz = np.linalg.norm(dense, 2) ** 2 / n + mu

    def objective(M):
        residual = dense @ M - B
        return 0.5 * float(np.vdot(residual, residual)) / n \
            + 0.5 * mu * float(np.vdot(M, M))

    X = np.zeros((d, c))
    extrap = X.copy()
    tau = 1.0
    prev = objective(X)
    for _ in range(iters):
        grad = dense.T @ (dense @ extrap - B) / n + mu * extrap
        X_new = project_nuclear_ball(extrap - grad / lipschitz, radius)
        value = objective(X_new)
        if value > prev:
            grad = dense.T @ (dense @ X - B) / n + mu * X
            X_new = project_nuclear_ball(X - grad / lipschitz, radius)
            value = objective(X_new)
            tau = 1.0
        tau_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tau * tau))
        extrap = X_new + ((tau - 1.0) / tau_new) * (X_new - X)
        X, tau, prev = X_new, tau_new, value
    return objective(X)


def test_criterion_08_trace_norm_recovery_with_audited_prox(monkeypatch):
    # relative primal error < 1e-3 within 500 iterations, every low-rank
    # prox call passing its (1/2, eps/8) audit; budget 60 s
    start = time.perf_counter()
    audit = audit_prox_calls(monkeypatch)
    for rank in (2, 5):
        audit.clear()
        spec = SyntheticSpec(kind="trace_sensing", n=100, d=80, c=60,
                             true_sparsity_or_rank=rank, seed=11)
        ds, X0 = generate_synthetic(spec)
        radius = float(np.linalg.svd(X0, compute_uv=False).sum())
        loss = MatrixQuadraticLoss(B=ds.labels)
        reg = Regularizer(mu=0.1)
        cfg = SolverConfig(radius=radius, s=rank + 3, k=50, delta=100.0,
                           max_iters=500, gap_tol=1e-9)
        _, _, trace = solve_trace(ds.matrix, loss, reg, cfg)
        _ALL_TRACES.append((f"pdbfw-trace-c8-r{rank}", trace))

        p_star = _nuclear_ball_reference(ds.matrix.to_dense(), ds.labels,
                                         0.1, radius)
        relative = (trace.final.primal - p_star) / p_star
        assert relative < 1e-3, f"rank {rank}: relative error {relative:.3e}"
        assert trace.final.iteration <= 500
        assert len(audit) == trace.final.iteration
        assert all(rec.satisfied(0.5, cfg.gap_tol / 8.0) for rec in audit), \
            f"rank {rank}: prox audit failed"
    assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------------------
# Criterion 9: weak duality on every recorded iterate


def test_criterion_09_weak_duality_on_all_recorded_iterates():
    # dedicated battery over both losses and all four solvers, plus every
    # trace registered by the other criteria in this module
    rng = PortableRng(900)
    n, d = 40, 25
    A = SparseDesignMatrix(rng.normals(n * d).reshape(n, d))
    reg = Regularizer(mu=0.4)
    losses = {"hinge": smooth_hinge_loss(
                  np.where(rng.uniforms(n) > 0.5, 1.0, -1.0)),
              "quadratic": quadratic_loss(rng.normals(n))}
    for loss_name, loss in losses.items():
        _, _, trace = solve(A, loss, reg,
                            SolverConfig(radius=1.5, s=4, max_iters=120,
                                         gap_tol=1e-14))
        _ALL_TRACES.append((f"pdbfw-c9-{loss_name}", trace))
        for kind in ("fw", "acc_pgd", "svrg"):
            cfg = BaselineConfig(kind=kind, radius=1.5, max_iters=120,
                                 gap_tol=1e-14)
            _, tr = solve_baseline(A, loss, reg, cfg)
            _ALL_TRACES.append((f"{kind}-c9-{loss_name}", tr))

    mloss = MatrixQuadraticLoss(B=rng.normals(n * 6).reshape(n, 6))
    _, _, mtrace = solve_trace(A, mloss, reg,
                               SolverConfig(radius=3.0, s=2, max_iters=80,
                                            gap_tol=1e-14))
    _ALL_TRACES.append(("pdbfw-trace-c9", mtrace))

    assert len(_ALL_TRACES) >= 50  # earlier criteria really did register
    for name, trace in _ALL_TRACES:
        worst = min(r.gap for r in trace.records)
        assert worst >= -1e-9, f"{name}: gap {worst:.3e} below -1e-9"


# ---------------------------------------------------------------------------
# Criterion 10: byte-identical trace CSVs


def test_criterion_10_repeat_runs_byte_identical(tmp_path):
    l1_args = ["run", "--synthetic", "sparse_regression", "--n", "60",
               "--d", "40", "--sparsity", "4", "--noise", "0.5",
               "--seed", "12", "--radius", "8.0", "--max-iters", "60",
               "--solvers", "pdbfw,fw,acc_pgd,svrg"]
    trace_args = ["run", "--synthetic", "trace_sensing",
                  "--n", "40", "--d", "16", "--c", "10",
                  "--sparsity", "2", "--radius", "10.0", "--s", "4",
                  "--max-iters", "40"]
    for label, args in (("l1", l1_args), ("trace", trace_args)):
        out_a = str(tmp_path / f"{label}_a")
        out_b = str(tmp_path / f"{label}_b")
        assert cli_main(args + ["--output-dir", out_a]) == 0
        assert cli_main(args + ["--output-dir", out_b]) == 0
        csvs = sorted(f for f in os.listdir(out_a) if f.endswith(".csv"))
        assert csvs
        for name in csvs:
            with open(os.path.join(out_a, name), "rb") as ha, \
                    open(os.path.join(out_b, name), "rb") as hb:
                assert ha.read() == hb.read(), f"{label}/{name} differs"
