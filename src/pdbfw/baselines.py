"""Reference solvers for the l1-constrained primal problem: classical
Frank-Wolfe, accelerated projected gradient with adaptive restart, and
prox-SVRG. Each is a step on x, w = Ax and the flop count of a `SolverState`,
run by `metrics.run_to_gap` like the primal-dual solvers, so all four record
and stop by one rule. The certificate is the dual objective at the plug-in
dual point y = f'(Ax); its mat-vec is not charged to the flop counter, which
only tracks work the solver itself needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core_linalg import (SparseDesignMatrix, SparseUpdate,
                          apply_sparse_col_product, project_l1_ball)
from .data_io import PortableRng
from .losses import LossModel, Regularizer, loss_derivative
from .metrics import (check_integer, check_run_settings, dual_objective,
                      run_to_gap)
from .pdbfw_l1 import DEFAULT_GAP_TOL, SolverState

BASELINE_KINDS = ("fw", "acc_pgd", "svrg")


@dataclass(frozen=True)
class BaselineConfig:
    """Shared knobs for the reference solvers.

    max_iters counts epochs for svrg, iterations otherwise. gap_tol may be
    any number but NaN (a negative one runs all max_iters). record_every
    thins the trace (and the stopping check) to every Nth iteration plus the
    final one. The step sizes are fixed: 1/L_total for acc_pgd and
    1/(10 L_total) for svrg, where L_total = max_row_norm_sq + mu,
    and an svrg epoch has as many steps as there are samples.
    """

    kind: str
    radius: float
    max_iters: int = 1000
    seed: int = 0
    gap_tol: float = DEFAULT_GAP_TOL
    record_every: int = 1

    def __post_init__(self):
        if self.kind not in BASELINE_KINDS:
            raise ValueError(
                f"unknown baseline {self.kind!r}, expected one of {BASELINE_KINDS}")
        check_run_settings(self.radius, self.max_iters, self.gap_tol)
        check_integer("record_every", self.record_every, 1)
        check_integer("seed", self.seed)


def total_smoothness(A: SparseDesignMatrix, reg: Regularizer) -> float:
    """Upper bound on the primal objective's smoothness constant: the data
    term is (1/n)-smooth in predictions, since both losses are 1-smooth, and
    sigma_max(A)^2 <= n * R."""
    return A.max_row_norm_sq + reg.mu


def _run(A: SparseDesignMatrix, loss: LossModel, reg: Regularizer,
         cfg: BaselineConfig, state: SolverState, step):
    """Run `step` to cfg's gap or budget; returns (x, trace)."""

    def certificate(st):
        return dual_objective(A, loss, reg, loss.derivatives(st.w), cfg.radius)

    trace = run_to_gap(A, loss, reg, state, step, certificate,
                       np.count_nonzero, cfg.max_iters, cfg.gap_tol,
                       cfg.record_every)
    return state.x, trace


def solve_fw(A: SparseDesignMatrix, loss: LossModel, reg: Regularizer,
             cfg: BaselineConfig):
    """Classical Frank-Wolfe on the l1 ball with step 2/(t+1) at iteration
    t = 1, 2, ..., so the first step lands on a vertex.

    The linear minimizer over the ball is the signed vertex
    -radius * sign(grad_j) e_j at the largest-magnitude coordinate; a zero
    gradient yields the zero vertex. Returns (x, trace).
    """
    n = A.n_rows

    def step(st):
        grad = A.rmatvec(loss.derivatives(st.w)) / n + reg.grad(st.x)
        st.flops += A.nnz
        j = int(np.argmax(np.abs(grad)))
        vertex_j = -cfg.radius * float(np.sign(grad[j]))
        eta = 2.0 / (st.iteration + 1.0)
        st.x *= 1.0 - eta
        if vertex_j != 0.0:
            st.x[j] += eta * vertex_j
            update = SparseUpdate(indices=np.array([j]),
                                  values=np.array([vertex_j]))
            st.w = apply_sparse_col_product(A, update, st.w, 1.0 - eta, eta)
            st.flops += int(A.col_nnz[j])
        else:
            st.w *= 1.0 - eta

    return _run(A, loss, reg, cfg, SolverState.zeros(n, A.n_cols), step)


def solve_acc_pgd(A: SparseDesignMatrix, loss: LossModel, reg: Regularizer,
                  cfg: BaselineConfig):
    """Accelerated projected gradient (FISTA) with restart on objective
    increase; a restart redoes the iteration as a plain projected step from
    the previous point. Returns (x, trace)."""
    n, d = A.n_rows, A.n_cols
    step_size = 1.0 / total_smoothness(A, reg)
    y = np.zeros(d)       # extrapolated point
    w_y = np.zeros(n)     # A y, maintained by the same linear combinations
    tau = 1.0
    obj = None  # objective at x; taken in the first step, after the size check

    def step(st):
        nonlocal y, w_y, tau, obj
        if obj is None:
            obj = loss.mean_value(st.w) + reg.value(st.x)
        grad_y = A.rmatvec(loss.derivatives(w_y)) / n + reg.grad(y)
        st.flops += A.nnz
        x_new = project_l1_ball(y - step_size * grad_y, cfg.radius)
        w_new = A.matvec(x_new)
        st.flops += A.nnz
        obj_new = loss.mean_value(w_new) + reg.value(x_new)
        if obj_new > obj:
            # momentum overshot; fall back to a monotone step from x
            tau = 1.0
            grad_x = A.rmatvec(loss.derivatives(st.w)) / n + reg.grad(st.x)
            x_new = project_l1_ball(st.x - step_size * grad_x, cfg.radius)
            w_new = A.matvec(x_new)
            st.flops += 2 * A.nnz
            obj_new = loss.mean_value(w_new) + reg.value(x_new)
        tau_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tau * tau))
        coeff = (tau - 1.0) / tau_new
        y = x_new + coeff * (x_new - st.x)
        w_y = w_new + coeff * (w_new - st.w)
        st.x, st.w, obj, tau = x_new, w_new, obj_new, tau_new

    return _run(A, loss, reg, cfg, SolverState.zeros(n, d), step)


def solve_svrg(A: SparseDesignMatrix, loss: LossModel, reg: Regularizer,
               cfg: BaselineConfig):
    """Projected prox-SVRG; one step, and one trace record, per epoch.

    Each epoch snapshots the current point, stores its predictions and full
    data gradient, then runs an epoch of n variance-reduced steps
        g = (f_i'(a_i'x) - f_i'(a_i'xs)) a_i + grad_snapshot + mu x
    with sample indices from the seeded portable generator. With one sample
    the correction cancels the snapshot term exactly and the method reduces
    to deterministic projected gradient descent. Returns (x, trace).
    """
    n = A.n_rows
    step_size = 0.1 / total_smoothness(A, reg)
    rng = PortableRng(cfg.seed)

    def step(st):
        # derivatives at the snapshot predictions; exact because w == A x here
        derivs = loss.derivatives(st.w)
        grad_snapshot = A.rmatvec(derivs) / n
        snapshot = derivs.tolist()
        st.flops += A.nnz
        x = st.x
        for i in rng.integers(n, n).tolist():
            p = A.row_dot(i, x)
            coeff = loss_derivative(loss, p, i) - snapshot[i]
            g = grad_snapshot + reg.grad(x)
            A.add_scaled_row(i, coeff, g)
            x = project_l1_ball(x - step_size * g, cfg.radius)
            st.flops += 2 * int(A.row_nnz[i])
        st.x = x
        st.w = A.matvec(x)  # refreshed at the epoch's end
        st.flops += A.nnz

    return _run(A, loss, reg, cfg, SolverState.zeros(n, A.n_cols), step)


def solve_baseline(A: SparseDesignMatrix, loss: LossModel, reg: Regularizer,
                   cfg: BaselineConfig):
    """Dispatch on cfg.kind; returns (x, trace)."""
    solver = {"fw": solve_fw, "acc_pgd": solve_acc_pgd, "svrg": solve_svrg}[cfg.kind]
    return solver(A, loss, reg, cfg)
