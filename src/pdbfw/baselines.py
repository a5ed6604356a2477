"""Reference solvers for the l1-constrained primal problem: classical
Frank-Wolfe, accelerated projected gradient with adaptive restart, and
prox-SVRG. All three report the same duality-gap metric as the primal-dual
solver, using the plug-in dual point y = f'(Ax); the extra certificate
mat-vec happens inside the dual objective and is not charged to the flop
counter, which only tracks work the solver itself needs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .core_linalg import (SparseDesignMatrix, SparseUpdate,
                          apply_sparse_col_product, project_l1_ball)
from .data_io import PortableRng
from .losses import LossModel, Regularizer, loss_derivative
from .metrics import ConvergenceTrace, dual_objective

BASELINE_KINDS = ("fw", "acc_pgd", "svrg")


@dataclass(frozen=True)
class BaselineConfig:
    """Shared knobs for the reference solvers.

    max_iters counts epochs for svrg, iterations otherwise. record_every
    thins the trace (and the stopping check) to every Nth iteration plus the
    final one. The step sizes are fixed: 1/L_total for acc_pgd and
    1/(10 L_total) for svrg, where L_total = beta * max_row_norm_sq + mu,
    and an svrg epoch has as many steps as there are samples.
    """

    kind: str
    radius: float
    max_iters: int = 1000
    seed: int = 0
    gap_tol: float = 1e-8
    record_every: int = 1

    def __post_init__(self):
        if self.kind not in BASELINE_KINDS:
            raise ValueError(
                f"unknown baseline {self.kind!r}, expected one of {BASELINE_KINDS}")
        if not self.radius > 0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if not self.gap_tol > 0:
            raise ValueError(f"gap_tol must be positive, got {self.gap_tol}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")


def total_smoothness(A: SparseDesignMatrix, loss: LossModel,
                     reg: Regularizer) -> float:
    """Upper bound on the primal objective's smoothness constant: the data
    term is (beta/n)-smooth in predictions and sigma_max(A)^2 <= n * R."""
    return loss.beta * A.max_row_norm_sq + reg.mu


def _check_sizes(A: SparseDesignMatrix, loss: LossModel) -> None:
    if loss.n != A.n_rows:
        raise ValueError("loss sample count does not match matrix rows")


class _Recorder:
    """Per-iteration bookkeeping shared by the three solvers."""

    def __init__(self, A, loss, reg, radius):
        self.A, self.loss, self.reg, self.radius = A, loss, reg, radius
        self.trace = ConvergenceTrace()
        self.t0 = time.perf_counter()

    def record(self, iteration: int, x: np.ndarray, w: np.ndarray,
               flops: int) -> float:
        primal = self.loss.mean_value(w) + self.reg.value(x)
        y_cert = self.loss.derivatives(w)
        dual = dual_objective(self.A, self.loss, self.reg, y_cert, self.radius)
        self.trace.append(iteration, time.perf_counter() - self.t0, primal,
                          dual, flops, int(np.count_nonzero(x)))
        return self.trace.final.gap


def solve_fw(A: SparseDesignMatrix, loss: LossModel, reg: Regularizer,
             cfg: BaselineConfig):
    """Classical Frank-Wolfe on the l1 ball with step 2/(t+2).

    The linear minimizer over the ball is the signed vertex
    -radius * sign(grad_j) e_j at the largest-magnitude coordinate; a zero
    gradient yields the zero vertex. Returns (x, trace).
    """
    _check_sizes(A, loss)
    n, d = A.n_rows, A.n_cols
    x = np.zeros(d)
    w = np.zeros(n)
    flops = 0
    rec = _Recorder(A, loss, reg, cfg.radius)
    gap = rec.record(0, x, w, flops)
    for t in range(cfg.max_iters):
        if gap <= cfg.gap_tol:
            break
        grad = A.rmatvec(loss.derivatives(w)) / n + reg.grad(x)
        flops += A.nnz
        j = int(np.argmax(np.abs(grad)))
        vertex_j = -cfg.radius * float(np.sign(grad[j]))
        eta = 2.0 / (t + 2.0)
        x *= 1.0 - eta
        if vertex_j != 0.0:
            x[j] += eta * vertex_j
            update = SparseUpdate(indices=np.array([j]),
                                  values=np.array([vertex_j]))
            w = apply_sparse_col_product(A, update, w, 1.0 - eta, eta)
            flops += int(A.col_nnz[j])
        else:
            w *= 1.0 - eta
        if (t + 1) % cfg.record_every == 0 or t + 1 == cfg.max_iters:
            gap = rec.record(t + 1, x, w, flops)
    return x, rec.trace


def solve_acc_pgd(A: SparseDesignMatrix, loss: LossModel, reg: Regularizer,
                  cfg: BaselineConfig):
    """Accelerated projected gradient (FISTA) with restart on objective
    increase; a restart redoes the iteration as a plain projected step from
    the previous point. Returns (x, trace)."""
    _check_sizes(A, loss)
    n, d = A.n_rows, A.n_cols
    step = 1.0 / total_smoothness(A, loss, reg)
    x = np.zeros(d)
    y = np.zeros(d)       # extrapolated point
    w_x = np.zeros(n)     # A x, maintained
    w_y = np.zeros(n)     # A y, maintained by the same linear combinations
    tau = 1.0
    flops = 0
    rec = _Recorder(A, loss, reg, cfg.radius)
    gap = rec.record(0, x, w_x, flops)
    obj = loss.mean_value(w_x) + reg.value(x)
    for t in range(1, cfg.max_iters + 1):
        if gap <= cfg.gap_tol:
            break
        grad_y = A.rmatvec(loss.derivatives(w_y)) / n + reg.grad(y)
        flops += A.nnz
        x_new = project_l1_ball(y - step * grad_y, cfg.radius)
        w_new = A.matvec(x_new)
        flops += A.nnz
        obj_new = loss.mean_value(w_new) + reg.value(x_new)
        if obj_new > obj:
            # momentum overshot; fall back to a monotone step from x
            tau = 1.0
            grad_x = A.rmatvec(loss.derivatives(w_x)) / n + reg.grad(x)
            x_new = project_l1_ball(x - step * grad_x, cfg.radius)
            w_new = A.matvec(x_new)
            flops += 2 * A.nnz
            obj_new = loss.mean_value(w_new) + reg.value(x_new)
        tau_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tau * tau))
        coeff = (tau - 1.0) / tau_new
        y = x_new + coeff * (x_new - x)
        w_y = w_new + coeff * (w_new - w_x)
        x, w_x, obj, tau = x_new, w_new, obj_new, tau_new
        if t % cfg.record_every == 0 or t == cfg.max_iters:
            gap = rec.record(t, x, w_x, flops)
    return x, rec.trace


def solve_svrg(A: SparseDesignMatrix, loss: LossModel, reg: Regularizer,
               cfg: BaselineConfig):
    """Projected prox-SVRG; one trace record per epoch.

    Each epoch snapshots the current point, stores its predictions and full
    data gradient, then runs an epoch of n variance-reduced steps
        g = (f_i'(a_i'x) - f_i'(a_i'xs)) a_i + grad_snapshot + mu x
    with sample indices from the seeded portable generator. With one sample
    the correction cancels the snapshot term exactly and the method reduces
    to deterministic projected gradient descent. Returns (x, trace).
    """
    _check_sizes(A, loss)
    n, d = A.n_rows, A.n_cols
    step = 0.1 / total_smoothness(A, loss, reg)
    rng = PortableRng(cfg.seed)
    x = np.zeros(d)
    w = np.zeros(n)  # A x, refreshed at epoch boundaries
    flops = 0
    rec = _Recorder(A, loss, reg, cfg.radius)
    gap = rec.record(0, x, w, flops)
    for epoch in range(1, cfg.max_iters + 1):
        if gap <= cfg.gap_tol:
            break
        ws = w  # snapshot predictions; exact because w == A x here
        grad_snapshot = A.rmatvec(loss.derivatives(ws)) / n
        flops += A.nnz
        for i in rng.integers(n, n):
            i = int(i)
            p = A.row_dot(i, x)
            coeff = loss_derivative(loss, p, i) - loss_derivative(loss, float(ws[i]), i)
            g = grad_snapshot + reg.grad(x)
            A.add_scaled_row(i, coeff, g)
            x = project_l1_ball(x - step * g, cfg.radius)
            flops += 2 * int(A.row_nnz[i])
        w = A.matvec(x)
        flops += A.nnz
        if epoch % cfg.record_every == 0 or epoch == cfg.max_iters:
            gap = rec.record(epoch, x, w, flops)
    return x, rec.trace


def solve_baseline(A: SparseDesignMatrix, loss: LossModel, reg: Regularizer,
                   cfg: BaselineConfig):
    """Dispatch on cfg.kind; returns (x, trace)."""
    solver = {"fw": solve_fw, "acc_pgd": solve_acc_pgd, "svrg": solve_svrg}[cfg.kind]
    return solver(A, loss, reg, cfg)
