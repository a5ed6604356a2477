"""Reference solvers for the l1-constrained primal problem: classical
Frank-Wolfe, accelerated projected gradient with adaptive restart, and
prox-SVRG. `solve_baseline` runs the step that `cfg.kind` names, on x, w = Ax
and the flop count of a `SolverState`, in `metrics.run_to_gap` like the
primal-dual solvers, so all four record and stop by one rule. The certificate
is the dual objective at the plug-in dual point y = f'(Ax); its mat-vec is not
charged to the flop counter, which only tracks work the solver itself needs.

Each product is formed once: the certificate's z = A'y, kept in the state,
is fw's, svrg's snapshot and acc_pgd's restart gradient, and acc_pgd's
one two-column A'[f'(w), f'(w_y)] per step gives its next gradient too.
Flops are charged as before, so the traces' flops and seconds do not move.
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


def _plug_in(A: SparseDesignMatrix, loss: LossModel, st: SolverState):
    """(f'(w), A'f'(w)), formed once per w: a step that moves w sets st.z."""
    if st.z is None:
        st.y = loss.derivatives(st.w)
        st.z = A.rmatvec(st.y)
    return st.y, st.z


def _fw(A: SparseDesignMatrix, loss: LossModel, reg: Regularizer,
        cfg: BaselineConfig):
    """Classical Frank-Wolfe on the l1 ball with step 2/(t+1) at iteration
    t = 1, 2, ..., so the first step lands on a vertex.

    The linear minimizer over the ball is the signed vertex
    -radius * sign(grad_j) e_j at the largest-magnitude coordinate; a zero
    gradient yields the zero vertex. Returns the step.
    """
    n = A.n_rows

    def step(st):
        grad = _plug_in(A, loss, st)[1] / n + reg.grad(st.x)
        st.flops += A.nnz
        st.z = None  # w moves below
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

    return step


def _acc_pgd(A: SparseDesignMatrix, loss: LossModel, reg: Regularizer,
             cfg: BaselineConfig):
    """Accelerated projected gradient (FISTA) with restart on objective
    increase; a restart redoes the iteration as a plain projected step from
    the previous point. Returns the step."""
    n, d = A.n_rows, A.n_cols
    step_size = 1.0 / total_smoothness(A, reg)
    y = np.zeros(d)       # extrapolated point
    w_y = np.zeros(n)     # A y, maintained by the same linear combinations
    z_y = None  # A' f'(w_y)
    tau = 1.0
    obj = None  # objective at x; taken in the first step, after the size check

    def step(st):
        nonlocal y, w_y, z_y, tau, obj
        if obj is None:
            obj = loss.mean_value(st.w) + reg.value(st.x)
            z_y = _plug_in(A, loss, st)[1]  # y = x at the start
        grad_y = z_y / n + reg.grad(y)
        st.flops += A.nnz
        x_new = project_l1_ball(y - step_size * grad_y, cfg.radius)
        w_new = A.matvec(x_new)
        st.flops += A.nnz
        obj_new = loss.mean_value(w_new) + reg.value(x_new)
        if obj_new > obj:
            # momentum overshot; fall back to a monotone step from x
            tau = 1.0
            grad_x = st.z / n + reg.grad(st.x)
            x_new = project_l1_ball(st.x - step_size * grad_x, cfg.radius)
            w_new = A.matvec(x_new)
            st.flops += 2 * A.nnz
            obj_new = loss.mean_value(w_new) + reg.value(x_new)
        tau_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tau * tau))
        coeff = (tau - 1.0) / tau_new
        y = x_new + coeff * (x_new - st.x)
        w_y = w_new + coeff * (w_new - st.w)
        st.x, st.w, obj, tau = x_new, w_new, obj_new, tau_new
        # A' f'(w) and the next gradient's A' f'(w_y), recorded or not, in
        # one pass (BLAS is about twice as slow on the transpose's strides)
        derivs = loss.derivatives(np.stack((w_new, w_y)))
        products = A.rmatvec(np.ascontiguousarray(derivs.T))
        st.y, st.z, z_y = derivs[0], products[:, 0], products[:, 1]

    return step


def _svrg(A: SparseDesignMatrix, loss: LossModel, reg: Regularizer,
          cfg: BaselineConfig):
    """Projected prox-SVRG; one step, and one trace record, per epoch.

    Each epoch snapshots the current point, stores its predictions and full
    data gradient, then runs an epoch of n variance-reduced steps
        g = (f_i'(a_i'x) - f_i'(a_i'xs)) a_i + grad_snapshot + mu x
    with sample indices from the seeded portable generator. With one sample
    the correction cancels the snapshot term exactly and the method reduces
    to deterministic projected gradient descent. Returns the step.
    """
    n = A.n_rows
    step_size = 0.1 / total_smoothness(A, reg)
    rng = PortableRng(cfg.seed)
    g, v = np.empty(A.n_cols), np.empty(A.n_cols)

    def step(st):
        # the snapshot's derivatives and gradient; exact because w == A x here
        derivs, z = _plug_in(A, loss, st)
        grad_snapshot = z / n
        snapshot = derivs.tolist()
        st.flops += A.nnz
        x = st.x
        for i in rng.integers(n, n).tolist():
            p = A.row_dot(i, x)
            coeff = loss_derivative(loss, p, i) - snapshot[i]
            # g = grad_snapshot + mu x + coeff a_i and v = x - step_size g
            # in place; the projection's prefix starts 16 past x's support
            np.multiply(x, reg.mu, out=g)
            np.add(grad_snapshot, g, out=g)
            A.add_scaled_row(i, coeff, g)
            np.multiply(g, step_size, out=v)
            np.subtract(x, v, out=v)
            x = project_l1_ball(v, cfg.radius, np.count_nonzero(x) + 16)
            st.flops += 2 * int(A.row_nnz[i])
        st.x = x
        st.w = A.matvec(x)  # refreshed at the epoch's end
        st.z = None  # w moved
        st.flops += A.nnz

    return step


def solve_baseline(A: SparseDesignMatrix, loss: LossModel, reg: Regularizer,
                   cfg: BaselineConfig):
    """Run cfg.kind from x = 0 to cfg's gap or budget; returns (x, trace)."""
    step = {"fw": _fw, "acc_pgd": _acc_pgd, "svrg": _svrg}[cfg.kind](
        A, loss, reg, cfg)

    def certificate(st):
        y, z = _plug_in(A, loss, st)
        return dual_objective(A, loss, reg, y, cfg.radius, z)

    state = SolverState(np.zeros(A.n_cols), None, np.zeros(A.n_rows), None)
    trace = run_to_gap(A, loss, reg, state, step, certificate,
                       np.count_nonzero, cfg.max_iters, cfg.gap_tol,
                       cfg.record_every)
    return state.x, trace
