"""Block primal-dual Frank-Wolfe solver for l1-ball-constrained ERM, and the
block loop it shares with the trace-norm solver.

Each iteration performs an s-sparse primal Frank-Wolfe step against the
proximal linearization of the Lagrangian, maintains w = Ax through the
touched columns, then greedily updates the k dual coordinates with the
largest proximal displacement (Gauss-Southwell-r rule) and maintains
z = A'y through the touched rows. Per-iteration arithmetic is proportional
to the nonzeros of the s columns and k rows actually touched.

Only the steps, the dual certificate and the support count depend on the
constraint set; `pdbfw_trace` supplies its own and runs the same loop.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .core_linalg import (SparseDesignMatrix, SparseUpdate,
                          apply_row_slice_transpose, apply_sparse_col_product,
                          sparse_l1_prox, top_k_by_magnitude)
from .losses import LossModel, Regularizer
from .metrics import ConvergenceTrace, dual_objective

DEFAULT_GAP_TOL = 1e-8


class ConfigurationError(ValueError):
    """Raised when resolved step sizes are degenerate (non-finite or <= 0)."""


@dataclass(frozen=True)
class SolverConfig:
    """Constraint radius, budgets, and step sizes for both block solvers.

    Fields left as None are resolved to their theory defaults against the
    problem instance:

      eta   = mu / (2 L)
      k     = ceil(n s / d) for the l1 solver,
              ceil(n s (1/c + 1/d)) for the trace solver (both clamped to [1, n])
      delta = (1/k) / ( L/(mu n beta) + (5 beta R)/(2 alpha mu n^2) (1 + 4 L/mu) )
              with 4 -> 8 and R the spectral bound in the trace case

    mu and L come from the Regularizer passed to the solver.
    """

    radius: float
    s: int
    k: int = None
    eta: float = None
    delta: float = None
    max_iters: int = 1000
    gap_tol: float = DEFAULT_GAP_TOL

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        if self.s < 1:
            raise ValueError(f"s must be >= 1, got {self.s}")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if self.eta is not None and not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must lie in (0, 1], got {self.eta}")
        if self.delta is not None and self.delta <= 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if self.k is not None and self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


def default_delta(k: int, n: int, beta: float, alpha: float, R: float,
                  reg: Regularizer, curvature_factor: float) -> float:
    """Theory default dual step; curvature_factor is 4 (l1) or 8 (trace)."""
    L, mu = reg.l_smooth, reg.mu
    denom = (L / (mu * n * beta)
             + (5.0 * beta * R) / (2.0 * alpha * mu * n * n)
             * (1.0 + curvature_factor * L / mu))
    delta = 1.0 / (k * denom)
    if not np.isfinite(delta) or delta <= 0:
        raise ConfigurationError(
            f"default dual step is degenerate (delta={delta!r}); "
            f"check mu={mu}, R={R}")
    return delta


def resolve(cfg: SolverConfig, A: SparseDesignMatrix, loss, reg: Regularizer,
            k_default: float, delta_terms) -> SolverConfig:
    """Fill in the eta, k and delta defaults of a block solver.

    The constraint set supplies the unclamped default `k_default` and
    `delta_terms(k)`, the (R, curvature_factor) pair of `default_delta`,
    which is only evaluated when delta is left unset.
    """
    if loss.n != A.n_rows:
        raise ValueError("loss sample count does not match matrix rows")
    n = A.n_rows
    eta = cfg.eta if cfg.eta is not None else reg.mu / (2.0 * reg.l_smooth)
    if not 0.0 < eta <= 1.0:
        raise ConfigurationError(f"resolved eta={eta} outside (0, 1]")
    k = cfg.k if cfg.k is not None else max(1, min(n, math.ceil(k_default)))
    if k > n:
        raise ValueError(f"k={k} exceeds sample count {n}")
    delta = cfg.delta
    if delta is None:
        R, curvature_factor = delta_terms(k)
        delta = default_delta(k, n, loss.beta, loss.alpha, R, reg,
                              curvature_factor)
    return replace(cfg, eta=eta, k=k, delta=delta)


def l1_defaults(cfg: SolverConfig, A: SparseDesignMatrix):
    """The l1 ball's arguments to `resolve`, after checking s against d."""
    n, d = A.n_rows, A.n_cols
    if cfg.s > d:
        raise ValueError(f"s={cfg.s} exceeds feature dimension {d}")
    return n * cfg.s / d, lambda k: (A.max_row_norm_sq, 4.0)


@dataclass
class SolverState:
    """Mutable iterates of one run: x, y and the caches w = Ax, z = A'y.

    Vectors for the l1 ball; d x c and n x c matrices for the trace-norm
    ball with c tasks.
    """

    x: np.ndarray
    y: np.ndarray
    w: np.ndarray
    z: np.ndarray
    iteration: int = 0
    flops: int = 0

    @classmethod
    def zeros(cls, n: int, d: int, c: int = None) -> "SolverState":
        tasks = () if c is None else (c,)
        return cls(x=np.zeros((d, *tasks)), y=np.zeros((n, *tasks)),
                   w=np.zeros((n, *tasks)), z=np.zeros((d, *tasks)))


def primal_step(state: SolverState, cfg: SolverConfig, A: SparseDesignMatrix,
                loss: LossModel, reg: Regularizer) -> SparseUpdate:
    """Sparse Frank-Wolfe primal update; maintains w through x_tilde.

    Minimizes <c, v - x> + (L eta / 2)||v - x||^2 over the s-sparse l1 ball
    with c = z/n + grad g(x), whose exact solution is the sparse l1 prox of
    x - c/(L eta). The iterate moves to (1 - eta) x + eta x_tilde.
    """
    eta = cfg.eta
    c = state.z / A.n_rows + reg.grad(state.x)
    v = state.x - c / (reg.l_smooth * eta)
    x_tilde = sparse_l1_prox(v, cfg.radius, cfg.s)
    state.x *= 1.0 - eta
    state.x[x_tilde.indices] += eta * x_tilde.values
    state.w = apply_sparse_col_product(A, x_tilde, state.w, 1.0 - eta, eta)
    state.flops += int(A.col_nnz[x_tilde.indices].sum())
    return x_tilde


def dual_step(state: SolverState, cfg: SolverConfig, A: SparseDesignMatrix,
              loss: LossModel) -> np.ndarray:
    """Greedy k-coordinate dual ascent; updates y and z, returns the rows."""
    y_tilde = loss.dual_prox(state.w, state.y, cfg.delta, A.n_rows)
    diff = y_tilde - state.y
    rows = top_k_by_magnitude(diff, cfg.k)
    dy = diff[rows]
    state.y[rows] = y_tilde[rows]
    state.z = apply_row_slice_transpose(A, rows, dy, state.z)
    state.flops += int(A.row_nnz[rows].sum())
    return rows


def block_loop(A: SparseDesignMatrix, loss, reg: Regularizer,
               rc: SolverConfig, state: SolverState, primal, dual,
               certificate, support):
    """Alternate `primal` and `dual` steps on `state` until the recorded gap
    is <= rc.gap_tol or rc.max_iters steps have run; returns (x, y, trace).

    `certificate(A, loss, reg, y, radius, z)` is the dual objective over the
    constraint set and `support(x)` the size recorded for the iterate.
    """
    trace = ConvergenceTrace()
    t0 = time.perf_counter()

    def record():
        primal_value = loss.mean_value(state.w) + reg.value(state.x)
        dual_value = certificate(A, loss, reg, state.y, rc.radius, state.z)
        trace.append(state.iteration, time.perf_counter() - t0, primal_value,
                     dual_value, state.flops, support(state.x))
        return trace.final.gap

    gap = record()
    for t in range(1, rc.max_iters + 1):
        if gap <= rc.gap_tol:
            break
        state.iteration = t
        primal(state, rc, A, loss, reg)
        dual(state, rc, A, loss)
        gap = record()
    return state.x, state.y, trace


def solve(A: SparseDesignMatrix, loss: LossModel, reg: Regularizer,
          cfg: SolverConfig):
    """Run the block primal-dual solver until gap <= gap_tol or max_iters.

    Parameters
    ----------
    A : SparseDesignMatrix
        Design matrix (n samples, d features).
    loss : LossModel
        Smooth hinge or quadratic separable loss over n samples.
    reg : Regularizer
        Strongly convex l2 regularizer g.
    cfg : SolverConfig
        Radius, budgets, and (optionally) step-size overrides.

    Returns
    -------
    x : ndarray, shape (d,)
    y : ndarray, shape (n,)
    trace : ConvergenceTrace
        One record per iteration including iteration 0; flop counts cover
        the column/row-restricted products only.
    """
    rc = resolve(cfg, A, loss, reg, *l1_defaults(cfg, A))
    state = SolverState.zeros(A.n_rows, A.n_cols)
    return block_loop(A, loss, reg, rc, state, primal_step, dual_step,
                      dual_objective, np.count_nonzero)
