"""Block primal-dual Frank-Wolfe solver for l1-ball-constrained ERM.

Each iteration performs an s-sparse primal Frank-Wolfe step against the
proximal linearization of the Lagrangian, maintains w = Ax through the
touched columns, then greedily updates the k dual coordinates with the
largest proximal displacement (Gauss-Southwell-r rule) and maintains
z = A'y through the touched rows. Per-iteration arithmetic is proportional
to the nonzeros of the s columns and k rows actually touched.

Only the steps, the dual certificate and the support count depend on the
constraint set; `pdbfw_trace` supplies its own. Both solvers, and the
reference solvers in `baselines`, run in `metrics.run_to_gap`. The l1
solver alone may stop on the certificate's own point instead of its
iterate (see `solve`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core_linalg import (SparseDesignMatrix, SparseUpdate, _restricted_sum,
                          apply_row_slice_transpose, apply_sparse_col_product,
                          project_l1_ball, sparse_l1_prox, top_k_by_magnitude)
from .losses import LossModel, Regularizer
from .metrics import (check_integer, check_run_settings, dual_objective,
                      run_to_gap)

DEFAULT_GAP_TOL = 1e-8
# the primal step mu / (2 L) of both balls: g = (mu/2)||x||^2 has L = mu
ETA = 0.5


@dataclass(frozen=True)
class SolverConfig:
    """Constraint radius and budgets for both block solvers.

    Fields left as None are resolved against the problem instance:

      k     = ceil(n s / d) for the l1 solver,
              ceil(n s (1/c + 1/d)) for the trace solver (both clamped to [1, n])
      delta = n, the sample count

    The primal step is the fixed ETA = mu / (2 L) = 1/2. With delta = n the
    dual prox moves each selected coordinate halfway from y_i to w_i - t_i
    (f_i'(w_i) for the quadratic loss; the hinge box clip follows), whatever
    the scale of A, mu or k. The paper's theory step is safe, but it ended
    at the iteration cap on every instance tried.

    mu comes from the Regularizer passed to the solver; the losses' own
    constants are 1 (see `losses`). The run stops at the first record whose
    gap is at most gap_tol, which may be any number but NaN (a negative one
    runs all max_iters steps).
    """

    radius: float
    s: int
    k: int = None
    delta: float = None
    max_iters: int = 1000
    gap_tol: float = DEFAULT_GAP_TOL

    def __post_init__(self):
        check_run_settings(self.radius, self.max_iters, self.gap_tol)
        check_integer("s", self.s, 1)
        if self.delta is not None and (isinstance(self.delta, (bool, np.bool_))
                                       or not 0.0 < self.delta < math.inf):
            raise ValueError(f"delta must be positive and finite, got {self.delta}")
        if self.k is not None:
            check_integer("k", self.k, 1)


def resolve(cfg: SolverConfig, A: SparseDesignMatrix,
            c: int = None) -> SolverConfig:
    """Fill in the k and delta defaults of a block solver after checking the
    budget s: against d for the l1 ball, and against min(d, c) for the
    trace-norm ball with c tasks."""
    n, d = A.n_rows, A.n_cols
    if c is None:
        if cfg.s > d:
            raise ValueError(f"s={cfg.s} exceeds feature dimension {d}")
        k_default = n * cfg.s / d
    else:
        if cfg.s > min(d, c):
            raise ValueError(f"rank budget s={cfg.s} exceeds min(d, c)={min(d, c)}")
        k_default = n * cfg.s * (1.0 / c + 1.0 / d)
    k = cfg.k if cfg.k is not None else max(1, min(n, math.ceil(k_default)))
    if k > n:
        raise ValueError(f"k={k} exceeds sample count {n}")
    delta = cfg.delta if cfg.delta is not None else float(n)
    return replace(cfg, k=k, delta=delta)


@dataclass
class SolverState:
    """Mutable iterates of one run: x, y and the caches w = Ax, z = A'y.

    Vectors for the l1 ball; d x c and n x c matrices for the trace-norm
    ball with c tasks. Baselines hold y = f'(w), z = A'y (None once w moves).
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
                reg: Regularizer) -> SparseUpdate:
    """Sparse Frank-Wolfe primal update; maintains w through x_tilde.

    Minimizes <c, v - x> + (L ETA / 2)||v - x||^2 over the s-sparse l1 ball
    with c = z/n + grad g(x), whose exact solution is the sparse l1 prox of
    x - c/(L ETA). The iterate moves to (1 - ETA) x + ETA x_tilde.
    """
    # x - c/(L ETA) is -x - 2z/(n mu) only because ETA = 1/2 (and L = mu)
    v = state.z * (-1.0 / (A.n_rows * reg.mu * ETA))
    v -= state.x
    x_tilde = sparse_l1_prox(v, cfg.radius, cfg.s)
    state.x *= 1.0 - ETA
    state.x[x_tilde.indices] += ETA * x_tilde.values
    state.w = apply_sparse_col_product(A, x_tilde, state.w, 1.0 - ETA, ETA)
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


def solve(A: SparseDesignMatrix, loss: LossModel, reg: Regularizer,
          cfg: SolverConfig):
    """Run the block primal-dual solver until gap <= gap_tol or max_iters.

    Each record splits the gap of x against D(y) as G(x) = FY + the inner
    gap of x, with FY = (1/n) sum_i f_i(w_i) + f_i*(y_i) - y_i w_i the
    loss's Fenchel-Young gap at (w, y). The certificate's own point
    x_hat = proj(-z/(n mu)), the minimizer of the inner problem, has no
    inner gap, so when FY <= gap_tol the record builds x_hat, forms A x_hat
    over its support (charging those flops) and, if x_hat certifies the
    gap against the same D(y), reports x_hat instead of x and the run
    stops there. A record whose x_hat does not certify is left as it was.

    Parameters
    ----------
    A : SparseDesignMatrix
        Design matrix (n samples, d features).
    loss : LossModel
        Smooth hinge or quadratic separable loss over n samples.
    reg : Regularizer
        Strongly convex l2 regularizer g.
    cfg : SolverConfig
        Radius, budgets, and (optionally) k and delta overrides.

    Returns
    -------
    x : ndarray, shape (d,)
        The certified point x_hat when one certified, else the iterate;
        the final record's primal, gap and support describe it.
    y : ndarray, shape (n,)
    trace : ConvergenceTrace
        One record per iteration including iteration 0; flop counts cover
        the column/row-restricted products only.
    """
    rc = resolve(cfg, A)
    n = A.n_rows
    state = SolverState.zeros(n, A.n_cols)
    conj = None  # the certificate's conjugate sum, read by `answer`

    def step(st):
        primal_step(st, rc, A, reg)
        dual_step(st, rc, A, loss)

    def certificate(st):
        nonlocal conj
        conj = loss.conjugate_sum(st.y)
        return dual_objective(A, loss, reg, st.y, rc.radius, st.z, conj)

    def answer(st, value, dual):
        # FY = G(x) less the inner gap, which x_hat removes (<y, w> = <z, x>)
        if not value + (conj - float(np.dot(st.y, st.w))) / n <= rc.gap_tol:
            return value
        x_hat = project_l1_ball(st.z * (-1.0 / (n * reg.mu)), rc.radius)
        support = np.flatnonzero(x_hat)
        w_hat = _restricted_sum(A, False, support, x_hat[support])
        st.flops += int(A.col_nnz[support].sum())
        value_hat = loss.mean_value(w_hat)
        if not value_hat + reg.value(x_hat) - dual <= rc.gap_tol:
            return value
        st.x, st.w = x_hat, w_hat
        return value_hat

    trace = run_to_gap(A, loss, reg, state, step, certificate,
                       np.count_nonzero, rc.max_iters, rc.gap_tol,
                       answer=answer)
    return state.x, state.y, trace
