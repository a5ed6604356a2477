"""Block primal-dual Frank-Wolfe solver for the trace-norm ball.

The primal step replaces the sparse l1 prox with a rank-s spectral prox
(top-s SVD of the shifted iterate, then l1 projection of the singular
values), computed by block power iteration so the per-iteration cost stays
O(nds + ncs) instead of a full decomposition. The dual step updates the k
rows with the largest proximal displacement in Euclidean norm. Both steps
run in the block loop of `pdbfw_l1`, on matrix iterates.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core_linalg import (SparseDesignMatrix, project_l1_ball,
                          top_k_by_magnitude)
from .data_io import PortableRng
from .losses import MatrixQuadraticLoss, Regularizer
from .metrics import dual_objective_trace
from .pdbfw_l1 import SolverConfig, SolverState, block_loop, resolve

# block power iteration limits (oversampled by 4 over the rank budget)
POWER_OVERSAMPLE = 4
POWER_MAX_SWEEPS = 100
POWER_TOL = 1e-10
_POWER_SEED = 0x1E5D


class ApproximationError(RuntimeError):
    """Block power iteration failed to converge; .residual carries the last
    relative SVD residual."""

    def __init__(self, residual: float, sweeps: int):
        self.residual = residual
        super().__init__(
            f"low-rank prox did not converge after {sweeps} sweeps "
            f"(relative residual {residual:.3e})")


@dataclass(frozen=True)
class LowRankFactor:
    """Rank-r matrix left @ diag(singular) @ right.T with orthonormal factors
    and non-increasing positive singular values."""

    left: np.ndarray      # d x r
    singular: np.ndarray  # r
    right: np.ndarray     # c x r

    @property
    def rank(self) -> int:
        return int(self.singular.size)

    @property
    def trace_norm(self) -> float:
        return float(self.singular.sum())

    def to_dense(self) -> np.ndarray:
        return self.left @ (self.singular[:, None] * self.right.T)

    @classmethod
    def zero(cls, d: int, c: int) -> "LowRankFactor":
        return cls(left=np.zeros((d, 0)), singular=np.zeros(0),
                   right=np.zeros((c, 0)))


@dataclass(frozen=True)
class LmoAuditRecord:
    """One primal low-rank prox call: achieved objective vs. the exact one."""

    l_value: float
    l_star: float
    gamma: float
    eps: float

    def satisfied(self) -> bool:
        return self.l_value <= (1.0 - self.gamma) * self.l_star + self.eps


def compute_r_k(A: SparseDesignMatrix, k: int, exact_limit: int = 2000) -> float:
    """max over k-row subsets of sigma_max(A_I)^2, exactly when the subset
    count is small, otherwise upper-bounded by sigma_max(A)^2.

    k = 1 is exactly the largest squared row norm, and k = n takes the
    fallback's estimate of sigma_max(A)^2: neither needs the dense copy that
    the enumeration makes.
    """
    n = A.n_rows
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if k == 1:
        return A.max_row_norm_sq
    if k < n and math.comb(n, k) <= exact_limit:
        dense = A.to_dense()
        best = 0.0
        for subset in itertools.combinations(range(n), k):
            sv = np.linalg.svd(dense[list(subset)], compute_uv=False)
            if sv.size and sv[0] ** 2 > best:
                best = float(sv[0] ** 2)
        return best
    return A.spectral_norm_sq()


@functools.lru_cache(maxsize=16)
def _power_start(c: int, b: int) -> np.ndarray:
    """Orthonormal c x b start block of the power iteration, read-only.

    It depends on the shape alone, so it is drawn and QR-factored once.
    """
    Q, _ = np.linalg.qr(PortableRng(_POWER_SEED).normals(c * b).reshape(c, b))
    Q.flags.writeable = False
    return Q


def approx_lowrank_prox(M: np.ndarray, radius: float, s: int,
                        max_sweeps: int = POWER_MAX_SWEEPS,
                        tol: float = POWER_TOL) -> LowRankFactor:
    """Rank-s spectral prox of M onto the trace-norm ball.

    Exact target: keep the top-s singular triplets of M, then project the
    kept singular values onto the l1 ball of the given radius. The triplets
    come from oversampled block power iteration run to a relative SVD
    residual of `tol`, so the result is exact to working precision whenever
    the iteration converges.
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if s < 1:
        raise ValueError(f"rank budget must be >= 1, got {s}")
    M = np.asarray(M, dtype=np.float64)
    d, c = M.shape
    s_eff = min(s, d, c)
    scale = np.linalg.norm(M)
    if scale == 0.0:
        return LowRankFactor.zero(d, c)

    Q = _power_start(c, min(s_eff + POWER_OVERSAMPLE, d, c))
    residual = np.inf
    left = sv = right = None
    for sweep in range(max_sweeps):
        U, _ = np.linalg.qr(M @ Q)
        B = U.T @ M
        Ub, sv_all, Vt = np.linalg.svd(B, full_matrices=False)
        left_all = U @ Ub
        left = left_all[:, :s_eff]
        sv = sv_all[:s_eff]
        right = Vt[:s_eff].T
        # M'(left) = right*sv holds exactly by construction, so the residual
        # of the forward map alone certifies the triplets
        residual = np.linalg.norm(M @ right - left * sv) / max(sv_all[0], 1e-300)
        if residual <= tol:
            break
        Q = Vt.T
    else:
        raise ApproximationError(float(residual), max_sweeps)

    projected = project_l1_ball(sv, radius)
    keep = projected > 0.0
    return LowRankFactor(left=left[:, keep], singular=projected[keep],
                         right=right[:, keep])


def _exact_lowrank_prox_dense(M: np.ndarray, radius: float, s: int) -> np.ndarray:
    """Dense-SVD route to the same prox, used for auditing the power method."""
    u, sv, vt = np.linalg.svd(M, full_matrices=False)
    s_eff = min(s, sv.size)
    projected = project_l1_ball(sv[:s_eff], radius)
    return (u[:, :s_eff] * projected) @ vt[:s_eff]


def _subproblem_value(G: np.ndarray, X: np.ndarray, V: np.ndarray,
                      l_eta: float) -> float:
    diff = V - X
    return float(np.vdot(G, diff)) + 0.5 * l_eta * float(np.vdot(diff, diff))


def trace_defaults(cfg: SolverConfig, A: SparseDesignMatrix, c: int):
    """The trace-norm ball's arguments to `resolve`, after checking s
    against min(d, c); R is the restricted spectral bound r_k."""
    n, d = A.n_rows, A.n_cols
    if cfg.s > min(d, c):
        raise ValueError(f"rank budget s={cfg.s} exceeds min(d, c)={min(d, c)}")
    return (n * cfg.s * (1.0 / c + 1.0 / d),
            lambda k: (compute_r_k(A, k), 8.0))


def primal_step_trace(state: SolverState, cfg: SolverConfig,
                      A: SparseDesignMatrix, loss: MatrixQuadraticLoss,
                      reg: Regularizer, audit: list = None) -> LowRankFactor:
    """Rank-s Frank-Wolfe primal update; maintains W through the factor."""
    n = A.n_rows
    d, c = state.x.shape
    eta = cfg.eta
    l_eta = reg.l_smooth * eta
    G = state.z / n + reg.grad(state.x)
    M = state.x - G / l_eta
    factor = approx_lowrank_prox(M, cfg.radius, cfg.s)
    r = factor.rank
    if audit is not None:
        V = factor.to_dense()
        v_star = _exact_lowrank_prox_dense(M, cfg.radius, cfg.s)
        audit.append(LmoAuditRecord(
            l_value=_subproblem_value(G, state.x, V, l_eta),
            l_star=_subproblem_value(G, state.x, v_star, l_eta),
            gamma=0.5, eps=cfg.gap_tol / 8.0))
    state.x *= 1.0 - eta
    state.w *= 1.0 - eta
    if r > 0:
        state.x += eta * factor.to_dense()
        AU = A.matvec(factor.left)  # n x r through the sparse layout
        state.w += eta * ((AU * factor.singular) @ factor.right.T)
        state.flops += A.nnz * r + n * r * c + d * r * c
    return factor


def dual_step_trace(state: SolverState, cfg: SolverConfig,
                    A: SparseDesignMatrix,
                    loss: MatrixQuadraticLoss) -> np.ndarray:
    """Greedy k-row dual ascent; updates Y and Z, returns the rows."""
    Y_tilde = loss.dual_prox(state.w, state.y, cfg.delta, A.n_rows)
    diff = Y_tilde - state.y
    rows = top_k_by_magnitude(np.linalg.norm(diff, axis=1), cfg.k)
    dY = diff[rows]
    state.y[rows] = Y_tilde[rows]
    state.z += A.row_submatrix_t_dot(rows, dY)
    state.flops += int(A.row_nnz[rows].sum()) * loss.n_tasks
    return rows


def _numerical_rank(X: np.ndarray) -> int:
    sv = np.linalg.svd(X, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > sv[0] * max(X.shape) * np.finfo(float).eps))


def solve_trace(A: SparseDesignMatrix, loss: MatrixQuadraticLoss,
                reg: Regularizer, cfg: SolverConfig, lmo_audit: list = None):
    """Run the trace-norm block primal-dual solver.

    Parameters mirror the l1 solver; `loss` carries the n x c matrix targets.
    When `lmo_audit` is a list, every low-rank prox call appends an
    LmoAuditRecord comparing its objective against the exact dense-SVD oracle,
    with additive slack gap_tol / 8.

    Returns (X, Y, trace). The trace's support column records the numerical
    rank of X.
    """
    c = loss.n_tasks
    rc = resolve(cfg, A, loss, reg, *trace_defaults(cfg, A, c))
    state = SolverState.zeros(A.n_rows, A.n_cols, c)
    primal = functools.partial(primal_step_trace, audit=lmo_audit)
    return block_loop(A, loss, reg, rc, state, primal, dual_step_trace,
                      dual_objective_trace, _numerical_rank)
