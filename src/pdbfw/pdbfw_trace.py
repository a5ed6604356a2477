"""Block primal-dual Frank-Wolfe solver for the trace-norm ball.

The primal step replaces the sparse l1 prox with a rank-s spectral prox
(top-s SVD of the shifted iterate, then l1 projection of the singular
values), computed by block power iteration warm-started from the previous
call's block, so the per-iteration cost stays O(nds + ncs) instead of a
full decomposition. The dual step updates the k rows with the largest
proximal displacement in Euclidean norm. Both steps run in
`metrics.run_to_gap`, on matrix iterates.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core_linalg import (SparseDesignMatrix, project_l1_ball, range_svd,
                          top_k_by_magnitude)
from .data_io import PortableRng
from .losses import LossModel, Regularizer
from .metrics import (POWER_OVERSAMPLE, SketchedSpectrum, check_targets,
                      dual_objective_trace, rank_count, run_to_gap)
from .pdbfw_l1 import ETA, SolverConfig, SolverState, resolve

# block power iteration limits (oversampled by POWER_OVERSAMPLE over s)
POWER_MAX_SWEEPS = 100
POWER_TOL = 1e-10
VALUE_RTOL = 1e-14
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
    and non-increasing positive singular values. `block` is the prox's last
    c x b right block, the warm start of its next call."""

    left: np.ndarray      # d x r
    singular: np.ndarray  # r
    right: np.ndarray     # c x r
    block: Optional[np.ndarray] = None

    @property
    def rank(self) -> int:
        return int(self.singular.size)

    def to_dense(self) -> np.ndarray:
        return self.left @ (self.singular[:, None] * self.right.T)

    @classmethod
    def zero(cls, d: int, c: int) -> "LowRankFactor":
        return cls(left=np.zeros((d, 0)), singular=np.zeros(0),
                   right=np.zeros((c, 0)))


@functools.lru_cache(maxsize=16)
def _power_start(c: int, b: int) -> np.ndarray:
    """Orthonormal c x b start block of the power iteration, read-only.

    It depends on the shape alone, so it is drawn and QR-factored once.
    """
    Q, _ = np.linalg.qr(PortableRng(_POWER_SEED).normals(c * b).reshape(c, b))
    Q.flags.writeable = False
    return Q


def approx_lowrank_prox(M: np.ndarray, radius: float, s: int,
                        start: Optional[np.ndarray] = None) -> LowRankFactor:
    """Rank-s spectral prox of M onto the trace-norm ball.

    Exact target: keep the top-s singular triplets of M, then project the
    kept singular values onto the l1 ball of the given radius. The triplets
    come from oversampled block power iteration, one `range_svd` per sweep,
    from the c x b `start` block (by default `_power_start`; the solver
    passes the previous call's `block`). It stops at the first sweep whose
    relative SVD residual is at most POWER_TOL, or whose subproblem value
    sv.p - p.p/2 (p the projected values) moved by at most VALUE_RTOL
    relative since the sweep before; POWER_MAX_SWEEPS sweeps without either
    raise ApproximationError.
    """
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if s < 1:
        raise ValueError(f"rank budget must be >= 1, got {s}")
    M = np.asarray(M, dtype=np.float64)
    d, c = M.shape
    s_eff = min(s, d, c)
    if not M.any():
        return LowRankFactor.zero(d, c)

    block = (_power_start(c, min(s_eff + POWER_OVERSAMPLE, d, c))
             if start is None else start)
    value = np.nan
    for _ in range(POWER_MAX_SWEEPS):
        _, _, left_all, sv_all, block = range_svd(M, block)
        left, sv, right = left_all[:, :s_eff], sv_all[:s_eff], block[:, :s_eff]
        # M'(left) = right*sv holds exactly by construction, so the residual
        # of the forward map alone certifies the triplets
        residual = np.linalg.norm(M @ right - left * sv) / max(sv_all[0], 1e-300)
        projected = project_l1_ball(sv, radius)
        last, value = value, float(sv @ projected - 0.5 * projected @ projected)
        if residual <= POWER_TOL or abs(value - last) <= VALUE_RTOL * abs(value):
            break
    else:
        raise ApproximationError(float(residual), POWER_MAX_SWEEPS)

    keep = projected > 0.0
    return LowRankFactor(left=left[:, keep], singular=projected[keep],
                         right=right[:, keep], block=block)


def primal_step_trace(state: SolverState, cfg: SolverConfig,
                      A: SparseDesignMatrix, reg: Regularizer,
                      start: Optional[np.ndarray] = None) -> LowRankFactor:
    """Rank-s Frank-Wolfe primal update from the prox start block `start`;
    maintains W through the factor."""
    n = A.n_rows
    d, c = state.x.shape
    # x - (z/n + mu x)/(mu ETA) is -x - 2z/(n mu) only because ETA = 1/2
    M = state.z * (-1.0 / (n * reg.mu * ETA))
    M -= state.x
    factor = approx_lowrank_prox(M, cfg.radius, cfg.s, start)
    r = factor.rank
    state.x *= 1.0 - ETA
    state.w *= 1.0 - ETA
    if r > 0:
        scaled = replace(factor, singular=ETA * factor.singular)
        state.x += scaled.to_dense()
        AU = A.matvec(scaled.left)  # n x r
        state.w += (AU * scaled.singular) @ scaled.right.T
        state.flops += A.nnz * r + n * r * c + d * r * c
    return factor


def dual_step_trace(state: SolverState, cfg: SolverConfig,
                    A: SparseDesignMatrix,
                    loss: LossModel) -> np.ndarray:
    """Greedy k-row dual ascent; updates Y and Z, returns the rows."""
    Y_tilde = loss.dual_prox(state.w, state.y, cfg.delta, A.n_rows)
    diff = Y_tilde - state.y
    rows = top_k_by_magnitude(np.einsum("ij,ij->i", diff, diff), cfg.k)
    dY = diff[rows]
    state.y[rows] = Y_tilde[rows]
    state.z += A.row_submatrix_t_dot(rows, dY)
    state.flops += int(A.row_nnz[rows].sum()) * loss.n_tasks
    return rows


def solve_trace(A: SparseDesignMatrix, loss: LossModel, reg: Regularizer,
                cfg: SolverConfig):
    """Run the trace-norm block primal-dual solver.

    Parameters mirror the l1 solver; `loss` may be any `LossModel` on n x c
    targets, such as the smooth hinge on one-vs-all +-1 labels (multi-class).

    Returns (X, Y, trace). The trace's support column records the numerical
    rank of X.

    Each prox starts from the previous one's right block. Both records take
    their singular values from a `SketchedSpectrum` on the fixed
    `_power_start` block: from range sketches sized to the last rank found
    while they capture the matrix to rounding, from the full SVD after a
    miss on the whole block. The support column is the full SVD's count;
    the dual value can move in its last bits.
    """
    check_targets(loss, 2)
    c = loss.n_tasks
    rc = resolve(cfg, A, c)
    state = SolverState.zeros(A.n_rows, A.n_cols, c)
    block = _power_start(c, min(rc.s + POWER_OVERSAMPLE, A.n_cols, c))
    rank_sv, dual_sv = SketchedSpectrum(block), SketchedSpectrum(block)
    warm = None

    def step(st):
        nonlocal warm
        warm = primal_step_trace(st, rc, A, reg, warm).block
        dual_step_trace(st, rc, A, loss)

    def certificate(st):
        return dual_objective_trace(A, loss, reg, st.y, rc.radius, st.z,
                                    singular_values=dual_sv)

    trace = run_to_gap(A, loss, reg, state, step, certificate,
                       lambda X: rank_count(rank_sv(X), X.shape),
                       rc.max_iters, rc.gap_tol)
    return state.x, state.y, trace
