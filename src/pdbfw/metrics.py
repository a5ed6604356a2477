"""Objective values, the computable dual objective / duality gap, and
convergence traces with arithmetic-cost accounting.

The dual objective follows the saddle-point form

    D(y) = min_{x in C} { g(x) + (1/n) <y, A x> } - (1/n) sum_i f_i*(y_i),

whose inner minimization is exact for g = (mu/2)||x||^2: completing the square
shows the minimizer is the Euclidean projection of -A'y/(n mu) onto C (the l1
ball in the vector case, the trace-norm ball in the matrix case).

flop_count in a trace counts multiply-add pairs in matrix kernels only
(selection, scalar prox sweeps, and objective bookkeeping are excluded); it is
a hardware-independent cost proxy. With a 1 GFLOP/s reference machine it also
defines the deterministic `seconds` axis written to trace CSVs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core_linalg import SparseDesignMatrix, project_l1_ball
from .losses import LossModel, MatrixQuadraticLoss, Regularizer


class DivergenceError(RuntimeError):
    """A solver produced a non-finite objective; .iteration names the step."""

    def __init__(self, iteration: int, detail: str = ""):
        self.iteration = iteration
        msg = f"solver diverged at iteration {iteration}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    elapsed_seconds: float
    primal: float
    dual: float
    gap: float
    flops: int
    support: int


@dataclass
class ConvergenceTrace:
    """Per-iteration records of a single solver run (append-only)."""

    records: list = field(default_factory=list)

    def append(self, iteration, elapsed_seconds, primal, dual, flops, support):
        if self.records and iteration <= self.records[-1].iteration:
            raise ValueError("trace iterations must be strictly increasing")
        if not (np.isfinite(primal) and np.isfinite(dual)):
            raise DivergenceError(iteration,
                                  f"primal={primal!r}, dual={dual!r}")
        self.records.append(TraceRecord(iteration, float(elapsed_seconds),
                                        float(primal), float(dual),
                                        float(primal) - float(dual),
                                        int(flops), int(support)))

    def __len__(self):
        return len(self.records)

    @property
    def final(self) -> TraceRecord:
        return self.records[-1]

    def gaps(self) -> np.ndarray:
        return np.array([r.gap for r in self.records])

    def primals(self) -> np.ndarray:
        return np.array([r.primal for r in self.records])

    def iterations(self) -> np.ndarray:
        return np.array([r.iteration for r in self.records])

    def gap_at(self, iteration: int) -> float:
        for r in self.records:
            if r.iteration == iteration:
                return r.gap
        raise KeyError(f"no record at iteration {iteration}")


def project_nuclear_ball(M: np.ndarray, radius: float) -> np.ndarray:
    """Frobenius projection of M onto {||X||_* <= radius} via an exact SVD."""
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    M = np.asarray(M, dtype=np.float64)
    u, s, vt = np.linalg.svd(M, full_matrices=False)
    if s.sum() <= radius:
        return M.copy()
    s_proj = project_l1_ball(s, radius)
    return (u * s_proj) @ vt


def dual_objective(A: SparseDesignMatrix, loss: LossModel, reg: Regularizer,
                   y: np.ndarray, radius: float, z: np.ndarray = None) -> float:
    """D(y) over the l1 ball of the given radius; -inf outside the conjugate box.

    Pass z = A'y when it is already maintained to avoid the matrix product.
    """
    conj = loss.conjugate_sum(y)
    if np.isinf(conj):
        return -np.inf
    n = A.n_rows
    if z is None:
        z = A.rmatvec(y)
    x_hat = project_l1_ball(-z / (n * reg.mu), radius)
    return reg.value(x_hat) + float(np.dot(z, x_hat)) / n - conj / n


def dual_objective_trace(A: SparseDesignMatrix, loss: MatrixQuadraticLoss,
                         reg: Regularizer, Y: np.ndarray, radius: float,
                         Z: np.ndarray = None) -> float:
    """Matrix analog of dual_objective over the trace-norm ball."""
    n = A.n_rows
    if Z is None:
        Z = A.rmatvec(Y)
    X_hat = project_nuclear_ball(-Z / (n * reg.mu), radius)
    return (reg.value(X_hat) + float(np.vdot(Z, X_hat)) / n
            - loss.conjugate_sum(Y) / n)


def duality_gap(A: SparseDesignMatrix, loss: LossModel, reg: Regularizer,
                x: np.ndarray, y: np.ndarray, radius: float) -> float:
    """P(x) - D(y); nonnegative by weak duality whenever x is feasible."""
    l1 = float(np.abs(x).sum())
    if l1 > radius * (1.0 + 1e-9):
        raise ValueError(f"x infeasible: ||x||_1 = {l1} > radius {radius}")
    primal = loss.mean_value(A.matvec(x)) + reg.value(x)
    return primal - dual_objective(A, loss, reg, y, radius)


def relative_primal_error(trace: ConvergenceTrace, p_star: float) -> np.ndarray:
    """Elementwise (P_t - P*)/P* along the trace."""
    if p_star <= 0:
        raise ValueError(f"p_star must be positive, got {p_star}")
    return (trace.primals() - p_star) / p_star
