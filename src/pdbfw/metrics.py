"""Objective values, the computable dual objective / duality gap,
convergence traces with arithmetic-cost accounting, and the loop that runs
every solver to a certified gap.

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

import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .core_linalg import (SparseDesignMatrix, l1_threshold, project_l1_ball,
                          range_svd)
from .losses import LossModel, Regularizer

# range sketch columns past the rank to capture (s, or the last rank found)
POWER_OVERSAMPLE = 4


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
        if not (math.isfinite(primal) and math.isfinite(dual)):
            raise DivergenceError(iteration,
                                  f"primal={primal!r}, dual={dual!r}")
        self.records.append(TraceRecord(iteration, float(elapsed_seconds),
                                        float(primal), float(dual),
                                        float(primal) - float(dual),
                                        int(flops), int(support)))

    @property
    def final(self) -> TraceRecord:
        return self.records[-1]


def check_integer(name: str, value, least: int = None) -> None:
    """Raise ValueError unless value is an integer (numpy's too, but not a
    bool) that is, when `least` is given, at least `least`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def check_run_settings(radius: float, max_iters: int, gap_tol: float) -> None:
    """Check the settings every solver's config shares: a positive finite
    radius, an integer max_iters >= 0 and any gap_tol but NaN; no bools."""
    if isinstance(radius, (bool, np.bool_)) or not 0.0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    check_integer("max_iters", max_iters, 0)
    if isinstance(gap_tol, (bool, np.bool_)) or math.isnan(gap_tol):
        raise ValueError(f"gap_tol must be a number, got {gap_tol}")


def check_targets(loss, ndim: int) -> None:
    """Raise ValueError unless the loss's targets have the ball's ndim: 1
    for the l1 ball, 2 (n x c) for the trace-norm ball."""
    if loss.targets.ndim != ndim:
        ball = "l1" if ndim == 1 else "trace-norm"
        raise ValueError(f"the {ball} ball needs {ndim}-D targets, got "
                         f"targets of shape {loss.targets.shape}")


def run_to_gap(A: SparseDesignMatrix, loss, reg: Regularizer, state, step,
               certificate, support, max_iters: int, gap_tol: float,
               record_every: int = 1, answer=None) -> ConvergenceTrace:
    """The iteration loop of every solver; returns its trace.

    Records iteration 0, then sets `state.iteration` to t and calls
    `step(state)` for t = 1, 2, ... until a recorded gap is <= gap_tol or
    max_iters steps have run. It records every `record_every`th step and
    the last one. A record holds the primal value at (state.x, state.w),
    the dual value `certificate(state)`, state.flops and `support(state.x)`;
    its elapsed time is read after the certificate.

    `answer(state, value, dual)`, when given, runs in each record after the
    certificate, with value the mean loss at state.w. It may move state.x
    and state.w to another point (and add to state.flops); it returns the
    mean loss at state.w, which the record then reports.
    """
    check_targets(loss, state.x.ndim)
    if loss.n != A.n_rows:
        raise ValueError("loss sample count does not match matrix rows")
    trace = ConvergenceTrace()
    t0 = time.perf_counter()

    def record():
        value = loss.mean_value(state.w)
        dual = certificate(state)
        if answer is not None:
            value = answer(state, value, dual)
        trace.append(state.iteration, time.perf_counter() - t0,
                     value + reg.value(state.x), dual, state.flops,
                     support(state.x))
        return trace.final.gap

    gap = record()
    for t in range(1, max_iters + 1):
        if gap <= gap_tol:
            break
        state.iteration = t
        step(state)
        if t % record_every == 0 or t == max_iters:
            gap = record()
    return trace


def project_nuclear_ball(M: np.ndarray, radius: float) -> np.ndarray:
    """Frobenius projection of M onto {||X||_* <= radius} via an exact SVD."""
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    M = np.asarray(M, dtype=np.float64)
    u, s, vt = np.linalg.svd(M, full_matrices=False)
    if s.sum() <= radius:
        return M.copy()
    s_proj = project_l1_ball(s, radius)
    return (u * s_proj) @ vt


def _inner_value(a: np.ndarray, radius: float, mu: float) -> float:
    """min over the l1 ball of (mu/2)||x||^2 - mu <c, x>, a = |c|: it is
    (mu/2) sum (theta - u)(u + theta) over the active u, +0.0 at c = 0."""
    theta, u = l1_threshold(a, radius)
    return 0.5 * mu * float(np.dot(theta - u, u + theta))


def dual_objective(A: SparseDesignMatrix, loss: LossModel, reg: Regularizer,
                   y: np.ndarray, radius: float, z: np.ndarray = None,
                   conj: float = None) -> float:
    """D(y) over the l1 ball of the given radius; -inf outside the conjugate box.

    Pass z = A'y when it is already maintained to avoid the matrix product,
    and conj = loss.conjugate_sum(y) when the caller needs it too.
    """
    if conj is None:
        conj = loss.conjugate_sum(y)
    if np.isinf(conj):
        return -np.inf
    n = A.n_rows
    if z is None:
        z = A.rmatvec(y)
    a = np.abs(z)
    a /= n * reg.mu
    return _inner_value(a, radius, reg.mu) - conj / n


def _sketched_singular_values(M: np.ndarray, block: np.ndarray):
    """Singular values of M (d x c) from its range sketch on the c x b
    `block`, or None when the sketch cannot vouch for them.

    With Q and B = Q'M from `range_svd(M, block)`, the residual
    r = ||M - QB||_F bounds how far each singular value of B lies from M's
    (Weyl), and M's values past the b-th lie below r.
    With tau = max(d, c) eps sv[0], the numerical-rank threshold, the sketch
    is accepted only when r <= tau/4, the last value is below tau (the
    sketch is wider than the rank, so a full-rank M always misses), and no
    value lies within r + tau/2 of tau, so no rank count can flip.
    """
    Q, B, _, sv, _ = range_svd(M, block, compute_uv=False)
    R = Q @ B
    R -= M  # ||QB - M|| = ||M - QB||, with one d x c temporary
    residual = np.linalg.norm(R)
    tau = sv[0] * max(M.shape) * np.finfo(float).eps
    if residual > 0.25 * tau:
        return None
    if tau == 0.0:  # then M = QB = 0
        return sv
    if sv[-1] >= tau or np.any(np.abs(sv - tau) <= residual + 0.5 * tau):
        return None
    return sv


def _full_singular_values(M: np.ndarray) -> np.ndarray:
    return np.linalg.svd(M, compute_uv=False)


def rank_count(sv: np.ndarray, shape) -> int:
    """Count of the singular values sv of a matrix of the given shape above
    the numerical-rank threshold max(shape) eps sv[0]."""
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > sv[0] * max(shape) * np.finfo(float).eps))


class SketchedSpectrum:
    """Singular values of one run's d x c matrices from range sketches on a
    fixed c x b block: on all of it at first, on its first rank_count +
    POWER_OVERSAMPLE columns after a hit on a nonzero matrix. A narrower
    miss retries on the whole block; a miss there switches the run to the
    full SVD for good, so it wastes at most one whole-block sketch."""

    def __init__(self, block: np.ndarray):
        self.block = block
        self.width = block.shape[1]

    def __call__(self, M: np.ndarray) -> np.ndarray:
        if self.block is not None:
            sv = _sketched_singular_values(M, self.block[:, :self.width])
            if sv is None and self.width < self.block.shape[1]:
                sv = _sketched_singular_values(M, self.block)
            if sv is not None:
                if sv[0] > 0.0:
                    self.width = min(rank_count(sv, M.shape) + POWER_OVERSAMPLE,
                                     self.block.shape[1])
                return sv
            self.block = None
        return _full_singular_values(M)


def dual_objective_trace(A: SparseDesignMatrix, loss: LossModel,
                         reg: Regularizer, Y: np.ndarray, radius: float,
                         Z: np.ndarray = None,
                         singular_values=_full_singular_values) -> float:
    """Matrix analog of dual_objective over the trace-norm ball.

    The inner minimizer is project_nuclear_ball(C, radius) with
    C = -Z/(n mu): it keeps the singular vectors of C and projects its
    singular values sv onto the l1 ball. Both terms of the inner value are
    then spectral, (mu/2)||X||^2 and <Z, X>/n = -mu <C, X>, so it is the l1
    ball's inner value on the magnitudes sv.

    `singular_values(C)` supplies sv; by default it is the full SVD. The
    solver passes a `SketchedSpectrum`, whose accepted values lie within
    rounding of the full SVD's and leave out only values below rounding, so
    the dual value can move in its last bits only.
    """
    n = A.n_rows
    mu = reg.mu
    if Z is None:
        Z = A.rmatvec(Y)
    sv = singular_values(Z * (-1.0 / (n * mu)))
    return _inner_value(sv, radius, mu) - loss.conjugate_sum(Y) / n
