"""Separable loss models (smooth hinge, quadratic), the l2 regularizer, their
convex conjugates, and the closed-form dual proximal update.

Smooth hinge on the margin z = p * label:

    h(z) = 1/2 - z        if z < 0
           (1 - z)^2 / 2  if 0 <= z <= 1
           0              if z > 1

Its conjugate h*(u) = u^2/2 + u is finite exactly on u in [-1, 0], so the
dual variable of sample i lives in the box [-1, 0] for label +1 and [0, 1]
for label -1. The quadratic loss f_i(p) = (p - b_i)^2 / 2 has conjugate
f_i*(y) = y^2/2 + b_i*y, finite everywhere. Both models have beta = alpha = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core_linalg import SparseDesignMatrix

SMOOTH_HINGE = "smooth_hinge"
QUADRATIC = "quadratic"


@dataclass(frozen=True)
class Regularizer:
    """g(x) = (mu/2) ||x||^2; strongly convex and smooth with L = mu."""

    mu: float
    l_smooth: float = None  # defaults to mu

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if self.l_smooth is None:
            object.__setattr__(self, "l_smooth", float(self.mu))
        if self.l_smooth <= 0:
            raise ValueError(f"l_smooth must be positive, got {self.l_smooth}")

    def value(self, x: np.ndarray) -> float:
        return 0.5 * self.mu * float(np.vdot(x, x))

    def grad(self, x: np.ndarray) -> np.ndarray:
        return self.mu * x


def _hinge_value(z):
    return np.where(z < 0.0, 0.5 - z,
                    np.where(z <= 1.0, 0.5 * (1.0 - z) ** 2, 0.0))


def _hinge_derivative(z):
    return np.where(z < 0.0, -1.0, np.where(z <= 1.0, z - 1.0, 0.0))


@dataclass(frozen=True)
class LossModel:
    """Separable per-sample loss family with conjugate and dual-prox support.

    targets holds the labels (+-1, smooth hinge) or regression targets b_i
    (quadratic). beta is the smoothness constant, alpha the strong-convexity
    constant of each f_i on its curved region; both are 1 for the two models
    implemented here.
    """

    kind: str
    targets: np.ndarray
    beta: float = field(default=1.0)
    alpha: float = field(default=1.0)

    def __post_init__(self):
        t = np.asarray(self.targets, dtype=np.float64)
        object.__setattr__(self, "targets", t)
        if self.kind not in (SMOOTH_HINGE, QUADRATIC):
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if not np.all(np.isfinite(t)):
            raise ValueError("targets contain non-finite entries")
        if self.kind == SMOOTH_HINGE and not np.all(np.isin(t, (-1.0, 1.0))):
            raise ValueError("smooth hinge labels must be in {-1, +1}")

    @property
    def n(self) -> int:
        return self.targets.size

    # per-sample box on which the conjugate is finite
    def conjugate_box(self):
        if self.kind == SMOOTH_HINGE:
            lower = np.where(self.targets > 0, -1.0, 0.0)
            upper = np.where(self.targets > 0, 0.0, 1.0)
        else:
            lower = np.full(self.n, -np.inf)
            upper = np.full(self.n, np.inf)
        return lower, upper

    def values(self, p: np.ndarray) -> np.ndarray:
        if self.kind == SMOOTH_HINGE:
            return _hinge_value(p * self.targets)
        return 0.5 * (p - self.targets) ** 2

    def derivatives(self, p: np.ndarray) -> np.ndarray:
        if self.kind == SMOOTH_HINGE:
            return self.targets * _hinge_derivative(p * self.targets)
        return p - self.targets

    def mean_value(self, p: np.ndarray) -> float:
        return float(self.values(p).mean())

    def conjugates(self, y: np.ndarray) -> np.ndarray:
        """f_i*(y_i), +inf outside the conjugate box."""
        if self.kind == SMOOTH_HINGE:
            u = y * self.targets
            inside = (u >= -1.0) & (u <= 0.0)
            return np.where(inside, 0.5 * u * u + u, np.inf)
        return 0.5 * y * y + self.targets * y

    def conjugate_sum(self, y: np.ndarray) -> float:
        vals = self.conjugates(y)
        if np.any(np.isinf(vals)):
            return np.inf
        return float(vals.sum())

    def dual_prox(self, w: np.ndarray, y: np.ndarray, delta: float,
                  n: int) -> np.ndarray:
        """Vectorized closed-form maximizer of the per-coordinate dual update

            (1/n) w_i u - (1/n) f_i*(u) - (1/(2 delta)) (u - y_i)^2.

        For both conjugates the stationary point is
        u* = (y_i + (delta/n)(w_i - t_i)) / (1 + delta/n) with t_i the label or
        target; hinge coordinates are then clipped to their box (exact because
        the objective is concave).
        """
        if delta <= 0:
            raise ValueError(f"delta must be positive, got {delta}")
        r = delta / n
        u = (y + r * (w - self.targets)) / (1.0 + r)
        if self.kind == SMOOTH_HINGE:
            lower, upper = self.conjugate_box()
            u = np.clip(u, lower, upper)
        return u


def smooth_hinge_loss(labels) -> LossModel:
    return LossModel(kind=SMOOTH_HINGE, targets=np.asarray(labels, dtype=np.float64))


def quadratic_loss(targets) -> LossModel:
    return LossModel(kind=QUADRATIC, targets=np.asarray(targets, dtype=np.float64))


@dataclass(frozen=True)
class MatrixQuadraticLoss:
    """Row-separable quadratic loss for matrix predictions:
    f_i(p) = ||p - B_i||^2 / 2 with p the i-th row of AX.

    Entrywise it is the scalar quadratic loss, so conjugates and the dual prox
    reuse the same closed forms column by column. beta = alpha = 1.
    """

    B: np.ndarray
    beta: float = 1.0
    alpha: float = 1.0

    def __post_init__(self):
        b = np.asarray(self.B, dtype=np.float64)
        if b.ndim != 2:
            raise ValueError("matrix targets must be 2-D")
        if not np.all(np.isfinite(b)):
            raise ValueError("targets contain non-finite entries")
        object.__setattr__(self, "B", b)

    @property
    def n(self) -> int:
        return self.B.shape[0]

    @property
    def n_tasks(self) -> int:
        return self.B.shape[1]

    def mean_value(self, P: np.ndarray) -> float:
        diff = P - self.B
        return 0.5 * float(np.vdot(diff, diff)) / self.n

    def conjugate_sum(self, Y: np.ndarray) -> float:
        return 0.5 * float(np.vdot(Y, Y)) + float(np.vdot(self.B, Y))

    def dual_prox(self, W: np.ndarray, Y: np.ndarray, delta: float,
                  n: int) -> np.ndarray:
        if delta <= 0:
            raise ValueError(f"delta must be positive, got {delta}")
        r = delta / n
        return (Y + r * (W - self.B)) / (1.0 + r)


# --- scalar operation forms -------------------------------------------------
# Per-sample entry points mirroring the vectorized methods above; the solvers
# use the vector forms, these exist for direct scalar use and testing.

def loss_value(m: LossModel, p: float, i: int) -> float:
    return _scalar(m, p, i, "value")


def _scalar(m: LossModel, p: float, i: int, which: str) -> float:
    if not 0 <= i < m.n:
        raise ValueError(f"sample index {i} out of range [0, {m.n})")
    t = m.targets[i]
    if which == "value":
        if m.kind == SMOOTH_HINGE:
            return float(_hinge_value(np.float64(p * t)))
        return 0.5 * (p - t) ** 2
    if which == "derivative":
        if m.kind == SMOOTH_HINGE:
            return float(t * _hinge_derivative(np.float64(p * t)))
        return float(p - t)
    raise AssertionError(which)


def loss_derivative(m: LossModel, p: float, i: int) -> float:
    return _scalar(m, p, i, "derivative")


def conjugate_value(m: LossModel, y: float, i: int) -> float:
    if not 0 <= i < m.n:
        raise ValueError(f"sample index {i} out of range [0, {m.n})")
    t = m.targets[i]
    if m.kind == SMOOTH_HINGE:
        u = y * t
        if -1.0 <= u <= 0.0:
            return 0.5 * u * u + u
        return np.inf
    return 0.5 * y * y + t * y


def dual_prox_step(m: LossModel, w_i: float, y_i: float, delta: float, n: int,
                   i: int) -> float:
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if not 0 <= i < m.n:
        raise ValueError(f"sample index {i} out of range [0, {m.n})")
    r = delta / n
    t = m.targets[i]
    u = (y_i + r * (w_i - t)) / (1.0 + r)
    if m.kind == SMOOTH_HINGE:
        lo, hi = (-1.0, 0.0) if t > 0 else (0.0, 1.0)
        u = min(max(u, lo), hi)
    return float(u)


def primal_objective(m: LossModel, g: Regularizer, A: SparseDesignMatrix,
                     x: np.ndarray) -> float:
    """P(x) = (1/n) sum_i f_i(a_i' x) + g(x)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (A.n_cols,):
        raise ValueError(f"x has shape {x.shape}, expected ({A.n_cols},)")
    if m.n != A.n_rows:
        raise ValueError("loss sample count does not match matrix rows")
    return m.mean_value(A.matvec(x)) + g.value(x)
