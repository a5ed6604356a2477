"""Separable loss models (smooth hinge, quadratic), the l2 regularizer, their
convex conjugates, and the closed-form dual proximal update.

Smooth hinge on the margin z = p * label:

    h(z) = 1/2 - z        if z < 0
           (1 - z)^2 / 2  if 0 <= z <= 1
           0              if z > 1

Its conjugate h*(u) = u^2/2 + u is finite exactly on u in [-1, 0], so the
dual variable of sample i lives in the box [-1, 0] for label +1 and [0, 1]
for label -1. The quadratic loss f_i(p) = (p - b_i)^2 / 2 has conjugate
f_i*(y) = y^2/2 + b_i*y, finite everywhere. Every loss here is 1-smooth and
1-strongly convex on its curved region, which the step-size defaults assume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SMOOTH_HINGE = "smooth_hinge"
QUADRATIC = "quadratic"


@dataclass(frozen=True)
class Regularizer:
    """g(x) = (mu/2) ||x||^2; mu-strongly convex and exactly mu-smooth."""

    mu: float

    def __post_init__(self):
        if not 0.0 < self.mu < np.inf:
            raise ValueError(f"mu must be positive and finite, got {self.mu}")

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
    (quadratic).
    """

    kind: str
    targets: np.ndarray
    _box: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        t = np.asarray(self.targets, dtype=np.float64)
        object.__setattr__(self, "targets", t)
        if self.kind not in (SMOOTH_HINGE, QUADRATIC):
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if not np.all(np.isfinite(t)):
            raise ValueError("targets contain non-finite entries")
        if self.kind == SMOOTH_HINGE and not np.all(np.isin(t, (-1.0, 1.0))):
            raise ValueError("smooth hinge labels must be in {-1, +1}")
        if self.kind == SMOOTH_HINGE:
            box = (np.where(t > 0, -1.0, 0.0), np.where(t > 0, 0.0, 1.0))
        else:
            box = (np.full(t.size, -np.inf), np.full(t.size, np.inf))
        for bound in box:
            bound.flags.writeable = False
        object.__setattr__(self, "_box", box)

    @property
    def n(self) -> int:
        return self.targets.size

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
        """sum_i f_i*(y_i), +inf when some y_i lies outside its box."""
        if self.kind == SMOOTH_HINGE:
            u = y * self.targets
            # min and max are NaN when some u is, and NaN fails both tests
            if u.size and not (u.min() >= -1.0 and u.max() <= 0.0):
                return np.inf
            return float((0.5 * u * u + u).sum())
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
        if not 0.0 < delta < np.inf:
            raise ValueError(f"delta must be positive and finite, got {delta}")
        r = delta / n
        u = (y + r * (w - self.targets)) / (1.0 + r)
        if self.kind == SMOOTH_HINGE:
            u = np.clip(u, *self._box)
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
    reuse the same closed forms column by column.
    """

    B: np.ndarray

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
        if not 0.0 < delta < np.inf:
            raise ValueError(f"delta must be positive and finite, got {delta}")
        r = delta / n
        return (Y + r * (W - self.B)) / (1.0 + r)


def loss_derivative(m: LossModel, p: float, i: int) -> float:
    """f_i'(p) for one sample, the per-sample form of `LossModel.derivatives`."""
    if not 0 <= i < m.n:
        raise ValueError(f"sample index {i} out of range [0, {m.n})")
    t = m.targets[i]
    if m.kind == SMOOTH_HINGE:
        return float(t * _hinge_derivative(np.float64(p * t)))
    return float(p - t)
