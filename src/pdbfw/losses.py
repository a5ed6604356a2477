"""Entrywise-separable loss models (smooth hinge, quadratic), the l2
regularizer, their convex conjugates, and the closed-form dual proximal
update.

The targets are a vector (the l1 ball) or an n x c matrix (the trace-norm
ball), where f_i sums the scalar loss over row i; the smooth hinge on
one-vs-all +-1 targets is then a multi-class loss.

Smooth hinge on the margin z = p * label:

    h(z) = 1/2 - z        if z < 0
           (1 - z)^2 / 2  if 0 <= z <= 1
           0              if z > 1

Its conjugate h*(u) = u^2/2 + u is finite exactly on u in [-1, 0], so a
dual entry lives in the box [-1, 0] for label +1 and [0, 1] for label -1.
The quadratic loss (p - b)^2 / 2 has conjugate y^2/2 + b*y, finite
everywhere. Every loss here is 1-smooth and 1-strongly convex on its curved
region, which the step-size defaults assume.
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
        if isinstance(self.mu, (bool, np.bool_)) or not 0.0 < self.mu < np.inf:
            raise ValueError(f"mu must be positive and finite, got {self.mu}")

    def value(self, x: np.ndarray) -> float:
        return 0.5 * self.mu * float(np.vdot(x, x))

    def grad(self, x: np.ndarray) -> np.ndarray:
        return self.mu * x


def _hinge_value(z):
    return np.where(z < 0.0, 0.5 - z,
                    np.where(z <= 1.0, 0.5 * (1.0 - z) ** 2, 0.0))


@dataclass(frozen=True)
class LossModel:
    """Entrywise-separable loss family with conjugate and dual-prox support.

    targets holds the labels (+-1, smooth hinge) or regression targets
    (quadratic): a vector, or an n x c matrix. Predictions and duals passed
    to the methods have the targets' shape.
    """

    kind: str
    targets: np.ndarray
    _box: tuple = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        t = np.asarray(self.targets, dtype=np.float64)
        object.__setattr__(self, "targets", t)
        if self.kind not in (SMOOTH_HINGE, QUADRATIC):
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if not np.all(np.isfinite(t)):
            raise ValueError("targets contain non-finite entries")
        if self.kind == SMOOTH_HINGE:
            if not np.all(np.isin(t, (-1.0, 1.0))):
                raise ValueError("smooth hinge labels must be in {-1, +1}")
            box = (np.where(t > 0, -1.0, 0.0), np.where(t > 0, 0.0, 1.0))
            for bound in box:
                bound.flags.writeable = False
            object.__setattr__(self, "_box", box)

    @property
    def n(self) -> int:
        return self.targets.shape[0]

    @property
    def n_tasks(self) -> int:
        """The column count c of n x c targets."""
        return self.targets.shape[1]

    def values(self, p: np.ndarray) -> np.ndarray:
        if self.kind == SMOOTH_HINGE:
            return _hinge_value(p * self.targets)
        return 0.5 * (p - self.targets) ** 2

    def derivatives(self, p: np.ndarray) -> np.ndarray:
        if self.kind == SMOOTH_HINGE:
            z = p * self.targets
            return self.targets * np.where(
                z < 0.0, -1.0, np.where(z <= 1.0, z - 1.0, 0.0))
        return p - self.targets

    def mean_value(self, p: np.ndarray) -> float:
        """(1/n) sum_i f_i(p_i); on vectors the bits of values(p).mean()."""
        return float(self.values(p).sum() / self.n)

    def conjugates(self, y: np.ndarray) -> np.ndarray:
        """Entrywise conjugates, +inf outside the conjugate box."""
        if self.kind == SMOOTH_HINGE:
            u = y * self.targets
            inside = (u >= -1.0) & (u <= 0.0)
            return np.where(inside, 0.5 * u * u + u, np.inf)
        return 0.5 * y * y + self.targets * y

    def conjugate_sum(self, y: np.ndarray) -> float:
        """sum_i f_i*(y_i), +inf when some entry of y lies outside its box."""
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
        """Vectorized closed-form maximizer of the entrywise dual update

            (1/n) w_i u - (1/n) f_i*(u) - (1/(2 delta)) (u - y_i)^2.

        For both conjugates the stationary point is
        u* = (y_i + (delta/n)(w_i - t_i)) / (1 + delta/n) with t_i the label or
        target; hinge entries are then clipped to their box (exact because
        the objective is concave).
        """
        if not 0.0 < delta < np.inf:
            raise ValueError(f"delta must be positive and finite, got {delta}")
        r = delta / n
        u = (y + r * (w - self.targets)) / (1.0 + r)
        if self.kind == SMOOTH_HINGE:
            u = np.clip(u, *self._box)
        return u


class MatrixQuadraticLoss(LossModel):
    """The quadratic loss on n x c targets B, f_i(p) = ||p - B_i||^2 / 2,
    whose value and conjugate sums are BLAS inner products."""

    def __init__(self, B):
        super().__init__(QUADRATIC, B)
        if self.targets.ndim != 2:
            raise ValueError("matrix targets must be 2-D")

    def mean_value(self, P: np.ndarray) -> float:
        diff = P - self.targets
        return 0.5 * float(np.vdot(diff, diff)) / self.n

    def conjugate_sum(self, Y: np.ndarray) -> float:
        return 0.5 * float(np.vdot(Y, Y)) + float(np.vdot(self.targets, Y))

    # bound here too because the benchmark tracer wraps it on this class
    dual_prox = LossModel.dual_prox


def smooth_hinge_loss(labels) -> LossModel:
    return LossModel(kind=SMOOTH_HINGE, targets=labels)


def quadratic_loss(targets) -> LossModel:
    """The quadratic loss; on n x c targets a `MatrixQuadraticLoss`."""
    if np.ndim(targets) == 2:
        return MatrixQuadraticLoss(targets)
    return LossModel(kind=QUADRATIC, targets=targets)


def loss_derivative(m: LossModel, p: float, i: int) -> float:
    """f_i'(p) for one sample, the per-sample form of `LossModel.derivatives`."""
    if not 0 <= i < m.n:
        raise ValueError(f"sample index {i} out of range [0, {m.n})")
    t = float(m.targets[i])
    if m.kind == SMOOTH_HINGE:
        z = p * t
        return t * (-1.0 if z < 0.0 else z - 1.0 if z <= 1.0 else 0.0)
    return float(p - t)
