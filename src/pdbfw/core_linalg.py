"""Sparse/dense linear-algebra kernels and the projection/selection oracles
shared by every solver step.

The design matrix is stored in both compressed-row and compressed-column
layouts so that column-restricted products (maintaining w = Ax) and
row-restricted transpose products (maintaining z = A'y) both cost time
proportional to the nonzeros actually touched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


class SparseDesignMatrix:
    """Immutable n x d data matrix held in dual CSR/CSC layouts.

    Rows are samples, columns are features. Both layouts encode the identical
    matrix with strictly increasing indices and no duplicates; per-row squared
    norms are cached at construction.

    When every entry is stored (nnz == n_rows * n_cols; an exact zero is
    dropped, so one zero entry makes the design sparse), the CSR data array
    is the row-major n x d matrix and the CSC data array the column-major
    one. `_dense_rows` (n x d) and `_dense_cols` (d x n, row j is column j)
    are then read-only views of them, which the update kernels use; they
    copy nothing. On any other design both are None.
    """

    def __init__(self, matrix):
        csr = sp.csr_matrix(matrix, dtype=np.float64, copy=True)
        csr.sum_duplicates()
        csr.eliminate_zeros()
        csr.sort_indices()
        if not np.all(np.isfinite(csr.data)):
            raise ValueError("design matrix contains non-finite entries")
        self._csr = csr
        self._csc = csr.tocsc()
        self._csc.sort_indices()
        self.n_rows, self.n_cols = csr.shape
        self.row_norms_sq = np.asarray(
            csr.multiply(csr).sum(axis=1)).ravel().astype(np.float64)
        # nnz per row / per column, used by callers for arithmetic-cost accounting
        self.row_nnz = np.diff(csr.indptr).astype(np.int64)
        self.col_nnz = np.diff(self._csc.indptr).astype(np.int64)
        self.nnz = int(csr.nnz)
        self._dense_rows = self._dense_cols = None
        if self.nnz == self.n_rows * self.n_cols:
            self._dense_rows = csr.data.reshape(self.n_rows, self.n_cols)
            self._dense_cols = self._csc.data.reshape(self.n_cols, self.n_rows)
            self._dense_rows.flags.writeable = False
            self._dense_cols.flags.writeable = False

    @classmethod
    def from_dense(cls, array) -> "SparseDesignMatrix":
        return cls(np.asarray(array, dtype=np.float64))

    @classmethod
    def from_coo(cls, n_rows, n_cols, rows, cols, vals) -> "SparseDesignMatrix":
        coo = sp.coo_matrix((vals, (rows, cols)), shape=(n_rows, n_cols),
                            dtype=np.float64)
        return cls(coo)

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    @property
    def max_row_norm_sq(self) -> float:
        """R = max_i ||a_i||^2, zero for an all-zero matrix."""
        if self.row_norms_sq.size == 0:
            return 0.0
        return float(self.row_norms_sq.max())

    def to_dense(self) -> np.ndarray:
        return self._csr.toarray()

    def matvec(self, x) -> np.ndarray:
        """Full product A @ x (x may be a vector or a d x m block)."""
        out = self._csr @ np.asarray(x, dtype=np.float64)
        return np.asarray(out)

    def rmatvec(self, y) -> np.ndarray:
        """Full product A' @ y (y may be a vector or an n x m block)."""
        out = self._csr.T @ np.asarray(y, dtype=np.float64)
        return np.asarray(out)

    def row(self, i: int):
        """(column indices, values) of row i's nonzeros, as views into the
        CSR layout; callers must not write to them."""
        lo, hi = self._csr.indptr[i], self._csr.indptr[i + 1]
        return self._csr.indices[lo:hi], self._csr.data[lo:hi]

    def divide_rows(self, divisors) -> "SparseDesignMatrix":
        """The matrix with row i divided by divisors[i], built on the CSR
        nonzeros without densifying."""
        csr = self._csr
        data = csr.data / np.repeat(np.asarray(divisors, dtype=np.float64),
                                    self.row_nnz)
        return SparseDesignMatrix(
            sp.csr_matrix((data, csr.indices, csr.indptr), shape=self.shape))

    def row_dot(self, i: int, x: np.ndarray) -> float:
        """a_i' x touching only row i's nonzeros."""
        lo, hi = self._csr.indptr[i], self._csr.indptr[i + 1]
        cols = self._csr.indices[lo:hi]
        return float(np.dot(self._csr.data[lo:hi], x[cols]))

    def add_scaled_row(self, i: int, coeff: float, out: np.ndarray) -> None:
        """out += coeff * a_i in place, touching only row i's nonzeros."""
        lo, hi = self._csr.indptr[i], self._csr.indptr[i + 1]
        cols = self._csr.indices[lo:hi]
        out[cols] += coeff * self._csr.data[lo:hi]

    def row_submatrix_t_dot(self, rows, block) -> np.ndarray:
        """A_{rows,:}' @ block for a k x m dense block; returns d x m.

        A fully stored design multiplies its dense rows with BLAS, which sums
        in another order than the sparse product."""
        if self._dense_rows is not None:
            return self._dense_rows[rows].T @ np.asarray(block, dtype=np.float64)
        sub = self._csr[rows, :]
        return np.asarray(sub.T @ np.asarray(block, dtype=np.float64))

    def spectral_norm_sq(self, max_iters: int = 200, tol: float = 1e-10) -> float:
        """Estimate of sigma_max(A)^2 by power iteration on A'A.

        Deterministic start vector; converges geometrically whenever the top
        singular value is isolated, and the estimate is used only as an upper
        bound proxy for subset spectral norms, so loose convergence is fine.
        """
        d = self.n_cols
        if self.nnz == 0:
            return 0.0
        # fixed, seedless start with nonuniform entries so it is almost never
        # orthogonal to the leading singular vector
        v = np.cos(np.arange(d, dtype=np.float64) + 0.5) + 1.5
        v /= np.linalg.norm(v)
        est = 0.0
        for _ in range(max_iters):
            u = self.rmatvec(self.matvec(v))
            nrm = np.linalg.norm(u)
            if nrm == 0.0:
                return 0.0
            v = u / nrm
            if abs(nrm - est) <= tol * max(nrm, 1.0):
                est = nrm
                break
            est = nrm
        return float(est)


@dataclass(frozen=True)
class SparseUpdate:
    """An s-sparse vector given as parallel (sorted, unique) index/value arrays."""

    indices: np.ndarray
    values: np.ndarray

    @property
    def support_size(self) -> int:
        return int(self.indices.size)

    def to_dense(self, length: int) -> np.ndarray:
        out = np.zeros(length)
        out[self.indices] = self.values
        return out


def project_l1_ball(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection of v onto the l1 ball of the given radius.

    Sort-based soft-threshold rule: find the smallest shrinkage theta >= 0 such
    that sum(max(|v_i| - theta, 0)) = radius, then shrink toward zero. Returns
    v unchanged (a copy) when it is already feasible.
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    v = np.asarray(v, dtype=np.float64)
    a = np.abs(v)
    if a.sum() <= radius:
        return v.copy()
    u = np.sort(a)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, u.size + 1)
    rho = np.nonzero(u * ks > css - radius)[0][-1]
    theta = (css[rho] - radius) / (rho + 1.0)
    return np.sign(v) * np.maximum(a - theta, 0.0)


def top_k_by_magnitude(v: np.ndarray, k: int) -> np.ndarray:
    """Indices (ascending) of the k entries of largest |v_i|.

    Ties break toward the lowest index, which keeps solver trajectories
    bit-reproducible. Uses partial selection, not a full sort.
    """
    a = np.abs(np.asarray(v, dtype=np.float64))
    d = a.size
    if not 1 <= k <= d:
        raise ValueError(f"k must be in [1, {d}], got {k}")
    if k == d:
        return np.arange(d, dtype=np.int64)
    part = np.argpartition(a, d - k)[d - k:]
    tau = a[part].min()
    above = np.flatnonzero(a > tau)
    ties = np.flatnonzero(a == tau)[: k - above.size]
    idx = np.concatenate([above, ties])
    idx.sort()
    return idx.astype(np.int64)


def sparse_l1_prox(v: np.ndarray, radius: float, s: int) -> SparseUpdate:
    """Exact minimizer of ||x - v||^2 over {||x||_1 <= radius, ||x||_0 <= s}.

    Two-stage rule: keep the s coordinates of largest magnitude (lowest-index
    ties), then l1-project the restricted subvector. Exact zeros produced by
    the projection are dropped from the returned update.
    """
    v = np.asarray(v, dtype=np.float64)
    if s < 1:
        raise ValueError(f"sparsity budget must be >= 1, got {s}")
    if s > v.size:
        raise ValueError(f"sparsity budget {s} exceeds dimension {v.size}")
    support = top_k_by_magnitude(v, s)
    proj = project_l1_ball(v[support], radius)
    keep = proj != 0.0
    return SparseUpdate(indices=support[keep], values=proj[keep])


def _slice_positions(indptr: np.ndarray, sel: np.ndarray):
    """Storage positions of the slices `sel` of a compressed layout, laid end
    to end in the order of `sel`, and the length of each slice.

    `sel` must be non-empty and in range; repeated entries repeat their slice.
    """
    starts, ends = indptr[sel], indptr[sel + 1]
    counts = ends - starts
    offsets = np.cumsum(counts)
    pos = np.arange(offsets[-1]) + np.repeat(ends - offsets, counts)
    return pos, counts


def _dense_slices_sum(dense: np.ndarray, sel: np.ndarray,
                       coeffs: np.ndarray, first: np.ndarray) -> np.ndarray:
    """first + sum_i coeffs[i] * dense[sel[i]], with the terms added one row
    at a time in the order of `sel`, as `np.add.at` adds them on the sparse
    route; the products are the same too, so the result has the same bits.

    `sel` must be non-empty and in range: `take` runs with mode="clip", which
    skips numpy's buffering of `out` and would clip a bad index silently.
    """
    buf = np.empty((sel.size + 1, dense.shape[1]))
    buf[0] = first
    np.take(dense, sel, axis=0, out=buf[1:], mode="clip")
    buf[1:] *= coeffs[:, None]
    if buf.shape[1] == 1:
        # numpy reduces a lone column pairwise; accumulate keeps the order
        return np.add.accumulate(buf, axis=0)[-1]
    return np.add.reduce(buf, axis=0)


def apply_sparse_col_product(A: SparseDesignMatrix, dx: SparseUpdate,
                             w: np.ndarray, scale_old: float,
                             scale_new: float) -> np.ndarray:
    """scale_old * w + scale_new * A[:, support(dx)] @ dx, touching only those columns."""
    if w.shape != (A.n_rows,):
        raise ValueError(f"w has shape {w.shape}, expected ({A.n_rows},)")
    out = scale_old * w
    if dx.support_size == 0:
        return out
    if dx.indices.min() < 0 or dx.indices.max() >= A.n_cols:
        raise ValueError("update indices out of column range")
    if A._dense_cols is not None:
        return _dense_slices_sum(A._dense_cols, dx.indices,
                                 scale_new * dx.values, out)
    csc = A._csc
    pos, counts = _slice_positions(csc.indptr, dx.indices)
    np.add.at(out, csc.indices[pos],
              np.repeat(scale_new * dx.values, counts) * csc.data[pos])
    return out


def apply_row_slice_transpose(A: SparseDesignMatrix, rows: np.ndarray,
                              dy: np.ndarray, z: np.ndarray) -> np.ndarray:
    """z + A[rows, :]' @ dy, touching only the selected rows' nonzeros."""
    rows = np.asarray(rows, dtype=np.int64)
    dy = np.asarray(dy, dtype=np.float64)
    if z.shape != (A.n_cols,):
        raise ValueError(f"z has shape {z.shape}, expected ({A.n_cols},)")
    if dy.shape != rows.shape:
        raise ValueError("dy must be defined exactly on the selected rows")
    out = z.copy()
    if rows.size == 0:
        return out
    if rows.min() < 0 or rows.max() >= A.n_rows:
        raise ValueError("row indices out of range")
    if A._dense_rows is not None:
        return _dense_slices_sum(A._dense_rows, rows, dy, out)
    csr = A._csr
    pos, counts = _slice_positions(csr.indptr, rows)
    np.add.at(out, csr.indices[pos], np.repeat(dy, counts) * csr.data[pos])
    return out
