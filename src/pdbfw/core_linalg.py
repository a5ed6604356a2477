"""Sparse/dense linear-algebra kernels, the projection/selection oracles
shared by every solver step, and the range finder of the trace-norm solver.

The design matrix is stored in both compressed-row and compressed-column
layouts, or, when every entry is stored, as dense rows and dense columns
only, so that column-restricted products (maintaining w = Ax) and
row-restricted transpose products (maintaining z = A'y and the trace
solver's Z = A'Y) both cost time proportional to the nonzeros actually
touched. One kernel, `_restricted_sum`, runs all three on both storages.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack
from scipy.sparse import _sparsetools


class SparseDesignMatrix:
    """Immutable n x d data matrix held in dual CSR/CSC layouts.

    Rows are samples, columns are features. Both layouts encode the identical
    matrix with strictly increasing indices and no duplicates; per-row squared
    norms are cached at construction.

    When every entry is stored (nnz == n_rows * n_cols; an exact zero is
    dropped, so one zero entry makes the design sparse), the design holds
    only two owned, read-only arrays instead: `_dense_rows` (n x d, C order)
    and `_dense_cols` (d x n, row j is column j), which every kernel reads.
    It has no CSC, and builds a CSR copy only when code outside the package
    reads `_csr`. On any other design both arrays are None.
    """

    def __init__(self, matrix, *, _owned=False):
        # a caller's array or CSR is copied, never aliased or made read-only;
        # storage built for this design and then dropped (_owned) is held as
        # it is when it is a C-order float64 array or a CSR
        csr = None
        if isinstance(matrix, np.ndarray):
            matrix = np.atleast_2d(np.asarray(matrix))
            if matrix.ndim != 2:
                raise ValueError(
                    f"design matrix must be 2-D, got {matrix.ndim}-D")
        # fully stored: -0.0 is false, NaN true
        if isinstance(matrix, np.ndarray) and matrix.size and matrix.all():
            rows = np.array(matrix, dtype=np.float64, order="C",
                            copy=None if _owned else True)
        else:
            csr = sp.csr_matrix(matrix, dtype=np.float64, copy=not _owned)
            csr.sum_duplicates()  # sorts the indices too
            csr.eliminate_zeros()
            rows = csr.data
        if not np.all(np.isfinite(rows)):
            raise ValueError("design matrix contains non-finite entries")
        shape = rows.shape if csr is None else csr.shape
        n, d = self.n_rows, self.n_cols = shape
        ptr = np.arange(n + 1) * d if csr is None else csr.indptr
        # the squares are freed before the columns are built
        self.row_norms_sq = _row_norms_sq(rows.ravel(), ptr)
        # nnz per row / per column, used by callers for arithmetic-cost accounting
        self.row_nnz = np.diff(ptr).astype(np.int64)
        self.nnz = int(ptr[-1])
        self._dense_rows = self._dense_cols = None
        if self.nnz < n * d:
            self._csr, self._csc = csr, csr.tocsc()  # scipy sorts the CSC
            self.col_nnz = np.diff(self._csc.indptr).astype(np.int64)
        else:
            rows = rows.reshape(n, d)
            self._dense_rows, self._dense_cols = rows, rows.T.copy()
            rows.flags.writeable = self._dense_cols.flags.writeable = False
            self.col_nnz = np.full(d, n, dtype=np.int64)

    @functools.cached_property
    def _csr(self) -> sp.csr_matrix:
        """A fully stored design's CSR, a copy built on first read. No code
        in this package reads it; it stays because the benchmark harness's
        tests (`perfbench/tests/test_perfbench.py::_arrays`) read
        `matrix._csr` on the fully stored `l1_dense` and `trace_lowrank`
        designs."""
        return sp.csr_matrix(self._dense_rows)

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    @property
    def max_row_norm_sq(self) -> float:
        """R = max_i ||a_i||^2, zero for an all-zero matrix."""
        if self.row_norms_sq.size == 0:
            return 0.0
        return float(self.row_norms_sq.max())

    def row_norms(self) -> np.ndarray:
        """Euclidean row norms, the square roots of the cached squares. A
        row whose cached square overflowed to inf, or whose largest square
        is below the smallest normal float (so every square lost bits or
        underflowed to 0.0), is scaled by its largest magnitude before
        squaring."""
        norms = np.sqrt(self.row_norms_sq)
        # a row whose squares are all subnormal sums to below 2 * nnz * tiny
        small = self.row_norms_sq < 2.0 * _TINY * self.row_nnz
        for i in np.flatnonzero(np.isinf(norms) | small):
            row = (self._dense_rows[i] if self._dense_rows is not None else
                   self._csr.data[self._csr.indptr[i]:self._csr.indptr[i + 1]])
            top = np.abs(row).max()
            if np.isinf(norms[i]) or top * top < _TINY:
                norms[i] = top * np.linalg.norm(row / top)
        return norms

    def to_dense(self) -> np.ndarray:
        """A writeable n x d copy; a fully stored design builds no layout."""
        if self._dense_rows is not None:
            return self._dense_rows.copy()
        return self._csr.toarray()

    def matvec(self, x) -> np.ndarray:
        """Full product A @ x (x may be a vector or a d x m block): the bits
        of `csr @ x`, or BLAS on a fully stored design's dense rows."""
        if self._dense_rows is not None:
            return self._dense_rows @ np.asarray(x, dtype=np.float64)
        csr = self._csr
        return _compressed_product("csr", self.shape,
                                   (csr.indptr, csr.indices, csr.data), x)

    def rmatvec(self, y) -> np.ndarray:
        """Full product A' @ y (y may be a vector or an n x m block): the bits
        of `csr.T @ y` with no transpose built, or BLAS on dense columns."""
        if self._dense_cols is not None:
            return self._dense_cols @ np.asarray(y, dtype=np.float64)
        csr = self._csr
        return _compressed_product("csc", self.shape[::-1],
                                   (csr.indptr, csr.indices, csr.data), y)

    def divide_rows(self, divisors) -> "SparseDesignMatrix":
        """The matrix with row i divided by divisors[i], built on the stored
        entries without densifying; a fully stored design divides its dense
        rows, the same quotients, and builds no sparse layout."""
        divisors = np.asarray(divisors, dtype=np.float64)
        if self._dense_rows is not None:
            return SparseDesignMatrix(self._dense_rows / divisors[:, None],
                                      _owned=True)
        csr = self._csr
        data = csr.data / np.repeat(divisors, self.row_nnz)
        # the CSR shares this design's indices, which __init__ compacts in
        # place unless it copies them, so this build keeps the copy
        return SparseDesignMatrix(
            sp.csr_matrix((data, csr.indices, csr.indptr), shape=self.shape))

    def row_dot(self, i: int, x: np.ndarray) -> float:
        """a_i' x touching only row i's nonzeros.

        A fully stored row is dotted with x without the gather: the same
        values reach the same dot product, so the bits are the same. x is
        made contiguous as the gather would, since BLAS sums a strided
        vector in another order."""
        if self._dense_rows is not None:
            return float(np.dot(self._dense_rows[i], np.ascontiguousarray(x)))
        lo, hi = self._csr.indptr[i], self._csr.indptr[i + 1]
        cols = self._csr.indices[lo:hi]
        return float(np.dot(self._csr.data[lo:hi], x[cols]))

    def add_scaled_row(self, i: int, coeff: float, out: np.ndarray) -> None:
        """out += coeff * a_i in place, touching only row i's nonzeros; a fully
        stored row is added without the scatter, entry by entry as before."""
        if self._dense_rows is not None:
            out += coeff * self._dense_rows[i]
            return
        lo, hi = self._csr.indptr[i], self._csr.indptr[i + 1]
        cols = self._csr.indices[lo:hi]
        out[cols] += coeff * self._csr.data[lo:hi]

    def row_submatrix_t_dot(self, rows, block) -> np.ndarray:
        """A_{rows,:}' @ block (d x m) for k rows in [0, n), else ValueError,
        and a k x m block: the bits of `csr[rows, :].T @ block` with neither
        built on a sparse design, BLAS's sum on a fully stored one."""
        rows = np.asarray(rows, dtype=np.int64)
        block = np.asarray(block, dtype=np.float64)
        if block.ndim != 2 or block.shape[:1] != rows.shape:
            raise ValueError(f"block {block.shape} for {rows.shape} rows")
        return _restricted_sum(self, True, rows, block)


def _row_norms_sq(data: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    """The bits of `csr.multiply(csr).sum(axis=1)` for the CSR (data, ptr)
    without the product: its reduceat over the squares, which drops those
    that underflow to 0.0, as the product does, since a zero term moves the
    sum's association."""
    sq = np.square(data)
    if not sq.all():
        ptr = np.concatenate(([0], np.cumsum(sq != 0.0)))[ptr]
        sq = sq[sq != 0.0]
    rows = np.flatnonzero(np.diff(ptr))
    norms = np.zeros(ptr.size - 1)
    norms[rows] = np.add.reduceat(sq, ptr[rows])
    return norms


@dataclass(frozen=True)
class SparseUpdate:
    """An s-sparse vector given as parallel (sorted, unique) index/value arrays."""

    indices: np.ndarray
    values: np.ndarray


# Top count the l1 projection sorts first; vectors no longer than this are
# sorted whole.
_PROJECTION_GUESS = 1024
_EPS = float(np.finfo(np.float64).eps)
_TINY = np.finfo(np.float64).tiny


def l1_threshold(a: np.ndarray, radius: float, _first=_PROJECTION_GUESS):
    """(theta, u) of the l1 ball's projection for the magnitudes a = |v|:
    the least theta >= 0 with sum(max(a - theta, 0)) = radius, and the active
    magnitudes u sorted descending; (0.0, a) itself when a is in the ball. A
    NaN or infinite entry, or a radius below rounding, raises ValueError.

    Only the largest entries enter theta, so a long a is not sorted whole:
    one partition takes its top `_first` entries, and only that prefix is
    sorted and summed, in the order and with the bits of the full sort's
    prefix. The count doubles while the test could still pass past the
    prefix; past it the test's exact value never rises, and `slack` bounds
    its rounding at every index, so theta is the full sort's at any start.
    """
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    total = float(np.add.reduce(a))
    if total <= radius:
        return 0.0, a
    d = a.size
    m = _first
    slack = 4.0 * d * _EPS * (total + radius)
    while True:
        u = np.sort(np.partition(a, d - m)[d - m:] if m < d else a)[::-1]
        css = np.add.accumulate(u)
        if m >= d or float(u[-1]) * m + slack < float(css[-1]) - radius:
            break
        m *= 2
    passing = np.flatnonzero(u * np.arange(1, u.size + 1) > css - radius)
    if passing.size == 0:
        # in exact arithmetic the test passes at index 0 for finite input
        if not math.isfinite(total):
            raise ValueError(f"the input must be finite; it has "
                             f"{np.count_nonzero(~np.isfinite(a))} NaN or "
                             f"infinite entries")
        raise ValueError(f"radius {radius!r} is below the rounding of the "
                         f"largest magnitude {float(u[0])!r}")
    rho = passing[-1]
    return (css[rho] - radius) / (rho + 1.0), u[:rho + 1]


def project_l1_ball(v: np.ndarray, radius: float, _first=_PROJECTION_GUESS):
    """Euclidean projection of v onto the l1 ball: |v| shrunk by the
    `l1_threshold` theta (from `_first`), in place in the |v| buffer, or a
    copy of v in the ball."""
    v = np.asarray(v, dtype=np.float64)
    a = np.abs(v)
    theta, u = l1_threshold(a, radius, _first)
    if u is a:  # already inside the ball
        return v.copy()
    # not copysign: np.sign(v) is 0 where v is +-0.0, which keeps such
    # entries +0.0 even when rounding puts theta below zero
    np.maximum(np.subtract(a, theta, out=a), 0.0, out=a)
    return np.multiply(np.sign(v), a, out=a)


def top_k_by_magnitude(v: np.ndarray, k: int) -> np.ndarray:
    """Indices (ascending) of the k entries of largest |v_i|.

    Ties break toward the lowest index, which keeps solver trajectories
    bit-reproducible. One value partition finds the k-th largest magnitude
    tau; when exactly k entries reach tau, they are the answer. A NaN or
    infinite entry raises ValueError: the partition puts it among the top k.
    """
    a = np.abs(np.asarray(v, dtype=np.float64))
    d = a.size
    if not 1 <= k <= d:
        raise ValueError(f"k must be in [1, {d}], got {k}")
    part = np.partition(a, d - k)
    if not math.isfinite(part[d - k:].max()):
        raise ValueError(f"the input must be finite; it has "
                         f"{np.count_nonzero(~np.isfinite(a))} NaN or "
                         f"infinite entries")
    tau = part[d - k]
    idx = np.flatnonzero(a >= tau)
    if idx.size == k:
        return idx
    above = np.flatnonzero(a > tau)
    ties = np.flatnonzero(a == tau)[: k - above.size]
    idx = np.concatenate([above, ties])
    idx.sort()
    return idx.astype(np.int64)


def _lapack_out(name: str, *out):
    """A LAPACK wrapper's outputs without the trailing info flag."""
    if out[-1] != 0:
        raise np.linalg.LinAlgError(f"LAPACK {name} failed (info={out[-1]})")
    return out[:-1]


def range_svd(M: np.ndarray, block: np.ndarray, compute_uv: bool = True):
    """One range-finder sweep on the d x c matrix M from the c x b `block`
    (Halko, Martinsson & Tropp, arXiv:0909.4061).

    Q (d x min(d, b)) is an orthonormal basis of range(M @ block) from
    LAPACK's dgeqrf and dorgqr, and B = Q'M. dgesdd factors the tall matrix
    B' = M'Q = right diag(sv) R', so QB = left diag(sv) right' with
    left = QR. Returns (Q, B, left, sv, right), left and right None unless
    compute_uv; raises np.linalg.LinAlgError when LAPACK reports failure.
    """
    qr, tau, _ = _lapack_out("dgeqrf", *lapack.dgeqrf(M @ block))
    Q, _ = _lapack_out("dorgqr", *lapack.dorgqr(qr[:, :tau.size], tau))
    B = Q.T @ M
    right, sv, Rt = _lapack_out("dgesdd", *lapack.dgesdd(
        B.T, compute_uv=compute_uv, full_matrices=False))
    if not compute_uv:
        return Q, B, None, sv, None
    return Q, B, Q @ Rt.T, sv, right


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


def _compressed_product(kind: str, shape, arrays, x, out=None):
    """out += M @ x, and out (zeros by default), for the `shape` M with `kind`
    ("csr" or "csc") arrays (indptr, indices, data): scipy's compiled loops of
    `M @ x`, so its bits. They check nothing; a bad x raises ValueError."""
    if np.ndim(x) not in (1, 2) or np.shape(x)[0] != shape[1]:
        raise ValueError(f"dimension mismatch: {np.shape(x)} for {shape[1]} "
                         f"rows")
    x = np.ascontiguousarray(x, dtype=np.float64)
    out = np.zeros(shape[:1] + x.shape[1:]) if out is None else out
    loop = getattr(_sparsetools, f"{kind}_matvec{'s' * (x.ndim - 1)}")
    loop(*shape, *x.shape[1:], *arrays, x, out)
    return out


# Bytes of one block of rows that `_restricted_sum` gathers on a fully stored
# design, small enough to stay in a core's L2 cache.
_FOLD_BYTES = 512 * 1024


def _restricted_sum(A: SparseDesignMatrix, by_rows: bool, sel: np.ndarray,
                    coeffs: np.ndarray, out=None) -> np.ndarray:
    """out + sum_i coeffs[i] * (row, or column, sel[i] of A) in place, or the
    sum alone when out is None, for a vector or k x m block `coeffs`. A `sel`
    outside [0, n) raises ValueError: the compiled loops check no bounds. A
    sparse design gathers the selected slices with `csr_row_index` and adds
    them in the per-slice loop's order, so its bits; a fully stored design
    adds one BLAS product per `_FOLD_BYTES` of gathered rows."""
    n_sel, n_out = A.shape if by_rows else A.shape[::-1]
    if sel.size == 0:
        return np.zeros((n_out,) + coeffs.shape[1:]) if out is None else out
    if sel.min() < 0 or sel.max() >= n_sel:
        raise ValueError("row indices out of range" if by_rows
                         else "update indices out of column range")
    dense = A._dense_rows if by_rows else A._dense_cols
    if dense is not None:
        fold = max(1, _FOLD_BYTES // (8 * dense.shape[1]))
        for lo in range(0, sel.size, fold):  # no product outlives its add
            if out is None:
                out = dense[sel[:fold]].T @ coeffs[:fold]
            else:
                out += dense[sel[lo:lo + fold]].T @ coeffs[lo:lo + fold]
        return out
    layout = A._csr if by_rows else A._csc
    idx = layout.indptr.dtype
    sel = sel.astype(idx, casting="same_kind")
    ptr = np.zeros(sel.size + 1, dtype=idx)
    np.cumsum(layout.indptr[sel + 1] - layout.indptr[sel], out=ptr[1:])
    indices, data = np.empty(ptr[-1], dtype=idx), np.empty(ptr[-1])
    _sparsetools.csr_row_index(sel.size, sel, layout.indptr, layout.indices,
                               layout.data, indices, data)
    return _compressed_product("csc", (n_out, sel.size),
                               (ptr, indices, data), coeffs, out)


def apply_sparse_col_product(A: SparseDesignMatrix, dx: SparseUpdate,
                             w: np.ndarray, scale_old: float,
                             scale_new: float) -> np.ndarray:
    """scale_old * w + scale_new * A[:, support(dx)] @ dx, touching only those
    columns; float64 for any real w."""
    if w.shape != (A.n_rows,):
        raise ValueError(f"w has shape {w.shape}, expected ({A.n_rows},)")
    if dx.values.shape != dx.indices.shape:
        raise ValueError("update values and indices differ in shape")
    return _restricted_sum(A, False, dx.indices, scale_new * dx.values,
                           scale_old * np.asarray(w, dtype=np.float64))


def apply_row_slice_transpose(A: SparseDesignMatrix, rows: np.ndarray,
                              dy: np.ndarray, z: np.ndarray) -> np.ndarray:
    """z + A[rows, :]' @ dy, touching only the selected rows' nonzeros;
    float64 for any real z."""
    rows = np.asarray(rows, dtype=np.int64)
    dy = np.asarray(dy, dtype=np.float64)
    if z.shape != (A.n_cols,):
        raise ValueError(f"z has shape {z.shape}, expected ({A.n_cols},)")
    if dy.shape != rows.shape:
        raise ValueError("dy must be defined exactly on the selected rows")
    return _restricted_sum(A, True, rows, dy, np.array(z, dtype=np.float64))
