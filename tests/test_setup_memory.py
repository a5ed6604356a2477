"""Peak-memory guards for building a design, for its update kernels and for
the solvers.

A fully stored n x d design holds its rows and its columns as two dense
arrays, so it costs twice its dense array; its CSR and CSC are built only
when read, and no solver reads them. Building it must not cost much more
than that, the Gaussian draws are made in place, the generator, the
parser and row normalization hand the storage they build to the design
without a copy, and the text parser must not hold boxed Python numbers per
stored entry. On a fully stored design
the update kernels fold the selected rows through a buffer of bounded size,
not one that grows with the selection.
"""

import tracemalloc

import numpy as np
import scipy.sparse as sp

from pdbfw.baselines import BaselineConfig, solve_baseline
from pdbfw.core_linalg import SparseDesignMatrix, apply_row_slice_transpose
from pdbfw.data_io import (Dataset, SyntheticSpec, generate_synthetic,
                           normalize_rows, parse_libsvm)
from pdbfw.losses import Regularizer, quadratic_loss
from pdbfw.pdbfw_l1 import SolverConfig, solve


def peak_bytes(call):
    """tracemalloc peak of one call, above what was allocated before it."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_constructor_peaks_near_the_two_dense_arrays():
    dense = np.random.default_rng(0).normal(size=(500, 1000))
    assert SparseDesignMatrix(dense).nnz == dense.size
    assert peak_bytes(lambda: SparseDesignMatrix(dense)) \
        <= 2.5 * dense.nbytes


def test_generate_synthetic_peaks_near_the_draws_and_the_design():
    # the drawn array becomes the design's rows, so the peak is the draws
    # or the design, each twice the array, not both
    spec = SyntheticSpec(kind="sparse_regression", n=500, d=1000,
                         true_sparsity_or_rank=10, noise_level=1.0, seed=0)
    assert peak_bytes(lambda: generate_synthetic(spec)) <= 2.5 * 500 * 1000 * 8


def test_normalize_rows_keeps_a_fully_stored_design_dense():
    # the quotients become the new design's rows: with its columns that is
    # twice the array, and neither design builds a sparse layout
    dense = np.random.default_rng(0).normal(size=(500, 1000))
    ds = Dataset(matrix=SparseDesignMatrix(dense), labels=np.zeros(500))
    assert peak_bytes(lambda: normalize_rows(ds)) <= 2.5 * dense.nbytes
    out = normalize_rows(ds).matrix
    for A in (ds.matrix, out):
        assert "_csr" not in vars(A) and "_csc" not in vars(A)
    divisors = ds.matrix.row_norms()
    want = sp.csr_matrix(dense).data / np.repeat(divisors, ds.matrix.row_nnz)
    assert out._dense_rows.tobytes() == want.tobytes()


def test_solvers_on_a_fully_stored_design_peak_below_one_megabyte():
    # a sparse layout of this design would add 2.0 MB of int32 indices
    rng = np.random.default_rng(0)
    A = SparseDesignMatrix(rng.normal(size=(500, 1000)))
    loss, reg = quadratic_loss(rng.normal(size=500)), Regularizer(mu=0.02)
    calls = [
        lambda: solve(A, loss, reg, SolverConfig(radius=5.0, s=100, k=100,
                                                 max_iters=20)),
        lambda: solve_baseline(A, loss, reg, BaselineConfig(
            kind="acc_pgd", radius=5.0, max_iters=20)),
        lambda: solve_baseline(A, loss, reg, BaselineConfig(
            kind="svrg", radius=5.0, max_iters=2)),
    ]
    for call in calls:
        assert peak_bytes(call) < 1_000_000
    # no solver reads a sparse layout of a fully stored design
    assert "_csr" not in vars(A)


def _write_rows(path, n_rows):
    """n_rows lines of 20 entries each, over 5,000 columns."""
    rng = np.random.default_rng(0)
    lines = []
    for _ in range(n_rows):
        cols = np.sort(rng.choice(5000, size=20, replace=False)) + 1
        pairs = " ".join(f"{j}:{v!r}" for j, v in
                         zip(cols.tolist(), rng.normal(size=20).tolist()))
        lines.append(f"+1 {pairs}\n")
    path.write_text("".join(lines))
    return str(path)


def test_parse_libsvm_peaks_below_100_bytes_per_entry(tmp_path):
    # at this size one batch of tokens sets the peak
    path = _write_rows(tmp_path / "rows.txt", 1000)
    assert parse_libsvm(path).matrix.nnz == 20_000
    assert peak_bytes(lambda: parse_libsvm(path)) <= 90 * 20_000


def test_parse_libsvm_hands_its_buffers_to_the_design(tmp_path):
    # at this size the build sets the peak: the typed buffers and the int32
    # indices, with no second copy of the values and indices (12 bytes an
    # entry more)
    path = _write_rows(tmp_path / "rows.txt", 5000)
    assert parse_libsvm(path).matrix.nnz == 100_000
    assert peak_bytes(lambda: parse_libsvm(path)) <= 42 * 100_000


def test_dense_row_transpose_peaks_below_one_megabyte():
    # gathering all 250 selected rows of 1000 entries would take 2.0 MB
    rng = np.random.default_rng(0)
    A = SparseDesignMatrix(rng.normal(size=(500, 1000)))
    assert A._dense_rows is not None
    rows = np.sort(rng.choice(500, size=250, replace=False))
    dy, z = rng.normal(size=250), rng.normal(size=1000)
    assert peak_bytes(lambda: apply_row_slice_transpose(A, rows, dy, z)) \
        < 1_000_000
