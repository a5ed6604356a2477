"""Peak-memory guards for building a design, for its update kernels and for
the solvers.

A fully stored n x d design holds its rows and its columns as two dense
arrays, so it costs twice its dense array; its CSR and CSC are built only
when read, and no solver reads them. Building it must not cost much more
than that, the Gaussian draws are made in place, and the text parser must
not hold boxed Python numbers per stored entry. On a fully stored design
the update kernels fold the selected rows through a buffer of bounded size,
not one that grows with the selection.
"""

import tracemalloc

import numpy as np

from pdbfw.baselines import BaselineConfig, solve_acc_pgd, solve_svrg
from pdbfw.core_linalg import SparseDesignMatrix, apply_row_slice_transpose
from pdbfw.data_io import SyntheticSpec, generate_synthetic, parse_libsvm
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


def test_from_dense_peaks_near_the_two_dense_arrays():
    dense = np.random.default_rng(0).normal(size=(500, 1000))
    assert SparseDesignMatrix.from_dense(dense).nnz == dense.size
    assert peak_bytes(lambda: SparseDesignMatrix.from_dense(dense)) \
        <= 2.5 * dense.nbytes


def test_generate_synthetic_peaks_near_the_draws_and_the_design():
    spec = SyntheticSpec(kind="sparse_regression", n=500, d=1000,
                         true_sparsity_or_rank=10, noise_level=1.0, seed=0)
    assert peak_bytes(lambda: generate_synthetic(spec)) <= 3.5 * 500 * 1000 * 8


def test_solvers_on_a_fully_stored_design_peak_below_one_megabyte():
    # a sparse layout of this design would add 2.0 MB of int32 indices
    rng = np.random.default_rng(0)
    A = SparseDesignMatrix.from_dense(rng.normal(size=(500, 1000)))
    loss, reg = quadratic_loss(rng.normal(size=500)), Regularizer(mu=0.02)
    calls = [
        lambda: solve(A, loss, reg, SolverConfig(radius=5.0, s=100, k=100,
                                                 max_iters=20)),
        lambda: solve_acc_pgd(A, loss, reg, BaselineConfig(
            kind="acc_pgd", radius=5.0, max_iters=20)),
        lambda: solve_svrg(A, loss, reg, BaselineConfig(
            kind="svrg", radius=5.0, max_iters=2)),
    ]
    for call in calls:
        assert peak_bytes(call) < 1_000_000


def test_parse_libsvm_peaks_below_100_bytes_per_entry(tmp_path):
    rng = np.random.default_rng(0)
    lines = []
    for _ in range(1000):
        cols = np.sort(rng.choice(5000, size=20, replace=False)) + 1
        pairs = " ".join(f"{j}:{v!r}" for j, v in
                         zip(cols.tolist(), rng.normal(size=20).tolist()))
        lines.append(f"+1 {pairs}\n")
    path = tmp_path / "rows.txt"
    path.write_text("".join(lines))
    assert parse_libsvm(str(path)).matrix.nnz == 20_000
    assert peak_bytes(lambda: parse_libsvm(str(path))) <= 100 * 20_000


def test_dense_row_transpose_peaks_below_one_megabyte():
    # gathering all 250 selected rows of 1000 entries would take 2.0 MB
    rng = np.random.default_rng(0)
    A = SparseDesignMatrix.from_dense(rng.normal(size=(500, 1000)))
    assert A._dense_rows is not None
    rows = np.sort(rng.choice(500, size=250, replace=False))
    dy, z = rng.normal(size=250), rng.normal(size=1000)
    assert peak_bytes(lambda: apply_row_slice_transpose(A, rows, dy, z)) \
        < 1_000_000
