import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from pdbfw import pdbfw_l1
from pdbfw.core_linalg import (SparseDesignMatrix, SparseUpdate,
                               apply_row_slice_transpose,
                               apply_sparse_col_product, project_l1_ball,
                               sparse_l1_prox, top_k_by_magnitude)
from pdbfw.data_io import PortableRng
from pdbfw.losses import Regularizer, smooth_hinge_loss


def bisect_project(v, radius, iters=200):
    """Independent l1-ball projection via bisection on the shift theta."""
    v = np.asarray(v, dtype=np.float64)
    if np.abs(v).sum() <= radius:
        return v.copy()
    lo, hi = 0.0, float(np.abs(v).max())
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.maximum(np.abs(v) - mid, 0.0).sum() > radius:
            lo = mid
        else:
            hi = mid
    theta = 0.5 * (lo + hi)
    return np.sign(v) * np.maximum(np.abs(v) - theta, 0.0)


# ---------------------------------------------------------------- projection

def test_project_l1_ball_frozen_example():
    # [DERIVED] by sort formula: theta = (4.5 - 2)/3 = 5/6
    x = project_l1_ball(np.array([2.0, 1.0, -1.5]), 2.0)
    assert_allclose(x, [7.0 / 6.0, 1.0 / 6.0, -2.0 / 3.0], atol=1e-12)
    assert abs(np.abs(x).sum() - 2.0) < 1e-12


def test_project_l1_ball_feasible_input_returned_unchanged():
    v = np.array([0.3, -0.4, 0.1])
    out = project_l1_ball(v, 1.0)
    assert_allclose(out, v)
    out[0] = 99.0
    assert v[0] == 0.3  # copy, not a view


def test_project_l1_ball_rejects_bad_radius():
    with pytest.raises(ValueError):
        project_l1_ball(np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        project_l1_ball(np.array([1.0]), -2.0)


def test_project_l1_ball_matches_bisection_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        d = int(rng.integers(1, 30))
        v = rng.normal(size=d) * rng.choice([0.1, 1.0, 10.0])
        radius = float(rng.uniform(0.05, 5.0))
        assert_allclose(project_l1_ball(v, radius), bisect_project(v, radius),
                        atol=1e-9)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20),
       st.floats(0.01, 100.0))
def test_project_l1_ball_properties(vals, radius):
    v = np.array(vals)
    x = project_l1_ball(v, radius)
    # rounding in theta scales with the input magnitude
    assert np.abs(x).sum() <= radius + 1e-9 * (radius + np.abs(v).sum())
    # idempotent
    assert_allclose(project_l1_ball(x, radius), x, atol=1e-12)
    # sign preserving
    assert np.all(x * v >= -1e-12)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=1, max_size=12),
       st.lists(st.floats(-100, 100), min_size=1, max_size=12),
       st.floats(0.1, 10.0))
def test_project_l1_ball_nonexpansive(a_vals, b_vals, radius):
    d = min(len(a_vals), len(b_vals))
    a, b = np.array(a_vals[:d]), np.array(b_vals[:d])
    pa, pb = project_l1_ball(a, radius), project_l1_ball(b, radius)
    assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-9


# ------------------------------------------------------------------- top-k

def test_top_k_frozen():
    assert top_k_by_magnitude(np.array([1.0, -3.0, 2.0, 3.0]), 2).tolist() == [1, 3]
    # ties at |v| = 2 resolve to the earliest indices
    assert top_k_by_magnitude(np.array([2.0, -2.0, 1.0, 2.0]), 2).tolist() == [0, 1]
    assert top_k_by_magnitude(np.array([5.0]), 1).tolist() == [0]


def test_top_k_matches_stable_sort_oracle():
    rng = np.random.default_rng(3)
    for _ in range(300):
        d = int(rng.integers(1, 40))
        v = np.round(rng.normal(size=d), 1)  # rounding forces ties
        k = int(rng.integers(1, d + 1))
        got = top_k_by_magnitude(v, k)
        order = np.argsort(-np.abs(v), kind="stable")
        expect = np.sort(order[:k])
        assert got.tolist() == expect.tolist()


def test_top_k_rejects_bad_k():
    with pytest.raises(ValueError):
        top_k_by_magnitude(np.array([1.0, 2.0]), 0)
    with pytest.raises(ValueError):
        top_k_by_magnitude(np.array([1.0, 2.0]), 3)


# -------------------------------------------------------------- sparse prox

def sparse_prox_oracle(v, radius, s):
    """Enumerate every maximal support, project with the bisection oracle."""
    d = len(v)
    t = min(s, d)
    best_obj, best_x = np.inf, None
    for subset in itertools.combinations(range(d), t):
        x = np.zeros(d)
        x[list(subset)] = bisect_project(v[list(subset)], radius)
        obj = 0.5 * float(np.sum((x - v) ** 2))
        if obj < best_obj:
            best_obj, best_x = obj, x
    return best_x, best_obj


def test_sparse_l1_prox_frozen_example():
    # [DERIVED] support {0, 2} wins the enumeration: theta = 0.75,
    # objective 1.0625; support {0, 1} would give 1.375
    update = sparse_l1_prox(np.array([2.0, 1.0, -1.5]), 2.0, 2)
    x = update.to_dense(3)
    assert_allclose(x, [1.25, 0.0, -0.75], atol=1e-12)
    assert abs(0.5 * np.sum((x - np.array([2.0, 1.0, -1.5])) ** 2) - 1.0625) < 1e-12


def test_sparse_l1_prox_within_budget_and_ball():
    rng = np.random.default_rng(11)
    for _ in range(100):
        d = int(rng.integers(1, 25))
        s = int(rng.integers(1, d + 1))
        v = rng.normal(size=d) * 3
        radius = float(rng.uniform(0.1, 4.0))
        update = sparse_l1_prox(v, radius, s)
        assert update.support_size <= s
        assert np.abs(update.values).sum() <= radius * (1 + 1e-9)
        assert np.all(update.values != 0.0)


def test_sparse_l1_prox_matches_enumeration():
    rng = np.random.default_rng(5)
    for _ in range(60):
        d = int(rng.integers(1, 9))
        s = int(rng.integers(1, min(3, d) + 1))
        v = rng.normal(size=d) * 2
        radius = float(rng.uniform(0.1, 3.0))
        update = sparse_l1_prox(v, radius, s)
        x = update.to_dense(d)
        _, best_obj = sparse_prox_oracle(v, radius, s)
        obj = 0.5 * float(np.sum((x - v) ** 2))
        assert obj <= best_obj + 1e-10


def test_sparse_l1_prox_rejects_bad_budget():
    with pytest.raises(ValueError):
        sparse_l1_prox(np.array([1.0, 2.0]), 1.0, 0)
    with pytest.raises(ValueError):
        sparse_l1_prox(np.array([1.0, 2.0]), 1.0, 3)


# ------------------------------------------------------------ matrix layout

def small_matrix():
    dense = np.array([
        [1.0, 0.0, -2.0, 0.0],
        [0.0, 3.0, 0.0, 0.5],
        [4.0, 0.0, 0.0, 0.0],
    ])
    return SparseDesignMatrix.from_dense(dense), dense


def test_matrix_shapes_and_counts():
    A, dense = small_matrix()
    assert A.shape == (3, 4)
    assert A.nnz == 5
    assert A.row_nnz.tolist() == [2, 2, 1]
    assert A.col_nnz.tolist() == [2, 1, 1, 1]
    assert_allclose(A.row_norms_sq, (dense ** 2).sum(axis=1))
    assert A.max_row_norm_sq == pytest.approx(16.0)
    assert_allclose(A.to_dense(), dense)


def test_matvec_rmatvec_match_dense():
    A, dense = small_matrix()
    x = np.array([1.0, -1.0, 0.5, 2.0])
    y = np.array([0.5, -2.0, 1.0])
    assert_allclose(A.matvec(x), dense @ x)
    assert_allclose(A.rmatvec(y), dense.T @ y)
    X = np.arange(8.0).reshape(4, 2)
    assert_allclose(A.matvec(X), dense @ X)


def test_row_helpers_match_dense():
    A, dense = small_matrix()
    x = np.array([1.0, 2.0, 3.0, 4.0])
    for i in range(3):
        assert A.row_dot(i, x) == pytest.approx(dense[i] @ x)
    out = np.ones(4)
    A.add_scaled_row(1, 2.0, out)
    assert_allclose(out, np.ones(4) + 2.0 * dense[1])
    block = np.array([[1.0, 2.0], [3.0, 4.0]])
    got = A.row_submatrix_t_dot(np.array([0, 2]), block)
    assert_allclose(got, dense[[0, 2]].T @ block)


def test_from_coo_canonicalizes_duplicates_and_zeros():
    A = SparseDesignMatrix.from_coo(
        2, 3, rows=np.array([0, 0, 1, 1]), cols=np.array([1, 1, 0, 2]),
        vals=np.array([2.0, 3.0, 0.0, 1.0]))
    assert_allclose(A.to_dense(), [[0.0, 5.0, 0.0], [0.0, 0.0, 1.0]])
    assert A.nnz == 2  # explicit zero dropped, duplicates summed


def test_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        SparseDesignMatrix.from_dense(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        SparseDesignMatrix.from_dense(np.array([[np.inf, 1.0]]))


def test_spectral_norm_sq_matches_svd():
    rng = np.random.default_rng(17)
    for _ in range(10):
        dense = rng.normal(size=(int(rng.integers(2, 15)), int(rng.integers(2, 15))))
        A = SparseDesignMatrix.from_dense(dense)
        exact = np.linalg.norm(dense, 2) ** 2
        assert A.spectral_norm_sq() == pytest.approx(exact, rel=1e-7)


def test_dual_layout_consistency_random():
    # CSR and CSC views must describe the same matrix
    rng = np.random.default_rng(23)
    for _ in range(20):
        n, d = int(rng.integers(1, 50)), int(rng.integers(1, 50))
        dense = rng.normal(size=(n, d)) * (rng.random(size=(n, d)) < 0.3)
        A = SparseDesignMatrix.from_dense(dense)
        x = rng.normal(size=d)
        y = rng.normal(size=n)
        assert_allclose(A.matvec(x), dense @ x, atol=1e-12)
        assert_allclose(A.rmatvec(y), dense.T @ y, atol=1e-12)


# ----------------------------------------------------------- partial updates

def test_apply_sparse_col_product_matches_dense():
    A, dense = small_matrix()
    w = np.array([1.0, -1.0, 2.0])
    update = SparseUpdate(indices=np.array([0, 3]), values=np.array([2.0, -1.0]))
    got = apply_sparse_col_product(A, update, w, 0.5, 0.25)
    expect = 0.5 * w + 0.25 * (dense @ update.to_dense(4))
    assert_allclose(got, expect, atol=1e-12)
    assert_allclose(w, [1.0, -1.0, 2.0])  # input untouched


def test_apply_sparse_col_product_empty_update_scales_only():
    A, _ = small_matrix()
    w = np.array([1.0, 2.0, 3.0])
    update = SparseUpdate(indices=np.array([], dtype=np.int64),
                          values=np.array([]))
    got = apply_sparse_col_product(A, update, w, 0.5, 2.0)
    assert_allclose(got, 0.5 * w)


def test_apply_row_slice_transpose_matches_dense():
    A, dense = small_matrix()
    z = np.array([1.0, 0.0, -1.0, 2.0])
    rows = np.array([0, 2])
    dy = np.array([0.5, -1.5])
    got = apply_row_slice_transpose(A, rows, dy, z)
    assert_allclose(got, z + dense[rows].T @ dy, atol=1e-12)
    assert_allclose(z, [1.0, 0.0, -1.0, 2.0])


def test_apply_row_slice_transpose_validates_shapes():
    A, _ = small_matrix()
    with pytest.raises(ValueError):
        apply_row_slice_transpose(A, np.array([0, 1]), np.array([1.0]),
                                  np.zeros(4))


def test_apply_sparse_col_product_rejects_out_of_range_columns():
    A, _ = small_matrix()
    for bad in (-1, 4):
        update = SparseUpdate(indices=np.array([0, bad]),
                              values=np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="column range"):
            apply_sparse_col_product(A, update, np.zeros(3), 1.0, 1.0)


def test_apply_sparse_col_product_rejects_wrong_w_shape():
    A, _ = small_matrix()
    update = SparseUpdate(indices=np.array([0]), values=np.array([1.0]))
    for w in (np.zeros(4), np.zeros((3, 1))):
        with pytest.raises(ValueError, match="w has shape"):
            apply_sparse_col_product(A, update, w, 1.0, 1.0)


def test_apply_row_slice_transpose_rejects_out_of_range_rows():
    A, _ = small_matrix()
    for bad in (-1, 3):
        with pytest.raises(ValueError, match="row indices out of range"):
            apply_row_slice_transpose(A, np.array([bad, 0]),
                                      np.array([1.0, 1.0]), np.zeros(4))


def test_repeated_slices_add_once_per_occurrence():
    # a buffered `out[idx] += ...` over the gathered entries would keep only
    # the last of two writes to one position; each repeat must add again
    A, dense = small_matrix()
    z = np.array([1.0, 0.0, -1.0, 2.0])
    got = apply_row_slice_transpose(A, np.array([0, 0, 2]),
                                    np.array([0.5, 0.25, -1.0]), z)
    np.testing.assert_array_equal(got, z + 0.75 * dense[0] - dense[2])
    w = np.array([1.0, -1.0, 2.0])
    update = SparseUpdate(indices=np.array([3, 1, 3]),
                          values=np.array([2.0, 1.0, 2.0]))
    got = apply_sparse_col_product(A, update, w, 1.0, 1.0)
    np.testing.assert_array_equal(
        got, w + 4.0 * dense[:, 3] + dense[:, 1])


# The per-slice loops the vectorized kernels replaced. The kernels must give
# the same bits: they form the same products and add them into the output one
# at a time, in the same order.

def col_product_oracle(A, dx, w, scale_old, scale_new):
    out = scale_old * w
    csc = A._csc
    for j, val in zip(dx.indices, dx.values):
        lo, hi = csc.indptr[j], csc.indptr[j + 1]
        out[csc.indices[lo:hi]] += scale_new * val * csc.data[lo:hi]
    return out


def row_transpose_oracle(A, rows, dy, z):
    out = z.copy()
    csr = A._csr
    for i, coeff in zip(np.asarray(rows, dtype=np.int64), dy):
        lo, hi = csr.indptr[i], csr.indptr[i + 1]
        out[csr.indices[lo:hi]] += coeff * csr.data[lo:hi]
    return out


def _random_entries(rng, n, d):
    """n x d normals scaled over eight decades, none of them zero."""
    vals = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-4, 5, size=(n, d))
    return np.where(vals == 0.0, 1.0, vals)


@st.composite
def sparse_designs(draw):
    """A small design with entries over eight decades, at least one empty
    row and one empty column, and a seeded dense copy."""
    n, d = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.2, 0.5, 1.0]))
    dense = np.where(rng.random((n, d)) < density,
                     _random_entries(rng, n, d), 0.0)
    dense[draw(st.integers(0, n - 1))] = 0.0
    dense[:, draw(st.integers(0, d - 1))] = 0.0
    return SparseDesignMatrix.from_dense(dense), rng


@st.composite
def dense_designs(draw):
    """A small design that stores every entry, so the kernels take the
    dense route; entries span eight decades. One-row and one-column shapes
    are included: there a kernel sums a single column of terms."""
    n, d = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = SparseDesignMatrix.from_dense(_random_entries(rng, n, d))
    assert A._dense_rows is not None and A._dense_cols is not None
    return A, rng


coefficients = st.floats(-1e6, 1e6, allow_nan=False)


def check_col_product(A, rng, data):
    cols = data.draw(st.lists(st.integers(0, A.n_cols - 1), max_size=12))
    dx = SparseUpdate(indices=np.array(cols, dtype=np.int64),
                      values=np.array(data.draw(st.lists(
                          coefficients, min_size=len(cols),
                          max_size=len(cols))), dtype=np.float64))
    scale_old, scale_new = data.draw(coefficients), data.draw(coefficients)
    w = rng.normal(size=A.n_rows)
    w_before = w.copy()
    got = apply_sparse_col_product(A, dx, w, scale_old, scale_new)
    expect = col_product_oracle(A, dx, w, scale_old, scale_new)
    assert np.array_equal(got, expect)
    assert np.array_equal(w, w_before)


def check_row_transpose(A, rng, data):
    rows = np.array(data.draw(st.lists(st.integers(0, A.n_rows - 1),
                                       max_size=12)), dtype=np.int64)
    dy = np.array(data.draw(st.lists(coefficients, min_size=rows.size,
                                     max_size=rows.size)), dtype=np.float64)
    z = rng.normal(size=A.n_cols)
    z_before = z.copy()
    got = apply_row_slice_transpose(A, rows, dy, z)
    assert np.array_equal(got, row_transpose_oracle(A, rows, dy, z))
    assert np.array_equal(z, z_before)


@settings(max_examples=300, deadline=None)
@given(sparse_designs(), st.data())
def test_apply_sparse_col_product_bit_identical_to_loop(design, data):
    check_col_product(*design, data)


@settings(max_examples=300, deadline=None)
@given(sparse_designs(), st.data())
def test_apply_row_slice_transpose_bit_identical_to_loop(design, data):
    check_row_transpose(*design, data)


@settings(max_examples=300, deadline=None)
@given(dense_designs(), st.data())
def test_apply_sparse_col_product_dense_route_bit_identical_to_loop(
        design, data):
    check_col_product(*design, data)


@settings(max_examples=300, deadline=None)
@given(dense_designs(), st.data())
def test_apply_row_slice_transpose_dense_route_bit_identical_to_loop(
        design, data):
    check_row_transpose(*design, data)


# column 2 and row 1 are empty
EDGE_DESIGN = np.array([[1.0, 0.0, 0.0, 2.5],
                        [0.0, 0.0, 0.0, 0.0],
                        [-3.0, 1e-3, 0.0, 7.0],
                        [0.0, 4.0, 0.0, -1e5]])
EDGE_SELECTIONS = [[], [1], [2], [3, 0, 3, 1], [2, 2]]


def check_edge_selection(dense, sel):
    A = SparseDesignMatrix.from_dense(dense)
    assert (A._dense_rows is None) == (0.0 in dense)
    idx = np.array(sel, dtype=np.int64)
    coef = np.linspace(-1.3, 2.1, idx.size)
    base = np.array([0.1, -0.2, 0.3, 1e7])
    dx = SparseUpdate(indices=idx, values=coef)
    assert np.array_equal(apply_sparse_col_product(A, dx, base, 0.9, 0.1),
                          col_product_oracle(A, dx, base, 0.9, 0.1))
    assert np.array_equal(apply_row_slice_transpose(A, idx, coef, base),
                          row_transpose_oracle(A, idx, coef, base))


# [1] is a one-column update
@pytest.mark.parametrize("sel", EDGE_SELECTIONS)
def test_update_kernels_match_loop_on_edge_selections(sel):
    check_edge_selection(EDGE_DESIGN, sel)


@pytest.mark.parametrize("sel", EDGE_SELECTIONS)
def test_update_kernels_match_loop_on_dense_edge_selections(sel):
    check_edge_selection(np.where(EDGE_DESIGN == 0.0, -0.5, EDGE_DESIGN), sel)


def test_dense_route_keeps_order_on_a_single_column_of_terms():
    # on a one-row design (column product) and a one-column design (row
    # product) numpy would sum the terms pairwise; the loop adds them in order
    rng = np.random.default_rng(5)
    idx = rng.integers(0, 30, size=40)
    coef = rng.normal(size=40) * 10.0 ** rng.integers(-8, 9, size=40)
    one_row = SparseDesignMatrix.from_dense(_random_entries(rng, 1, 30))
    dx = SparseUpdate(indices=idx, values=coef)
    assert np.array_equal(
        apply_sparse_col_product(one_row, dx, np.ones(1), 0.5, 3.0),
        col_product_oracle(one_row, dx, np.ones(1), 0.5, 3.0))
    one_col = SparseDesignMatrix.from_dense(_random_entries(rng, 30, 1))
    assert np.array_equal(
        apply_row_slice_transpose(one_col, idx, coef, np.ones(1)),
        row_transpose_oracle(one_col, idx, coef, np.ones(1)))


def test_one_exact_zero_sends_a_design_to_the_sparse_route():
    rng = np.random.default_rng(11)
    dense = _random_entries(rng, 6, 5)
    assert SparseDesignMatrix.from_dense(dense)._dense_rows is not None
    dense[4, 2] = 0.0
    A = SparseDesignMatrix.from_dense(dense)
    assert A.nnz == 29
    assert A._dense_rows is None and A._dense_cols is None
    idx = np.array([4, 2, 2, 0])
    coef = np.array([1.5, -2.0, 1e-6, 3e5])
    dx = SparseUpdate(indices=idx, values=coef)
    w, z = rng.normal(size=6), rng.normal(size=5)
    assert np.array_equal(apply_sparse_col_product(A, dx, w, 0.75, 0.25),
                          col_product_oracle(A, dx, w, 0.75, 0.25))
    assert np.array_equal(apply_row_slice_transpose(A, idx, coef, z),
                          row_transpose_oracle(A, idx, coef, z))
    np.testing.assert_array_equal(
        A.row_submatrix_t_dot(idx, np.ones((4, 2))), dense[idx].T @ np.ones((4, 2)))


def test_dense_views_copy_nothing_and_are_read_only():
    rng = np.random.default_rng(3)
    A = SparseDesignMatrix.from_dense(_random_entries(rng, 4, 7))
    assert np.shares_memory(A._dense_rows, A._csr.data)
    assert np.shares_memory(A._dense_cols, A._csc.data)
    np.testing.assert_array_equal(A._dense_rows, A.to_dense())
    np.testing.assert_array_equal(A._dense_cols, A.to_dense().T)
    assert not A._dense_rows.flags.writeable
    assert not A._dense_cols.flags.writeable


@settings(max_examples=100, deadline=None)
@given(dense_designs(), st.data())
def test_row_submatrix_t_dot_dense_route(design, data):
    A, rng = design
    rows = np.array(data.draw(st.lists(st.integers(0, A.n_rows - 1),
                                       min_size=1, max_size=12)),
                    dtype=np.int64)
    block = rng.normal(size=(rows.size, data.draw(st.integers(1, 5))))
    got = A.row_submatrix_t_dot(rows, block)
    sub = A.to_dense()[rows]
    # the error bound of any summation order, at 1e-13 relative
    scale = np.abs(sub).T @ np.abs(block)
    assert got.shape == (A.n_cols, block.shape[1])
    assert np.all(np.abs(got - sub.T @ block) <= 1e-13 * scale)
    sparse_route = SparseDesignMatrix.from_dense(A.to_dense())
    sparse_route._dense_rows = None
    assert np.all(np.abs(got - sparse_route.row_submatrix_t_dot(rows, block))
                  <= 1e-13 * scale)


def _solver_design(kind):
    n, d = 60, 150
    rng = PortableRng(7)
    if kind == "dense":
        return SparseDesignMatrix.from_dense(
            rng.normals(n * d).reshape(n, d)), rng
    flat = np.flatnonzero(rng.uniforms(n * d) < 0.08)
    r, c = flat // d, flat % d
    keep = (r % 17 != 5) & (c % 23 != 4)  # leave a few rows and columns empty
    A = SparseDesignMatrix.from_coo(n, d, r[keep], c[keep],
                                    rng.normals(int(keep.sum())))
    assert A.row_nnz.min() == 0 and A.col_nnz.min() == 0
    return A, rng


@pytest.mark.parametrize("kind", ["sparse", "dense"])
def test_solve_unchanged_against_loop_kernels(monkeypatch, kind):
    A, rng = _solver_design(kind)
    assert (A._dense_rows is not None) == (kind == "dense")
    n = A.n_rows
    loss = smooth_hinge_loss(np.where(rng.uniforms(n) > 0.5, 1.0, -1.0))
    cfg = pdbfw_l1.SolverConfig(radius=2.0, s=12, k=20, delta=50.0,
                                max_iters=60, gap_tol=1e-12)

    def run():
        x, y, trace = pdbfw_l1.solve(A, loss, Regularizer(mu=0.1), cfg)
        rows = [(r.iteration, r.primal, r.dual, r.gap, r.flops, r.support)
                for r in trace.records]
        return x, y, rows

    x, y, rows = run()
    monkeypatch.setattr(pdbfw_l1, "apply_sparse_col_product",
                        col_product_oracle)
    monkeypatch.setattr(pdbfw_l1, "apply_row_slice_transpose",
                        row_transpose_oracle)
    x_loop, y_loop, rows_loop = run()
    assert len(rows) > 10
    assert rows == rows_loop
    assert np.array_equal(x, x_loop) and np.array_equal(y, y_loop)


def test_sparse_update_dense_roundtrip():
    update = SparseUpdate(indices=np.array([1, 3]), values=np.array([2.0, -1.0]))
    assert update.support_size == 2
    assert_allclose(update.to_dense(5), [0.0, 2.0, 0.0, -1.0, 0.0])
