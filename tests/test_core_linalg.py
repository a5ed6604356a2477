import copy
import itertools
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from pdbfw import core_linalg, metrics, pdbfw_l1
from pdbfw.core_linalg import (SparseDesignMatrix, SparseUpdate,
                               apply_row_slice_transpose,
                               apply_sparse_col_product, project_l1_ball,
                               range_svd, sparse_l1_prox, top_k_by_magnitude)
from pdbfw.data_io import PortableRng
from pdbfw.losses import Regularizer, smooth_hinge_loss


def to_dense(update, length):
    """The length-`length` vector that a SparseUpdate stands for."""
    out = np.zeros(length)
    out[update.indices] = update.values
    return out


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
    with pytest.raises(ValueError, match="radius must be positive"):
        project_l1_ball(np.array([2.0, 1.0]), np.nan)
    with pytest.raises(ValueError, match="radius must be positive"):
        sparse_l1_prox(np.array([2.0, 1.0]), np.nan, 1)


@pytest.mark.parametrize("v", [[np.nan, 1.0, 2.0], [np.inf, 1.0],
                               [-np.inf, 1.0]])
def test_project_l1_ball_names_non_finite_input(v):
    with pytest.raises(ValueError, match="must be finite"):
        project_l1_ball(np.array(v), 1.0)


def test_project_l1_ball_names_radius_below_rounding():
    # 1e16 - 1 rounds to 1e16, so no index passes the sort test
    with pytest.raises(ValueError, match="below the rounding"):
        project_l1_ball(np.array([1e16, 3.0]), 1.0)


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


# The full-sort projection and the selection the fast paths replaced. The
# new code must give the same bits: the same sorted prefix, the same
# sequential cumsum, the same theta and the same signed zeros.

def project_full_sort_oracle(v, radius):
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


def top_k_oracle(v, k):
    a = np.abs(np.asarray(v, dtype=np.float64))
    d = a.size
    if k == d:
        return np.arange(d, dtype=np.int64)
    part = np.argpartition(a, d - k)[d - k:]
    tau = a[part].min()
    above = np.flatnonzero(a > tau)
    ties = np.flatnonzero(a == tau)[: k - above.size]
    idx = np.concatenate([above, ties])
    idx.sort()
    return idx.astype(np.int64)


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


GUESS = core_linalg._PROJECTION_GUESS


@st.composite
def projection_cases(draw):
    """A vector and a radius whose active set has a drawn size: below the
    first guessed count, past it once or twice, or the whole vector. Some
    vectors hold -0.0 entries or rounded (tied) values; some radii do not
    bind."""
    d = draw(st.sampled_from([1, 7, GUESS - 1, GUESS, GUESS + 1,
                              3 * GUESS, 6 * GUESS]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = rng.normal(size=d) * 10.0 ** rng.integers(-3, 4, size=d)
    if draw(st.booleans()):
        v = np.round(v, 1)
    if draw(st.booleans()):
        v[rng.random(d) < 0.2] = -0.0
    u = np.sort(np.abs(v))[::-1]
    active = draw(st.sampled_from([1, GUESS // 3, GUESS + GUESS // 2,
                                   3 * GUESS, d]))
    active = min(active, d)
    # the radius at which the shrinkage equals the first inactive magnitude
    theta = u[active] if active < d else 0.0
    radius = float(np.sum(u[:active] - theta))
    if radius <= 0.0 or draw(st.booleans()):
        radius = float(u.sum()) * draw(st.sampled_from([1e-3, 0.5, 1.0, 2.0]))
    if radius <= 0.0:
        radius = 1.0
    return v, radius


@settings(max_examples=300, deadline=None)
@given(projection_cases())
def test_project_l1_ball_bit_identical_to_full_sort(case):
    v, radius = case
    assert_same_bits(project_l1_ball(v, radius),
                     project_full_sort_oracle(v, radius))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.floats(0.01, 0.9), st.integers(GUESS + 1, 6000),
       st.integers(0, 2**32 - 1))
def test_project_l1_ball_bit_identical_with_ties_at_theta(h, tie, count, seed):
    # h large entries, then `count` entries equal to theta. Past the active
    # set the test is exactly zero, so its rounding decides where the full
    # sort's last pass falls, often past the first guessed count.
    rng = np.random.default_rng(seed)
    top = rng.uniform(1.0, 3.0, size=h)
    v = np.concatenate([top, np.full(count, tie)])
    v *= rng.choice([-1.0, 1.0], size=v.size)
    v = v[rng.permutation(v.size)]
    radius = float(top.sum() - h * tie)
    assert_same_bits(project_l1_ball(v, radius),
                     project_full_sort_oracle(v, radius))


def assert_first_prefix_keeps_the_bits(v, radius, first):
    a = np.abs(v)
    theta, u = core_linalg.l1_threshold(a, radius)
    theta_f, u_f = core_linalg.l1_threshold(a, radius, first)
    assert_same_bits(np.float64(theta_f), np.float64(theta))
    assert_same_bits(u_f, u)
    assert_same_bits(project_l1_ball(v, radius, first),
                     project_l1_ball(v, radius))


@settings(max_examples=300, deadline=None)
@given(projection_cases(), st.data())
def test_l1_threshold_first_prefix_keeps_the_bits(case, data):
    # any first count in [1, d] gives the default's (theta, u), on vectors
    # with ties, zeros and radii that do not bind, at d above and below GUESS
    v, radius = case
    first = data.draw(st.integers(1, v.size), label="first")
    assert_first_prefix_keeps_the_bits(v, radius, first)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.floats(0.01, 0.9), st.integers(1, 3000),
       st.integers(0, 2**32 - 1), st.data())
def test_l1_threshold_first_prefix_with_ties_at_theta(h, tie, count, seed,
                                                      data):
    rng = np.random.default_rng(seed)
    top = rng.uniform(1.0, 3.0, size=h)
    v = np.concatenate([top, np.full(count, tie), np.zeros(count // 4)])
    v = v[rng.permutation(v.size)]
    first = data.draw(st.integers(1, v.size), label="first")
    assert_first_prefix_keeps_the_bits(v, float(top.sum() - h * tie), first)


def test_l1_threshold_every_first_prefix_on_a_short_vector():
    rng = np.random.default_rng(27)
    v = np.concatenate([rng.normal(size=30), np.full(10, 0.25),
                        np.zeros(5), np.full(3, -0.0)])
    for radius in (0.5, 3.0, float(np.abs(v).sum())):
        for first in range(1, v.size + 1):
            assert_first_prefix_keeps_the_bits(v, radius, first)


def test_project_l1_ball_keeps_the_sign_of_zeros():
    # np.sign(-0.0) * 0.0 is +0.0, while copysign(0.0, -0.0) is -0.0
    v = np.concatenate([[5.0, -4.0, -0.0, 0.0, -1e-3],
                        np.full(2 * GUESS, -0.0)])
    for w in (v, v[:5]):
        x = project_l1_ball(w, 1.0)
        assert_same_bits(x, project_full_sort_oracle(w, 1.0))
        assert np.signbit(x[4]) and not np.signbit(x[2])
    # the radius is the sum of the sorted magnitudes: the pairwise sum of v
    # exceeds it, the sequential cumsum falls short, so theta is about
    # -2e-15; the zeros must stay zero, where copysign would give |theta|
    v = np.round(np.random.default_rng(3).normal(size=2000), 1)
    radius = float(np.sum(np.sort(np.abs(v))[::-1]))
    x = project_l1_ball(v, radius)
    assert_same_bits(x, project_full_sort_oracle(v, radius))
    assert np.all(x[v == 0.0] == 0.0)


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


def test_top_k_ties_straddling_the_threshold():
    # five entries tie at |v| = 1 and k = 5 leaves room for three of them;
    # argpartition may pick any three, the lowest indices must win
    v = np.zeros(3000)
    v[[40, 2500]] = [3.0, -2.0]
    v[[2999, 7, 1200, 8, 15]] = [1.0, -1.0, 1.0, 1.0, -1.0]
    assert top_k_by_magnitude(v, 5).tolist() == [7, 8, 15, 40, 2500]
    # every tie fits: the selection itself is the answer
    assert top_k_by_magnitude(v, 7).tolist() == [7, 8, 15, 40, 1200, 2500,
                                                 2999]
    # ties at zero straddle the threshold
    assert top_k_by_magnitude(v, 9).tolist() == [0, 1, 7, 8, 15, 40, 1200,
                                                 2500, 2999]
    # +0.0 and -0.0 tie: k = 2 stops above them, larger k takes the lowest
    w = np.array([0.0, -0.0, 2.0, -0.0, 0.0, -1.0])
    assert top_k_by_magnitude(w, 2).tolist() == [2, 5]
    assert top_k_by_magnitude(w, 3).tolist() == [0, 2, 5]
    assert top_k_by_magnitude(w, 4).tolist() == [0, 1, 2, 5]
    # every entry ties
    w = np.array([1.5, -1.5, 1.5, 1.5, -1.5])
    assert top_k_by_magnitude(w, 3).tolist() == [0, 1, 2]
    assert top_k_by_magnitude(w, 5).tolist() == [0, 1, 2, 3, 4]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3000), st.integers(0, 2**32 - 1),
       st.sampled_from([1, 2, 3]), st.data())
def test_top_k_bit_identical_to_selection_oracle(d, seed, decimals, data):
    rng = np.random.default_rng(seed)
    v = np.round(rng.normal(size=d), decimals)  # rounding forces ties
    kind = data.draw(st.sampled_from(["rounded", "signed_zeros", "all_equal"]))
    if kind == "signed_zeros":  # most entries +0.0 or -0.0
        zeros = np.where(rng.random(d) < 0.5, 0.0, -0.0)
        v = np.where(rng.random(d) < 0.2, v, zeros)
    elif kind == "all_equal":
        v = np.full(d, 1.5) * rng.choice([-1.0, 1.0], size=d)
    k = data.draw(st.integers(1, d))
    got = top_k_by_magnitude(v, k)
    want = top_k_oracle(v, k)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)


def test_top_k_rejects_bad_k():
    with pytest.raises(ValueError):
        top_k_by_magnitude(np.array([1.0, 2.0]), 0)
    with pytest.raises(ValueError):
        top_k_by_magnitude(np.array([1.0, 2.0]), 3)


@pytest.mark.parametrize("v, k", [
    ([np.nan, 1.0, 2.0, 3.0], 2),  # gave [3]
    ([np.nan, np.nan, 1.0], 1),    # gave []
    ([np.nan, 3.0, 3.0, 1.0], 2),  # gave [1, 2], dropping the NaN
    ([1.0, -np.inf, 2.0], 1),
    ([1.0, np.nan, 2.0], 3),
])
def test_top_k_rejects_non_finite_input(v, k):
    with pytest.raises(ValueError, match="finite"):
        top_k_by_magnitude(np.array(v), k)


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
    x = to_dense(update, 3)
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
        x = to_dense(update, d)
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
    return SparseDesignMatrix(dense), dense


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
    A = SparseDesignMatrix(sp.coo_matrix(
        (np.array([2.0, 3.0, 0.0, 1.0]),
         (np.array([0, 0, 1, 1]), np.array([1, 1, 0, 2]))), shape=(2, 3)))
    assert_allclose(A.to_dense(), [[0.0, 5.0, 0.0], [0.0, 0.0, 1.0]])
    assert A.nnz == 2  # explicit zero dropped, duplicates summed


def test_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        SparseDesignMatrix(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        SparseDesignMatrix(np.array([[np.inf, 1.0]]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            SparseDesignMatrix(np.array([[1.0, 0.0], [bad, 2.0]]))
        with pytest.raises(ValueError, match="non-finite"):
            SparseDesignMatrix(sp.coo_matrix(
                (np.array([3.0, bad]), (np.array([0, 1]), np.array([1, 1]))),
                shape=(2, 2)))


def test_dual_layout_consistency_random():
    # CSR and CSC views must describe the same matrix
    rng = np.random.default_rng(23)
    for _ in range(20):
        n, d = int(rng.integers(1, 50)), int(rng.integers(1, 50))
        dense = rng.normal(size=(n, d)) * (rng.random(size=(n, d)) < 0.3)
        A = SparseDesignMatrix(dense)
        x = rng.normal(size=d)
        y = rng.normal(size=n)
        assert_allclose(A.matvec(x), dense @ x, atol=1e-12)
        assert_allclose(A.rmatvec(y), dense.T @ y, atol=1e-12)


# The reference construction: scipy's COO round trip, canonicalization and
# the squared product matrix. A sparse design's layouts, a fully stored
# design's dense rows and columns (the data of its CSR and CSC) and its CSR
# copy, and the row norms from the squared data must give the same arrays,
# bit for bit.

def old_construction(matrix):
    csr = sp.csr_matrix(matrix, dtype=np.float64, copy=True)
    csr.sum_duplicates()
    csr.eliminate_zeros()
    csr.sort_indices()
    csc = csr.tocsc()
    csc.sort_indices()
    norms = np.asarray(csr.multiply(csr).sum(axis=1)).ravel().astype(np.float64)
    return csr, csc, norms


def assert_same_layout(got, want):
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype, name
        assert g.tobytes() == w.tobytes(), name


def assert_same_construction(A, matrix):
    csr, csc, norms = old_construction(matrix)
    full = A._dense_rows is not None
    assert full == (csr.nnz == np.prod(csr.shape))
    if full:
        assert "_csc" not in vars(A) and "_csr" not in vars(A)
        assert A._dense_rows.tobytes() == csr.data.tobytes()
        assert A._dense_cols.tobytes() == csc.data.tobytes()
        # the CSR copy, built on first read
        assert_same_layout(A._csr, sp.csr_matrix(A.to_dense()))
    else:
        assert_same_layout(A._csc, csc)
    assert_same_layout(A._csr, csr)
    assert A.row_norms_sq.dtype == norms.dtype
    assert A.row_norms_sq.tobytes() == norms.tobytes()


@st.composite
def dense_inputs(draw):
    """A dense array with entries over eight decades, exact zeros and -0.0,
    empty rows and columns and 0 x d shapes; also as a 1-D array, an
    np.matrix or int8 entries."""
    n, d = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zeros = rng.random((n, d)) < draw(st.sampled_from([0.0, 0.3, 0.8]))
    signed_zeros = np.where(rng.random((n, d)) < 0.5, 0.0, -0.0)
    dense = np.where(zeros, signed_zeros, _random_entries(rng, n, d))
    if n and draw(st.booleans()):
        dense[draw(st.integers(0, n - 1))] = -0.0
    if d and draw(st.booleans()):
        dense[:, draw(st.integers(0, d - 1))] = 0.0
    form = draw(st.sampled_from(["array", "1-D", "matrix", "int8"]))
    if form == "1-D":
        return dense.ravel()
    if form == "matrix":
        with warnings.catch_warnings():  # np.matrix is pending deprecation
            warnings.simplefilter("ignore", PendingDeprecationWarning)
            return np.matrix(dense)
    if form == "int8":
        return np.where(dense != 0.0, rng.integers(-128, 128, size=(n, d)),
                        0).astype(np.int8)
    return dense


@settings(max_examples=300, deadline=None)
@given(dense_inputs())
def test_dense_construction_matches_the_coo_round_trip(dense):
    assert_same_construction(SparseDesignMatrix(dense), dense)


@st.composite
def coo_inputs(draw):
    """COO triplets with duplicate positions, some pairs cancelling to 0."""
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    k, cancel = draw(st.integers(0, 20)), draw(st.integers(0, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, cols = rng.integers(0, n, size=k), rng.integers(0, d, size=k)
    vals = _random_entries(rng, 1, k).ravel()
    cancel = min(cancel, k)
    return (n, d, np.concatenate([rows, rows[:cancel]]),
            np.concatenate([cols, cols[:cancel]]),
            np.concatenate([vals, -vals[:cancel]]))


@settings(max_examples=300, deadline=None)
@given(coo_inputs())
def test_coo_construction_matches_the_old_route(triplets):
    n, d, rows, cols, vals = triplets
    assert_same_construction(
        SparseDesignMatrix(sp.coo_matrix((vals, (rows, cols)), shape=(n, d))),
        sp.coo_matrix((vals, (rows, cols)), shape=(n, d)))


def test_row_norms_keep_their_bits_when_squares_underflow():
    # the squared product drops the three 1e-170 squares; summing them as
    # zeros instead would move this row's norm by one rounding
    rng = np.random.default_rng(0)
    row = rng.normal(size=(1, 40)) * 10.0 ** rng.integers(-4, 5, size=(1, 40))
    row[0, rng.integers(0, 40, size=3)] = 1e-170
    naive = np.add.reduceat(np.square(row.ravel()), [0])
    A = SparseDesignMatrix(row)
    assert not np.array_equal(A.row_norms_sq, naive)
    assert_same_construction(A, row)


def test_row_norms_rescale_a_row_whose_squares_are_subnormal():
    # 1e-160 squared is a subnormal 1e-320 with a few significant digits, so
    # the cached square's root was 1.41420569e-160; a row whose largest
    # square is normal keeps the bits of its cached square's root
    A = SparseDesignMatrix(np.array([[1e-160, 1e-160], [3.0, 4.0],
                                     [1e-150, 1e-170]]))
    assert 0.0 < A.row_norms_sq[0] < np.finfo(float).tiny
    norms = A.row_norms()
    np.testing.assert_allclose(norms[0], np.sqrt(2.0) * 1e-160,
                               rtol=1e-15, atol=0)
    assert norms[1:].tolist() == np.sqrt(A.row_norms_sq[1:]).tolist()
    assert "_csr" not in vars(A) and "_csc" not in vars(A)


def test_three_dimensional_input_raises():
    with pytest.raises(ValueError):
        SparseDesignMatrix(np.ones((2, 3, 4)))


# ----------------------------------------------------------- partial updates

def test_apply_sparse_col_product_matches_dense():
    A, dense = small_matrix()
    w = np.array([1.0, -1.0, 2.0])
    update = SparseUpdate(indices=np.array([0, 3]), values=np.array([2.0, -1.0]))
    got = apply_sparse_col_product(A, update, w, 0.5, 0.25)
    expect = 0.5 * w + 0.25 * (dense @ to_dense(update, 4))
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


@pytest.mark.parametrize("dense_route", [False, True])
@pytest.mark.parametrize("values", [[1.0], [1.0, 2.0, 3.0]],
                         ids=["too_short", "too_long"])
def test_apply_sparse_col_product_rejects_values_of_another_length(
        dense_route, values):
    # the sparse route's compiled loop would read past the end of `values`
    A, dense = small_matrix()
    if dense_route:
        A = SparseDesignMatrix(np.where(dense == 0.0, 0.5, dense))
    assert (A._dense_cols is not None) == dense_route
    update = SparseUpdate(indices=np.array([0, 3]), values=np.array(values))
    with pytest.raises(ValueError, match="differ in shape"):
        apply_sparse_col_product(A, update, np.zeros(3), 1.0, 1.0)


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


# The per-slice loops the vectorized kernels replaced. On the sparse route the
# kernels must give the same bits: they form the same products and add them
# into the output one at a time, in the same order. The dense route sums with
# BLAS products, in BLAS order, so there only the error bound of the sum holds.

def col_product_oracle(A, dx, w, scale_old, scale_new):
    out = scale_old * w
    # a fully stored design holds no CSC
    csc = A._csc if A._dense_cols is None else sp.csc_matrix(A.to_dense())
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
    return SparseDesignMatrix(dense), rng


@st.composite
def dense_designs(draw):
    """A small design that stores every entry, so the kernels take the
    dense route; entries span eight decades. One-row and one-column shapes
    are included: there a kernel sums a single column of terms."""
    n, d = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = SparseDesignMatrix(_random_entries(rng, n, d))
    assert A._dense_rows is not None and A._dense_cols is not None
    return A, rng


def sparse_twin(A):
    """A fully stored design A held as a sparse design holds its entries, a
    CSR and a CSC without dense arrays, so that the kernels take the sparse
    route on it."""
    twin = copy.copy(A)
    twin._dense_rows = twin._dense_cols = None
    twin._csr = sp.csr_matrix(A.to_dense())
    twin._csc = twin._csr.tocsc()
    return twin


coefficients = st.floats(-1e6, 1e6, allow_nan=False)


def start_vector(rng, size):
    """Normals with about a quarter of the entries set to +0.0 or -0.0, so
    that zero coefficients leave signed zeros for the checks to compare."""
    v = rng.normal(size=size)
    zero = rng.random(size) < 0.25
    v[zero] = np.where(rng.random(size) < 0.5, -0.0, 0.0)[zero]
    return v


EPS = np.finfo(np.float64).eps
TINY = np.finfo(np.float64).smallest_subnormal


def assert_matches_loop(got, want, dense_route, first, coeffs, slices):
    """Off the dense route, `got` has the loop's bits. On it, `got` lies
    within twice the error bound of any order of summing `first` and the m
    terms coeffs[i] * slices[i]: (m + 2) eps sum|terms|, plus one subnormal
    spacing a term for products that underflow."""
    if not dense_route:
        assert_same_bits(got, want)
        return
    assert got.dtype == want.dtype and got.shape == want.shape
    scale = np.abs(first) + np.abs(coeffs) @ np.abs(slices)
    bound = 2 * (coeffs.size + 2) * (EPS * scale + TINY)
    assert np.all(np.abs(got - want) <= bound)


def check_col_product(A, rng, data, oracle=col_product_oracle):
    cols = data.draw(st.lists(st.integers(0, A.n_cols - 1), max_size=12))
    dx = SparseUpdate(indices=np.array(cols, dtype=np.int64),
                      values=np.array(data.draw(st.lists(
                          coefficients, min_size=len(cols),
                          max_size=len(cols))), dtype=np.float64))
    scale_old, scale_new = data.draw(coefficients), data.draw(coefficients)
    w = start_vector(rng, A.n_rows)
    w_before = w.copy()
    got = apply_sparse_col_product(A, dx, w, scale_old, scale_new)
    assert_matches_loop(got, oracle(A, dx, w, scale_old, scale_new),
                        A._dense_cols is not None, scale_old * w,
                        scale_new * dx.values, A.to_dense().T[dx.indices])
    assert_same_bits(w, w_before)


def check_row_transpose(A, rng, data, oracle=row_transpose_oracle):
    rows = np.array(data.draw(st.lists(st.integers(0, A.n_rows - 1),
                                       max_size=12)), dtype=np.int64)
    dy = np.array(data.draw(st.lists(coefficients, min_size=rows.size,
                                     max_size=rows.size)), dtype=np.float64)
    z = start_vector(rng, A.n_cols)
    z_before = z.copy()
    got = apply_row_slice_transpose(A, rows, dy, z)
    assert_matches_loop(got, oracle(A, rows, dy, z),
                        A._dense_rows is not None, z, dy, A.to_dense()[rows])
    assert_same_bits(z, z_before)


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


@settings(max_examples=200, deadline=None)
@given(dense_designs(), st.data())
def test_update_kernels_dense_route_near_the_sparse_route(design, data):
    A, _ = design
    sparse_route = sparse_twin(A)
    check_col_product(*design, data, oracle=lambda _, *args:
                      apply_sparse_col_product(sparse_route, *args))
    check_row_transpose(*design, data, oracle=lambda _, *args:
                        apply_row_slice_transpose(sparse_route, *args))


@pytest.mark.parametrize("dtype", [np.float32, np.int64, np.float64])
@pytest.mark.parametrize("route", ["sparse", "dense"])
def test_update_kernels_return_float64_for_any_real_input(route, dtype):
    # w or z of another real dtype is read as float64 on both routes, so the
    # result is the loop's on the float64 copy; float64 keeps its bits
    rng = np.random.default_rng(11)
    dense = _random_entries(rng, 7, 5)
    if route == "sparse":
        dense[[0, 3, 3, 6], [1, 0, 4, 2]] = 0.0
    A = SparseDesignMatrix(dense)
    assert (A._dense_rows is not None) == (route == "dense")
    w = (100.0 * rng.normal(size=7)).astype(dtype)
    z = (100.0 * rng.normal(size=5)).astype(dtype)
    w_before, z_before = w.copy(), z.copy()
    dx = SparseUpdate(indices=np.array([4, 0, 4, 2]),
                      values=np.array([1.5, -2.0, 0.25, 3e-3]))
    rows, dy = np.array([6, 1, 1, 3]), np.array([0.5, -3.0, 2.0, 7e4])
    w64, z64 = w.astype(np.float64), z.astype(np.float64)
    got = apply_sparse_col_product(A, dx, w, 0.75, -1.25)
    assert got.dtype == np.float64
    assert_matches_loop(got, col_product_oracle(A, dx, w64, 0.75, -1.25),
                        route == "dense", 0.75 * w64, -1.25 * dx.values,
                        dense.T[dx.indices])
    got = apply_row_slice_transpose(A, rows, dy, z)
    assert got.dtype == np.float64
    assert_matches_loop(got, row_transpose_oracle(A, rows, dy, z64),
                        route == "dense", z64, dy, dense[rows])
    assert w.tobytes() == w_before.tobytes()
    assert z.tobytes() == z_before.tobytes()


def with_int64_indices(A):
    """A with both layouts' `indptr` and `indices` cast to int64, as scipy
    stores them past 2**31 entries."""
    for layout in (A._csr, A._csc):
        assert layout.indptr.dtype == layout.indices.dtype == np.int32
        layout.indptr = layout.indptr.astype(np.int64)
        layout.indices = layout.indices.astype(np.int64)
    return A


@settings(max_examples=300, deadline=None)
@given(sparse_designs(), st.data())
def test_update_kernels_bit_identical_to_loop_with_int64_indices(design,
                                                                 data):
    A, rng = design
    with_int64_indices(A)
    check_col_product(A, rng, data)
    check_row_transpose(A, rng, data)


def test_update_kernels_match_loop_with_int64_indices_on_repeats():
    A = with_int64_indices(SparseDesignMatrix(EDGE_DESIGN))
    idx = np.array([3, 0, 3, 1, 0])  # unsorted, with repeats
    coef = np.array([1.5, -2.0, 1e-6, 3e5, -0.25])
    dx = SparseUpdate(indices=idx, values=coef)
    w = np.array([0.1, -0.0, 0.3, 1e7])
    assert_same_bits(apply_sparse_col_product(A, dx, w, 0.75, 0.25),
                     col_product_oracle(A, dx, w, 0.75, 0.25))
    assert_same_bits(apply_row_slice_transpose(A, idx, coef, w),
                     row_transpose_oracle(A, idx, coef, w))


# The dense route gathers the selection `_FOLD_BYTES` at a time, one block of
# rows per BLAS product; the designs above are too small for a selection to
# cross a block at the default budget, so these shrink it.

def fold_budget(rows, width):
    """A `_FOLD_BYTES` that fits `rows` rows of `width`."""
    return 8 * rows * width


@pytest.mark.parametrize("rows", [1, 3])
@settings(max_examples=200, deadline=None)
@given(dense_designs(), st.data())
def test_apply_sparse_col_product_bit_identical_across_blocks(
        rows, design, data):
    A, _ = design
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core_linalg, "_FOLD_BYTES", fold_budget(rows, A.n_rows))
        check_col_product(*design, data)


@pytest.mark.parametrize("rows", [1, 3])
@settings(max_examples=200, deadline=None)
@given(dense_designs(), st.data())
def test_apply_row_slice_transpose_bit_identical_across_blocks(
        rows, design, data):
    A, _ = design
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core_linalg, "_FOLD_BYTES", fold_budget(rows, A.n_cols))
        check_row_transpose(*design, data)


def test_dense_route_bit_identical_across_blocks_at_the_default_budget():
    # 500 rows or columns, drawn with repeats, cross three or more blocks at
    # the default budget and end partway through one
    rng = np.random.default_rng(14)
    A = SparseDesignMatrix(_random_entries(rng, 300, 400))
    for width in (A.n_rows, A.n_cols):
        block = core_linalg._FOLD_BYTES // (8 * width)
        assert 500 > 2 * block and 500 % block != 0
    coef = rng.normal(size=500) * 10.0 ** rng.integers(-8, 9, size=500)
    cols = rng.integers(0, A.n_cols, size=500)
    assert np.unique(cols).size < cols.size
    dx = SparseUpdate(indices=cols, values=coef)
    w = rng.normal(size=A.n_rows)
    dense = A.to_dense()
    assert_matches_loop(apply_sparse_col_product(A, dx, w, 0.75, 1.5),
                        col_product_oracle(A, dx, w, 0.75, 1.5), True,
                        0.75 * w, 1.5 * coef, dense.T[cols])
    rows = rng.integers(0, A.n_rows, size=500)
    assert np.unique(rows).size < rows.size
    z = rng.normal(size=A.n_cols)
    assert_matches_loop(apply_row_slice_transpose(A, rows, coef, z),
                        row_transpose_oracle(A, rows, coef, z), True,
                        z, coef, dense[rows])


# column 2 and row 1 are empty
EDGE_DESIGN = np.array([[1.0, 0.0, 0.0, 2.5],
                        [0.0, 0.0, 0.0, 0.0],
                        [-3.0, 1e-3, 0.0, 7.0],
                        [0.0, 4.0, 0.0, -1e5]])
EDGE_SELECTIONS = [[], [1], [2], [3, 0, 3, 1], [2, 2]]


def check_edge_selection(dense, sel):
    A = SparseDesignMatrix(dense)
    dense_route = A._dense_rows is not None
    assert dense_route == (0.0 not in dense)
    idx = np.array(sel, dtype=np.int64)
    coef = np.linspace(-1.3, 2.1, idx.size)
    base = np.array([0.1, -0.2, 0.3, 1e7])
    dx = SparseUpdate(indices=idx, values=coef)
    assert_matches_loop(apply_sparse_col_product(A, dx, base, 0.9, 0.1),
                        col_product_oracle(A, dx, base, 0.9, 0.1),
                        dense_route, 0.9 * base, 0.1 * coef, dense.T[idx])
    assert_matches_loop(apply_row_slice_transpose(A, idx, coef, base),
                        row_transpose_oracle(A, idx, coef, base),
                        dense_route, base, coef, dense[idx])


# [1] is a one-column update
@pytest.mark.parametrize("sel", EDGE_SELECTIONS)
def test_update_kernels_match_loop_on_edge_selections(sel):
    check_edge_selection(EDGE_DESIGN, sel)


@pytest.mark.parametrize("sel", EDGE_SELECTIONS)
def test_update_kernels_match_loop_on_dense_edge_selections(sel):
    check_edge_selection(np.where(EDGE_DESIGN == 0.0, -0.5, EDGE_DESIGN), sel)


def test_one_exact_zero_sends_a_design_to_the_sparse_route():
    rng = np.random.default_rng(11)
    dense = _random_entries(rng, 6, 5)
    assert SparseDesignMatrix(dense)._dense_rows is not None
    dense[4, 2] = 0.0
    A = SparseDesignMatrix(dense)
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
    A = SparseDesignMatrix(_random_entries(rng, 4, 7))
    # to_dense builds no sparse layout
    assert A.to_dense().flags.writeable
    assert "_csr" not in vars(A) and "_csc" not in vars(A)
    np.testing.assert_array_equal(A._dense_rows, A.to_dense())
    np.testing.assert_array_equal(A._dense_cols, A.to_dense().T)
    assert not A._dense_rows.flags.writeable
    assert not A._dense_cols.flags.writeable


def test_constructor_copies_what_the_caller_keeps():
    # the caller's array or CSR stays its own: writeable, and writing into
    # it moves neither the design's stored arrays nor its cached norms
    rng = np.random.default_rng(4)
    full = _random_entries(rng, 5, 6)
    with_zero = full.copy()
    with_zero[1, 2] = 0.0
    for source in (full, with_zero, sp.csr_matrix(with_zero)):
        A = SparseDesignMatrix(source)
        held = [A._dense_rows, A._dense_cols] if A._dense_rows is not None \
            else [getattr(layout, name) for layout in (A._csr, A._csc)
                  for name in ("data", "indices", "indptr")]
        before = [part.tobytes() for part in held + [A.row_norms_sq]]
        kept = [source] if isinstance(source, np.ndarray) else \
            [source.data, source.indices, source.indptr]
        for part in kept:
            assert part.flags.writeable
            part[...] = 0
        assert [part.tobytes() for part in held + [A.row_norms_sq]] == before


def test_divide_rows_leaves_the_sparse_input_intact():
    # 5e-324 / 1e10 underflows to 0.0, which the quotient's design drops; the
    # quotient's CSR shares the input's index arrays until the copy in
    # __init__, so dropping it in place would shift the input's indices
    A = SparseDesignMatrix(np.array([[5e-324, 0.0, 1e10], [0.0, 2.0, 0.0]]))
    held = [A._csr.data, A._csr.indices, A._csr.indptr, A.row_norms_sq]
    before = [part.tobytes() for part in held]
    out = A.divide_rows(np.array([1e10, 2.0]))
    assert out.nnz == 2 and A.nnz == 3
    np.testing.assert_array_equal(out.to_dense(), [[0.0, 0.0, 1.0],
                                                   [0.0, 1.0, 0.0]])
    assert [part.tobytes() for part in held] == before


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
    sparse_route = sparse_twin(A)
    assert np.all(np.abs(got - sparse_route.row_submatrix_t_dot(rows, block))
                  <= 1e-13 * scale)


# --------------------------------------- full products and row operations

# The CSR formulas the dense route replaces on a fully stored design.

def matvec_oracle(A, x):
    return np.asarray(A._csr @ x)


def rmatvec_oracle(A, y):
    return np.asarray(A._csr.T @ y)


def row_dot_oracle(A, i, x):
    lo, hi = A._csr.indptr[i], A._csr.indptr[i + 1]
    return float(np.dot(A._csr.data[lo:hi], x[A._csr.indices[lo:hi]]))


def add_scaled_row_oracle(A, i, coeff, out):
    lo, hi = A._csr.indptr[i], A._csr.indptr[i + 1]
    out[A._csr.indices[lo:hi]] += coeff * A._csr.data[lo:hi]


def check_products_and_row_ops(A, rng, data):
    dense = A.to_dense()
    stored = ((A._csr.data, A._csc.data) if A._dense_rows is None
              else (A._dense_rows, A._dense_cols))
    views = [v.copy() for v in stored]
    for m in (None, 1, data.draw(st.integers(2, 4))):
        tail = () if m is None else (m,)
        x = _random_entries(rng, A.n_cols, m or 1).reshape((A.n_cols,) + tail)
        y = _random_entries(rng, A.n_rows, m or 1).reshape((A.n_rows,) + tail)
        x_before, y_before = x.copy(), y.copy()
        got, want = A.matvec(x), matvec_oracle(A, x)
        assert got.shape == want.shape == (A.n_rows,) + tail
        # the error bound of any summation order, at 1e-13 relative
        assert np.all(np.abs(got - want)
                      <= 1e-13 * (np.abs(dense) @ np.abs(x)))
        got, want = A.rmatvec(y), rmatvec_oracle(A, y)
        assert got.shape == want.shape == (A.n_cols,) + tail
        assert np.all(np.abs(got - want)
                      <= 1e-13 * (np.abs(dense).T @ np.abs(y)))
        assert np.array_equal(x, x_before) and np.array_equal(y, y_before)
    # a strided x as well: the gather makes it contiguous before the dot
    x = _random_entries(rng, 2 * A.n_cols, 1).ravel()[::2]
    out = rng.normal(size=A.n_cols)
    for i in range(A.n_rows):
        for v in (x, np.ascontiguousarray(x)):
            v_before = v.copy()
            assert A.row_dot(i, v) == row_dot_oracle(A, i, v)
            assert np.array_equal(v, v_before)
        coeff = data.draw(coefficients)
        want = out.copy()
        add_scaled_row_oracle(A, i, coeff, want)
        A.add_scaled_row(i, coeff, out)
        assert np.array_equal(out, want)
    assert all(np.array_equal(v, w) for v, w in zip(stored, views))


@settings(max_examples=200, deadline=None)
@given(sparse_designs(), st.data())
def test_products_and_row_ops_sparse_route(design, data):
    assert design[0]._dense_rows is None
    check_products_and_row_ops(*design, data)


@settings(max_examples=200, deadline=None)
@given(dense_designs(), st.data())
def test_products_and_row_ops_dense_route(design, data):
    check_products_and_row_ops(*design, data)


def test_one_exact_zero_keeps_products_on_the_csr_route():
    rng = np.random.default_rng(13)
    dense = _random_entries(rng, 40, 30)
    dense[17, 3] = 0.0
    A = SparseDesignMatrix(dense)
    assert A._dense_rows is None
    x, y = rng.normal(size=30), rng.normal(size=40)
    X, Y = rng.normal(size=(30, 3)), rng.normal(size=(40, 3))
    assert np.array_equal(A.matvec(x), matvec_oracle(A, x))
    assert np.array_equal(A.matvec(X), matvec_oracle(A, X))
    assert np.array_equal(A.rmatvec(y), rmatvec_oracle(A, y))
    assert np.array_equal(A.rmatvec(Y), rmatvec_oracle(A, Y))
    # row 17 has 29 stored entries; the CSR route skips the zero
    assert A.row_dot(17, x) == row_dot_oracle(A, 17, x)
    out, want = np.ones(30), np.ones(30)
    A.add_scaled_row(17, -2.5, out)
    add_scaled_row_oracle(A, 17, -2.5, want)
    assert np.array_equal(out, want)


# On the sparse route the full products run scipy's own compiled loops over
# scipy's own arrays, so each must give the bits of the scipy operator it
# replaces: csr @ x and csr.T @ y.

def product_inputs(rng, length, m):
    """A vector, a strided vector, length x m blocks in C order, in F order
    and as a strided slice, and a length x 1 block."""
    block = _random_entries(rng, length, m)
    return [_random_entries(rng, length, 1).ravel(),
            _random_entries(rng, 2 * length, 1).ravel()[::2],
            block, np.asfortranarray(block),
            _random_entries(rng, length, 2 * m + 1)[:, ::2], block[:, :1]]


def check_full_products(A, rng, m):
    csr = A._csr
    for x in product_inputs(rng, A.n_cols, m):
        x_before = x.copy()
        assert_same_bits(A.matvec(x), np.asarray(csr @ x))
        assert_same_bits(x, x_before)
    for y in product_inputs(rng, A.n_rows, m):
        assert_same_bits(A.rmatvec(y), np.asarray(csr.T @ y))


@settings(max_examples=200, deadline=None)
@given(sparse_designs(), st.integers(1, 4), st.booleans())
def test_full_products_bit_identical_to_scipy(design, m, int64):
    A, rng = design
    if int64:
        with_int64_indices(A)
    check_full_products(A, rng, m)


class _NoLoops:
    """Stands in for scipy's compiled loops; any use fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"_sparsetools.{name} ran")


def test_products_check_lengths_before_any_loop(monkeypatch):
    # with a one-row and a one-column design: a scalar holds the one entry
    # their products need, but is no vector
    A, row, col = (SparseDesignMatrix(EDGE_DESIGN),
                   SparseDesignMatrix(np.array([[1.0, 0.0, 2.0]])),
                   SparseDesignMatrix(np.array([[1.0], [0.0], [2.0]])))
    calls = [(A, "matvec", np.ones(5)), (A, "matvec", np.ones((3, 2))),
             (A, "matvec", np.ones((4, 2, 2))), (A, "rmatvec", np.ones(3)),
             (A, "rmatvec", np.ones((5, 2))), (A, "rmatvec", np.ones(())),
             (row, "rmatvec", np.float64(2.0)),
             (row, "rmatvec", np.ones((1, 1, 1))),
             (col, "matvec", np.float64(2.0)), (col, "matvec", np.ones(()))]
    for M, name, arg in calls:  # scipy's own operators refuse them too
        assert M._dense_rows is None
        with pytest.raises(ValueError):
            (M._csr if name == "matvec" else M._csr.T) @ arg
    monkeypatch.setattr(core_linalg, "_sparsetools", _NoLoops())
    for M, name, arg in calls:
        with pytest.raises(ValueError, match="dimension mismatch"):
            getattr(M, name)(arg)


def test_sparse_route_rmatvec_builds_no_scipy_matrix(monkeypatch):
    A = SparseDesignMatrix(EDGE_DESIGN)
    rng = np.random.default_rng(5)
    y, Y = rng.normal(size=4), rng.normal(size=(4, 3))
    want = [A._csr.T @ y, A._csr.T @ Y]

    def refuse(*args, **kwargs):
        raise AssertionError("a scipy matrix was built")

    monkeypatch.setattr(sp.csr_matrix, "transpose", refuse)
    got = [A.rmatvec(y), A.rmatvec(Y)]
    for g, w in zip(got, want):
        assert_same_bits(g, w)


# The private scipy loops the package calls, on a tiny matrix with the exact
# argument order it passes: M = [[1, 0, 2], [0, 3, 0]], whose CSR arrays are
# also the CSC of M'. Every product adds into its output. A scipy release
# that changes one of them fails here by name.

@pytest.mark.parametrize("idx", [np.int32, np.int64])
@pytest.mark.parametrize("loop", ["csr_matvec", "csr_matvecs", "csc_matvec",
                                  "csc_matvecs", "csr_row_index"])
def test_private_sparsetools_loops_keep_their_contract(loop, idx):
    ptr, ind = np.array([0, 2, 3], dtype=idx), np.array([0, 2, 1], dtype=idx)
    data = np.array([1.0, 2.0, 3.0])
    fn = getattr(core_linalg._sparsetools, loop)
    if loop == "csr_row_index":
        out_ind, out_data = np.empty(4, dtype=idx), np.empty(4)
        fn(3, np.array([1, 0, 1], dtype=idx), ptr, ind, data, out_ind,
           out_data)
        assert out_ind.tolist() == [1, 0, 2, 1]
        assert out_data.tolist() == [3.0, 1.0, 2.0, 3.0]
        return
    csr = loop.startswith("csr")
    x = np.array([1.0, 10.0, 100.0]) if csr else np.array([1.0, 10.0])
    want = [201.5, 30.5] if csr else [1.5, 30.5, 2.5]  # M x or M'x, + 0.5
    out = np.full(len(want), 0.5)
    if loop.endswith("s"):  # the same product on two columns, x and 2x
        out = np.full((len(want), 2), 0.5)
        fn(len(want), x.size, 2, ptr, ind, data, np.stack((x, 2 * x), 1), out)
        want = np.stack((want, 2 * np.array(want) - 0.5), 1).tolist()
    else:
        fn(len(want), x.size, ptr, ind, data, x, out)
    assert out.tolist() == want


def _solver_design(kind):
    n, d = 60, 150
    rng = PortableRng(7)
    if kind == "dense":
        return SparseDesignMatrix(rng.normals(n * d).reshape(n, d)), rng
    density = 0.08
    if kind == "wide_hinge":
        # d past the projection's first guess, about 12 entries a row; most
        # certificate projections sort only the first guess, a few grow it,
        # and the selections take both the fast path and the ties path
        n, d, density = 200, 3 * GUESS, 0.004
    flat = np.flatnonzero(rng.uniforms(n * d) < density)
    r, c = flat // d, flat % d
    keep = (r % 17 != 5) & (c % 23 != 4)  # leave a few rows and columns empty
    A = SparseDesignMatrix(sp.coo_matrix(
        (rng.normals(int(keep.sum())), (r[keep], c[keep])), shape=(n, d)))
    assert A.row_nnz.min() == 0 and A.col_nnz.min() == 0
    return A, rng


SOLVER_CONFIGS = {
    "sparse": dict(radius=2.0, s=12, k=20, delta=50.0),
    "dense": dict(radius=2.0, s=12, k=20, delta=50.0),
    "wide_hinge": dict(radius=10.0, s=400, k=40, delta=50.0),
}


@pytest.mark.parametrize("kind", ["sparse", "dense", "wide_hinge"])
def test_solve_unchanged_against_loop_kernels(monkeypatch, kind):
    # the loop kernels, the full-sort projection and the old selection in
    # place of the vectorized kernels and the partial selections
    A, rng = _solver_design(kind)
    assert (A._dense_rows is not None) == (kind == "dense")
    n = A.n_rows
    loss = smooth_hinge_loss(np.where(rng.uniforms(n) > 0.5, 1.0, -1.0))
    cfg = pdbfw_l1.SolverConfig(**SOLVER_CONFIGS[kind], max_iters=60,
                                gap_tol=1e-12)

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
    for module in (core_linalg, metrics):
        monkeypatch.setattr(module, "project_l1_ball",
                            project_full_sort_oracle)
    for module in (core_linalg, pdbfw_l1):
        monkeypatch.setattr(module, "top_k_by_magnitude", top_k_oracle)
    x_loop, y_loop, rows_loop = run()
    assert len(rows) > 10
    if kind != "dense":
        assert rows == rows_loop
        assert np.array_equal(x, x_loop) and np.array_equal(y, y_loop)
        return
    # the dense route's update kernels sum in BLAS order: the path and its
    # costs are the loop's, and the values move by rounding only, within
    # 1e-9 of each array's largest magnitude
    assert ([(r[0], r[4], r[5]) for r in rows]
            == [(r[0], r[4], r[5]) for r in rows_loop])
    values = np.array([r[1:3] for r in rows])
    values_loop = np.array([r[1:3] for r in rows_loop])
    for got, want in ((values, values_loop), (x, x_loop), (y, y_loop)):
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


def test_sparse_update_dense_roundtrip():
    update = SparseUpdate(indices=np.array([1, 3]), values=np.array([2.0, -1.0]))
    assert update.support_size == 2
    assert_allclose(to_dense(update, 5), [0.0, 2.0, 0.0, -1.0, 0.0])


# ---------------------------------------------------------------------------
# Range finder


@pytest.mark.parametrize("d, c, b, rank", [
    (30, 20, 8, 20),   # tall, full rank: the block sees part of the range
    (20, 20, 20, 20),  # square, the block as wide as M
    (5, 20, 8, 5),     # wide: d < b, so Q has only d columns
    (30, 20, 8, 0),    # zero
    (30, 20, 12, 3),   # rank-deficient: the block is wider than the rank
], ids=["tall", "square", "wide", "zero", "rank_deficient"])
def test_range_svd_matches_numpy_qr_and_svd(d, c, b, rank):
    # [DERIVED] Q is an orthonormal basis holding range(M @ block), so
    # QQ'Y = Y; Q'M has the singular values of the projection of M onto
    # range(Y), whatever basis numpy's QR picks; QB = left diag(sv) right'
    rng = PortableRng(300 + 7 * d + b + rank)
    M = (rng.normals(d * rank).reshape(d, rank)
         @ rng.normals(rank * c).reshape(rank, c))
    block, _ = np.linalg.qr(rng.normals(c * b).reshape(c, b))
    Q, B, left, sv, right = range_svd(M, block)
    k = min(d, b)
    assert Q.shape == (d, k) and B.shape == (k, c) and sv.shape == (k,)
    assert left.shape == (d, k) and right.shape == (c, k)
    assert_allclose(Q.T @ Q, np.eye(k), rtol=0, atol=1e-14)
    Y = M @ block
    scale = max(1.0, float(np.abs(Y).max()))
    assert_allclose(Q @ (Q.T @ Y), Y, rtol=0, atol=1e-14 * scale)
    Q_np, _ = np.linalg.qr(Y)
    want = np.linalg.svd(Q_np.T @ M, compute_uv=False)
    tol = 1e-14 * max(1.0, float(want[0]))
    assert_allclose(sv, want, rtol=0, atol=tol)
    assert np.all(np.diff(sv) <= 0.0)
    assert_allclose(left.T @ left, np.eye(k), rtol=0, atol=1e-14)
    assert_allclose(right.T @ right, np.eye(k), rtol=0, atol=1e-14)
    assert_allclose((left * sv) @ right.T, Q @ B, rtol=0, atol=tol)
    if rank <= k:  # the block captures M, so these are M's values
        assert_allclose(sv[:min(d, c)], np.linalg.svd(M, compute_uv=False)[:k],
                        rtol=0, atol=tol)
    Q0, B0, left0, sv0, right0 = range_svd(M, block, compute_uv=False)
    assert left0 is None and right0 is None
    assert np.array_equal(Q0, Q) and np.array_equal(B0, B)
    assert_allclose(sv0, sv, rtol=0, atol=tol)


def test_range_svd_raises_linalg_error_on_non_finite_input():
    rng = PortableRng(310)
    M = rng.normals(60).reshape(10, 6)
    block, _ = np.linalg.qr(rng.normals(18).reshape(6, 3))
    for bad in (np.nan, np.inf):
        M[2, 3] = bad
        with np.errstate(invalid="ignore"), \
                pytest.raises(np.linalg.LinAlgError, match="LAPACK dgesdd"):
            range_svd(M, block)
