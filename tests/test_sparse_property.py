"""Property-based tests of the sparse formats against scipy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import frozen_segment_sums
from repro.sparse import CooMatrix, CscMatrix, CsrMatrix, Segments, segment_sums


@st.composite
def sparse_instances(draw):
    """(dense ndarray, density) with controlled size."""
    m = draw(st.integers(1, 25))
    n = draw(st.integers(1, 25))
    seed = draw(st.integers(0, 2**31))
    density = draw(st.floats(0.0, 0.6))
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=(m, n))
    dense[rng.random(size=(m, n)) > density] = 0.0
    return dense


@settings(max_examples=40, deadline=None)
@given(dense=sparse_instances())
def test_roundtrip_all_formats(dense):
    coo = CooMatrix.from_dense(dense)
    np.testing.assert_array_equal(coo.to_dense(), dense)
    np.testing.assert_array_equal(coo.tocsr().to_dense(), dense)
    np.testing.assert_array_equal(coo.tocsc().to_dense(), dense)


@settings(max_examples=40, deadline=None)
@given(dense=sparse_instances(), seed=st.integers(0, 2**31))
def test_matvec_agrees_across_formats(dense, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=dense.shape[1])
    expected = dense @ x
    coo = CooMatrix.from_dense(dense)
    for mat in (coo, coo.tocsr(), coo.tocsc()):
        np.testing.assert_allclose(mat.matvec(x), expected, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(dense=sparse_instances(), seed=st.integers(0, 2**31))
def test_rmatvec_is_transpose_matvec(dense, seed):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=dense.shape[0])
    expected = dense.T @ y
    coo = CooMatrix.from_dense(dense)
    for mat in (coo, coo.tocsr(), coo.tocsc()):
        np.testing.assert_allclose(mat.rmatvec(y), expected, atol=1e-10)
        np.testing.assert_allclose(
            mat.transpose().matvec(y), expected, atol=1e-10
        )


@settings(max_examples=40, deadline=None)
@given(dense=sparse_instances())
def test_nnz_counts_nonzeros(dense):
    coo = CooMatrix.from_dense(dense)
    assert coo.nnz == np.count_nonzero(dense)
    assert coo.tocsr().nnz == coo.nnz
    assert coo.tocsc().nnz == coo.nnz


@settings(max_examples=30, deadline=None)
@given(dense=sparse_instances())
def test_csc_column_access_matches_dense(dense):
    csc = CscMatrix.from_dense(dense)
    for j in range(dense.shape[1]):
        np.testing.assert_array_equal(csc.getcol_dense(j), dense[:, j])


@settings(max_examples=30, deadline=None)
@given(dense=sparse_instances())
def test_csr_row_access_matches_dense(dense):
    csr = CsrMatrix.from_dense(dense)
    for i in range(dense.shape[0]):
        cols, vals = csr.getrow(i)
        row = np.zeros(dense.shape[1])
        row[cols] = vals
        np.testing.assert_array_equal(row, dense[i])


@settings(max_examples=30, deadline=None)
@given(dense=sparse_instances(), tol=st.floats(0, 1))
def test_prune_drops_exactly_small_entries(dense, tol):
    pruned = CooMatrix.from_dense(dense).prune(tol)
    expected = dense.copy()
    expected[np.abs(expected) <= tol] = 0.0
    np.testing.assert_array_equal(pruned.to_dense(), expected)


# ---------------------------------------------------------------------------
# segment_sums — the shared segmented reduction behind every SpMV
# ---------------------------------------------------------------------------

# The reduceat workaround it replaced was wrong for *empty segments*, so the
# edge cases concentrate there: leading, trailing, consecutive, and all-empty.
EMPTY_SEGMENT_PATTERNS = [
    # (name, segment lengths)
    ("leading-empty", [0, 2, 3]),
    ("trailing-empty", [3, 2, 0]),
    ("consecutive-empty", [2, 0, 0, 0, 1]),
    ("interior-empty", [1, 0, 2]),
    ("all-empty", [0, 0, 0, 0]),
    ("single-empty", [0]),
    ("single-full", [4]),
]


@pytest.mark.parametrize(
    "lengths", [p[1] for p in EMPTY_SEGMENT_PATTERNS],
    ids=[p[0] for p in EMPTY_SEGMENT_PATTERNS],
)
def test_segment_sums_empty_segment_patterns(lengths):
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    rng = np.random.default_rng(0)
    data = rng.normal(size=int(indptr[-1]))
    out = segment_sums(data, indptr)
    expected = [data[indptr[i]:indptr[i + 1]].sum() for i in range(len(lengths))]
    np.testing.assert_allclose(out, expected)
    # empty segments are exactly zero, not reduceat's neighbour-copy garbage
    for i, length in enumerate(lengths):
        if length == 0:
            assert out[i] == 0.0


def test_segment_sums_no_segments():
    np.testing.assert_array_equal(segment_sums(np.zeros(0), np.array([0])), [])
    np.testing.assert_array_equal(segment_sums(np.zeros(0), np.array([])), [])


@settings(max_examples=40, deadline=None)
@given(
    lengths=st.lists(st.integers(0, 5), min_size=1, max_size=20),
    seed=st.integers(0, 2**31),
)
def test_segment_sums_matches_python_loop(lengths, seed):
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    data = np.random.default_rng(seed).normal(size=int(indptr[-1]))
    out = segment_sums(data, indptr)
    expected = [data[indptr[i]:indptr[i + 1]].sum() for i in range(len(lengths))]
    np.testing.assert_allclose(out, expected, atol=1e-12)


def _empty_row_col_cases():
    """Dense matrices whose sparse forms have empty rows/columns."""
    z = np.zeros
    cases = {
        "nnz-0": z((3, 4)),
        "leading-empty-row": np.vstack([z((2, 3)), np.ones((2, 3))]),
        "trailing-empty-col": np.hstack([np.ones((3, 2)), z((3, 2))]),
        "checker-empty": np.diag([1.0, 0.0, 2.0, 0.0, 3.0]),
        "single-entry": np.pad([[7.0]], ((3, 3), (2, 2))),
    }
    rng = np.random.default_rng(1)
    interior = rng.normal(size=(6, 5))
    interior[2:5, :] = 0.0   # three consecutive empty rows
    interior[:, 1:3] = 0.0   # two consecutive empty columns
    cases["consecutive-empty-bands"] = interior
    return cases


@pytest.mark.parametrize(
    "dense", list(_empty_row_col_cases().values()),
    ids=list(_empty_row_col_cases().keys()),
)
def test_host_spmv_with_empty_rows_and_columns(dense):
    # both host formats route through segment_sums (CSR matvec over rows,
    # CSC rmatvec over columns); empty segments must yield exact zeros
    rng = np.random.default_rng(2)
    x = rng.normal(size=dense.shape[1])
    y = rng.normal(size=dense.shape[0])
    csr = CsrMatrix.from_dense(dense)
    csc = CscMatrix.from_dense(dense)
    np.testing.assert_allclose(csr.matvec(x), dense @ x, atol=1e-12)
    np.testing.assert_allclose(csc.matvec(x), dense @ x, atol=1e-12)
    np.testing.assert_allclose(csr.rmatvec(y), dense.T @ y, atol=1e-12)
    np.testing.assert_allclose(csc.rmatvec(y), dense.T @ y, atol=1e-12)


# ---------------------------------------------------------------------------
# transpose() — direct buffer reinterpretation, no COO round-trip
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(dense=sparse_instances())
def test_transpose_equals_dense_transpose(dense):
    csr = CsrMatrix.from_dense(dense)
    csc = CscMatrix.from_dense(dense)
    rt = csr.transpose()
    ct = csc.transpose()
    assert isinstance(rt, CscMatrix)   # CSRᵀ *is* a CSC buffer
    assert isinstance(ct, CsrMatrix)   # CSCᵀ *is* a CSR buffer
    np.testing.assert_array_equal(rt.to_dense(), dense.T)
    np.testing.assert_array_equal(ct.to_dense(), dense.T)


def test_transpose_copies_buffers():
    dense = np.array([[1.0, 0.0], [2.0, 3.0]])
    csr = CsrMatrix.from_dense(dense)
    t = csr.transpose()
    t.data[0] = 99.0
    np.testing.assert_array_equal(csr.to_dense(), dense)  # original untouched


def test_double_transpose_roundtrips():
    dense = np.diag([1.0, 0.0, 2.0])
    for mat in (CsrMatrix.from_dense(dense), CscMatrix.from_dense(dense)):
        np.testing.assert_array_equal(
            mat.transpose().transpose().to_dense(), dense
        )


# ---------------------------------------------------------------------------
# Segments — the once-per-matrix structure behind every SpMV body and
# segment_sums; it must reproduce the former per-call body
# (conftest.frozen_segment_sums) bit for bit, sentinel rule included
# ---------------------------------------------------------------------------

#: Lengths around reduceat's pairwise-summation block edges (8 and 128),
#: where one extra term changes how the sum is associated.
_BLOCK_EDGES = [7, 8, 9, 15, 16, 17, 127, 128, 129, 300]


@st.composite
def segmented_products(draw):
    """(indptr, values, factors): segments of varied length, including
    empty ones anywhere, with signed zeros mixed into both operands."""
    lengths = draw(
        st.lists(
            st.one_of(st.integers(0, 3), st.sampled_from(_BLOCK_EDGES)),
            min_size=1, max_size=10,
        )
    )
    indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    nnz = int(indptr[-1])
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    zero_frac = draw(st.sampled_from([0.0, 0.3, 1.0]))
    values = rng.normal(size=nnz)
    factors = rng.normal(size=nnz)
    for arr in (values, factors):
        hit = rng.random(nnz) < zero_frac
        arr[hit] = np.where(rng.random(int(hit.sum())) < 0.5, -0.0, 0.0)
    return indptr, values, factors


def _assert_same_bytes(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes(), (got, want)


@settings(max_examples=150, deadline=None)
@given(case=segmented_products())
def test_segments_sum_products_matches_segment_sums_bytes(case):
    indptr, values, factors = case
    want = frozen_segment_sums(values * factors, indptr)
    _assert_same_bytes(Segments(indptr).sum_products(values, factors), want)
    _assert_same_bytes(segment_sums(values * factors, indptr), want)


@pytest.mark.parametrize(
    "indptr, values",
    [
        # a nonempty final segment gets the sentinel's + 0.0: -0. -> 0.
        ([0, 1, 3, 4], [-0.0, 1.0, -1.0, -0.0]),
        # an empty final segment: the last nonempty one keeps its -0.
        ([0, 1, 2, 2], [1.0, -0.0]),
        ([0, 0, 0], []),  # nnz = 0
        ([0], []),  # no segments at all
        ([0, 8], [0.1] * 8),  # 7 terms + the sentinel fill a pairwise block
    ],
    ids=["final-nonempty", "final-empty", "nnz-0", "no-segments", "block-edge"],
)
def test_segments_sentinel_rule(indptr, values):
    indptr = np.array(indptr, dtype=np.int64)
    values = np.array(values, dtype=np.float64)
    ones = np.ones_like(values)
    want = frozen_segment_sums(values, indptr)
    _assert_same_bytes(Segments(indptr).sum_products(values, ones), want)
    _assert_same_bytes(segment_sums(values, indptr), want)


def test_segments_signed_zero_example():
    out = Segments(np.array([0, 1, 3, 4])).sum_products(
        np.array([-0.0, 1.0, -1.0, -0.0]), np.ones(4)
    )
    assert [np.signbit(v) for v in out] == [True, False, False]


@st.composite
def compressed_matrices(draw):
    """(shape, indptr, indices, data) of one compressed-format matrix with
    empty and long segments and signed-zero values."""
    n_seg = draw(st.integers(1, 12))
    width = draw(st.integers(1, 160))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    lengths = [
        int(rng.integers(0, min(width, 140) + 1)) if rng.random() < 0.7 else 0
        for _ in range(n_seg)
    ]
    indices = np.concatenate(
        [np.sort(rng.choice(width, size=k, replace=False)) for k in lengths]
        + [np.zeros(0, dtype=np.int64)]
    ).astype(np.int64)
    data = rng.normal(size=indices.size)
    data[rng.random(indices.size) < 0.2] = -0.0
    indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    return (n_seg, width), indptr, indices, data


def _frozen_scatter(shape_out, indptr, indices, data, v):
    """The former scatter-add body: entry ids rebuilt on every call."""
    out = np.zeros(shape_out, dtype=np.float64)
    seg_of = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
    np.add.at(out, indices, data * v[seg_of])
    return out


@settings(max_examples=60, deadline=None)
@given(case=compressed_matrices(), seed=st.integers(0, 2**31))
def test_host_matvec_rmatvec_bytes_unchanged(case, seed):
    (n_seg, width), indptr, indices, data = case
    rng = np.random.default_rng(seed)
    v_seg = rng.normal(size=n_seg)
    v_wide = rng.normal(size=width)
    v_wide[::3] = -0.0
    csr = CsrMatrix((n_seg, width), indptr, indices, data)
    csc = CscMatrix((width, n_seg), indptr, indices, data)
    for _ in range(2):  # the second call runs on the cached structure
        _assert_same_bytes(
            csr.matvec(v_wide), frozen_segment_sums(data * v_wide[indices], indptr)
        )
        _assert_same_bytes(
            csc.rmatvec(v_wide), frozen_segment_sums(data * v_wide[indices], indptr)
        )
        _assert_same_bytes(
            csr.rmatvec(v_seg), _frozen_scatter(width, indptr, indices, data, v_seg)
        )
        _assert_same_bytes(
            csc.matvec(v_seg), _frozen_scatter(width, indptr, indices, data, v_seg)
        )


def test_segments_rebuilt_when_indptr_reassigned():
    csr = CsrMatrix.from_dense(np.array([[1.0, 2.0], [0.0, 3.0]]))
    first = csr._segments()
    assert csr._segments() is first
    csr.indptr = csr.indptr.copy()
    assert csr._segments() is not first
