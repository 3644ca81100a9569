"""Device-resident sparse matrices and SpMV kernel tests."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import frozen_segment_sums
from repro.errors import DeviceArrayError
from repro.gpu.device import Device
from repro.gpu.sparse_kernels import (
    DeviceCscMatrix,
    DeviceCsrMatrix,
    spmv_csc_t,
    spmv_csr,
)
from repro.perfmodel.gpu_model import GpuCostModel
from repro.perfmodel.ops import OpCost
from repro.perfmodel.presets import GTX280_PARAMS
from repro.sparse import CscMatrix, CsrMatrix


@pytest.fixture
def host_dense():
    return sp.random(17, 23, density=0.25, random_state=5).toarray()


class TestDeviceCsr:
    def test_upload_roundtrip(self, device, host_dense):
        host = CsrMatrix.from_dense(host_dense)
        d = DeviceCsrMatrix(device, host, dtype=np.float64)
        back = d.to_host()
        np.testing.assert_allclose(back.to_dense(), host_dense)

    def test_upload_accounts_transfers(self, device, host_dense):
        host = CsrMatrix.from_dense(host_dense)
        before = device.stats.htod_bytes
        d = DeviceCsrMatrix(device, host)
        assert device.stats.htod_bytes - before == d.nbytes

    def test_spmv(self, device, host_dense, rng):
        host = CsrMatrix.from_dense(host_dense)
        d = DeviceCsrMatrix(device, host, dtype=np.float64)
        xh = rng.normal(size=23)
        x = device.to_device(xh)
        y = device.zeros(17, np.float64)
        spmv_csr(d, x, y)
        np.testing.assert_allclose(y.data, host_dense @ xh, atol=1e-10)

    def test_spmv_shape_check(self, device, host_dense):
        d = DeviceCsrMatrix(device, CsrMatrix.from_dense(host_dense), np.float64)
        x = device.zeros(17, np.float64)  # wrong side
        y = device.zeros(17, np.float64)
        with pytest.raises(DeviceArrayError):
            spmv_csr(d, x, y)

    def test_spmv_flops_proportional_to_nnz(self, device, host_dense):
        host = CsrMatrix.from_dense(host_dense)
        d = DeviceCsrMatrix(device, host, np.float32)
        x = device.zeros(23, np.float32)
        y = device.zeros(17, np.float32)
        spmv_csr(d, x, y)
        assert device.stats.by_kernel["sparse.spmv_csr"].flops == 2 * host.nnz

    def test_free(self, device, host_dense):
        before = device.stats.bytes_in_use
        d = DeviceCsrMatrix(device, CsrMatrix.from_dense(host_dense))
        assert device.stats.bytes_in_use > before
        d.free()
        assert device.stats.bytes_in_use == before
        assert d.data.is_freed
        assert d.indptr.is_freed
        assert d.indices.is_freed


class TestDeviceCsc:
    def test_spmv_transpose(self, device, host_dense, rng):
        host = CscMatrix.from_dense(host_dense)
        d = DeviceCscMatrix(device, host, dtype=np.float64)
        xh = rng.normal(size=17)
        x = device.to_device(xh)
        y = device.zeros(23, np.float64)
        spmv_csc_t(d, x, y)
        np.testing.assert_allclose(y.data, host_dense.T @ xh, atol=1e-10)

    def test_spmv_t_with_empty_columns(self, device):
        dense = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 3.0]])
        d = DeviceCscMatrix(device, CscMatrix.from_dense(dense), np.float64)
        x = device.to_device(np.array([1.0, 1.0]))
        y = device.zeros(3, np.float64)
        spmv_csc_t(d, x, y)
        np.testing.assert_allclose(y.data, [1.0, 0.0, 5.0])

    def test_getcol_device(self, device, host_dense):
        host = CscMatrix.from_dense(host_dense)
        d = DeviceCscMatrix(device, host, dtype=np.float64)
        out = device.zeros(17, np.float64)
        nnz = d.getcol_device(4, out)
        np.testing.assert_allclose(out.data, host_dense[:, 4])
        assert nnz == np.count_nonzero(host_dense[:, 4])

    def test_getcol_overwrites_previous(self, device, host_dense):
        host = CscMatrix.from_dense(host_dense)
        d = DeviceCscMatrix(device, host, dtype=np.float64)
        out = device.zeros(17, np.float64)
        d.getcol_device(0, out)
        d.getcol_device(1, out)
        np.testing.assert_allclose(out.data, host_dense[:, 1])

    def test_getcol_out_of_range(self, device, host_dense):
        d = DeviceCscMatrix(device, CscMatrix.from_dense(host_dense), np.float64)
        out = device.zeros(17, np.float64)
        with pytest.raises(DeviceArrayError):
            d.getcol_device(99, out)

    def test_getcol_wrong_length(self, device, host_dense):
        d = DeviceCscMatrix(device, CscMatrix.from_dense(host_dense), np.float64)
        out = device.zeros(5, np.float64)
        with pytest.raises(DeviceArrayError):
            d.getcol_device(0, out)

    def test_fp32_storage(self, device, host_dense):
        d = DeviceCscMatrix(device, CscMatrix.from_dense(host_dense), np.float32)
        assert d.data.dtype == np.float32
        assert d.indices.dtype == np.int32


# Matrices whose sparse forms contain empty rows/columns — the cases the
# pre-segment_sums reduceat workaround handled wrongly (neighbour copies
# instead of zeros).
EMPTY_PATTERN_CASES = {
    "nnz-0": np.zeros((3, 4)),
    "leading-empty-row": np.vstack([np.zeros((2, 3)), np.ones((2, 3))]),
    "trailing-empty-col": np.hstack([np.ones((3, 2)), np.zeros((3, 2))]),
    "alternating-diag": np.diag([1.0, 0.0, 2.0, 0.0, 3.0]),
}
_bands = np.arange(30, dtype=np.float64).reshape(6, 5) + 1.0
_bands[2:5, :] = 0.0  # three consecutive empty rows
_bands[:, 1:3] = 0.0  # two consecutive empty columns
EMPTY_PATTERN_CASES["consecutive-empty-bands"] = _bands


class TestEmptySegmentPatterns:
    """Both device SpMV kernels on empty-row/column structures (S4)."""

    @pytest.mark.parametrize(
        "dense", list(EMPTY_PATTERN_CASES.values()),
        ids=list(EMPTY_PATTERN_CASES.keys()),
    )
    def test_spmv_csr_empty_rows(self, device, dense, rng):
        d = DeviceCsrMatrix(device, CsrMatrix.from_dense(dense), np.float64)
        xh = rng.normal(size=dense.shape[1])
        x = device.to_device(xh)
        y = device.zeros(dense.shape[0], np.float64)
        spmv_csr(d, x, y)
        np.testing.assert_allclose(y.data, dense @ xh, atol=1e-12)

    @pytest.mark.parametrize(
        "dense", list(EMPTY_PATTERN_CASES.values()),
        ids=list(EMPTY_PATTERN_CASES.keys()),
    )
    def test_spmv_csc_t_empty_cols(self, device, dense, rng):
        d = DeviceCscMatrix(device, CscMatrix.from_dense(dense), np.float64)
        xh = rng.normal(size=dense.shape[0])
        x = device.to_device(xh)
        y = device.zeros(dense.shape[1], np.float64)
        spmv_csc_t(d, x, y)
        np.testing.assert_allclose(y.data, dense.T @ xh, atol=1e-12)

    def test_spmv_overwrites_stale_output(self, device):
        # y is fully overwritten even where segments are empty
        dense = np.diag([1.0, 0.0, 2.0])
        d = DeviceCsrMatrix(device, CsrMatrix.from_dense(dense), np.float64)
        x = device.to_device(np.ones(3))
        y = device.to_device(np.full(3, 7.0))
        spmv_csr(d, x, y)
        np.testing.assert_allclose(y.data, [1.0, 0.0, 2.0])


class TestGetcolCostModel:
    """Regression (S1): host-mirrored indptr must not change modeled cost.

    ``getcol_device`` keeps a host copy of ``indptr`` so slicing a column
    does not read device memory from the host; the *modeled* traffic of the
    two launches is pinned here so the mirror stays free in model terms.
    """

    def test_scatter_col_modeled_bytes_pinned(self, device, host_dense):
        host = CscMatrix.from_dense(host_dense)
        d = DeviceCscMatrix(device, host, dtype=np.float64)
        out = device.zeros(17, np.float64)
        j = 4
        col_nnz = d.getcol_device(j, out)
        w = 8  # float64
        index_bytes = 4
        scatter = device.stats.by_kernel["sparse.scatter_col"]
        # read: nnz values + nnz row indices + the two indptr words;
        # written: nnz scattered values
        assert scatter.bytes == (
            col_nnz * (w + index_bytes) + 2 * index_bytes  # read
            + col_nnz * w                                  # written
        )
        fill = device.stats.by_kernel["sparse.fill_zero"]
        assert fill.bytes == out.nbytes

    def test_fill_zero_counts_whole_vector(self, device, host_dense):
        d = DeviceCscMatrix(device, CscMatrix.from_dense(host_dense), np.float32)
        out = device.zeros(17, np.float32)
        d.getcol_device(0, out)
        assert device.stats.by_kernel["sparse.fill_zero"].bytes == 17 * 4

    def test_host_indptr_mirrors_device(self, device, host_dense):
        host = CscMatrix.from_dense(host_dense)
        d = DeviceCscMatrix(device, host, dtype=np.float64)
        np.testing.assert_array_equal(d.host_indptr, host.indptr)
        np.testing.assert_array_equal(d.indptr.data, host.indptr)


# ---------------------------------------------------------------------------
# The SpMV bodies reduce over the matrix's precomputed Segments; their
# output bytes and modeled costs must equal the former per-call formula
# ---------------------------------------------------------------------------


def _frozen_spmv(indptr, indices, data, x, out_dtype):
    """The former body: structure re-derived on every call."""
    prods = data.astype(np.float64) * x[indices]
    return frozen_segment_sums(prods, indptr.astype(np.int64)).astype(out_dtype)


def _frozen_spmv_cost(nnz, segs, w):
    return OpCost(
        flops=2 * nnz,
        bytes_read=nnz * (w + 4) + (segs + 1) * 4 + nnz * w,
        bytes_written=segs * w,
        threads=max(1, segs),
        coalesced_fraction=0.6,
    )


@st.composite
def signed_zero_matrices(draw):
    """(dense, rng): a small matrix of any density, empty rows and
    columns included."""
    m = draw(st.integers(1, 14))
    n = draw(st.integers(1, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    dense = rng.normal(size=(m, n))
    dense[rng.random((m, n)) < draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))] = 0.0
    return dense, rng


def _with_signed_zeros(fmt, dense, rng):
    """``fmt.from_dense(dense)`` with a fifth of its stored values set to
    an explicit -0.0."""
    mat = fmt.from_dense(dense)
    data = mat.data.copy()
    data[rng.random(data.size) < 0.2] = -0.0
    return fmt(mat.shape, mat.indptr, mat.indices, data)


@settings(max_examples=60, deadline=None)
@given(case=signed_zero_matrices(), dtype=st.sampled_from([np.float32, np.float64]))
def test_device_spmv_bytes_and_cost_unchanged(case, dtype):
    dense, rng = case
    m, n = dense.shape
    dev = Device(GTX280_PARAMS)
    csr = _with_signed_zeros(CsrMatrix, dense, rng)
    csc = _with_signed_zeros(CscMatrix, dense, rng)
    d_csr = DeviceCsrMatrix(dev, csr, dtype=dtype)
    d_csc = DeviceCscMatrix(dev, csc, dtype=dtype)
    xh = rng.normal(size=n).astype(dtype)
    yh = rng.normal(size=m).astype(dtype)
    xh[::2] = -0.0
    x, y = dev.to_device(xh), dev.to_device(yh)
    ax, aty = dev.zeros(m, dtype), dev.zeros(n, dtype)
    w = np.dtype(dtype).itemsize
    fresh = GpuCostModel(GTX280_PARAMS)
    dev.record_timeline()
    for _ in range(2):  # the second launch reuses the cached cost
        spmv_csr(d_csr, x, ax)
        want = _frozen_spmv(
            csr.indptr, csr.indices, csr.data.astype(dtype), xh, dtype
        )
        assert ax.data.tobytes() == want.tobytes()
        cost = _frozen_spmv_cost(csr.nnz, m, w)
        event = dev.timeline[-1]
        assert event.seconds == fresh.kernel_time(cost, dtype)
        assert (event.threads, event.nbytes) == (cost.threads, cost.bytes_total)
        spmv_csc_t(d_csc, y, aty)
        want = _frozen_spmv(
            csc.indptr, csc.indices, csc.data.astype(dtype), yh, dtype
        )
        assert aty.data.tobytes() == want.tobytes()
        cost = _frozen_spmv_cost(csc.nnz, n, w)
        event = dev.timeline[-1]
        assert event.seconds == fresh.kernel_time(cost, dtype)
        assert (event.threads, event.nbytes) == (cost.threads, cost.bytes_total)


def test_spmv_on_freed_matrix_raises(device, host_dense):
    d = DeviceCsrMatrix(device, CsrMatrix.from_dense(host_dense))
    x, y = device.zeros(23), device.zeros(17)
    d.free()
    with pytest.raises(DeviceArrayError):
        spmv_csr(d, x, y)
