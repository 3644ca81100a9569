"""Device-resident sparse matrices and SpMV kernels.

The sparse path of the GPU solver keeps the constraint matrix on the device
in CSC form (column extraction per iteration) and prices with a
CSR-transpose SpMV.  Kernels follow the scalar-CSR mapping (one thread per
row) with the classic partially-coalesced access pattern of index-driven
gathers; cost accounting reflects that (``coalesced_fraction < 1``).
"""

from __future__ import annotations

import numpy as np

from repro.errors import DeviceArrayError
from repro.gpu.device import Device
from repro.gpu.memory import DeviceArray
from repro.perfmodel.ops import OpCost
from repro.sparse.base import Segments
from repro.sparse.csc import CscMatrix
from repro.sparse.csr import CsrMatrix

#: Index width on the device (32-bit, as real sparse GPU kernels use).
INDEX_BYTES = 4


class DeviceCsrMatrix:
    """A CSR matrix resident in device memory (three device arrays)."""

    def __init__(self, device: Device, host: CsrMatrix, dtype=np.float32):
        self.shape = host.shape
        self.nnz = host.nnz
        self.dtype = np.dtype(dtype)
        self.device = device
        #: The row structure the SpMV body reduces over, computed once at
        #: upload (the matrix structure never changes on the device).
        self.segments = Segments(host.indptr)
        self._spmv_costs: dict[int, OpCost] = {}
        try:
            self.indptr = device.to_device(host.indptr.astype(np.int32))
            self.indices = device.to_device(host.indices.astype(np.int32))
            self.data = device.to_device(host.data.astype(self.dtype))
        except Exception:
            for name in ("indptr", "indices", "data"):
                arr = getattr(self, name, None)
                if arr is not None and not arr.is_freed:
                    arr.free()
            raise

    @property
    def nbytes(self) -> int:
        return self.indptr.nbytes + self.indices.nbytes + self.data.nbytes

    def free(self) -> None:
        self.indptr.free()
        self.indices.free()
        self.data.free()

    def to_host(self) -> CsrMatrix:
        return CsrMatrix(
            self.shape,
            self.indptr.copy_to_host().astype(np.int64),
            self.indices.copy_to_host().astype(np.int64),
            self.data.copy_to_host().astype(np.float64),
        )


class DeviceCscMatrix:
    """A CSC matrix resident in device memory."""

    def __init__(self, device: Device, host: CscMatrix, dtype=np.float32):
        self.shape = host.shape
        self.nnz = host.nnz
        self.dtype = np.dtype(dtype)
        self.device = device
        #: Host-resident mirror of the column pointers, captured at upload.
        #: Real sparse GPU codes keep the pointer array on the host for
        #: exactly this: the launch parameters of a column scatter (lo, hi)
        #: are host scalars, and reading them from device memory would
        #: either cost a DtoH transfer per column or — as the old code did
        #: by peeking at ``self.indptr.data`` — silently bypass the device
        #: cost model.
        self.host_indptr = host.indptr.astype(np.int64, copy=True)
        #: The column structure the SpMVᵀ body reduces over.
        self.segments = Segments(self.host_indptr)
        self._spmv_costs: dict[int, OpCost] = {}
        try:
            self.indptr = device.to_device(host.indptr.astype(np.int32))
            self.indices = device.to_device(host.indices.astype(np.int32))
            self.data = device.to_device(host.data.astype(self.dtype))
        except Exception:
            for name in ("indptr", "indices", "data"):
                arr = getattr(self, name, None)
                if arr is not None and not arr.is_freed:
                    arr.free()
            raise

    @property
    def nbytes(self) -> int:
        return self.indptr.nbytes + self.indices.nbytes + self.data.nbytes

    def free(self) -> None:
        self.indptr.free()
        self.indices.free()
        self.data.free()

    def getcol_device(self, j: int, out: DeviceArray) -> int:
        """Scatter column j into the dense device vector ``out``.

        Returns the column's nnz.  Two kernels on hardware: a fill and a
        scatter over the column's entries.
        """
        if not 0 <= j < self.shape[1]:
            raise DeviceArrayError(f"column {j} out of range for {self.shape}")
        if out.shape != (self.shape[0],):
            raise DeviceArrayError("output vector has wrong length")
        dev = self.device
        w = out.itemsize
        lo = int(self.host_indptr[j])
        hi = int(self.host_indptr[j + 1])
        col_nnz = hi - lo

        dev.launch(
            "sparse.fill_zero",
            lambda: out.data.fill(0),
            OpCost(bytes_written=out.nbytes, threads=max(1, out.size)),
            dtype=self.dtype,
            fusable=True,
            writes=(out,),
        )

        def scatter() -> None:
            rows = self.indices.data[lo:hi]
            out.data[rows] = self.data.data[lo:hi]

        dev.launch(
            "sparse.scatter_col",
            scatter,
            OpCost(
                bytes_read=col_nnz * (w + INDEX_BYTES) + 2 * INDEX_BYTES,
                bytes_written=col_nnz * w,
                threads=max(1, col_nnz),
                coalesced_fraction=0.25,  # scattered row-index writes
            ),
            dtype=self.dtype,
            fusable=True,
            writes=(out,),
        )
        return col_nnz


def _launch_spmv(
    name: str, a: "DeviceCsrMatrix | DeviceCscMatrix", x: DeviceArray, y: DeviceArray
) -> None:
    """One scalar-CSR SpMV over ``a``'s segments (one thread per segment):
    ``y[i]`` is the dot product of segment ``i`` with ``x``.  Its cost is
    built once per matrix and operand width."""
    w = x.itemsize
    cost = a._spmv_costs.get(w)
    if cost is None:
        segs = a.segments.size
        cost = a._spmv_costs[w] = OpCost(
            flops=2 * a.nnz,
            bytes_read=a.nnz * (w + INDEX_BYTES)  # values + segment ids
            + (segs + 1) * INDEX_BYTES  # segment pointers
            + a.nnz * w,  # gathered operand values (uncoalesced)
            bytes_written=segs * w,
            threads=max(1, segs),
            coalesced_fraction=0.6,
        )

    def body() -> None:
        a.indptr._check_live()  # the structure itself is read from a.segments
        y.data[:] = a.segments.sum_products(a.data.data, x.data[a.indices.data])

    a.device.launch(name, body, cost, dtype=a.dtype, reads=(x,), writes=(y,))


def spmv_csr(a: DeviceCsrMatrix, x: DeviceArray, y: DeviceArray) -> None:
    """y := A x for device CSR A (scalar kernel: one thread per row)."""
    m, n = a.shape
    if x.shape != (n,) or y.shape != (m,):
        raise DeviceArrayError(
            f"spmv_csr shapes: A {a.shape}, x {x.shape}, y {y.shape}"
        )
    _launch_spmv("sparse.spmv_csr", a, x, y)


def spmv_csc_t(a: DeviceCscMatrix, x: DeviceArray, y: DeviceArray) -> None:
    """y := Aᵀ x for device CSC A.

    A CSC matrix read column-by-column *is* the CSR of Aᵀ, so this is the
    scalar-CSR kernel with one thread per column of A — the pricing kernel's
    access pattern (reduced cost of every nonbasic column in one launch).
    """
    m, n = a.shape
    if x.shape != (m,) or y.shape != (n,):
        raise DeviceArrayError(
            f"spmv_csc_t shapes: A {a.shape}, x {x.shape}, y {y.shape}"
        )
    _launch_spmv("sparse.spmv_csc_t", a, x, y)
