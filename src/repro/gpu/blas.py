"""Device BLAS: the cuBLAS stand-in the GPU solver is written against.

Level-1 routines follow the cuBLAS convention of returning scalars to the
host (charged a latency-dominated DtoH transfer — a real per-iteration cost
of GPU simplex codes).  Level-2 GEMV uses a warp-per-row mapping, the layout
the paper's implementation relies on for coalesced access; GER maps one
thread per matrix element.

Costs charged to the device clock (itemsize ``w``):

=========  ==========  ======================================  ===========
routine    FLOPs       main-memory traffic                      threads
=========  ==========  ======================================  ===========
copy       0           r n·w, w n·w                             n
swap       0           r 2n·w, w 2n·w                           n
scal       n           r n·w, w n·w                             n
axpy       2n          r 2n·w, w n·w                            n
cast       n           r n·w_src, w n·w_dst                     n
dot        2n          r 2n·w (+ partials)                      n
nrm2       2n+√        r n·w (+ partials)                       n
asum       n           r n·w (+ partials)                       n
gemv(N)    2mn         r (mn+n)·w, w m·w                        32·m
gemv(T)    2mn         r (mn+m)·w, w n·w                        32·n
ger        2mn         r (mn+m+n)·w, w mn·w                     m·n
gemm       2mnk        r (mk+kn)·w, w mn·w (tiled, ideal reuse) m·n
=========  ==========  ======================================  ===========
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import DeviceArrayError
from repro.gpu._checks import (
    require_device_array,
    require_float_dtype,
    require_matrix,
    require_same_device,
    require_same_dtype,
    require_vector,
    shared_float_dtype,
)
from repro.gpu.device import Device
from repro.gpu.memory import DeviceArray
from repro.perfmodel.ops import op_cost


def _prep(*arrays: DeviceArray) -> tuple[Device, np.dtype, int]:
    """Common validation; returns (device, dtype, itemsize).  One identity
    pass accepts the usual operands; anything else runs the full checks,
    which raise the precise error."""
    dtype = shared_float_dtype(arrays)
    if dtype is None:
        for i, a in enumerate(arrays):
            require_device_array(f"arg{i}", a)
            require_float_dtype(f"arg{i}", a)
        require_same_device(*arrays)
        dtype = require_same_dtype(*arrays)
    return arrays[0].device, dtype, dtype.itemsize


# ---------------------------------------------------------------------------
# Level 1
# ---------------------------------------------------------------------------


def copy(x: DeviceArray, y: DeviceArray) -> None:
    """y := x (``cublasScopy``)."""
    dev, dtype, w = _prep(x, y)
    require_vector("x", x)
    require_vector("y", y, x.size)
    n = x.size
    dev.launch(
        "blas.copy",
        lambda: y.data.__setitem__(slice(None), x.data),
        op_cost(bytes_read=n * w, bytes_written=n * w, threads=n),
        dtype=dtype,
        fusable=True,
        reads=(x,),
        writes=(y,),
    )


def swap(x: DeviceArray, y: DeviceArray) -> None:
    """x, y := y, x (``cublasSswap``)."""
    dev, dtype, w = _prep(x, y)
    require_vector("x", x)
    require_vector("y", y, x.size)
    n = x.size

    def body() -> None:
        tmp = x.data.copy()
        x.data[:] = y.data
        y.data[:] = tmp

    dev.launch(
        "blas.swap",
        body,
        op_cost(bytes_read=2 * n * w, bytes_written=2 * n * w, threads=n),
        dtype=dtype,
        fusable=True,
        reads=(x, y),
        writes=(x, y),
    )


def scal(alpha: float, x: DeviceArray) -> None:
    """x := alpha * x (``cublasSscal``)."""
    dev, dtype, w = _prep(x)
    require_vector("x", x)
    n = x.size
    dev.launch(
        "blas.scal",
        lambda: x.data.__imul__(dtype.type(alpha)),
        op_cost(flops=n, bytes_read=n * w, bytes_written=n * w, threads=n),
        dtype=dtype,
        fusable=True,
        reads=(x,),
        writes=(x,),
    )


def axpy(alpha: float, x: DeviceArray, y: DeviceArray) -> None:
    """y := alpha * x + y (``cublasSaxpy``)."""
    dev, dtype, w = _prep(x, y)
    require_vector("x", x)
    require_vector("y", y, x.size)
    n = x.size

    def body() -> None:
        y.data[:] = y.data + dtype.type(alpha) * x.data

    dev.launch(
        "blas.axpy",
        body,
        op_cost(flops=2 * n, bytes_read=2 * n * w, bytes_written=n * w, threads=n),
        dtype=dtype,
        fusable=True,
        reads=(x, y),
        writes=(y,),
    )


def _reduction_launches(dev: Device, name: str, n: int, w: int, dtype,
                        flops_per_elem: float) -> None:
    """Charge the tree-reduction passes that follow a level-1 map kernel."""
    remaining = -(-n // (2 * 256))
    while remaining > 1:
        nxt = -(-remaining // (2 * 256))
        dev.launch(
            name,
            lambda: None,
            op_cost(
                flops=flops_per_elem * remaining,
                bytes_read=remaining * w,
                bytes_written=nxt * w,
                threads=max(1, remaining // 2),
            ),
            dtype=dtype,
        )
        remaining = nxt


def dot(x: DeviceArray, y: DeviceArray) -> float:
    """Return xᵀy on the host (``cublasSdot``)."""
    dev, dtype, w = _prep(x, y)
    require_vector("x", x)
    require_vector("y", y, x.size)
    n = x.size
    out = np.zeros((), dtype=dtype)

    def body() -> None:
        out[...] = x.data @ y.data

    partials = -(-n // (2 * 256))
    dev.launch(
        "blas.dot",
        body,
        op_cost(
            flops=2 * n,
            bytes_read=2 * n * w,
            bytes_written=partials * w,
            threads=n,
        ),
        dtype=dtype,
    )
    _reduction_launches(dev, "blas.dot", n, w, dtype, 1.0)
    dev._record_transfer("dtoh", w)
    return float(out)


def nrm2(x: DeviceArray) -> float:
    """Return ‖x‖₂ on the host (``cublasSnrm2``)."""
    dev, dtype, w = _prep(x)
    require_vector("x", x)
    n = x.size
    out = np.zeros((), dtype=np.float64)

    def body() -> None:
        out[...] = np.sqrt(np.sum(x.data.astype(np.float64) ** 2))

    partials = -(-n // (2 * 256))
    dev.launch(
        "blas.nrm2",
        body,
        op_cost(flops=2 * n, bytes_read=n * w, bytes_written=partials * w, threads=n),
        dtype=dtype,
    )
    _reduction_launches(dev, "blas.nrm2", n, w, dtype, 1.0)
    dev._record_transfer("dtoh", w)
    return float(out)


def asum(x: DeviceArray) -> float:
    """Return Σ|xᵢ| on the host (``cublasSasum``)."""
    dev, dtype, w = _prep(x)
    require_vector("x", x)
    n = x.size
    out = np.zeros((), dtype=np.float64)

    def body() -> None:
        out[...] = np.sum(np.abs(x.data.astype(np.float64)))

    partials = -(-n // (2 * 256))
    dev.launch(
        "blas.asum",
        body,
        op_cost(flops=n, bytes_read=n * w, bytes_written=partials * w, threads=n),
        dtype=dtype,
    )
    _reduction_launches(dev, "blas.asum", n, w, dtype, 1.0)
    dev._record_transfer("dtoh", w)
    return float(out)


def cast(x: DeviceArray, out: DeviceArray) -> None:
    """out := x converted to ``out``'s dtype — the explicit fp32↔fp64 kernel.

    Mixed-precision schemes round-trip vectors between precisions.  The
    conversion is a real kernel with real traffic (read at the source width,
    write at the destination width), never a silent free view — which is why
    ``_prep`` keeps its strict same-dtype rule for every other routine.
    """
    for name, a in (("x", x), ("out", out)):
        require_device_array(name, a)
        require_float_dtype(name, a)
    require_same_device(x, out)
    require_vector("x", x)
    require_vector("out", out, x.size)
    if x.dtype == out.dtype:
        raise DeviceArrayError(
            "blas.cast source and destination share a dtype; use blas.copy"
        )
    n = x.size
    w_src = x.dtype.itemsize
    w_dst = out.dtype.itemsize
    dst_t = out.dtype

    def body() -> None:
        out.data[:] = x.data.astype(dst_t)

    x.device.launch(
        "blas.cast",
        body,
        op_cost(
            flops=n,
            bytes_read=n * w_src,
            bytes_written=n * w_dst,
            threads=max(1, n),
        ),
        dtype=out.dtype,
        fusable=True,
        reads=(x,),
        writes=(out,),
    )


def iamax(x: DeviceArray) -> int:
    """Index of max |xᵢ| (``cublasIsamax``; 0-based here, unlike Fortran)."""
    from repro.gpu.reduce import argmax_abs

    idx, _ = argmax_abs(x)
    return idx


# ---------------------------------------------------------------------------
# Level 2
# ---------------------------------------------------------------------------


def gemv(
    a: DeviceArray,
    x: DeviceArray,
    y: DeviceArray,
    alpha: float = 1.0,
    beta: float = 0.0,
    trans: bool = False,
) -> None:
    """y := alpha · op(A) x + beta · y, with op(A) = A or Aᵀ (``cublasSgemv``).

    Warp-per-row mapping (warp-per-column for the transposed case): each
    warp reduces one dot product with coalesced row segments.
    """
    dev, dtype, w = _prep(a, x, y)
    require_matrix("A", a)
    m, n = a.shape
    if not trans:
        require_vector("x", x, n)
        require_vector("y", y, m)
        out_len, in_len = m, n
    else:
        require_vector("x", x, m)
        require_vector("y", y, n)
        out_len, in_len = n, m

    alpha_t = dtype.type(alpha)
    beta_t = dtype.type(beta)

    def body() -> None:
        av = a.data if not trans else a.data.T
        if beta == 0.0:
            y.data[:] = alpha_t * (av @ x.data)
        else:
            y.data[:] = alpha_t * (av @ x.data) + beta_t * y.data

    extra = out_len * w if beta != 0.0 else 0
    cost = op_cost(
        flops=2 * m * n + (2 * out_len if beta != 0.0 else 0),
        bytes_read=m * n * w + in_len * w + extra,
        bytes_written=out_len * w,
        threads=out_len * dev.params.warp_size,
        # The transposed walk strides down columns; GT200 coalesces it only
        # partially without an explicit transpose, which the paper's layout
        # avoids for the hot path (we keep a mild penalty here).
        coalesced_fraction=1.0 if not trans else 0.85,
    )
    dev.launch(
        "blas.gemv_t" if trans else "blas.gemv",
        body,
        cost,
        dtype=dtype,
        reads=(a, x, y) if beta != 0.0 else (a, x),
        writes=(y,),
    )


def ger(
    x: DeviceArray,
    y: DeviceArray,
    a: DeviceArray,
    alpha: float = 1.0,
) -> None:
    """A := A + alpha · x yᵀ (``cublasSger``), one thread per element."""
    dev, dtype, w = _prep(x, y, a)
    require_matrix("A", a)
    m, n = a.shape
    require_vector("x", x, m)
    require_vector("y", y, n)
    alpha_t = dtype.type(alpha)

    def body() -> None:
        rank1_update(a.data, x.data, y.data, alpha_t)

    cost = op_cost(
        flops=2 * m * n,
        bytes_read=m * n * w + (m + n) * w,
        bytes_written=m * n * w,
        threads=m * n,
    )
    dev.launch(
        "blas.ger", body, cost, dtype=dtype, reads=(x, y, a), writes=(a,)
    )


#: Elements in the scratch block of :func:`rank1_update` (256 KiB in fp64):
#: large enough to amortise the per-block numpy calls, small enough to stay
#: cache-resident instead of materialising m×n temporaries.
RANK1_BLOCK_ELEMS = 1 << 15


def rank1_update(
    a: np.ndarray, x: np.ndarray, y: np.ndarray, alpha: float = 1.0
) -> None:
    """In place: ``a += alpha · x yᵀ`` on host arrays of one dtype.

    The GER body shared by every rank-1 update (device GER, the tableau
    elimination, the CPU explicit-inverse update).  Each element is
    ``a_ij + (x_i·y_j)·alpha``, rounded exactly as
    ``a + alpha * np.outer(x, y)`` rounds it, but computed row block by row
    block through one scratch block of at most :data:`RANK1_BLOCK_ELEMS`
    elements instead of two m×n temporaries.  ``alpha == 1`` skips the
    scaling, which is exact.  ``x`` and ``y`` must not overlap ``a``: a
    block already updated would feed later blocks.
    """
    m, n = a.shape
    rows = max(1, min(m, RANK1_BLOCK_ELEMS // max(n, 1)))
    scratch = np.empty((rows, n), dtype=a.dtype)
    for r0 in range(0, m, rows):
        r1 = min(r0 + rows, m)
        block = scratch[: r1 - r0]
        np.multiply(x[r0:r1, None], y, out=block)
        if alpha != 1.0:
            block *= alpha
        a[r0:r1] += block


# ---------------------------------------------------------------------------
# Level 3
# ---------------------------------------------------------------------------


def gemm(
    a: DeviceArray,
    b: DeviceArray,
    c: DeviceArray,
    alpha: float = 1.0,
    beta: float = 0.0,
    transa: bool = False,
    transb: bool = False,
) -> None:
    """C := alpha · op(A) op(B) + beta · C (``cublasSgemm``), shared-memory
    tiled: global traffic is the ideal (A once, B once, C once)."""
    dev, dtype, w = _prep(a, b, c)
    require_matrix("A", a)
    require_matrix("B", b)
    require_matrix("C", c)
    am, ak = (a.shape[1], a.shape[0]) if transa else a.shape
    bk, bn = (b.shape[1], b.shape[0]) if transb else b.shape
    if ak != bk:
        raise DeviceArrayError(
            f"gemm inner-dimension mismatch: op(A) is {am}x{ak}, op(B) is {bk}x{bn}"
        )
    require_matrix("C", c, (am, bn))
    alpha_t = dtype.type(alpha)
    beta_t = dtype.type(beta)

    def body() -> None:
        av = a.data.T if transa else a.data
        bv = b.data.T if transb else b.data
        if beta == 0.0:
            c.data[...] = alpha_t * (av @ bv)
        else:
            c.data[...] = alpha_t * (av @ bv) + beta_t * c.data

    extra_read = am * bn * w if beta != 0.0 else 0
    cost = op_cost(
        flops=2 * am * ak * bn,
        bytes_read=(am * ak + ak * bn) * w + extra_read,
        bytes_written=am * bn * w,
        threads=am * bn,
    )
    dev.launch("blas.gemm", body, cost, dtype=dtype)


# ---------------------------------------------------------------------------
# Elementwise helpers used by the solver (not in BLAS proper, but standard
# device utility kernels).
# ---------------------------------------------------------------------------


def fill(x: DeviceArray, value: float) -> None:
    """x[:] := value."""
    dev, dtype, w = _prep(x)
    n = x.size
    dev.launch(
        "blas.fill",
        lambda: x.data.fill(dtype.type(value)),
        op_cost(bytes_written=n * w, threads=max(1, n)),
        dtype=dtype,
        fusable=True,
        writes=(x,),
    )


def gather(src: DeviceArray, indices: np.ndarray, out: DeviceArray) -> None:
    """out[i] := src[indices[i]] — indexed reads are uncoalesced."""
    dev, dtype, w = _prep(src, out)
    require_vector("src", src)
    require_vector("out", out, len(indices))
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= src.size):
        raise DeviceArrayError("gather index out of range")
    n = idx.size

    def body() -> None:
        out.data[:] = src.data[idx]

    cost = op_cost(
        bytes_read=n * w + n * 4,
        bytes_written=n * w,
        threads=max(1, n),
        coalesced_fraction=0.25,
    )
    dev.launch(
        "blas.gather", body, cost, dtype=dtype, fusable=True,
        reads=(src,), writes=(out,),
    )
