"""Parallel reduction, arg-reduction and scan primitives.

These are the tree-structured kernels every GPU simplex implementation leans
on: Dantzig pricing is an arg-min over reduced costs, the ratio test is a
masked arg-min over βᵢ/αᵢ, and Bland's rule is a "first index satisfying a
predicate" reduction.  Each primitive executes the classic multi-pass scheme
(block-local shared-memory tree, then reduce the per-block partials) and
charges every pass to the device clock, so small reductions correctly show
their launch-overhead-dominated cost.

All host-returning primitives charge the final scalar DtoH transfer.
"""

from __future__ import annotations

import numpy as np

from repro.gpu._checks import (
    require_device_array,
    require_float_dtype,
    require_same_device,
    require_vector,
    shared_float_dtype,
)
from repro.gpu.device import Device
from repro.gpu.kernel import DEFAULT_BLOCK
from repro.gpu.memory import DeviceArray
from repro.perfmodel.ops import OpCost, op_cost

#: Sentinel returned by arg-reductions over an empty candidate set.
NO_INDEX = -1


def first_pass_cost(
    n: int,
    itemsize: int,
    *,
    flops_per_elem: float = 1.0,
    pair: bool = False,
) -> OpCost:
    """Cost of the *first* tree pass over ``n`` elements.

    The plan layer fuses this pass into the preceding map kernel (the classic
    map+reduce fusion); the remaining passes are charged separately via
    :func:`_charge_tree` with ``skip_first=True``.
    """
    width = itemsize * (2 if pair else 1)
    out = -(-n // (2 * DEFAULT_BLOCK))
    return op_cost(
        flops=flops_per_elem * n,
        bytes_read=n * width,
        bytes_written=out * width,
        threads=max(1, n // 2),
    )


def _charge_tree(
    dev: Device,
    name: str,
    n: int,
    itemsize: int,
    dtype,
    *,
    flops_per_elem: float = 1.0,
    pair: bool = False,
    skip_first: bool = False,
) -> None:
    """Charge the launch sequence of a tree reduction over ``n`` elements.

    ``pair=True`` models arg-reductions, which carry (value, index) pairs —
    double the traffic of a plain value reduction.  ``skip_first=True`` omits
    the first pass (already charged inside a fused launch by the plan layer)
    and charges only the follow-up passes over the per-block partials.
    """
    width = itemsize * (2 if pair else 1)
    remaining = n
    first = True
    while True:
        out = -(-remaining // (2 * DEFAULT_BLOCK))
        if not (first and skip_first):
            dev.launch(
                name,
                lambda: None,
                op_cost(
                    flops=flops_per_elem * remaining,
                    bytes_read=remaining * width,
                    bytes_written=out * width,
                    threads=max(1, remaining // 2),
                ),
                dtype=dtype,
            )
        first = False
        if out <= 1:
            break
        remaining = out


def _prep(x: DeviceArray) -> tuple[Device, np.dtype, int]:
    """Validate the operand; returns (device, dtype, itemsize).  Same
    fast path as :func:`repro.gpu.blas._prep`."""
    dtype = shared_float_dtype((x,))
    if dtype is None or x.ndim != 1:
        require_device_array("x", x)
        dtype = require_float_dtype("x", x)
        require_vector("x", x)
    return x.device, dtype, dtype.itemsize


# ---------------------------------------------------------------------------
# value reductions
# ---------------------------------------------------------------------------


def reduce_sum(x: DeviceArray) -> float:
    """Σ xᵢ, returned to the host."""
    dev, dtype, w = _prep(x)
    result = float(np.sum(x.data.astype(np.float64)))
    _charge_tree(dev, "reduce.sum", x.size, w, dtype)
    dev._record_transfer("dtoh", w)
    return result


def reduce_min(x: DeviceArray) -> float:
    """min xᵢ, returned to the host."""
    dev, dtype, w = _prep(x)
    result = float(np.min(x.data))
    _charge_tree(dev, "reduce.min", x.size, w, dtype)
    dev._record_transfer("dtoh", w)
    return result


def reduce_max(x: DeviceArray) -> float:
    """max xᵢ, returned to the host."""
    dev, dtype, w = _prep(x)
    result = float(np.max(x.data))
    _charge_tree(dev, "reduce.max", x.size, w, dtype)
    dev._record_transfer("dtoh", w)
    return result


def reduce_max_abs(x: DeviceArray) -> float:
    """max |xᵢ|, returned to the host."""
    dev, dtype, w = _prep(x)
    result = float(np.max(np.abs(x.data))) if x.size else 0.0
    _charge_tree(dev, "reduce.max_abs", x.size, w, dtype)
    dev._record_transfer("dtoh", w)
    return result


# ---------------------------------------------------------------------------
# arg reductions
# ---------------------------------------------------------------------------


def argmin_host(x: DeviceArray) -> tuple[int, float]:
    """Host-side value of an arg-min — shared by :func:`argmin` and the plan
    layer's fused terminal reductions (identical tie-break to lowest index)."""
    idx = int(np.argmin(x.data))
    return idx, float(x.data[idx])


def first_below_host(x: DeviceArray, threshold: float) -> int:
    """Host-side value of Bland's min-index reduction (see
    :func:`first_index_below`)."""
    hits = np.where(x.data < x.dtype.type(threshold))[0]
    return int(hits[0]) if hits.size else NO_INDEX


def argmin(x: DeviceArray) -> tuple[int, float]:
    """(index, value) of the minimum element; ties break to the lowest index
    (the deterministic tie-break GPU tree reductions are built to preserve)."""
    dev, dtype, w = _prep(x)
    idx, val = argmin_host(x)
    _charge_tree(dev, "reduce.argmin", x.size, w, dtype, pair=True)
    dev._record_transfer("dtoh", 2 * w)
    return idx, val


def argmax_abs(x: DeviceArray) -> tuple[int, float]:
    """(index, |value|max) — the pivot-magnitude reduction."""
    dev, dtype, w = _prep(x)
    a = np.abs(x.data)
    idx = int(np.argmax(a))
    val = float(a[idx])
    _charge_tree(dev, "reduce.argmax_abs", x.size, w, dtype, pair=True)
    dev._record_transfer("dtoh", 2 * w)
    return idx, val


def argmin_where(x: DeviceArray, mask: DeviceArray) -> tuple[int, float]:
    """Arg-min restricted to positions where ``mask`` is non-zero.

    Returns ``(NO_INDEX, inf)`` when the candidate set is empty — the
    unboundedness signal of the ratio test.  The mask read makes the kernel
    mildly divergent (inactive lanes idle while active lanes compare).
    """
    dev, dtype, w = _prep(x)
    require_device_array("mask", mask)
    require_vector("mask", mask, x.size)
    require_same_device(x, mask)

    m = mask.data != 0
    if not m.any():
        idx, val = NO_INDEX, float("inf")
    else:
        candidates = np.where(m)[0]
        local = int(np.argmin(x.data[candidates]))
        idx = int(candidates[local])
        val = float(x.data[idx])
    _charge_tree(dev, "reduce.argmin_where", x.size, w, dtype, pair=True)
    dev._record_transfer("dtoh", 2 * w)
    return idx, val


def first_index_below(x: DeviceArray, threshold: float) -> int:
    """Smallest index i with x[i] < threshold, or ``NO_INDEX``.

    This is Bland's entering-variable rule as a min-index reduction: map
    each qualifying element to its index (others to +inf) and take the min.
    """
    dev, dtype, w = _prep(x)
    idx = first_below_host(x, threshold)
    _charge_tree(dev, "reduce.first_below", x.size, w, dtype, flops_per_elem=1.0)
    dev._record_transfer("dtoh", 4)
    return idx


def count_below(x: DeviceArray, threshold: float) -> int:
    """Number of elements strictly below ``threshold`` (a sum reduction over
    a predicate map) — used for optimality detection and stall diagnostics."""
    dev, dtype, w = _prep(x)
    result = int(np.count_nonzero(x.data < dtype.type(threshold)))
    _charge_tree(dev, "reduce.count_below", x.size, w, dtype)
    dev._record_transfer("dtoh", 4)
    return result


# ---------------------------------------------------------------------------
# scan / compaction
# ---------------------------------------------------------------------------


def inclusive_scan(x: DeviceArray, out: DeviceArray) -> None:
    """out := inclusive prefix sum of x (Blelloch scan: ~2 sweeps).

    Charged as two passes over the data (up-sweep + down-sweep).
    """
    dev, dtype, w = _prep(x)
    require_device_array("out", out)
    require_vector("out", out, x.size)
    require_same_device(x, out)
    n = x.size

    def body() -> None:
        np.cumsum(x.data, out=out.data)

    for phase in ("reduce.scan_up", "reduce.scan_down"):
        dev.launch(
            phase,
            body if phase == "reduce.scan_down" else (lambda: None),
            op_cost(flops=n, bytes_read=n * w, bytes_written=n * w, threads=max(1, n // 2)),
            dtype=dtype,
        )


def compact_indices(mask: DeviceArray) -> np.ndarray:
    """Stream compaction: host array of indices where mask is non-zero.

    Implemented as scan + scatter on the device; the compacted index list is
    then transferred to the host (charged at its actual size).
    """
    dev, dtype, w = _prep(mask)
    n = mask.size
    hits = np.where(mask.data != 0)[0].astype(np.int64)
    # scan pass
    for phase in ("reduce.scan_up", "reduce.scan_down"):
        dev.launch(
            phase,
            lambda: None,
            op_cost(flops=n, bytes_read=n * w, bytes_written=n * 4, threads=max(1, n // 2)),
            dtype=dtype,
        )
    # scatter pass
    dev.launch(
        "reduce.scatter",
        lambda: None,
        op_cost(
            bytes_read=n * 4,
            bytes_written=max(1, hits.size) * 8,
            threads=max(1, n),
            coalesced_fraction=0.5,
        ),
        dtype=dtype,
    )
    dev._record_transfer("dtoh", max(1, hits.size) * 8)
    return hits
