"""Analytic sequential-CPU timing model for the paper's comparator.

The paper compares its GPU solver against a sequential revised simplex on a
contemporary (2008/2009) CPU with an optimized BLAS.  We model that machine
with a simple roofline: ``max(flops / sustained_flops, bytes / bandwidth)``
plus a small fixed per-operation overhead (function-call and loop setup).
Unit-stride traffic runs at full bandwidth; strided traffic is charged a
cache-line amplification, mirroring the GPU model's coalescing term.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.perfmodel.ops import MEMO_CAP, OpCost


@dataclasses.dataclass(frozen=True)
class CpuModelParams:
    """Calibration parameters of a sequential CPU model."""

    name: str = "generic-cpu"
    #: Sustained single-core FLOP/s with SIMD + optimized BLAS, fp32.
    sustained_flops_fp32: float = 16e9
    #: Same for fp64 (half-width SIMD).
    sustained_flops_fp64: float = 8e9
    #: Sustained DRAM bandwidth, B/s.
    mem_bandwidth: float = 6.4e9
    #: Cache-line size in bytes (amplification unit for strided access).
    cache_line_bytes: int = 64
    #: Fixed per-operation overhead, seconds (call + loop setup).
    call_overhead: float = 0.2e-6
    #: Fraction of traffic served from cache for BLAS-style working sets;
    #: charged zero DRAM time.  Conservative default: none.
    cache_hit_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.sustained_flops_fp32 <= 0 or self.sustained_flops_fp64 <= 0:
            raise ValueError("sustained FLOP rates must be positive")
        if self.mem_bandwidth <= 0:
            raise ValueError("mem_bandwidth must be positive")
        if not 0.0 <= self.cache_hit_fraction < 1.0:
            raise ValueError("cache_hit_fraction must lie in [0, 1)")

    def sustained_flops(self, dtype: np.dtype) -> float:
        if np.dtype(dtype) == np.float64:
            return self.sustained_flops_fp64
        return self.sustained_flops_fp32


class CpuCostModel:
    """Turns :class:`OpCost` descriptions into modeled sequential-CPU seconds."""

    def __init__(self, params: CpuModelParams):
        self._params = params
        self._memo: dict = {}

    @property
    def params(self) -> CpuModelParams:
        """The (frozen) calibration; fixed for the model's lifetime, which
        is what makes the op-time memo valid."""
        return self._params

    def op_time(self, cost: OpCost, dtype: np.dtype = np.float64) -> float:
        """Modeled time of one operation, seconds (memoized, bounded by
        :data:`~repro.perfmodel.ops.MEMO_CAP` entries)."""
        dtype = np.dtype(dtype)
        key = (cost, dtype)
        seconds = self._memo.get(key)
        if seconds is None:
            seconds = self._op_time(cost, dtype)
            if len(self._memo) >= MEMO_CAP:
                self._memo.clear()
            self._memo[key] = seconds
        return seconds

    def _op_time(self, cost: OpCost, dtype: np.dtype) -> float:
        p = self._params
        t_c = 0.0
        if cost.flops > 0:
            t_c = cost.flops / p.sustained_flops(dtype)
        t_m = 0.0
        if cost.bytes_total > 0:
            word = np.dtype(dtype).itemsize
            amplification = max(1.0, p.cache_line_bytes / word)
            effective = cost.bytes_total * (
                cost.coalesced_fraction
                + (1.0 - cost.coalesced_fraction) * amplification
            )
            effective *= 1.0 - p.cache_hit_fraction
            t_m = effective / p.mem_bandwidth
        return p.call_overhead + max(t_c, t_m)


class CpuCostRecorder:
    """Accumulates modeled CPU time, broken down by operation name.

    CPU baseline solvers call :meth:`charge` after each BLAS-style step; the
    recorder plays the role the simulated device's statistics play for the
    GPU solver, so both sides produce comparable ``TimingStats``.
    """

    def __init__(self, model: CpuCostModel, dtype: np.dtype = np.float64):
        self.model = model
        self.dtype = np.dtype(dtype)
        self.total_seconds = 0.0
        self.by_op: dict[str, float] = {}
        self.op_count = 0

    def charge(self, name: str, cost: OpCost) -> float:
        """Charge one operation; returns the modeled seconds."""
        seconds = self.model.op_time(cost, self.dtype)
        self.total_seconds += seconds
        self.by_op[name] = self.by_op.get(name, 0.0) + seconds
        self.op_count += 1
        return seconds

    def reset(self) -> None:
        self.total_seconds = 0.0
        self.by_op.clear()
        self.op_count = 0
