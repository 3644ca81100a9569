"""Analytic SIMT kernel-timing model.

The model follows the classical GPU roofline with three corrections that
matter for a simplex solver, whose kernels are small BLAS-1/2 operations:

1. **Launch overhead** — every kernel pays a fixed host-side dispatch cost.
   For small LPs this dominates and produces the CPU-favourable regime the
   paper observes below the crossover size.
2. **Device fill** — a kernel with fewer threads than the device can hold
   concurrently cannot reach peak throughput.  Throughput scales with the
   fraction of the device occupied (floored so tiny kernels are latency- not
   zero-throughput-bound).
3. **Coalescing** — the non-coalesced fraction of memory traffic is charged
   an amplification factor equal to transaction size / word size.

Kernel time is ``launch_overhead + max(t_compute, t_memory)`` — compute and
memory pipelines overlap on SIMT hardware.

:meth:`GpuCostModel.kernel_time` is a pure function of the cost, the dtype,
the block size and the frozen parameters, so it is memoized per model
instance, bounded by :data:`~repro.perfmodel.ops.MEMO_CAP` entries.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.perfmodel.ops import MEMO_CAP, OpCost


@dataclasses.dataclass(frozen=True)
class GpuModelParams:
    """Calibration parameters of a SIMT device model.

    Rates are peak hardware numbers; ``compute_efficiency`` and
    ``memory_efficiency`` convert peaks into the sustained rates that real
    BLAS-style kernels achieve (cuBLAS GEMV sustains far below peak FLOPs
    because it is bandwidth-bound; the efficiency factors encode that the
    model still uses ``max(compute, memory)``, so for BLAS-1/2 the memory
    term governs, as on real hardware).
    """

    name: str = "generic-simt"
    sm_count: int = 30
    warp_size: int = 32
    max_threads_per_block: int = 512
    max_threads_per_sm: int = 1024
    shared_mem_per_block: int = 16 * 1024
    global_mem_bytes: int = 1 * 1024**3
    #: Peak single-precision rate in FLOP/s.
    peak_flops_fp32: float = 933e9
    #: Peak double-precision rate in FLOP/s (GT200: 1/12 of fp32 MAD+MUL).
    peak_flops_fp64: float = 78e9
    #: Peak global-memory bandwidth in B/s.
    mem_bandwidth: float = 141.7e9
    #: Sustained fraction of peak compute for generic kernels.
    compute_efficiency: float = 0.35
    #: Sustained fraction of peak bandwidth for streaming kernels.
    memory_efficiency: float = 0.75
    #: Fixed per-launch overhead (host dispatch + device scheduling), s.
    launch_overhead: float = 5.0e-6
    #: Memory transaction size in bytes (GT200 coalesces to 64B segments).
    transaction_bytes: int = 64
    #: PCIe effective bandwidth (B/s) and per-transfer latency (s).
    pcie_bandwidth: float = 5.5e9
    pcie_latency: float = 10.0e-6
    #: Minimum device-fill factor — tiny kernels are latency-bound, not
    #: infinitely slow.
    min_fill: float = 0.02

    def __post_init__(self) -> None:
        if self.sm_count < 1 or self.warp_size < 1:
            raise ValueError("sm_count and warp_size must be positive")
        if not 0 < self.compute_efficiency <= 1:
            raise ValueError("compute_efficiency must lie in (0, 1]")
        if not 0 < self.memory_efficiency <= 1:
            raise ValueError("memory_efficiency must lie in (0, 1]")
        if not 0 < self.min_fill <= 1:
            raise ValueError("min_fill must lie in (0, 1]")

    @property
    def concurrent_threads(self) -> int:
        """Threads the device holds resident at full occupancy."""
        return self.sm_count * self.max_threads_per_sm

    def peak_flops(self, dtype: np.dtype) -> float:
        """Peak FLOP rate for the given floating dtype."""
        if np.dtype(dtype) == np.float64:
            return self.peak_flops_fp64
        return self.peak_flops_fp32


class GpuCostModel:
    """Turns :class:`OpCost` descriptions into simulated-device seconds."""

    def __init__(self, params: GpuModelParams):
        self._params = params
        self._memo: dict = {}

    @property
    def params(self) -> GpuModelParams:
        """The (frozen) calibration; fixed for the model's lifetime, which
        is what makes the kernel-time memo valid."""
        return self._params

    # -- kernel timing ----------------------------------------------------

    def fill_factor(self, threads: int, block_threads: int) -> float:
        """Fraction of peak throughput available to a kernel.

        The product of *device fill* (enough threads to occupy all SMs) and
        *occupancy* (block size granularity: blocks smaller than a warp waste
        lanes).
        """
        p = self.params
        fill = min(1.0, threads / p.concurrent_threads)
        # Lane waste for blocks that are not a multiple of the warp size.
        warp_slots = -(-block_threads // p.warp_size) * p.warp_size
        lane_eff = block_threads / warp_slots
        return max(p.min_fill, fill * lane_eff)

    def compute_time(self, cost: OpCost, dtype: np.dtype, block_threads: int) -> float:
        p = self.params
        if cost.flops <= 0:
            return 0.0
        rate = p.peak_flops(dtype) * p.compute_efficiency
        rate *= self.fill_factor(cost.threads, block_threads)
        # Divergent warps execute both branch sides: their work doubles.
        effective_flops = cost.flops * (1.0 + cost.divergent_fraction)
        return effective_flops / rate

    def memory_time(self, cost: OpCost, dtype: np.dtype, block_threads: int) -> float:
        p = self.params
        if cost.bytes_total <= 0:
            return 0.0
        bw = p.mem_bandwidth * p.memory_efficiency
        bw *= max(p.min_fill, min(1.0, cost.threads / p.concurrent_threads))
        word = np.dtype(dtype).itemsize
        amplification = max(1.0, p.transaction_bytes / word)
        effective_bytes = cost.bytes_total * (
            cost.coalesced_fraction + (1.0 - cost.coalesced_fraction) * amplification
        )
        return effective_bytes / bw

    def kernel_time(
        self, cost: OpCost, dtype: np.dtype = np.float32, block_threads: int = 256
    ) -> float:
        """Total modeled time of one kernel launch, seconds (memoized)."""
        dtype = np.dtype(dtype)
        key = (cost, dtype, block_threads)
        seconds = self._memo.get(key)
        if seconds is None:
            t_c = self.compute_time(cost, dtype, block_threads)
            t_m = self.memory_time(cost, dtype, block_threads)
            seconds = self._params.launch_overhead + max(t_c, t_m)
            if len(self._memo) >= MEMO_CAP:
                self._memo.clear()
            self._memo[key] = seconds
        return seconds

    # -- transfer timing ---------------------------------------------------

    def transfer_time(self, nbytes: int) -> float:
        """Host <-> device PCIe transfer time, seconds."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        p = self.params
        return p.pcie_latency + nbytes / p.pcie_bandwidth

    def dtod_time(self, nbytes: int) -> float:
        """Device-to-device copy time (read + write at device bandwidth)."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        p = self.params
        return self.params.launch_overhead + 2.0 * nbytes / (
            p.mem_bandwidth * p.memory_efficiency
        )
