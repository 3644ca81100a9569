"""The simulated SIMT device: clock, allocator, launch path, statistics.

A :class:`Device` owns

- a **simulated clock** advanced by the analytic cost model on every kernel
  launch and memory transfer (this is the "GPU time" the benchmarks report);
- an **allocator** tracking live device memory against the modeled card's
  global-memory capacity;
- **statistics**: per-kernel launch counts, modeled seconds, FLOPs and bytes,
  plus transfer totals — the source of the paper's kernel-breakdown figure.

Functionally, kernels execute real NumPy work on the arrays' device-resident
backing store, so results are exact while time is modeled.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from repro.errors import DeviceMemoryError, InvalidLaunchError
from repro.gpu.kernel import DEFAULT_BLOCK, launch_config
from repro.gpu.memory import DeviceArray
from repro.metrics import instrument as _metrics
from repro.perfmodel.gpu_model import GpuCostModel, GpuModelParams
from repro.perfmodel.ops import MEMO_CAP, OpCost
from repro.perfmodel.presets import GTX280_PARAMS

#: The modeled hardware's 2D grid limit, in blocks.
MAX_GRID = 65535 * 65535


@dataclasses.dataclass(frozen=True)
class TimelineEvent:
    """One entry of the optional device timeline (see
    :meth:`Device.record_timeline`).

    ``kind`` is the engine the event occupies: ``"kernel"`` and ``"dtod"``
    run on the device (SMs / memory system), ``"htod"`` and ``"dtoh"`` on
    the PCIe copy engine.  ``threads`` is the logical work size of kernel
    events (0 for transfers) — the batch scheduler uses it to estimate how
    much of the device a kernel actually occupies when launches from
    several LP streams are interleaved.

    ``start`` is the event's begin time on the device's modeled clock.
    The device itself serialises work, so for device-recorded events the
    starts are head-to-tail; schedule replays (stream-interleaved
    :class:`~repro.batch.scheduler.ConcurrentSchedule` windows) construct
    events with *overlapping* starts, which the Chrome exporter honors.
    ``None`` (legacy events) means "unknown": consumers fall back to a
    cumulative sum.
    """

    kind: str
    name: str
    seconds: float
    threads: int = 0
    nbytes: int = 0
    start: "float | None" = None


@dataclasses.dataclass(frozen=True)
class CapturedLaunch:
    """One kernel launch recorded (not executed) during plan capture.

    :mod:`repro.gpu.plan` begins a capture, lets the backend issue its
    ordinary :mod:`repro.gpu.blas` / kernel calls, then lowers the captured
    sequence — fusing adjacent ``fusable`` launches into one launch whose
    cost is :meth:`OpCost.fuse` of the parts.  ``reads``/``writes`` hold
    ``id()`` tokens of the operand buffers so the planner can deduplicate
    the global-memory reads a fused group keeps in registers, and
    ``operand_bytes`` maps each token to that operand's size.
    """

    name: str
    body: Callable[[], None]
    cost: OpCost
    dtype: np.dtype
    block: int
    fusable: bool
    reads: tuple[int, ...]
    writes: tuple[int, ...]
    operand_bytes: "dict[int, int]"


@dataclasses.dataclass
class KernelRecord:
    """Aggregate statistics of one kernel (by name)."""

    launches: int = 0
    seconds: float = 0.0
    flops: float = 0.0
    bytes: float = 0.0

    def add(self, seconds: float, cost: OpCost) -> None:
        self.launches += 1
        self.seconds += seconds
        self.flops += cost.flops
        self.bytes += cost.bytes_total


@dataclasses.dataclass
class DeviceStats:
    """Cumulative device statistics since creation or :meth:`reset`."""

    kernel_launches: int = 0
    kernel_seconds: float = 0.0
    by_kernel: dict[str, KernelRecord] = dataclasses.field(default_factory=dict)
    htod_bytes: int = 0
    dtoh_bytes: int = 0
    dtod_bytes: int = 0
    transfer_seconds: float = 0.0
    allocations: int = 0
    frees: int = 0
    bytes_in_use: int = 0
    peak_bytes_in_use: int = 0
    sections: dict[str, float] = dataclasses.field(default_factory=dict)

    def record_kernel(self, name: str, seconds: float, cost: OpCost) -> None:
        self.kernel_launches += 1
        self.kernel_seconds += seconds
        rec = self.by_kernel.get(name)
        if rec is None:
            rec = self.by_kernel[name] = KernelRecord()
        rec.add(seconds, cost)

    def kernel_breakdown(self) -> dict[str, float]:
        """Kernel name -> modeled seconds (copy)."""
        return {name: rec.seconds for name, rec in self.by_kernel.items()}

    def reset(self) -> None:
        live = self.bytes_in_use  # allocations survive a stats reset
        self.__init__()  # type: ignore[misc]
        self.bytes_in_use = live
        self.peak_bytes_in_use = live


class TimedSection:
    """Context manager behind :meth:`Device.timed_section`: on exit, normal
    or by an exception, adds the device-clock delta of the block to
    ``stats.sections[name]``."""

    __slots__ = ("device", "name", "start")

    def __init__(self, device: "Device", name: str):
        self.device = device
        self.name = name

    def __enter__(self) -> None:
        self.start = self.device.clock

    def __exit__(self, *exc) -> None:
        dev = self.device
        sections = dev.stats.sections
        sections[self.name] = sections.get(self.name, 0.0) + (dev.clock - self.start)


class Device:
    """A simulated CUDA-class device.

    Parameters
    ----------
    params:
        Hardware model parameters; defaults to the paper's GTX 280.
    enforce_memory_limit:
        When True (default), allocating past the modeled card's global
        memory raises :class:`DeviceMemoryError`, exactly like ``cudaMalloc``
        returning ``cudaErrorMemoryAllocation``.
    """

    def __init__(
        self,
        params: GpuModelParams = GTX280_PARAMS,
        *,
        enforce_memory_limit: bool = True,
    ):
        self.params = params
        self.model = GpuCostModel(params)
        self.enforce_memory_limit = enforce_memory_limit
        self.clock = 0.0
        self.stats = DeviceStats()
        self._section_stack: list[tuple[str, float]] = []
        #: Optional event timeline (``None`` unless :meth:`record_timeline`
        #: enabled it).  Cleared together with the stats on
        #: :meth:`reset_stats`, so between two resets it holds exactly the
        #: events of the work executed in between (one solve, typically).
        self.timeline: list[TimelineEvent] | None = None
        #: Active plan-capture buffer (``None`` = normal execution).  While
        #: set, :meth:`launch` records instead of executing; see
        #: :mod:`repro.gpu.plan`.
        self._capture: list[CapturedLaunch] | None = None
        #: ``(threads, block)`` pairs that passed launch validation; only
        #: successes are kept, so an invalid configuration raises on every
        #: launch.  Bounded like the cost-model memo.
        self._valid_launches: set[tuple[int, int]] = set()

    def record_timeline(self, enable: bool = True) -> None:
        """Start (or stop) recording every kernel launch and transfer as a
        :class:`TimelineEvent`.  The batch scheduler replays these timelines
        to model stream-interleaved execution of several LPs."""
        self.timeline = [] if enable else None

    # ------------------------------------------------------------------
    # memory management
    # ------------------------------------------------------------------

    def alloc(self, shape, dtype=np.float32) -> DeviceArray:
        """Allocate an uninitialised device array (``cudaMalloc``)."""
        dtype = np.dtype(dtype)
        shape = (shape,) if np.isscalar(shape) else tuple(int(s) for s in shape)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        self._reserve(nbytes)
        data = np.empty(shape, dtype=dtype)
        return DeviceArray(self, data)

    def zeros(self, shape, dtype=np.float32) -> DeviceArray:
        """Allocate and zero-fill (``cudaMalloc`` + ``cudaMemset``)."""
        arr = self.alloc(shape, dtype)
        self.memset(arr, 0)
        return arr

    def to_device(self, host: np.ndarray, dtype=None) -> DeviceArray:
        """Allocate on device and copy a host array in (HtoD transfer)."""
        host = np.asarray(host)
        if dtype is not None:
            host = host.astype(dtype, copy=False)
        if host.dtype == np.float16 or not np.issubdtype(host.dtype, np.number):
            raise TypeError(f"unsupported device dtype {host.dtype}")
        arr = self.alloc(host.shape, host.dtype)
        arr.copy_from_host(host)
        return arr

    def memset(self, arr: DeviceArray, value: int) -> None:
        """``cudaMemset``: fill with a byte value (0 fills with zeros)."""
        if self._capture is not None:
            raise InvalidLaunchError(
                "memset inside a plan capture is not supported; use "
                "blas.fill (a capturable kernel) in plan sections"
            )
        arr._check_live()
        arr.data.fill(value)
        seconds = self.model.dtod_time(arr.nbytes) / 2.0  # write-only traffic
        self.clock += seconds
        cost = OpCost(bytes_written=arr.nbytes, threads=max(1, arr.size))
        self.stats.record_kernel("memset", seconds, cost)
        _metrics.record_kernel_launch(
            "memset", seconds, cost, self.model, DEFAULT_BLOCK
        )
        if self.timeline is not None:
            self.timeline.append(
                TimelineEvent(
                    "kernel", "memset", seconds,
                    threads=max(1, arr.size), nbytes=arr.nbytes,
                    start=self.clock - seconds,
                )
            )

    def _reserve(self, nbytes: int) -> None:
        limit = self.params.global_mem_bytes
        if (
            self.enforce_memory_limit
            and self.stats.bytes_in_use + nbytes > limit
        ):
            raise DeviceMemoryError(
                f"device OOM on {self.params.name}: requested {nbytes} B with "
                f"{self.stats.bytes_in_use} B in use of {limit} B"
            )
        self.stats.allocations += 1
        self.stats.bytes_in_use += nbytes
        self.stats.peak_bytes_in_use = max(
            self.stats.peak_bytes_in_use, self.stats.bytes_in_use
        )
        _metrics.record_allocation(nbytes, self.stats.bytes_in_use)

    def _release(self, nbytes: int) -> None:
        self.stats.frees += 1
        self.stats.bytes_in_use -= nbytes
        _metrics.record_free(nbytes, self.stats.bytes_in_use)

    # ------------------------------------------------------------------
    # kernel launch
    # ------------------------------------------------------------------

    def launch(
        self,
        name: str,
        body: Callable[[], None],
        cost: OpCost,
        *,
        dtype=np.float32,
        block: int = DEFAULT_BLOCK,
        fusable: bool = False,
        reads: tuple = (),
        writes: tuple = (),
    ) -> None:
        """Launch a kernel: run ``body`` functionally, advance the clock.

        ``cost.threads`` is the logical work size; the launch configuration
        (grid size) is derived from it and validated against device limits.

        ``fusable`` marks elementwise/map kernels the plan lowerer may fold
        into a neighbouring launch; ``reads``/``writes`` name the operand
        :class:`~repro.gpu.memory.DeviceArray` buffers so fusion can count
        shared operands' global-memory traffic once.  All three are ignored
        outside a plan capture.
        """
        shape = (cost.threads, block)
        if shape not in self._valid_launches:
            self._validate_launch(*shape)
        if self._capture is not None:
            operand_bytes = {
                id(a): int(a.nbytes) for a in (*reads, *writes)
            }
            self._capture.append(
                CapturedLaunch(
                    name=name, body=body, cost=cost, dtype=np.dtype(dtype),
                    block=block, fusable=fusable,
                    reads=tuple(id(a) for a in reads),
                    writes=tuple(id(a) for a in writes),
                    operand_bytes=operand_bytes,
                )
            )
            return
        body()
        seconds = self.model.kernel_time(cost, dtype, block)
        self.clock += seconds
        self.stats.record_kernel(name, seconds, cost)
        _metrics.record_kernel_launch(name, seconds, cost, self.model, block)
        if self.timeline is not None:
            self.timeline.append(
                TimelineEvent(
                    "kernel", name, seconds,
                    threads=cost.threads, nbytes=int(cost.bytes_total),
                    start=self.clock - seconds,
                )
            )

    def _validate_launch(self, threads: int, block: int) -> None:
        """Check one launch configuration against the device limits and
        remember it once it passes."""
        cfg = launch_config(threads, block, self.params)
        if cfg.grid > MAX_GRID:
            raise InvalidLaunchError(f"grid of {cfg.grid} blocks exceeds device limits")
        if len(self._valid_launches) >= MEMO_CAP:
            self._valid_launches.clear()
        self._valid_launches.add((threads, block))

    # ------------------------------------------------------------------
    # plan capture (driven by repro.gpu.plan)
    # ------------------------------------------------------------------

    def _begin_capture(self) -> list[CapturedLaunch]:
        """Start recording launches instead of executing them.  Returns the
        capture buffer the plan lowerer consumes.  Nested captures are a
        programming error."""
        if self._capture is not None:
            raise InvalidLaunchError("nested plan capture")
        self._capture = []
        return self._capture

    def _end_capture(self) -> list[CapturedLaunch]:
        """Stop capturing; returns the recorded launch sequence."""
        if self._capture is None:
            raise InvalidLaunchError("no plan capture active")
        buf, self._capture = self._capture, None
        return buf

    # ------------------------------------------------------------------
    # transfers (called by DeviceArray; accounted here)
    # ------------------------------------------------------------------

    def _record_transfer(self, direction: str, nbytes: int) -> float:
        if self._capture is not None:
            raise InvalidLaunchError(
                "host transfer inside a plan capture: captured kernel bodies "
                "have not executed yet, so a transfer here would read or "
                "write stale device data — end the plan section first"
            )
        if direction == "dtod":
            seconds = self.model.dtod_time(nbytes)
            self.stats.dtod_bytes += nbytes
        else:
            seconds = self.model.transfer_time(nbytes)
            if direction == "htod":
                self.stats.htod_bytes += nbytes
            else:
                self.stats.dtoh_bytes += nbytes
        self.stats.transfer_seconds += seconds
        self.clock += seconds
        _metrics.record_transfer(direction, nbytes, seconds)
        if self.timeline is not None:
            self.timeline.append(
                TimelineEvent(
                    direction, "transfer", seconds, nbytes=nbytes,
                    start=self.clock - seconds,
                )
            )
        return seconds

    # ------------------------------------------------------------------
    # clock and sections
    # ------------------------------------------------------------------

    def synchronize(self) -> float:
        """``cudaDeviceSynchronize``; returns the current device time."""
        return self.clock

    def timed_section(self, name: str) -> "TimedSection":
        """Accumulate the device time spent inside the block under ``name``.

        Used by the solver to attribute kernel time to algorithm phases
        (pricing / ftran / ratio-test / update) for the breakdown figure.
        The time is accumulated even when the block raises.
        """
        return TimedSection(self, name)

    def reset_stats(self) -> None:
        """Zero the statistics, the clock and any recorded timeline;
        allocations stay live."""
        self.stats.reset()
        self.clock = 0.0
        if self.timeline is not None:
            self.timeline = []

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Device {self.params.name!r} clock={self.clock:.6f}s "
            f"mem={self.stats.bytes_in_use}/{self.params.global_mem_bytes}B>"
        )
