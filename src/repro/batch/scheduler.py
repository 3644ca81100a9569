"""Batch schedules: how many LP solves share one simulated device.

The batch façade (:func:`repro.batch.solve_batch`) runs every LP of the
workload on **one shared** :class:`~repro.gpu.device.Device` with timeline
recording enabled, so after the functional solves it holds, per LP, the
exact sequence of kernel launches and PCIe transfers the solver issued
(:class:`~repro.gpu.device.TimelineEvent`).  The schedule then prices the
*aggregate* machine time of executing those per-LP event streams:

- :class:`SequentialSchedule` — LPs run back to back, one CUDA stream:
  the aggregate time is simply the sum of the per-LP device clocks.

- :class:`ConcurrentSchedule` — LPs are assigned round-robin to ``n_streams``
  streams and their launches interleave, the way the batched-LP literature
  overlaps many small simplex kernels that individually cannot fill the
  device (Gurung & Ray, arXiv:1802.08557 / arXiv:1609.08114).  The makespan
  is modeled as the *binding resource* of the interleaved execution — the
  maximum of four lower bounds, each a real hardware constraint:

  ========================= ==============================================
  bound                     constraint it models
  ========================= ==============================================
  ``copy-engine``           one PCIe copy engine: all HtoD/DtoH transfers
                            serialize, ``Σ transfer``
  ``compute-capacity``      the device has finite throughput: kernels
                            co-run only up to full occupancy,
                            ``Σ kernel·utilization / capacity``
  ``stream-critical-path``  events of one stream are dependency-ordered:
                            ``max over streams of Σ stream events``
  ``launch-serialization``  the host issues launches serially,
                            ``launches · launch_overhead``
  ========================= ==============================================

  ``utilization`` of a kernel is the fraction of the device's resident
  thread capacity its logical work size occupies (floored at the model's
  ``min_fill``): two kernels at 2% occupancy overlap almost perfectly, two
  at 100% do not overlap at all, which is exactly why batching pays off for
  small LPs and fades for large ones.  Copy/compute overlap (GT200's async
  engine) is on by default; without it the copy-engine time adds to the
  compute makespan instead of hiding under it, and the reported bounds
  switch to the serialized composition (``stream-device-path`` — each
  stream's compute-only critical path — replaces ``stream-critical-path``).

Concurrent *kernel* execution across streams is a Fermi-and-later ability
(on GT200 the same overlap is achieved by fusing the per-LP kernels into one
batched launch, as the cited papers do); the schedule is therefore labeled
*reconstructed* in EXPERIMENTS.md, like the other beyond-paper experiments.

``ConcurrentSchedule(batch_gemv=True)`` additionally models that fused
batched launch for the GEMV/SpMV kernels every iteration issues
(:data:`BATCHABLE_KERNELS`): each dispatch round merges one pending
matrix-vector launch from every stream into a single launch, which removes
host launch overhead (the launch-serialization bound) without changing any
LP's compute or memory traffic.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.errors import SolverError
from repro.gpu.device import TimelineEvent
from repro.perfmodel.gpu_model import GpuModelParams

#: Event kinds that occupy the PCIe copy engine; everything else runs on
#: the device itself (kernels and device-to-device copies).
_COPY_KINDS = frozenset({"htod", "dtoh"})

#: Kernel names eligible for cross-LP batching: the dense/sparse
#: matrix-vector products every simplex pricing step and every PDHG
#: iteration issues.  When several streams each have one of these queued in
#: a dispatch window, the host can issue them as a *single* batched-GEMV
#: launch (one grid, one launch overhead) — the trick the batched-LP papers
#: use on pre-Fermi hardware where streams cannot co-run kernels.  The
#: per-LP compute and memory traffic is unchanged; only the launch
#: serialization on the host shrinks.
BATCHABLE_KERNELS = frozenset(
    {"blas.gemv", "blas.gemv_t", "sparse.spmv_csr", "sparse.spmv_csc_t"}
)


@dataclasses.dataclass(frozen=True)
class LPTimeline:
    """The machine-time footprint of one LP solve, ready for scheduling.

    ``busy_seconds`` is the utilization-weighted device time — the device-
    seconds of throughput the solve actually consumes, as opposed to
    ``device_seconds``, the time it *occupies* the device when running alone.
    """

    index: int
    kernel_launches: int
    transfer_seconds: float
    device_seconds: float
    busy_seconds: float
    total_seconds: float
    #: How many of ``kernel_launches`` are standalone GEMV/SpMV launches
    #: (:data:`BATCHABLE_KERNELS`) that a concurrent schedule may merge
    #: across LPs into one batched launch per dispatch round.
    batchable_launches: int = 0

    @staticmethod
    def from_events(
        index: int,
        events: Sequence[TimelineEvent],
        params: GpuModelParams,
    ) -> "LPTimeline":
        """Collapse one solve's device timeline into scheduling totals."""
        launches = 0
        batchable = 0
        transfer = 0.0
        device = 0.0
        busy = 0.0
        capacity = float(params.concurrent_threads)
        # Unpacked by position (a field read on the named tuple costs more
        # than unpacking it): kind, name, seconds, threads, nbytes, start.
        for kind, name, seconds, threads, _, _ in events:
            if kind in _COPY_KINDS:
                transfer += seconds
            else:
                device += seconds
                if kind == "kernel":
                    launches += 1
                    if name in BATCHABLE_KERNELS:
                        batchable += 1
                    util = max(
                        params.min_fill,
                        min(1.0, max(threads, 1) / capacity),
                    )
                else:  # dtod copies saturate the memory system
                    util = 1.0
                busy += seconds * util
        return LPTimeline(
            index=index,
            kernel_launches=launches,
            transfer_seconds=transfer,
            device_seconds=device,
            busy_seconds=busy,
            total_seconds=transfer + device,
            batchable_launches=batchable,
        )

    @staticmethod
    def from_modeled_seconds(index: int, seconds: float) -> "LPTimeline":
        """A single-block timeline for solvers without a device timeline
        (the CPU baselines): one fully-utilizing unit of work."""
        return LPTimeline(
            index=index,
            kernel_launches=0,
            transfer_seconds=0.0,
            device_seconds=seconds,
            busy_seconds=seconds,
            total_seconds=seconds,
        )


@dataclasses.dataclass(frozen=True)
class ScheduleOutcome:
    """Aggregate machine time of one scheduled batch."""

    schedule: str
    makespan_seconds: float
    sequential_seconds: float
    transfer_seconds: float
    n_streams: int
    #: Name of the resource whose lower bound the makespan equals.
    binding_resource: str
    #: Every modeled bound, for reporting (name -> seconds).
    bounds: dict[str, float] = dataclasses.field(default_factory=dict)
    #: Launches eliminated by cross-LP GEMV batching (0 unless the
    #: schedule ran with ``batch_gemv=True`` on a GPU batch).
    batched_launches_saved: int = 0
    #: Host launch-overhead seconds those merges removed from the
    #: launch-serialization bound.
    batching_saved_seconds: float = 0.0

    @property
    def speedup_vs_sequential(self) -> float:
        if self.makespan_seconds <= 0.0:
            return 1.0
        return self.sequential_seconds / self.makespan_seconds


class SequentialSchedule:
    """Back-to-back execution on one stream (the baseline schedule)."""

    name = "sequential"

    def plan(
        self,
        timelines: Sequence[LPTimeline],
        params: GpuModelParams | None = None,
    ) -> ScheduleOutcome:
        total = sum(tl.total_seconds for tl in timelines)
        transfer = sum(tl.transfer_seconds for tl in timelines)
        return ScheduleOutcome(
            schedule=self.name,
            makespan_seconds=total,
            sequential_seconds=total,
            transfer_seconds=transfer,
            n_streams=1,
            binding_resource="stream-critical-path",
            bounds={"stream-critical-path": total},
        )


class ConcurrentSchedule:
    """Stream-interleaved execution of the per-LP kernel launch streams.

    Parameters
    ----------
    n_streams:
        Streams (GPU) or workers (CPU baselines) to spread the batch over;
        ``None`` picks ``min(len(batch), DEFAULT_STREAMS)``.
    copy_compute_overlap:
        Whether PCIe transfers hide under kernel execution (async copy
        engine).  On for the modeled GT200-class devices.
    batch_gemv:
        Merge the streams' standalone GEMV/SpMV launches
        (:data:`BATCHABLE_KERNELS`) into one batched launch per dispatch
        round.  Each round retires at most one batchable launch from every
        stream, so the rounds needed equal the *largest* per-stream
        batchable count; the difference to the total batchable count is
        launches the host never issues, shrinking the launch-serialization
        bound.  Compute and memory traffic are per-LP and unchanged.
    """

    name = "concurrent"

    DEFAULT_STREAMS = 8

    def __init__(
        self,
        n_streams: int | None = None,
        copy_compute_overlap: bool = True,
        batch_gemv: bool = False,
    ):
        if n_streams is not None and n_streams < 1:
            raise SolverError("n_streams must be >= 1")
        self.n_streams = n_streams
        self.copy_compute_overlap = copy_compute_overlap
        self.batch_gemv = batch_gemv

    def plan(
        self,
        timelines: Sequence[LPTimeline],
        params: GpuModelParams | None = None,
    ) -> ScheduleOutcome:
        """Price the interleaved execution of ``timelines``.

        ``params`` carries the device model for GPU batches (launch
        overhead; kernel utilizations are already fractions of the whole
        device).  ``params=None`` means a CPU multicore batch: timelines
        are fully-utilizing blocks and the compute capacity is the worker
        count, i.e. the stream count.
        """
        streams = self.n_streams or min(len(timelines), self.DEFAULT_STREAMS)
        streams = max(1, min(streams, len(timelines)))

        stream_path = [0.0] * streams
        stream_device = [0.0] * streams
        stream_batchable = [0] * streams
        for tl in timelines:  # round-robin assignment, launch order = index
            stream_path[tl.index % streams] += tl.total_seconds
            stream_device[tl.index % streams] += tl.device_seconds
            stream_batchable[tl.index % streams] += tl.batchable_launches

        transfer = sum(tl.transfer_seconds for tl in timelines)
        sequential = sum(tl.total_seconds for tl in timelines)
        capacity = 1.0 if params is not None else float(streams)
        busy = sum(tl.busy_seconds for tl in timelines) / capacity
        launch_overhead = params.launch_overhead if params is not None else 0.0
        launches = sum(tl.kernel_launches for tl in timelines)

        # Cross-LP GEMV batching: per dispatch round the host merges one
        # batchable launch from each stream into a single batched launch,
        # so the rounds needed equal the busiest stream's batchable count
        # and every launch beyond that is one the host never issues.
        batching_saved = 0
        if self.batch_gemv and params is not None and streams > 1:
            total_batchable = sum(stream_batchable)
            rounds = max(stream_batchable)
            batching_saved = total_batchable - rounds
        launches -= batching_saved
        batching_saved_seconds = batching_saved * launch_overhead

        if self.copy_compute_overlap:
            bounds = {
                "copy-engine": transfer,
                "compute-capacity": busy,
                "stream-critical-path": max(stream_path),
                "launch-serialization": launches * launch_overhead,
            }
            makespan = max(bounds.values())
        else:
            # Serialized composition: with no async copy engine, every PCIe
            # transfer adds to the compute makespan instead of hiding under
            # it, and a stream's critical path through the *device* excludes
            # its transfers (those all queue on the one copy engine).  The
            # reported bounds are exactly the terms composed here — not the
            # overlap-mode bounds, whose stream-critical-path (transfer +
            # compute per stream) never enters this makespan.
            bounds = {
                "copy-engine": transfer,
                "compute-capacity": busy,
                "stream-device-path": max(stream_device),
                "launch-serialization": launches * launch_overhead,
            }
            makespan = transfer + max(
                bounds["compute-capacity"],
                bounds["stream-device-path"],
                bounds["launch-serialization"],
            )
        # Ties are broken by declaration order of the bounds dict (copy
        # engine first), so binding_resource is deterministic for equal
        # bounds — max() returns the first maximal key.
        binding = max(bounds, key=lambda k: bounds[k])
        return ScheduleOutcome(
            schedule=self.name,
            makespan_seconds=makespan,
            sequential_seconds=sequential,
            transfer_seconds=transfer,
            n_streams=streams,
            binding_resource=binding,
            bounds=bounds,
            batched_launches_saved=batching_saved,
            batching_saved_seconds=batching_saved_seconds,
        )


def make_schedule(
    name: str,
    n_streams: int | None = None,
    copy_compute_overlap: bool = True,
    batch_gemv: bool = False,
) -> "SequentialSchedule | ConcurrentSchedule":
    """Instantiate a schedule by option name (``solve_batch``'s ``schedule``)."""
    if name == "sequential":
        return SequentialSchedule()
    if name == "concurrent":
        return ConcurrentSchedule(
            n_streams=n_streams,
            copy_compute_overlap=copy_compute_overlap,
            batch_gemv=batch_gemv,
        )
    raise SolverError(
        f"unknown schedule {name!r}; available: ['concurrent', 'sequential']"
    )
