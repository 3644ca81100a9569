"""Kernel-timeline profiler for the simulated device.

Wraps a :class:`~repro.gpu.device.Device` and records every kernel launch
and transfer as a timeline event (name, start, duration on the simulated
clock).  The result renders as an ASCII profile or exports to the Chrome
trace-event JSON format (`chrome://tracing` / Perfetto), mirroring how a
CUDA developer would inspect the solver with nvprof.

Usage::

    dev = Device()
    with profile(dev) as prof:
        solver = GpuRevisedSimplex(options, device=dev)
        solver.solve(lp)
    print(prof.summary())
    prof.to_chrome_trace("/tmp/solve.json")
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
from pathlib import Path
from typing import Iterator

from repro.gpu.device import Device
from repro.perfmodel.ops import OpCost


@dataclasses.dataclass(frozen=True)
class TimelineEvent:
    """One kernel launch or transfer on the device timeline."""

    name: str
    start: float  # device clock at launch, seconds
    duration: float
    kind: str  # 'kernel' | 'transfer'
    flops: float = 0.0
    bytes: float = 0.0

    @property
    def end(self) -> float:
        return self.start + self.duration


class Profile:
    """Recorded timeline plus report helpers."""

    def __init__(self) -> None:
        self.events: list[TimelineEvent] = []

    # -- recording (called by the instrumented device) ----------------------

    def _record(self, event: TimelineEvent) -> None:
        self.events.append(event)

    # -- queries -------------------------------------------------------------

    @property
    def total_time(self) -> float:
        """Busy device time: the union of event intervals.

        Events from concurrent streams overlap on the clock, so summing
        durations would count the overlapped spans twice.
        """
        intervals = sorted((e.start, e.end) for e in self.events)
        busy = 0.0
        cur_start = cur_end = None
        for start, end in intervals:
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    busy += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            busy += cur_end - cur_start
        return busy

    def by_name(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for e in self.events:
            out[e.name] = out.get(e.name, 0.0) + e.duration
        return out

    def kernels(self) -> list[TimelineEvent]:
        return [e for e in self.events if e.kind == "kernel"]

    def transfers(self) -> list[TimelineEvent]:
        return [e for e in self.events if e.kind == "transfer"]

    def gaps(self) -> float:
        """Idle device time between consecutive events (host think time —
        zero here since the simulated device serialises, but kept for API
        fidelity with real profilers)."""
        total_span = self.events[-1].end - self.events[0].start if self.events else 0.0
        return max(0.0, total_span - self.total_time)

    # -- reports -----------------------------------------------------------

    def summary(self, top: int = 12) -> str:
        lines = [
            f"profile: {len(self.events)} events, "
            f"{self.total_time * 1e3:.3f} ms device time "
            f"({len(self.kernels())} kernels, {len(self.transfers())} transfers)"
        ]
        totals = sorted(self.by_name().items(), key=lambda kv: -kv[1])
        width = max((len(n) for n, _ in totals[:top]), default=4)
        for name, seconds in totals[:top]:
            pct = 100.0 * seconds / self.total_time if self.total_time else 0.0
            bar = "#" * int(round(pct / 2))
            lines.append(f"  {name:<{width}} {seconds * 1e3:9.3f} ms {pct:5.1f}% {bar}")
        return "\n".join(lines)

    def to_chrome_trace(self, target: "str | Path | None" = None) -> str:
        """Serialise to the Chrome trace-event JSON format (microseconds)."""
        events = [
            {
                "name": e.name,
                "ph": "X",
                "ts": e.start * 1e6,
                "dur": e.duration * 1e6,
                "pid": 0,
                "tid": 0 if e.kind == "kernel" else 1,
                "cat": e.kind,
                "args": {"flops": e.flops, "bytes": e.bytes},
            }
            for e in self.events
        ]
        text = json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})
        if target is not None:
            Path(target).write_text(text)
        return text


@contextlib.contextmanager
def profile(device: Device) -> Iterator[Profile]:
    """Instrument a device for the duration of the block.

    Wraps ``Device.launch`` and the transfer recorder; restores the
    originals on exit, so profiling has no lasting effect on the device.
    """
    prof = Profile()
    original_launch = device.launch
    original_transfer = device._record_transfer
    original_memset = device.memset

    def launch(name: str, body, cost: OpCost, **kwargs):
        # Forward keywords verbatim: re-packing a fixed subset here silently
        # dropped any keyword added to Device.launch after this wrapper was
        # written, making profiled and unprofiled runs diverge.
        start = device.clock
        result = original_launch(name, body, cost, **kwargs)
        # Inside a plan capture the launch is only recorded; it executes
        # (fused or alone) when the section is lowered, through this
        # wrapper again, and is profiled then.
        if device._capture is None:
            prof._record(
                TimelineEvent(
                    name=name, start=start, duration=device.clock - start,
                    kind="kernel", flops=cost.flops, bytes=cost.bytes_total,
                )
            )
        return result

    def record_transfer(direction: str, nbytes: int) -> float:
        start = device.clock
        seconds = original_transfer(direction, nbytes)
        prof._record(
            TimelineEvent(
                name=f"memcpy.{direction}", start=start,
                duration=device.clock - start, kind="transfer", bytes=nbytes,
            )
        )
        return seconds

    def memset(arr, value: int) -> None:
        start = device.clock
        original_memset(arr, value)
        prof._record(
            TimelineEvent(
                name="memset", start=start, duration=device.clock - start,
                kind="kernel", bytes=arr.nbytes,
            )
        )

    device.launch = launch  # type: ignore[method-assign]
    device._record_transfer = record_transfer  # type: ignore[method-assign]
    device.memset = memset  # type: ignore[method-assign]
    try:
        yield prof
    finally:
        device.launch = original_launch  # type: ignore[method-assign]
        device._record_transfer = original_transfer  # type: ignore[method-assign]
        device.memset = original_memset  # type: ignore[method-assign]
