"""Launch plans: capture → fuse → lower, the CUDA-graph-style seam.

Solver backends describe each iteration's device work as *plan sections*
(pricing, ratio.map, update, …).  Inside a section the backend issues its
ordinary :mod:`repro.gpu.blas` / kernel calls; the section decides how they
reach the device:

- **fusion off** (the default): every call passes straight through to
  :meth:`Device.launch` — execution, costs and statistics are exactly the
  legacy op-by-op behaviour, which is what keeps the golden fixture
  bit-identical.
- **fusion on**: the device records the launches instead of executing them
  (:meth:`Device._begin_capture`), and on section exit the planner lowers
  the captured sequence — runs of ``fusable`` map kernels collapse into one
  launch whose cost is :meth:`OpCost.fuse` of the parts (one launch
  overhead; operands a later op re-reads are fetched once), while
  non-fusable ops launch singly with their original name and cost.

Two structural rules make fusion *safe* rather than merely plausible:

1. A group holds at most one non-fusable op (GEMV, GER, SpMV).  Fusable
   elementwise *producers* may precede it when it reads a buffer they
   touched ("prologue fusion" — the copy→gemv(β=1) and extract_col→gemv
   idioms), and fusable *consumers* may follow it when the first of them
   reads a buffer the group touched ("epilogue fusion" — the SpMV→PDHG-
   update idiom and the classic fused pricing kernel
   copy→gemvᵀ→mask→reduce).  Ops are never reordered: fused launches run
   the captured bodies in capture order, making fp64 results bit-identical
   by construction.
2. A section holds at most **one** terminal reduction
   (:meth:`_PlanSection.argmin` / :meth:`_PlanSection.first_index_below`),
   and it ends the capture: its first tree pass is recorded as a fusable op
   (the classic map+reduce fusion), the captured sequence is lowered and
   executed, then the remaining tree passes and the scalar DtoH are charged
   exactly as :mod:`repro.gpu.reduce` charges them.

Host transfers raise inside a capture (the bodies have not executed yet),
so ``scalar_to_host``/``set_scalar`` calls belong *outside* sections — the
reason the backends' ratio test splits into a ``ratio.map`` and a
``ratio.tie`` section around its host-side comparisons.

:func:`emit` is the blessed pass-through for backend-owned custom kernels
(sparse LU solves, PDHG updates): backends never call ``Device.launch``
directly (the architecture lint enforces it), so every launch is visible to
the planner.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from repro.errors import InvalidLaunchError, SolverError
from repro.gpu import reduce as gpured
from repro.gpu.device import CapturedLaunch, Device
from repro.gpu.kernel import DEFAULT_BLOCK
from repro.gpu.memory import DeviceArray
from repro.metrics import instrument as _metrics
from repro.perfmodel.ops import OpCost


# ---------------------------------------------------------------------------
# precision policy
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class PrecisionPolicy:
    """The device arithmetic a solve runs in, derived from its options.

    ``compute_dtype`` is the dtype of every device buffer and kernel;
    ``refine`` asks the backend to run fp64 iterative-refinement residual
    correction on the extracted solution (the classic mixed-precision
    scheme: fp32 speed, fp64-grade answers).
    """

    compute_dtype: np.dtype
    refine: bool = False

    @classmethod
    def from_options(cls, options) -> "PrecisionPolicy":
        """Resolve ``options.precision`` / ``options.dtype`` into a policy."""
        precision = getattr(options, "precision", None)
        if precision is None:
            return cls(np.dtype(options.dtype), refine=False)
        if precision == "fp32":
            return cls(np.dtype(np.float32), refine=False)
        if precision == "fp64":
            return cls(np.dtype(np.float64), refine=False)
        if precision == "mixed":
            return cls(np.dtype(np.float32), refine=True)
        raise SolverError(f"unknown precision policy {precision!r}")


# ---------------------------------------------------------------------------
# the blessed pass-through for backend custom kernels
# ---------------------------------------------------------------------------


def emit(
    dev: Device,
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
    """Issue one backend-owned kernel through the plan layer.

    Identical to :meth:`Device.launch` — inside a capturing section the
    launch is recorded for fusion, outside it executes immediately.  Solver
    backends use this (or :mod:`repro.gpu.blas`) for every launch; the
    architecture lint forbids them from calling ``Device.launch`` directly.
    """
    dev.launch(
        name, body, cost, dtype=dtype, block=block,
        fusable=fusable, reads=reads, writes=writes,
    )


# ---------------------------------------------------------------------------
# lowering: group captured launches into fused launches
# ---------------------------------------------------------------------------


def _short(name: str) -> str:
    """``blas.copy`` -> ``copy``; ``kernel.mask_min`` -> ``mask_min``."""
    return name.rsplit(".", 1)[-1]


def _group_captured(captured: list[CapturedLaunch]) -> list[list[CapturedLaunch]]:
    """Partition a captured sequence into launch groups, in order.

    Consecutive ``fusable`` ops of the same dtype and block chain into one
    group.  A non-fusable op appears at most once per group: it joins a
    fusable run when it reads a buffer the run touched (prologue fusion),
    and fusable consumers keep extending the group afterwards when the
    first of them reads a touched buffer (epilogue fusion) — the heavy
    op's grid carries the elementwise producers and consumers around it.
    Everything else launches alone.
    """
    groups: list[list[CapturedLaunch]] = []
    cur: list[CapturedLaunch] = []
    touched: set[int] = set()
    has_heavy = False  # a non-fusable member is present anywhere
    heavy_is_last = False  # ... and is the newest member

    def flush() -> None:
        nonlocal cur, touched, has_heavy, heavy_is_last
        if cur:
            groups.append(cur)
        cur, touched, has_heavy, heavy_is_last = [], set(), False, False

    for op in captured:
        if cur and (op.dtype != cur[0].dtype or op.block != cur[0].block):
            flush()
        if op.fusable:
            if heavy_is_last and not (touched & set(op.reads)):
                flush()  # the heavy op's output is not consumed
            cur.append(op)
            touched |= set(op.reads) | set(op.writes)
            heavy_is_last = False
        elif cur and not has_heavy and touched & set(op.reads):
            cur.append(op)  # prologue fusion: consumes the group's output
            touched |= set(op.reads) | set(op.writes)
            has_heavy = heavy_is_last = True
        else:
            flush()
            cur = [op]  # tentative epilogue opener
            touched = set(op.reads) | set(op.writes)
            has_heavy = heavy_is_last = True
    flush()
    return groups


def _shared_read_bytes(group: list[CapturedLaunch]) -> float:
    """Read traffic the fused kernel keeps in registers/shared memory:
    bytes of operands a later op reads that an earlier op already read or
    wrote (fetched once instead of per-op)."""
    resident: set[int] = set()
    shared = 0
    for op in group:
        for token in op.reads:
            if token in resident:
                shared += op.operand_bytes.get(token, 0)
        resident |= set(op.reads) | set(op.writes)
    return float(shared)


class LaunchPlan:
    """Per-solve launch planner bound to one :class:`Device`.

    Parameters
    ----------
    device:
        The device every section's launches target.
    fusion:
        Off → sections are pure pass-throughs (legacy behaviour, to the
        bit).  On → sections capture and lower with fusion.
    hooks:
        Optional engine hooks object (``repro.engine.hooks``); when given,
        the first fused lowering of each section name emits a
        ``plan.lower`` span with the op → launch compression.
    """

    def __init__(self, device: Device, *, fusion: bool = False, hooks=None):
        self.device = device
        self.fusion = bool(fusion)
        self._hooks = hooks
        self._reported: set[str] = set()
        #: Cumulative fusion statistics of this plan (one solve, typically).
        self.fused_launches = 0
        self.fused_ops = 0
        self.saved_seconds = 0.0

    def section(
        self, name: str, *, timed: "str | None" = None
    ) -> "_PlanSection":
        """One named stretch of device work lowered as a unit; use as
        ``with plan.section(name) as sec``.

        ``timed`` attributes the fused lowering to a
        :meth:`Device.timed_section` bucket — for sections that span
        several timed blocks (the PDHG spmv→update pair), where the
        replay would otherwise run outside every bucket.  Sections opened
        *inside* a timed block don't need it.
        """
        return _PlanSection(self, name, timed=timed)

    # -- lowering ----------------------------------------------------------

    def _lower(
        self,
        name: str,
        captured: list[CapturedLaunch],
        timed: "str | None" = None,
    ) -> None:
        """Replay a captured sequence as (possibly fused) real launches."""
        if not captured:
            return
        if timed is not None:
            with self.device.timed_section(timed):
                self._lower(name, captured)
            return
        groups = _group_captured(captured)
        for group in groups:
            if len(group) == 1:
                op = group[0]
                self.device.launch(
                    op.name, op.body, op.cost, dtype=op.dtype, block=op.block
                )
                continue
            label = "fused[" + "+".join(_short(op.name) for op in group) + "]"
            cost = OpCost.fuse(
                *(op.cost for op in group),
                shared_read_bytes=_shared_read_bytes(group),
            )
            bodies = [op.body for op in group]

            def run(bodies=bodies) -> None:
                for body in bodies:
                    body()

            self.device.launch(
                label, run, cost, dtype=group[0].dtype, block=group[0].block
            )
            saved = (len(group) - 1) * self.device.params.launch_overhead
            self.fused_launches += 1
            self.fused_ops += len(group)
            self.saved_seconds += saved
            _metrics.record_fused_launch(len(group), saved)
        if self._hooks is not None and name not in self._reported:
            self._reported.add(name)
            with self._hooks.span(
                "plan.lower", section=name,
                ops=len(captured), launches=len(groups),
            ):
                pass


class _PlanSection:
    """Handle the backend sees inside ``with plan.section(...) as sec``.

    Carries the section's terminal reductions.  With fusion off they call
    :mod:`repro.gpu.reduce` directly; with fusion on they record the first
    tree pass as a fusable op (so it fuses with the preceding map kernel),
    end the capture, lower + execute, and charge the remaining passes and
    the scalar DtoH exactly as the unfused reduction does.
    """

    __slots__ = ("plan", "name", "timed")

    def __init__(
        self, plan: LaunchPlan, name: str, *, timed: "str | None" = None
    ):
        self.plan = plan
        self.name = name
        self.timed = timed

    # With fusion off a section is a pass-through: entering and leaving it
    # touch nothing.  With fusion on, entering starts the device capture
    # and a normal exit lowers whatever the terminal reduction (if any)
    # left captured; an exception discards the capture.

    def __enter__(self) -> "_PlanSection":
        if self.plan.fusion:
            self.plan.device._begin_capture()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        plan = self.plan
        if not plan.fusion or plan.device._capture is None:
            return
        captured = plan.device._end_capture()
        if exc_type is None:
            plan._lower(self.name, captured, timed=self.timed)

    def _finish_reduction(
        self, x: DeviceArray, name: str, *, pair: bool
    ) -> None:
        """Shared fusion-mode tail: record the synthetic first pass, lower
        the section, then charge the follow-up passes."""
        dev = self.plan.device
        w = x.dtype.itemsize
        if dev._capture is None:
            raise InvalidLaunchError(
                f"second terminal reduction in plan section {self.name!r}; "
                "sections hold at most one (split the section)"
            )
        dev.launch(
            name,
            lambda: None,
            gpured.first_pass_cost(x.size, w, pair=pair),
            dtype=x.dtype,
            fusable=True,
            reads=(x,),
        )
        self.plan._lower(self.name, dev._end_capture(), timed=self.timed)
        gpured._charge_tree(
            dev, name, x.size, w, x.dtype, pair=pair, skip_first=True
        )

    def argmin(self, x: DeviceArray) -> tuple[int, float]:
        """(index, value) of the minimum element — see
        :func:`repro.gpu.reduce.argmin`."""
        if not self.plan.fusion:
            return gpured.argmin(x)
        self._finish_reduction(x, "reduce.argmin", pair=True)
        idx, val = gpured.argmin_host(x)
        self.plan.device._record_transfer("dtoh", 2 * x.dtype.itemsize)
        return idx, val

    def first_index_below(self, x: DeviceArray, threshold: float) -> int:
        """Bland's min-index reduction — see
        :func:`repro.gpu.reduce.first_index_below`."""
        if not self.plan.fusion:
            return gpured.first_index_below(x, threshold)
        self._finish_reduction(x, "reduce.first_below", pair=False)
        idx = gpured.first_below_host(x, threshold)
        self.plan.device._record_transfer("dtoh", 4)
        return idx
