"""In-memory span tracing of the repro layers, from outside the program.

The traced run wraps the public entry points of each layer (module-level
functions and class methods) with timing wrappers, records one span per
call — name, start, end, parent, LP id — and restores every original on
exit.  Nothing under ``src/`` knows it is being traced.

A span's *self time* is its duration minus the time its children cover;
the program is single-threaded, so children never overlap and that cover
is their summed duration.  All spans opened inside one ``solve()`` call or
on behalf of one serve job carry that LP's id; spans the serve event loop
opens between jobs carry the replay's id.
"""

from __future__ import annotations

import array
import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from typing import Any, Callable

#: Backend modules, imported before patching so every ``SolverBackend``
#: subclass is visible (the engine registry imports them lazily).
BACKEND_MODULES = (
    "repro.simplex.tableau",
    "repro.simplex.revised_cpu",
    "repro.simplex.bounded",
    "repro.simplex.dual",
    "repro.simplex.revised_sparse",
    "repro.core.gpu_revised_simplex",
    "repro.core.gpu_tableau_simplex",
    "repro.core.gpu_bounded_simplex",
    "repro.core.gpu_sparse_simplex",
    "repro.firstorder.cpu",
    "repro.firstorder.gpu",
)

#: The engine backend methods timed as ``engine.<method>``.
ENGINE_METHODS = ("begin", "run_phase", "extract")

#: DeviceArray methods that move data across PCIe or within the device;
#: each records exactly one transfer on its device.
TRANSFER_METHODS = (
    "copy_from_host", "copy_to_host", "copy_from_device",
    "set_scalar", "scalar_to_host",
)


def kernel_label(name: str) -> str:
    """``blas.ger`` -> ``ger``; fused groups collapse to ``fused``."""
    if name.startswith("fused["):
        return "fused"
    return name.rsplit(".", 1)[-1]


class Tracer:
    """Span store plus the patches that feed it.

    Use as a context manager: entering installs the wrappers, leaving
    restores the originals.  Spans are kept in flat arrays (one row per
    span) so a pass with hundreds of thousands of launches stays small.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array.array("I")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.lp = array.array("i")
        self.lp_names: list[str] = []
        self._stack: list[int] = []
        self._lp = -1
        self._lp_of_problem: dict[int, int] = {}
        #: Exact counters gathered at the same boundaries.
        self.counts: Counter = Counter()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- span recording ------------------------------------------------

    def new_lp(self, label: str) -> int:
        self.lp_names.append(label)
        return len(self.lp_names) - 1

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.lp.append(self._lp)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so each call records a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def lp_root(self, label: str, fn: Callable) -> Callable:
        """``fn(problem, ...)`` wrapped as the root span of one LP: a
        fresh LP id, or the id of the serve job that submitted it."""

        @functools.wraps(fn)
        def traced(problem, *args, **kwargs):
            saved = self._lp
            lp = self._lp_of_problem.get(id(problem))
            self._lp = lp if lp is not None else self.new_lp(
                getattr(problem, "name", label)
            )
            idx = self._open(label)
            try:
                return fn(problem, *args, **kwargs)
            finally:
                self._close(idx)
                self._lp = saved

        return traced

    # -- patching ------------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, module: str, attr: str, make: Callable) -> None:
        """Replace ``module.attr`` everywhere it is bound by name: every
        loaded ``repro`` module holding the same function object gets
        the wrapper (``from x import f`` copies the binding)."""
        original = getattr(importlib.import_module(module), attr)
        wrapper = make(original)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, wrapper)

    def patch_method(self, cls: type, attr: str, make: Callable) -> None:
        """Replace a method defined on ``cls`` itself, keeping
        ``staticmethod``/``classmethod`` descriptors intact."""
        raw = inspect.getattr_static(cls, attr)
        if isinstance(raw, (staticmethod, classmethod)):
            self._set(cls, attr, type(raw)(make(raw.__func__)))
        else:
            self._set(cls, attr, make(raw))

    def restore(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def install(self) -> None:
        for mod in BACKEND_MODULES:
            importlib.import_module(mod)
        from repro.batch.scheduler import ConcurrentSchedule, LPTimeline
        from repro.engine.backend import SolverBackend
        from repro.gpu.device import Device
        from repro.gpu.memory import DeviceArray
        from repro.gpu.plan import LaunchPlan
        from repro.lp.problem import LPProblem
        from repro.metrics import instrument
        from repro.perfmodel.cpu_model import CpuCostModel
        from repro.perfmodel.gpu_model import GpuCostModel
        from repro.serve.cache import WarmStartCache
        from repro.serve.service import LPServer
        from repro.simplex.sparse_basis import SparseLUBasis

        span = self.span
        self.patch_function(
            "repro.solve", "solve", lambda f: self.lp_root("solve", f)
        )
        self.patch_function(
            "repro.lp.standard_form", "to_standard_form",
            lambda f: self._counted("lp.standard_form", span("lp.standard_form", f)),
        )
        self.patch_method(
            LPProblem, "fingerprint", lambda f: span("lp.fingerprint", f)
        )
        for cls in _subclasses(SolverBackend):
            for meth in ENGINE_METHODS:
                if meth in cls.__dict__:
                    self.patch_method(
                        cls, meth, lambda f, m=meth: span(f"engine.{m}", f)
                    )
        for meth in ("ftran", "btran", "refactorize", "update"):
            name = f"simplex.lu.{meth}"
            self.patch_method(
                SparseLUBasis, meth,
                lambda f, n=name: self._counted(n, span(n, f)),
            )
        self.patch_method(Device, "launch", self._launch_wrapper)
        self.patch_method(Device, "_record_transfer", self._transfer_counter)
        for meth in TRANSFER_METHODS:
            self.patch_method(
                DeviceArray, meth,
                lambda f: self._counted("gpu.transfer", span("gpu.transfer", f)),
            )
        self.patch_method(
            LaunchPlan, "section",
            lambda f: self._counted("gpu.plan.section", f),
        )
        self.patch_method(
            LaunchPlan, "_lower", lambda f: span("gpu.plan.section", f)
        )
        self.patch_method(
            GpuCostModel, "kernel_time",
            lambda f: self._counted(
                "perfmodel.kernel_time", span("perfmodel.kernel_time", f)
            ),
        )
        self.patch_method(
            CpuCostModel, "op_time",
            lambda f: self._counted(
                "perfmodel.op_time", span("perfmodel.op_time", f)
            ),
        )
        for name, fn in list(vars(instrument).items()):
            if (
                inspect.isfunction(fn)
                and fn.__module__ == instrument.__name__
                and not name.startswith("_")
            ):
                self.patch_function(
                    instrument.__name__, name,
                    lambda f: self._counted(
                        "metrics.instrument", span("metrics.instrument", f)
                    ),
                )
        self.patch_method(
            ConcurrentSchedule, "plan",
            lambda f: self._counted("batch.plan", span("batch.plan", f)),
        )
        self.patch_method(
            LPTimeline, "from_events", lambda f: span("batch.from_events", f)
        )
        self.patch_method(LPServer, "run", lambda f: self._serve_run(f))
        self.patch_method(LPServer, "submit", lambda f: self._serve_submit(f))
        for meth in ("get", "put"):
            self.patch_method(
                WarmStartCache, meth, lambda f: span("serve.cache", f)
            )

    # -- wrappers with bookkeeping ------------------------------------

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return counted

    def _launch_wrapper(self, launch: Callable) -> Callable:
        """``Device.launch``: a launch inside a plan capture only records
        the op, so it is plan work; an executing launch is ``gpu.launch``
        and its body is timed as ``gpu.body.<kernel>``."""
        counts = self.counts
        body_spans: dict[str, str] = {}

        @functools.wraps(launch)
        def traced(dev, name, body, cost, *args, **kwargs):
            label = body_spans.get(name)
            if label is None:
                label = body_spans[name] = "gpu.body." + kernel_label(name)
            body = self._timed_body(label, body)
            if dev._capture is not None:
                idx = self._open("gpu.plan.section")
            else:
                counts["gpu.launch.calls"] += 1
                counts["gpu.flops"] += cost.flops
                counts["gpu.bytes_moved"] += cost.bytes_total
                idx = self._open("gpu.launch")
            try:
                return launch(dev, name, body, cost, *args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def _timed_body(self, label: str, body: Callable) -> Callable:
        def timed() -> None:
            idx = self._open(label)
            try:
                body()
            finally:
                self._close(idx)

        return timed

    def _transfer_counter(self, record: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(record)
        def counted(dev, direction, nbytes):
            counts[f"gpu.{direction}_bytes"] += nbytes
            return record(dev, direction, nbytes)

        return counted

    def _serve_run(self, run: Callable) -> Callable:
        @functools.wraps(run)
        def traced(server):
            saved = self._lp
            self._lp = self.new_lp(f"serve-run-{len(self.lp_names)}")
            idx = self._open("serve.run")
            try:
                return run(server)
            finally:
                self._close(idx)
                self._lp = saved

        return traced

    def _serve_submit(self, submit: Callable) -> Callable:
        @functools.wraps(submit)
        def traced(server, problem, **kwargs):
            saved = self._lp
            self._lp = self.new_lp(getattr(problem, "name", "job"))
            self._lp_of_problem[id(problem)] = self._lp
            idx = self._open("serve.submit")
            try:
                return submit(server, problem, **kwargs)
            finally:
                self._close(idx)
                self._lp = saved

        return traced

    # -- analysis ------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span self time: duration minus the children's durations."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[idx] - self.start[idx]
        return own

    def self_by_name(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for nid, own in zip(self.name_id, self.self_times()):
            name = self.names[nid]
            totals[name] = totals.get(name, 0.0) + own
        return totals

    def root_seconds(self) -> float:
        """Wall time covered by top-level spans."""
        return sum(
            e - s for s, e, p in zip(self.start, self.end, self.parent) if p < 0
        )

    def write(self, path) -> None:
        """Write every span (columnar JSON, gzip) to ``path``."""
        doc = {
            "format": "perfbench-spans/v1",
            "names": self.names,
            "lp_names": self.lp_names,
            "name": self.name_id.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "lp": self.lp.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=3) as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _subclasses(cls: type) -> list[type]:
    out, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out
