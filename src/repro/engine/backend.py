"""The narrow interface a simplex method implements to run on the engine.

The engine owns the *lifecycle* — the phase-1/phase-2 driver, status
mapping, the phase-1 feasibility verdict, result assembly and observer
wiring (:func:`repro.engine.lifecycle.run_solve`).  A backend owns the
*method*: how state is prepared, how a phase's iteration loop prices,
ratio-tests and pivots, and how the optimal solution is read back.  The
split keeps the seven methods' numerics byte-for-byte intact (their inner
loops differ structurally: eta files vs Gauss–Jordan tableaus, one- vs
three-way ratio tests, primal vs dual pivoting) while the surrounding
boilerplate that used to be cloned per solver lives exactly once.

Lifecycle call order (see :func:`~repro.engine.lifecycle.run_solve`)::

    begin(problem, warm_hint)        # build state; may short-circuit
    run_phase(1)                     # iff self.needs_phase1
    phase1_objective()               #   on phase-1 optimality
    drive_out_artificials()          #   when feasible
    run_phase(2)
    timing(wall) / standard_extras / extract / finalize_timing
    cleanup()                        # always (finally)

Every method runs on one of two modeled clocks, and the clock's half of
the lifecycle lives here once: :class:`HostBackend` reads a CPU cost
recorder, :class:`DeviceBackend` a simulated device.  Each supplies
``arm_clock`` (the hooks' clock and section sources) and ``timing``; the
device side also supplies the device/fusion ``standard_extras`` and the
post-download ``finalize_timing`` resync.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.result import SolveResult, TimingStats
from repro.status import SolveStatus

if TYPE_CHECKING:  # avoids the repro.simplex package-import cycle
    from repro.simplex.common import PreparedLP


class SolverBackend:
    """Base class for engine backends (one per solve method).

    Methods derive from :class:`HostBackend` or :class:`DeviceBackend`,
    which provide :meth:`timing` (and, on the device, the device extras and
    :meth:`finalize_timing`).  A method must still set the class attribute
    ``name`` and implement :meth:`begin`, :meth:`run_phase` and
    :meth:`extract`; phase-1 capable backends also implement
    :meth:`phase1_objective` and :meth:`drive_out_artificials`.  ``begin``
    must populate ``self.prep``, ``self.stats``, ``self.needs_phase1`` and
    ``self.phase1_feas_tol``, and call ``arm_clock`` once.
    """

    name: str = "?"

    #: Whether ``solve(..., initial_basis_hint=...)`` is honored.  The
    #: engine rejects a hint passed to a backend that does not opt in, so a
    #: direct caller cannot have one silently ignored.
    accepts_warm_start: bool = False

    # Populated by the lifecycle before begin() runs.
    hooks = None

    # Populated by begin().
    prep: "PreparedLP"
    stats = None
    needs_phase1: bool = False
    phase1_feas_tol: float = 0.0

    # -- public entry ----------------------------------------------------

    def solve(self, problem, initial_basis_hint: "np.ndarray | None" = None):
        """Run the full engine lifecycle for this method."""
        from repro.engine.lifecycle import run_solve

        return run_solve(self, problem, warm_hint=initial_basis_hint)

    # -- lifecycle interface ---------------------------------------------

    def begin(self, problem, warm_hint) -> "SolveResult | None":
        """Prepare all solver state up to the first phase iteration.

        Returning a finished :class:`SolveResult` short-circuits the
        lifecycle (the dual method's primal fallback); returning ``None``
        proceeds to the phase driver.
        """
        raise NotImplementedError

    def run_phase(self, phase: int) -> "tuple[SolveStatus, int]":
        """Run one phase's iteration loop; returns (status, iterations)."""
        raise NotImplementedError

    def phase1_objective(self) -> float:
        """The phase-1 objective at phase-1 optimality (Σ artificials)."""
        raise NotImplementedError

    def drive_out_artificials(self) -> None:
        """Pivot zero-valued basic artificials out before phase 2."""
        raise NotImplementedError

    def timing(self, wall_seconds: float) -> TimingStats:
        """Assemble the modeled-time accounting for the finished solve."""
        raise NotImplementedError

    def standard_extras(self, result: SolveResult) -> None:
        """Attach method-specific ``result.extra`` entries (optional).  An
        override on a :class:`DeviceBackend` calls
        ``super().standard_extras(result)`` to keep the device extras."""

    def extract(self, result: SolveResult) -> None:
        """Populate x / objective / residuals / basis on OPTIMAL."""
        raise NotImplementedError

    def finalize_timing(self, result: SolveResult) -> None:
        """Last-moment timing resync (GPU solution download; optional)."""

    def cleanup(self) -> None:
        """Release per-solve resources; runs on every exit path."""


class HostBackend(SolverBackend):
    """A method on the modeled CPU: its clock is ``self.recorder`` (a
    :class:`~repro.perfmodel.cpu_model.CpuCostRecorder`)."""

    def arm_clock(self, **meta) -> None:
        """Arm the observer hooks on the recorder's clock and sections.

        The hooks' callables close over the recorder, not over ``self``:
        the backend holds its hooks, so closing over ``self`` would make a
        reference cycle that keeps the solver's arrays alive until the
        cyclic garbage collector happens to run."""
        recorder = self.recorder
        self.hooks.arm(
            clock=lambda: recorder.total_seconds,
            sections=lambda: recorder.by_op,
            meta=meta,
        )

    def timing(self, wall_seconds: float) -> TimingStats:
        return TimingStats(
            modeled_seconds=self.recorder.total_seconds,
            wall_seconds=wall_seconds,
            kernel_breakdown=dict(self.recorder.by_op),
        )


class DeviceBackend(SolverBackend):
    """A method on the simulated GPU: its clock is ``self.dev`` (a
    :class:`~repro.gpu.device.Device`), its launches go through
    ``self.plan`` (a :class:`~repro.gpu.plan.LaunchPlan`)."""

    def arm_clock(self, **meta) -> None:
        """Arm the observer hooks on the device clock and sections."""
        dev = self.dev
        self.hooks.arm(
            clock=lambda: dev.clock,
            sections=lambda: dev.stats.sections,
            meta={**meta, "device": dev.params.name},
        )

    def timing(self, wall_seconds: float) -> TimingStats:
        stats = self.dev.stats
        breakdown = dict(stats.sections)
        breakdown["transfer"] = stats.transfer_seconds
        return TimingStats(
            modeled_seconds=self.dev.clock,
            wall_seconds=wall_seconds,
            transfer_seconds=stats.transfer_seconds,
            kernel_breakdown=breakdown,
        )

    def standard_extras(self, result: SolveResult) -> None:
        stats = self.dev.stats
        result.extra["device"] = self.dev.params.name
        result.extra["kernel_launches"] = stats.kernel_launches
        result.extra["kernel_bytes"] = sum(
            rec.bytes for rec in stats.by_kernel.values()
        )
        result.extra["by_kernel"] = stats.kernel_breakdown()
        result.extra["peak_device_bytes"] = stats.peak_bytes_in_use
        if self.options.fusion:
            result.extra["fused_launches"] = self.plan.fused_launches
            result.extra["fused_ops"] = self.plan.fused_ops
            result.extra["fusion_saved_seconds"] = self.plan.saved_seconds
        super().standard_extras(result)

    def finalize_timing(self, result: SolveResult) -> None:
        # the solution download in extract() advanced the clock; the
        # reported machine time must include it
        stats = self.dev.stats
        result.timing.modeled_seconds = self.dev.clock
        result.timing.transfer_seconds = stats.transfer_seconds
        result.timing.kernel_breakdown["transfer"] = stats.transfer_seconds


def attach_standard_solution(
    result: SolveResult, prep: "PreparedLP", basis: np.ndarray, beta: np.ndarray
) -> None:
    """The shared OPTIMAL extraction: solution, residuals, basis handles
    and the optimality certificate (used by every non-bounded backend)."""
    from repro.simplex.common import extract_solution

    x, objective, x_std = extract_solution(prep, basis, beta)
    result.x = x
    result.objective = objective
    result.residuals = SolveResult.compute_residuals(prep.std.a, prep.std.b, x_std)
    result.extra["basis"] = basis.copy()
    result.extra["x_std"] = x_std
    from repro.lp.postsolve import attach_certificate

    attach_certificate(result, prep)
