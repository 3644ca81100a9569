"""Dense two-phase full-tableau simplex on the CPU.

The textbook method the thesis literature ports first: the whole updated
tableau ``T = B⁻¹A`` is kept and transformed by Gauss–Jordan elimination
around each pivot — O(m·n) work per iteration regardless of sparsity, which
is exactly the inefficiency the revised method (and the paper) avoids.  It
serves as (a) an independent correctness oracle, (b) the host of the exact
steepest-edge / Devex pricing rules (they need updated columns), and (c) the
CPU side of the A3 tableau-vs-revised ablation.

Runs as a :class:`~repro.engine.backend.SolverBackend` on the shared
:mod:`repro.engine` lifecycle.
"""

from __future__ import annotations

import numpy as np

from repro.engine import HostBackend, attach_standard_solution, rule_label
from repro.gpu.blas import rank1_update
from repro.lp.problem import LPProblem
from repro.lp.standard_form import StandardFormLP
from repro.perfmodel.cpu_model import CpuCostModel, CpuCostRecorder
from repro.perfmodel.ops import OpCost
from repro.perfmodel.presets import CORE2_CPU_PARAMS, CpuModelParams
from repro.result import IterationStats, SolveResult
from repro.simplex.common import (
    PHASE1_TOL,
    PreparedLP,
    initial_basis,
    prepare,
)
from repro.simplex.options import SolverOptions
from repro.simplex.pricing import (
    DevexRule,
    HybridRule,
    SteepestEdgeRule,
    make_pricing_rule,
)
from repro.simplex.ratio import run_ratio_test
from repro.status import SolveStatus


class TableauSimplexSolver(HostBackend):
    """CPU dense full-tableau simplex."""

    name = "tableau-cpu"

    def __init__(
        self,
        options: SolverOptions | None = None,
        cpu_params: CpuModelParams = CORE2_CPU_PARAMS,
    ):
        self.options = options or SolverOptions()
        self.recorder = CpuCostRecorder(
            CpuCostModel(cpu_params), dtype=self.options.dtype
        )

    # -- engine backend interface --------------------------------------

    def begin(self, problem: "LPProblem | StandardFormLP", warm_hint) -> None:
        self.recorder.reset()
        opts = self.options
        self.prep = prep = prepare(problem, opts)
        m, n = prep.m, prep.n_total

        basis, needs_phase1 = initial_basis(prep)
        # Materialise the tableau; artificial identity block only if needed.
        n_cols = n + (m if needs_phase1 else 0)
        tableau = np.zeros((m, n_cols))
        tableau[:, :n] = prep.a.to_dense() if prep.is_sparse else np.asarray(prep.a)
        if needs_phase1:
            tableau[:, n:] = np.eye(m)
        self.tableau = tableau
        self.n_cols = n_cols
        self.basis = basis
        self.beta = prep.b.astype(np.float64).copy()
        self.in_basis = np.zeros(n_cols, dtype=bool)
        self.in_basis[basis] = True
        self.stats = IterationStats()
        self.arm_clock(
            m=m, n=n, pricing=opts.pricing, ratio_test=opts.ratio_test,
            dtype=np.dtype(opts.dtype).name
        )
        artificial = np.zeros(n_cols, dtype=bool)
        artificial[n:] = True
        self.enterable = ~artificial
        self.needs_phase1 = needs_phase1
        self.phase1_feas_tol = PHASE1_TOL
        return None

    def run_phase(self, phase: int) -> tuple[SolveStatus, int]:
        n = self.prep.n_total
        c_full = np.zeros(self.n_cols)
        if phase == 1:
            c_full[n:] = 1.0
        else:
            c_full[:n] = self.prep.c
        status, z, iters = self._run_phase(
            self.prep, self.tableau, self.beta, self.basis, self.in_basis,
            c_full, self.enterable, self.stats, phase=phase,
        )
        self._z = z
        return status, iters

    def phase1_objective(self) -> float:
        return self._z

    # ------------------------------------------------------------------

    def _run_phase(
        self,
        prep: PreparedLP,
        tableau: np.ndarray,
        beta: np.ndarray,
        basis: np.ndarray,
        in_basis: np.ndarray,
        c_full: np.ndarray,
        enterable: np.ndarray,
        stats: IterationStats,
        phase: int = 2,
    ) -> tuple[SolveStatus, float, int]:
        opts = self.options
        tr = self.hooks if self.hooks.enabled else None
        m, n_cols = tableau.shape
        w = np.dtype(opts.dtype).itemsize
        rule = make_pricing_rule(opts.pricing, opts.stall_window)
        rule.reset(n_cols)
        cap = opts.iteration_cap(m, n_cols)

        def finish_phase(status: SolveStatus, z: float, iters: int):
            # Flush the per-phase Dantzig→Bland switch count on every exit
            # path; the rule is per-phase, so each phase contributes exactly
            # once (activations used to be dropped unless the iteration cap
            # was hit).
            if isinstance(rule, HybridRule):
                stats.bland_activations += rule.activations
            return status, z, iters

        # reduced costs of the *current* tableau (basis may be non-trivial
        # when entering phase 2)
        d = c_full - c_full[basis] @ tableau
        z = float(c_full[basis] @ beta)
        self.recorder.charge(
            "pricing.recompute",
            OpCost(flops=2 * m * n_cols, bytes_read=m * n_cols * w,
                   bytes_written=n_cols * w),
        )
        iters = 0
        while iters < cap:
            iters += 1
            if isinstance(rule, SteepestEdgeRule):
                rule.set_tableau(tableau)
                self.recorder.charge(
                    "pricing.edge_norms",
                    OpCost(flops=2 * m * n_cols, bytes_read=m * n_cols * w,
                           bytes_written=n_cols * w),
                )
            eligible = enterable & ~in_basis
            q = rule.select(d, eligible, opts.tol_reduced_cost)
            self.recorder.charge(
                "pricing.select",
                OpCost(flops=n_cols, bytes_read=n_cols * w, bytes_written=w),
            )
            if q is None:
                if tr is not None:
                    tr.record(
                        phase=phase, iteration=iters, event="optimal",
                        pricing_rule=rule_label(rule), objective=float(z),
                    )
                return finish_phase(SolveStatus.OPTIMAL, z, iters)

            alpha = tableau[:, q]
            rr = run_ratio_test(opts.ratio_test, beta, alpha, basis, opts.tol_pivot)
            self.recorder.charge(
                "ratio", OpCost(flops=m, bytes_read=2 * m * w, bytes_written=m * w)
            )
            if rr.unbounded:
                if tr is not None:
                    tr.record(
                        phase=phase, iteration=iters, event="unbounded",
                        entering=int(q), pricing_rule=rule_label(rule),
                        objective=float(z),
                    )
                return finish_phase(SolveStatus.UNBOUNDED, z, iters)
            if rr.ties > 1:
                stats.degenerate_steps += 1

            p, theta = rr.row, rr.theta
            if isinstance(rule, DevexRule):
                rule.set_pivot_row(tableau[p, :].copy())

            # Gauss–Jordan elimination around (p, q)
            piv = tableau[p, q]
            row_p = tableau[p, :] / piv
            beta_p = beta[p] / piv
            col = tableau[:, q].copy()
            rank1_update(tableau, col, row_p, -1.0)
            tableau[p, :] = row_p
            beta -= col * beta_p
            beta[p] = beta_p
            np.clip(beta, 0.0, None, out=beta)
            dq = d[q]
            d -= dq * row_p
            d[q] = 0.0
            z += theta * dq
            self.recorder.charge(
                "pivot.eliminate",
                OpCost(
                    flops=2 * m * n_cols + 4 * n_cols + 4 * m,
                    bytes_read=(m * n_cols + 2 * n_cols + 2 * m) * w,
                    bytes_written=(m * n_cols + n_cols + m) * w,
                ),
            )

            improvement = theta * float(-dq)
            if tr is not None:
                tr.record(
                    phase=phase, iteration=iters, event="pivot",
                    entering=int(q), leaving_row=int(p),
                    leaving_var=int(basis[p]),
                    pivot=float(rr.pivot), theta=float(theta),
                    ratio_ties=int(rr.ties), pricing_rule=rule_label(rule),
                    objective=float(z), degenerate=rr.ties > 1,
                )
            in_basis[basis[p]] = False
            in_basis[q] = True
            basis[p] = q
            rule.notify_pivot(q, p, None, improvement > 1e-12 * (1.0 + abs(z)))

        return finish_phase(SolveStatus.ITERATION_LIMIT, z, iters)

    def drive_out_artificials(self) -> None:
        """Pivot zero-valued artificial basics onto real columns in place."""
        tableau, beta = self.tableau, self.beta
        basis, in_basis = self.basis, self.in_basis
        n = self.prep.n_total
        for p in np.nonzero(basis >= n)[0]:
            row = tableau[p, :n]
            candidates = np.nonzero((~in_basis[:n]) & (np.abs(row) > 1e-7))[0]
            if candidates.size == 0:
                continue  # redundant row
            q = int(candidates[np.argmax(np.abs(row[candidates]))])
            piv = tableau[p, q]
            row_p = tableau[p, :] / piv
            beta_p = beta[p] / piv
            col = tableau[:, q].copy()
            rank1_update(tableau, col, row_p, -1.0)
            tableau[p, :] = row_p
            beta -= col * beta_p
            beta[p] = beta_p
            np.clip(beta, 0.0, None, out=beta)
            in_basis[basis[p]] = False
            in_basis[q] = True
            basis[p] = q

    # -- finish participation ------------------------------------------

    def extract(self, result: SolveResult) -> None:
        # Artificial basics (redundant rows) sit at zero; they are
        # filtered by extract_solution's `basis < n_total` mask.
        attach_standard_solution(result, self.prep, self.basis, self.beta)
