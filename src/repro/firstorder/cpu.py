"""Restarted, preconditioned PDHG (PDLP-style) on the CPU.

The first *non-simplex* method behind the engine: no phase 1, no basis,
no pivots — a primal-dual iterate pair driven by one SpMV and one SpMVᵀ
per iteration over the Ruiz/Pock–Chambolle-rescaled standard form

    min ĉᵀx̂   s.t.  Â x̂ = b̂,  x̂ ≥ 0

with the chambolle-pock extrapolated update::

    x̂⁺ = [x̂ − τ(ĉ − Âᵀŷ)]₊
    ŷ⁺ = ŷ + σ(b̂ − Â(2x̂⁺ − x̂))

Step sizes satisfy ``τσ‖Â‖² < 1`` (power-iteration estimate) split by the
adaptive primal weight ω (τ = η/ω, σ = ηω).  The loop — restarts,
termination and status mapping — is :class:`~repro.firstorder.pdhg.PdhgSolver`;
this module is its host executor.

Numerics are float64 (like every CPU backend); ``options.dtype`` sets the
arithmetic the *cost model* charges, mirroring the simplex solvers.  All
instrumentation flows through the engine observer hooks — this module
imports neither ``repro.trace`` nor ``repro.metrics`` (``make lint``).
"""

from __future__ import annotations

import numpy as np

from repro.engine import HostBackend
from repro.firstorder.pdhg import PdhgSolver
from repro.firstorder.rescale import RescaledLP, power_iteration_norm
from repro.perfmodel.cpu_model import CpuCostModel, CpuCostRecorder
from repro.perfmodel.ops import OpCost
from repro.perfmodel.presets import CORE2_CPU_PARAMS, CpuModelParams
from repro.simplex.options import SolverOptions

#: 4-byte column/row ids, matching the GPU sparse kernels' accounting.
_INDEX_BYTES = 4


class PdlpSolver(HostBackend, PdhgSolver):
    """CPU PDLP: restarted preconditioned PDHG over NumPy/CSC data."""

    name = "pdlp-cpu"

    def __init__(
        self,
        options: SolverOptions | None = None,
        cpu_params: CpuModelParams = CORE2_CPU_PARAMS,
    ):
        self.options = options or SolverOptions()
        self.recorder = CpuCostRecorder(
            CpuCostModel(cpu_params), dtype=self.options.dtype
        )

    def start(self, meta: dict) -> None:
        self.recorder.reset()
        dtype = np.dtype(self.options.dtype)
        self.ex = _HostPdhg(self._rescaled, self.recorder, dtype)
        self.arm_clock(**meta, dtype=dtype.name)


class _HostPdhg:
    """Host PDHG executor: NumPy/CSC vectors, each op charged to the CPU
    cost model."""

    def __init__(self, sc: RescaledLP, recorder: CpuCostRecorder, dtype):
        self.sc = sc
        self.recorder = recorder
        self.w = dtype.itemsize
        self.m, self.n = m, n = sc.a.shape
        self.spmv_count = 0
        # every op's cost depends only on the shape, so build each once
        self._spmv_costs = {"spmv": self._spmv_cost(m), "spmv_t": self._spmv_cost(n)}
        self._vector_costs: dict[tuple[int, int], OpCost] = {}
        self.norm_a = power_iteration_norm(sc.a)
        # the power iteration is real SpMV work: charge its cost
        for _ in range(24):
            self._charge_spmv("spmv")
            self._charge_spmv("spmv_t")
        self.x = np.zeros(n)
        self.y = np.zeros(m)
        self.x_sum = np.zeros(n)
        self.y_sum = np.zeros(m)
        self.x_rst = self.x.copy()
        self.y_rst = self.y.copy()

    # -- cost charging --------------------------------------------------

    def _spmv_cost(self, out_len: int) -> OpCost:
        a = self.sc.a
        w = self.w
        return OpCost(
            flops=2 * a.nnz,
            bytes_read=a.nnz * (w + _INDEX_BYTES)
            + (self.n + 1) * _INDEX_BYTES
            + a.nnz * w,
            bytes_written=out_len * w,
            threads=max(1, out_len),
            coalesced_fraction=0.5,
        )

    def _charge_spmv(self, name: str) -> None:
        self.recorder.charge(name, self._spmv_costs[name])
        self.spmv_count += 1

    def _charge_vector(self, name: str, length: int, flops_per: int) -> None:
        cost = self._vector_costs.get((length, flops_per))
        if cost is None:
            w = self.w
            cost = self._vector_costs[length, flops_per] = OpCost(
                flops=flops_per * length,
                bytes_read=3 * length * w,
                bytes_written=length * w,
                threads=max(1, length),
                coalesced_fraction=1.0,
            )
        self.recorder.charge(name, cost)

    # -- executor operations ---------------------------------------------

    def _residuals(self, x_c: np.ndarray, y_c: np.ndarray):
        """Raw unscaled residual norms and objectives of one candidate."""
        sc = self.sc
        ax = sc.a.matvec(x_c)
        self._charge_spmv("spmv")
        aty = sc.a.rmatvec(y_c)
        self._charge_spmv("spmv_t")
        rp = float(np.linalg.norm((ax - sc.b) * sc.inv_row_scale))
        rd = float(np.linalg.norm(np.maximum(aty - sc.c, 0.0) * sc.inv_col_scale))
        pobj = float(sc.c @ x_c)
        dobj = float(sc.b @ y_c)
        self._charge_vector("check", self.m + self.n, 4)
        return rp, rd, pobj, dobj

    def score_current(self):
        return self._residuals(self.x, self.y)

    def step(self, tau: float, sigma: float) -> None:
        a, m, n = self.sc.a, self.m, self.n
        aty = a.rmatvec(self.y)
        self._charge_spmv("spmv_t")
        x = self.x
        x_new = np.maximum(0.0, x - tau * (self.sc.c - aty))
        x_ext = 2.0 * x_new - x
        self.x = x_new
        self._charge_vector("primal_update", n, 5)
        ax = a.matvec(x_ext)
        self._charge_spmv("spmv")
        self.y = self.y + sigma * (self.sc.b - ax)
        self._charge_vector("dual_update", m, 4)
        self.x_sum += self.x
        self.y_sum += self.y
        self._charge_vector("average", m + n, 2)

    def score_candidates(self, k_since: int):
        inv_k = 1.0 / k_since
        self.x_avg = self.x_sum * inv_k
        self.y_avg = self.y_sum * inv_k
        self._charge_vector("average", self.m + self.n, 1)
        return self._residuals(self.x_avg, self.y_avg), self.score_current()

    def _candidate(self, avg: bool):
        return (self.x_avg, self.y_avg) if avg else (self.x, self.y)

    def accept(self, avg: bool) -> None:
        x_c, y_c = self._candidate(avg)
        self.x_hat = np.asarray(x_c, dtype=np.float64).copy()
        self.y_hat = np.asarray(y_c, dtype=np.float64).copy()

    def rays(self, avg: bool):
        cx, cy = self._candidate(avg)
        return (
            (cx - self.x_rst) * self.sc.col_scale,
            (cy - self.y_rst) * self.sc.row_scale,
        )

    def restart(self, avg: bool) -> tuple[float, float]:
        cx, cy = self._candidate(avg)
        dx = float(np.linalg.norm((cx - self.x_rst) * self.sc.col_scale))
        dy = float(np.linalg.norm((cy - self.y_rst) * self.sc.row_scale))
        self.x = cx.copy()
        self.y = cy.copy()
        self.x_rst = cx.copy()
        self.y_rst = cy.copy()
        self.x_sum[:] = 0.0
        self.y_sum[:] = 0.0
        self._charge_vector("restart", self.m + self.n, 1)
        return dx, dy

    def solution(self):
        return self.x_hat, self.y_hat
