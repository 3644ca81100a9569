"""Restarted, preconditioned PDHG (PDLP-style) on the simulated GPU.

The device sibling of :class:`~repro.firstorder.cpu.PdlpSolver` and the
method the simulated hardware rewards most: the entire iteration is four
kernel launches — SpMVᵀ, a fused primal update (projection + extrapolation
+ running sum), SpMV, and a fused dual update — with *no* factorisation,
no host round-trips in the hot loop, and candidate evaluation every
``check_every`` iterations built from the same SpMV kernels plus
device-BLAS reductions (each reduction charges the real scalar-download
latency, exactly like the simplex pricing loop).

The constraint matrix is resident twice, CSC for ``Âᵀŷ`` and CSR for
``Âx̂`` — the standard PDLP trade of one extra matrix copy for coalesced
row-parallel SpMV in both directions.

Setup (Ruiz/Pock–Chambolle rescaling) is host work; the power-iteration
``‖Â‖₂`` estimate runs on the device so its SpMV cost lands on the device
clock.  The loop itself (restarts, primal weight, termination, Farkas
rays) is :class:`~repro.firstorder.pdhg.PdhgSolver`, shared with the CPU
backend; this module is its device executor.
"""

from __future__ import annotations

import numpy as np

from repro.engine import DeviceBackend
from repro.errors import SolverError
from repro.firstorder.pdhg import PdhgSolver
from repro.firstorder.rescale import RescaledLP
from repro.gpu import blas
from repro.gpu import plan as gpu_plan
from repro.gpu.device import Device
from repro.gpu.memory import DeviceArray
from repro.gpu.sparse_kernels import (
    DeviceCscMatrix,
    DeviceCsrMatrix,
    spmv_csc_t,
    spmv_csr,
)
from repro.perfmodel.gpu_model import GpuModelParams
from repro.perfmodel.ops import OpCost
from repro.perfmodel.presets import GTX280_PARAMS
from repro.simplex.options import SolverOptions


def _primal_update_cost(n: int, w: int) -> OpCost:
    return OpCost(
        flops=8 * n,
        bytes_read=4 * n * w,
        bytes_written=3 * n * w,
        threads=max(1, n),
        coalesced_fraction=1.0,
    )


def _dual_update_cost(m: int, w: int) -> OpCost:
    return OpCost(
        flops=5 * m,
        bytes_read=4 * m * w,
        bytes_written=2 * m * w,
        threads=max(1, m),
        coalesced_fraction=1.0,
    )


def _primal_update_kernel(
    dev: Device,
    x: DeviceArray,
    x_ext: DeviceArray,
    x_sum: DeviceArray,
    aty: DeviceArray,
    c: DeviceArray,
    tau: float,
    cost: OpCost,
) -> None:
    """Fused: x ← [x − τ(c − Âᵀŷ)]₊;  x_ext ← 2x⁺ − x;  x_sum += x⁺.

    ``cost`` is :func:`_primal_update_cost` of ``x``, built once per solve.
    """

    def body() -> None:
        old = x.data.astype(np.float64)
        new = np.maximum(
            0.0, old - tau * (c.data.astype(np.float64) - aty.data.astype(np.float64))
        )
        x_ext.data[:] = (2.0 * new - old).astype(x_ext.dtype)
        x_sum.data[:] = (x_sum.data.astype(np.float64) + new).astype(x_sum.dtype)
        x.data[:] = new.astype(x.dtype)

    gpu_plan.emit(
        dev, "pdhg.primal_update", body, cost, dtype=x.dtype,
        fusable=True, reads=(x, c, aty, x_sum), writes=(x, x_ext, x_sum),
    )


def _dual_update_kernel(
    dev: Device,
    y: DeviceArray,
    y_sum: DeviceArray,
    ax: DeviceArray,
    b: DeviceArray,
    sigma: float,
    cost: OpCost,
) -> None:
    """Fused: y ← y + σ(b̂ − Âx_ext);  y_sum += y⁺.

    ``cost`` is :func:`_dual_update_cost` of ``y``, built once per solve.
    """

    def body() -> None:
        new = y.data.astype(np.float64) + sigma * (
            b.data.astype(np.float64) - ax.data.astype(np.float64)
        )
        y_sum.data[:] = (y_sum.data.astype(np.float64) + new).astype(y_sum.dtype)
        y.data[:] = new.astype(y.dtype)

    gpu_plan.emit(
        dev, "pdhg.dual_update", body, cost, dtype=y.dtype,
        fusable=True, reads=(y, ax, b, y_sum), writes=(y, y_sum),
    )


def _scaled_residual_kernel(
    dev: Device,
    out: DeviceArray,
    av: DeviceArray,
    rhs: DeviceArray,
    inv_scale: DeviceArray,
    *,
    positive_part: bool,
    name: str,
) -> None:
    """out ← (av − rhs)·inv_scale, optionally clamped to its positive part
    (the unscaled primal / dual residual vector of a candidate)."""
    n = out.shape[0]
    w = out.itemsize

    def body() -> None:
        r = (av.data.astype(np.float64) - rhs.data.astype(np.float64)) * (
            inv_scale.data.astype(np.float64)
        )
        if positive_part:
            r = np.maximum(r, 0.0)
        out.data[:] = r.astype(out.dtype)

    cost = OpCost(
        flops=3 * n,
        bytes_read=3 * n * w,
        bytes_written=n * w,
        threads=max(1, n),
        coalesced_fraction=1.0,
    )
    gpu_plan.emit(
        dev, name, body, cost, dtype=out.dtype,
        fusable=True, reads=(av, rhs, inv_scale), writes=(out,),
    )


class GpuPdlpSolver(DeviceBackend, PdhgSolver):
    """GPU PDLP: device-CSC/CSR restarted PDHG priced by the perf model."""

    name = "gpu-pdlp"

    def __init__(
        self,
        options: SolverOptions | None = None,
        device: Device | None = None,
        gpu_params: GpuModelParams = GTX280_PARAMS,
    ):
        self.options = options or SolverOptions()
        self._external_device = device
        self._gpu_params = gpu_params
        #: The device of the last solve (statistics inspection).
        self.device: Device | None = device

    def start(self, meta: dict) -> None:
        opts = self.options
        dev = self._external_device or Device(self._gpu_params)
        self.device = self.dev = dev
        dev.reset_stats()

        policy = gpu_plan.PrecisionPolicy.from_options(opts)
        if policy.refine:
            raise SolverError("gpu-pdlp does not support mixed precision")
        dtype = policy.compute_dtype
        self.plan = gpu_plan.LaunchPlan(dev, fusion=opts.fusion, hooks=self.hooks)
        self.ex = ex = _DevicePdhg(self._rescaled, dev, dtype, self.plan)
        self.arm_clock(**meta, dtype=dtype.name)
        with dev.timed_section("setup"):
            ex.norm_a = ex.norm_estimate()

    def cleanup(self) -> None:
        if self.ex is not None:
            self.ex.free()
            self.ex = None


class _DevicePdhg:
    """Device PDHG executor: the matrix twice (CSC + CSR) and the
    iterate/average/candidate vectors, driven through the launch plan."""

    def __init__(
        self,
        rescaled: RescaledLP,
        dev: Device,
        dtype: np.dtype,
        plan: gpu_plan.LaunchPlan,
    ):
        self.sc = rescaled
        self.dev = dev
        self.dtype = dtype
        self.plan = plan
        self.spmv_count = 0
        m, n = rescaled.a.shape
        w = np.dtype(dtype).itemsize
        self.primal_cost = _primal_update_cost(n, w)
        self.dual_cost = _dual_update_cost(m, w)
        try:
            with dev.timed_section("transfer"):
                self.a_csc = DeviceCscMatrix(dev, rescaled.a, dtype)
                self.a_csr = DeviceCsrMatrix(dev, rescaled.a.tocsr(), dtype)
                self.b = dev.to_device(rescaled.b, dtype)
                self.c = dev.to_device(rescaled.c, dtype)
                self.inv_row = dev.to_device(rescaled.inv_row_scale, dtype)
                self.inv_col = dev.to_device(rescaled.inv_col_scale, dtype)
            self.x = dev.zeros(n, dtype)
            self.y = dev.zeros(m, dtype)
            self.x_ext = dev.zeros(n, dtype)
            self.x_sum = dev.zeros(n, dtype)
            self.y_sum = dev.zeros(m, dtype)
            self.x_avg = dev.zeros(n, dtype)
            self.y_avg = dev.zeros(m, dtype)
            self.x_rst = dev.zeros(n, dtype)
            self.y_rst = dev.zeros(m, dtype)
            self.x_best = dev.zeros(n, dtype)
            self.y_best = dev.zeros(m, dtype)
            self.ax = dev.zeros(m, dtype)
            self.aty = dev.zeros(n, dtype)
            self.chk_m = dev.zeros(m, dtype)
            self.chk_n = dev.zeros(n, dtype)
            self.tmp_m = dev.zeros(m, dtype)
            self.tmp_n = dev.zeros(n, dtype)
        except Exception:
            # a failed allocation (device OOM) must not leak what was
            # already placed on the card
            self.free()
            raise

    def free(self) -> None:
        for name in (
            "b", "c", "inv_row", "inv_col", "x", "y", "x_ext", "x_sum",
            "y_sum", "x_avg", "y_avg", "x_rst", "y_rst", "x_best", "y_best",
            "ax", "aty", "chk_m", "chk_n", "tmp_m", "tmp_n",
        ):
            arr = getattr(self, name, None)
            if arr is not None and not arr.is_freed:
                arr.free()
        for mat in (getattr(self, "a_csc", None), getattr(self, "a_csr", None)):
            if mat is not None:
                mat.free()

    # -- executor operations ---------------------------------------------

    def norm_estimate(self, iters: int = 24) -> float:
        """Power iteration on ÂᵀÂ with the device SpMV kernels (its SpMV
        cost is real setup work and lands on the device clock)."""
        n = self.a_csc.shape[1]
        blas.fill(self.x_ext, 1.0 / np.sqrt(n))
        sigma = 1.0
        for _ in range(iters):
            spmv_csr(self.a_csr, self.x_ext, self.ax)
            spmv_csc_t(self.a_csc, self.ax, self.aty)
            self.spmv_count += 2
            nw = blas.nrm2(self.aty)
            if nw <= 0.0:
                break
            blas.copy(self.aty, self.x_ext)
            blas.scal(1.0 / nw, self.x_ext)
            sigma = float(np.sqrt(nw))
        blas.fill(self.x_ext, 0.0)
        return max(sigma, 1e-30)

    def _residuals(self, x_c: DeviceArray, y_c: DeviceArray):
        """Raw unscaled residual norms and objectives of a device-resident
        candidate."""
        with self.plan.section("check.primal"):
            spmv_csr(self.a_csr, x_c, self.chk_m)
            _scaled_residual_kernel(
                self.dev, self.tmp_m, self.chk_m, self.b, self.inv_row,
                positive_part=False, name="pdhg.residual_primal",
            )
        rp = blas.nrm2(self.tmp_m)
        with self.plan.section("check.dual"):
            spmv_csc_t(self.a_csc, y_c, self.chk_n)
            _scaled_residual_kernel(
                self.dev, self.tmp_n, self.chk_n, self.c, self.inv_col,
                positive_part=True, name="pdhg.residual_dual",
            )
        rd = blas.nrm2(self.tmp_n)
        self.spmv_count += 2
        pobj = blas.dot(self.c, x_c)
        dobj = blas.dot(self.b, y_c)
        return rp, rd, pobj, dobj

    def score_current(self):
        with self.dev.timed_section("check"):
            return self._residuals(self.x, self.y)

    def step(self, tau: float, sigma: float) -> None:
        dev = self.dev
        with self.plan.section("primal", timed="spmv"):
            with dev.timed_section("spmv"):
                spmv_csc_t(self.a_csc, self.y, self.aty)
            with dev.timed_section("update"):
                _primal_update_kernel(
                    dev, self.x, self.x_ext, self.x_sum, self.aty, self.c, tau,
                    self.primal_cost,
                )
        with self.plan.section("dual", timed="spmv"):
            with dev.timed_section("spmv"):
                spmv_csr(self.a_csr, self.x_ext, self.ax)
            with dev.timed_section("update"):
                _dual_update_kernel(
                    dev, self.y, self.y_sum, self.ax, self.b, sigma, self.dual_cost
                )
        self.spmv_count += 2

    def score_candidates(self, k_since: int):
        with self.dev.timed_section("check"):
            inv_k = 1.0 / k_since
            blas.copy(self.x_sum, self.x_avg)
            blas.scal(inv_k, self.x_avg)
            blas.copy(self.y_sum, self.y_avg)
            blas.scal(inv_k, self.y_avg)
            return (
                self._residuals(self.x_avg, self.y_avg),
                self._residuals(self.x, self.y),
            )

    def _candidate(self, avg: bool):
        return (self.x_avg, self.y_avg) if avg else (self.x, self.y)

    def accept(self, avg: bool) -> None:
        x_c, y_c = self._candidate(avg)
        blas.copy(x_c, self.x_best)
        blas.copy(y_c, self.y_best)

    def rays(self, avg: bool):
        # Farkas logic is host work on the downloaded rays (the two vector
        # downloads are charged as DtoH transfers)
        cx, cy = self._candidate(avg)
        with self.dev.timed_section("transfer"):
            blas.copy(cx, self.tmp_n)
            blas.axpy(-1.0, self.x_rst, self.tmp_n)
            blas.copy(cy, self.tmp_m)
            blas.axpy(-1.0, self.y_rst, self.tmp_m)
            dx = self.tmp_n.copy_to_host().astype(np.float64) * self.sc.col_scale
            dy = self.tmp_m.copy_to_host().astype(np.float64) * self.sc.row_scale
        return dx, dy

    def restart(self, avg: bool) -> tuple[float, float]:
        cx, cy = self._candidate(avg)
        sc = self.sc
        with self.dev.timed_section("restart"):
            # prep-space ‖Δx‖, ‖Δy‖ since the last restart point
            blas.copy(cx, self.tmp_n)
            blas.axpy(-1.0, self.x_rst, self.tmp_n)
            dx = self.tmp_n.copy_to_host().astype(np.float64) * sc.col_scale
            blas.copy(cy, self.tmp_m)
            blas.axpy(-1.0, self.y_rst, self.tmp_m)
            dy = self.tmp_m.copy_to_host().astype(np.float64) * sc.row_scale
            if avg:
                blas.copy(self.x_avg, self.x)
                blas.copy(self.y_avg, self.y)
            blas.copy(self.x, self.x_rst)
            blas.copy(self.y, self.y_rst)
            blas.fill(self.x_sum, 0.0)
            blas.fill(self.y_sum, 0.0)
        return float(np.linalg.norm(dx)), float(np.linalg.norm(dy))

    def solution(self):
        x_hat = self.x_best.copy_to_host().astype(np.float64)
        y_hat = self.y_best.copy_to_host().astype(np.float64)
        return x_hat, y_hat
