"""Tests for the SIMT kernel-timing model."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.device import Device
from repro.perfmodel.gpu_model import GpuCostModel, GpuModelParams
from repro.perfmodel.ops import OpCost
from repro.perfmodel.presets import (
    GTX280_PARAMS,
    GTX8800_PARAMS,
    TESLA_C1060_PARAMS,
    cpu_model_preset,
    gpu_model_preset,
)


@pytest.fixture
def model() -> GpuCostModel:
    return GpuCostModel(GTX280_PARAMS)


class TestParamsValidation:
    def test_defaults_valid(self):
        GpuModelParams()  # no raise

    def test_bad_sm_count(self):
        with pytest.raises(ValueError):
            GpuModelParams(sm_count=0)

    def test_bad_efficiency(self):
        with pytest.raises(ValueError):
            GpuModelParams(compute_efficiency=0.0)
        with pytest.raises(ValueError):
            GpuModelParams(memory_efficiency=1.5)

    def test_bad_min_fill(self):
        with pytest.raises(ValueError):
            GpuModelParams(min_fill=0.0)

    def test_concurrent_threads(self):
        assert GTX280_PARAMS.concurrent_threads == 30 * 1024

    def test_peak_flops_by_dtype(self):
        assert GTX280_PARAMS.peak_flops(np.float32) == GTX280_PARAMS.peak_flops_fp32
        assert GTX280_PARAMS.peak_flops(np.float64) == GTX280_PARAMS.peak_flops_fp64


class TestKernelTime:
    def test_launch_overhead_is_floor(self, model):
        t = model.kernel_time(OpCost(flops=1, threads=1))
        assert t >= GTX280_PARAMS.launch_overhead

    def test_zero_work_costs_only_overhead(self, model):
        t = model.kernel_time(OpCost(threads=64))
        assert t == pytest.approx(GTX280_PARAMS.launch_overhead)

    def test_monotone_in_flops(self, model):
        big_threads = GTX280_PARAMS.concurrent_threads
        t1 = model.kernel_time(OpCost(flops=1e6, threads=big_threads))
        t2 = model.kernel_time(OpCost(flops=1e8, threads=big_threads))
        assert t2 > t1

    def test_monotone_in_bytes(self, model):
        big_threads = GTX280_PARAMS.concurrent_threads
        t1 = model.kernel_time(OpCost(bytes_read=1e6, threads=big_threads))
        t2 = model.kernel_time(OpCost(bytes_read=1e8, threads=big_threads))
        assert t2 > t1

    def test_compute_memory_overlap(self, model):
        """Total is max(compute, memory), not their sum."""
        threads = GTX280_PARAMS.concurrent_threads
        c = OpCost(flops=1e9, bytes_read=1e9, threads=threads)
        t = model.kernel_time(c)
        tc = model.compute_time(c, np.float32, 256)
        tm = model.memory_time(c, np.float32, 256)
        assert t == pytest.approx(GTX280_PARAMS.launch_overhead + max(tc, tm))

    def test_fp64_slower_than_fp32_when_compute_bound(self, model):
        threads = GTX280_PARAMS.concurrent_threads
        c = OpCost(flops=1e10, threads=threads)
        assert model.kernel_time(c, np.float64) > model.kernel_time(c, np.float32)

    def test_small_kernel_underutilises_device(self, model):
        """Same work on few threads takes longer than on many threads."""
        work = OpCost(flops=1e7, threads=64)
        work_wide = OpCost(flops=1e7, threads=GTX280_PARAMS.concurrent_threads)
        assert model.kernel_time(work) > model.kernel_time(work_wide)

    def test_uncoalesced_traffic_amplified(self, model):
        threads = GTX280_PARAMS.concurrent_threads
        good = OpCost(bytes_read=1e8, threads=threads, coalesced_fraction=1.0)
        bad = OpCost(bytes_read=1e8, threads=threads, coalesced_fraction=0.0)
        t_good = model.memory_time(good, np.float32, 256)
        t_bad = model.memory_time(bad, np.float32, 256)
        assert t_bad == pytest.approx(t_good * (64 / 4))

    def test_divergence_doubles_divergent_work(self, model):
        threads = GTX280_PARAMS.concurrent_threads
        plain = OpCost(flops=1e8, threads=threads, divergent_fraction=0.0)
        fully = OpCost(flops=1e8, threads=threads, divergent_fraction=1.0)
        t0 = model.compute_time(plain, np.float32, 256)
        t1 = model.compute_time(fully, np.float32, 256)
        assert t1 == pytest.approx(2.0 * t0)

    def test_fill_factor_bounds(self, model):
        assert model.fill_factor(1, 256) >= GTX280_PARAMS.min_fill
        assert model.fill_factor(10**9, 256) <= 1.0

    def test_fill_factor_lane_waste(self, model):
        """A 16-thread block wastes half a warp."""
        full = model.fill_factor(GTX280_PARAMS.concurrent_threads, 32)
        half = model.fill_factor(GTX280_PARAMS.concurrent_threads, 16)
        assert half == pytest.approx(full / 2)


class TestTransfers:
    def test_transfer_latency_floor(self, model):
        assert model.transfer_time(0) == pytest.approx(GTX280_PARAMS.pcie_latency)

    def test_transfer_bandwidth_term(self, model):
        nbytes = 10**8
        expected = GTX280_PARAMS.pcie_latency + nbytes / GTX280_PARAMS.pcie_bandwidth
        assert model.transfer_time(nbytes) == pytest.approx(expected)

    def test_transfer_negative_rejected(self, model):
        with pytest.raises(ValueError):
            model.transfer_time(-1)

    def test_dtod_faster_than_pcie_for_bulk(self, model):
        nbytes = 10**8
        assert model.dtod_time(nbytes) < model.transfer_time(nbytes)

    def test_dtod_negative_rejected(self, model):
        with pytest.raises(ValueError):
            model.dtod_time(-5)


class TestPresets:
    def test_lookup(self):
        assert gpu_model_preset("gtx280") is GTX280_PARAMS
        assert gpu_model_preset("GTX8800") is GTX8800_PARAMS
        assert gpu_model_preset("c1060") is TESLA_C1060_PARAMS

    def test_unknown_gpu_preset(self):
        with pytest.raises(KeyError):
            gpu_model_preset("voodoo2")

    def test_unknown_cpu_preset(self):
        with pytest.raises(KeyError):
            cpu_model_preset("8086")

    def test_gt200_fp64_ratio(self):
        """GT200 fp64 is an order of magnitude below fp32."""
        assert GTX280_PARAMS.peak_flops_fp32 / GTX280_PARAMS.peak_flops_fp64 > 8

    def test_g80_weaker_than_gt200(self):
        assert GTX8800_PARAMS.peak_flops_fp32 < GTX280_PARAMS.peak_flops_fp32
        assert GTX8800_PARAMS.mem_bandwidth < GTX280_PARAMS.mem_bandwidth

    def test_presets_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            GTX280_PARAMS.sm_count = 60  # type: ignore[misc]


@given(
    flops=st.floats(1, 1e12),
    nbytes=st.floats(1, 1e12),
    threads=st.integers(1, 10**7),
)
def test_kernel_time_always_positive_and_finite(flops, nbytes, threads):
    model = GpuCostModel(GTX280_PARAMS)
    t = model.kernel_time(OpCost(flops=flops, bytes_read=nbytes, threads=threads))
    assert np.isfinite(t)
    assert t > 0


@given(scale=st.floats(1.0, 1e4), flops=st.floats(1e3, 1e9))
def test_compute_time_scales_linearly_at_fixed_width(scale, flops):
    model = GpuCostModel(GTX280_PARAMS)
    threads = GTX280_PARAMS.concurrent_threads
    t1 = model.compute_time(OpCost(flops=flops, threads=threads), np.float32, 256)
    t2 = model.compute_time(OpCost(flops=flops * scale, threads=threads), np.float32, 256)
    assert t2 == pytest.approx(t1 * scale, rel=1e-9)


# ---------------------------------------------------------------------------
# the launch memo over kernel_time: exact, keyed on equal values, bounded
# ---------------------------------------------------------------------------

_DTYPES = [np.float32, np.float64, "float32", np.dtype("float64"), np.dtype("f4")]


@st.composite
def op_costs(draw):
    """An OpCost with integral work fields, each given as an int or as the
    equal float, so equal keys come in differently-typed forms."""

    def number(hi):
        v = draw(st.integers(0, hi))
        return float(v) if draw(st.booleans()) else v

    return OpCost(
        flops=number(10**9),
        bytes_read=number(10**9),
        bytes_written=number(10**8),
        threads=draw(st.integers(1, 10**6)),
        coalesced_fraction=draw(st.sampled_from([0.25, 0.5, 0.6, 1.0])),
        divergent_fraction=draw(st.sampled_from([0.0, 0.1, 0.5])),
    )


def _launched_seconds(dev: Device, cost: OpCost, dtype, block: int) -> float:
    """Launch a no-op kernel and return the seconds the device charged it,
    read back from its launch memo."""
    dev.launch("k", lambda: None, cost, dtype=dtype, block=block)
    return dev._launch_memo[cost, dtype, block]


@settings(max_examples=200, deadline=None)
@given(
    costs=st.lists(op_costs(), min_size=1, max_size=6),
    dtype=st.sampled_from(_DTYPES),
    block=st.sampled_from([16, 32, 100, 256, 512]),
)
def test_kernel_time_memo_equals_fresh_model(costs, dtype, block):
    dev = Device(GTX280_PARAMS)
    for _ in range(2):
        for cost in costs:
            twin = dataclasses.replace(
                cost, flops=float(cost.flops), bytes_read=int(cost.bytes_read)
            )
            fresh = GpuCostModel(GTX280_PARAMS).kernel_time(cost, dtype, block)
            assert _launched_seconds(dev, cost, dtype, block).hex() == fresh.hex()
            got = _launched_seconds(dev, twin, np.dtype(dtype), block)
            assert got.hex() == fresh.hex()


def test_launch_memo_equal_keys_share_one_entry():
    dev = Device(GTX280_PARAMS)
    f32 = np.dtype("float32")
    a = _launched_seconds(dev, OpCost(flops=10, threads=64), f32, 256)
    b = _launched_seconds(dev, OpCost(flops=10.0, threads=64), f32, 256)
    assert a.hex() == b.hex()
    assert len(dev._launch_memo) == 1


def test_launch_memo_is_bounded(monkeypatch):
    import repro.gpu.device as device_mod

    monkeypatch.setattr(device_mod, "MEMO_CAP", 8)
    dev = Device(GTX280_PARAMS)
    for i in range(50):
        fresh = GpuCostModel(GTX280_PARAMS).kernel_time(OpCost(flops=i))
        assert _launched_seconds(dev, OpCost(flops=i), np.float32, 256) == fresh
        assert len(dev._launch_memo) <= 8
    assert dev.stats.kernel_launches == 50


def test_params_are_fixed_for_the_memo(model):
    with pytest.raises(AttributeError):
        model.params = GTX8800_PARAMS
