"""Tests for the simulated device: allocator, clock, launch path, stats."""

import numpy as np
import pytest

from repro.errors import DeviceMemoryError, InvalidLaunchError
from repro.gpu.device import Device, DeviceStats
from repro.gpu.kernel import launch_config
from repro.perfmodel.gpu_model import GpuModelParams
from repro.perfmodel.ops import OpCost
from repro.perfmodel.presets import GTX280_PARAMS


class TestAllocator:
    def test_alloc_shapes_and_dtypes(self, device):
        a = device.alloc((4, 5), np.float32)
        assert a.shape == (4, 5)
        assert a.dtype == np.float32
        b = device.alloc(7, np.float64)
        assert b.shape == (7,)
        assert b.nbytes == 56

    def test_zeros(self, device):
        z = device.zeros(10)
        assert np.all(z.data == 0)

    def test_bytes_accounting(self, device):
        before = device.stats.bytes_in_use
        a = device.alloc(1000, np.float32)
        assert device.stats.bytes_in_use == before + 4000
        a.free()
        assert device.stats.bytes_in_use == before

    def test_peak_tracking(self, device):
        a = device.alloc(1000, np.float32)
        peak1 = device.stats.peak_bytes_in_use
        a.free()
        b = device.alloc(10, np.float32)
        assert device.stats.peak_bytes_in_use == peak1
        b.free()

    def test_oom(self):
        tiny = GpuModelParams(global_mem_bytes=1024)
        dev = Device(tiny)
        with pytest.raises(DeviceMemoryError):
            dev.alloc(1024, np.float64)

    def test_oom_disabled(self):
        tiny = GpuModelParams(global_mem_bytes=1024)
        dev = Device(tiny, enforce_memory_limit=False)
        dev.alloc(1024, np.float64)  # no raise

    def test_oom_after_fill(self):
        params = GpuModelParams(global_mem_bytes=8192)
        dev = Device(params)
        keep = dev.alloc(1024, np.float64)  # 8 KiB: exactly full
        with pytest.raises(DeviceMemoryError):
            dev.alloc(1, np.float32)
        keep.free()
        dev.alloc(1, np.float32)  # now fits

    def test_to_device_roundtrip(self, device):
        host = np.arange(12, dtype=np.float32).reshape(3, 4)
        arr = device.to_device(host)
        assert np.array_equal(arr.copy_to_host(), host)

    def test_to_device_dtype_cast(self, device):
        arr = device.to_device(np.arange(4), dtype=np.float32)
        assert arr.dtype == np.float32

    def test_to_device_rejects_bad_dtype(self, device):
        with pytest.raises(TypeError):
            device.to_device(np.array(["a", "b"]))

    def test_memset(self, device):
        a = device.to_device(np.ones(16, dtype=np.float32))
        device.memset(a, 0)
        assert np.all(a.data == 0)


class TestClockAndLaunch:
    def test_launch_advances_clock(self, device):
        t0 = device.clock
        device.launch("k", lambda: None, OpCost(flops=1e6, threads=1024))
        assert device.clock > t0

    def test_launch_runs_body(self, device):
        hits = []
        device.launch("k", lambda: hits.append(1), OpCost(threads=1))
        assert hits == [1]

    def test_launch_records_stats(self, device):
        device.launch("mykernel", lambda: None, OpCost(flops=100, threads=64))
        device.launch("mykernel", lambda: None, OpCost(flops=100, threads=64))
        rec = device.stats.by_kernel["mykernel"]
        assert rec.launches == 2
        assert rec.flops == 200
        assert rec.seconds > 0
        assert device.stats.kernel_launches == 2

    def test_launch_block_limit(self, device):
        with pytest.raises(InvalidLaunchError):
            device.launch(
                "k", lambda: None, OpCost(threads=10), block=100000
            )

    def test_synchronize_returns_clock(self, device):
        device.launch("k", lambda: None, OpCost(flops=1, threads=1))
        assert device.synchronize() == device.clock

    def test_timed_section_accumulates(self, device):
        with device.timed_section("phase"):
            device.launch("k", lambda: None, OpCost(flops=1e6, threads=1024))
        with device.timed_section("phase"):
            device.launch("k", lambda: None, OpCost(flops=1e6, threads=1024))
        assert device.stats.sections["phase"] == pytest.approx(device.clock)

    def test_timed_section_nesting(self, device):
        with device.timed_section("outer"):
            with device.timed_section("inner"):
                device.launch("k", lambda: None, OpCost(flops=1e6, threads=64))
        assert device.stats.sections["outer"] == pytest.approx(
            device.stats.sections["inner"]
        )

    def test_timed_section_accumulates_when_block_raises(self, device):
        with pytest.raises(RuntimeError):
            with device.timed_section("phase"):
                device.launch("k", lambda: None, OpCost(flops=1e6, threads=1024))
                raise RuntimeError("kernel failed")
        assert device.clock > 0.0
        assert device.stats.sections["phase"] == device.clock

    def test_reset_stats_keeps_allocations(self, device):
        a = device.alloc(100, np.float32)
        device.launch("k", lambda: None, OpCost(flops=1, threads=1))
        live = device.stats.bytes_in_use
        device.reset_stats()
        assert device.clock == 0.0
        assert device.stats.kernel_launches == 0
        assert device.stats.bytes_in_use == live
        a.free()

    def test_reset_stats_clears_timeline(self, device):
        # record_timeline's docstring promises reset_stats drops recorded
        # events while leaving recording enabled
        device.record_timeline()
        device.launch("k", lambda: None, OpCost(flops=1, threads=1))
        device.to_device(np.zeros(8, dtype=np.float32))
        assert device.timeline
        device.reset_stats()
        assert device.timeline == []  # cleared but still recording
        device.launch("k", lambda: None, OpCost(flops=1, threads=1))
        assert len(device.timeline) == 1

    def test_reset_stats_without_timeline(self, device):
        device.launch("k", lambda: None, OpCost(flops=1, threads=1))
        device.reset_stats()
        assert device.timeline is None  # stays disabled

    def test_kernel_breakdown_copy(self, device):
        device.launch("a", lambda: None, OpCost(flops=1, threads=1))
        bd = device.stats.kernel_breakdown()
        assert "a" in bd
        bd["a"] = -1.0  # mutating the copy must not affect stats
        assert device.stats.by_kernel["a"].seconds > 0


class TestLaunchValidationAfterCaching:
    """Only successful launch configurations are remembered: after many
    valid launches of one shape, an invalid one still raises."""

    @staticmethod
    def _warm(device, n=50):
        for _ in range(n):
            device.launch("k", lambda: None, OpCost(flops=1, threads=10), block=256)

    @staticmethod
    def _zero_threads() -> OpCost:
        cost = OpCost(flops=1, threads=1)
        object.__setattr__(cost, "threads", 0)  # past OpCost's own check
        return cost

    def test_block_over_limit_still_raises(self, device):
        self._warm(device)
        limit = device.params.max_threads_per_block
        for _ in range(2):
            with pytest.raises(InvalidLaunchError):
                device.launch("k", lambda: None, OpCost(threads=10), block=limit + 1)

    def test_zero_threads_still_raises(self, device):
        self._warm(device)
        for _ in range(2):
            with pytest.raises(InvalidLaunchError):
                device.launch("k", lambda: None, self._zero_threads(), block=256)

    def test_invalid_launch_inside_capture_still_raises(self, device):
        from repro.gpu.plan import LaunchPlan

        plan = LaunchPlan(device, fusion=True)
        for _ in range(20):
            with plan.section("warm"):
                device.launch(
                    "k", lambda: None, OpCost(flops=1, threads=10), fusable=True
                )
        limit = device.params.max_threads_per_block
        for bad in 2 * (
            dict(cost=OpCost(threads=10), block=limit + 1),
            dict(cost=self._zero_threads(), block=256),
        ):
            launches = device.stats.kernel_launches
            with pytest.raises(InvalidLaunchError):
                with plan.section("bad"):
                    device.launch("k", lambda: None, bad["cost"], block=bad["block"])
            assert device._capture is None  # the failed section's capture is gone
            assert device.stats.kernel_launches == launches


class TestTransferAccounting:
    def test_htod_accounted(self, device):
        arr = device.to_device(np.zeros(1000, dtype=np.float32))
        assert device.stats.htod_bytes == 4000
        assert device.stats.transfer_seconds > 0
        arr.free()

    def test_dtoh_accounted(self, device):
        arr = device.to_device(np.zeros(1000, dtype=np.float32))
        before = device.stats.dtoh_bytes
        arr.copy_to_host()
        assert device.stats.dtoh_bytes == before + 4000

    def test_transfer_time_on_clock(self, device):
        t0 = device.clock
        device.to_device(np.zeros(10**6, dtype=np.float32))
        assert device.clock - t0 >= 4e6 / GTX280_PARAMS.pcie_bandwidth


class TestLaunchConfig:
    def test_grid_covers_threads(self):
        cfg = launch_config(1000, 256)
        assert cfg.grid == 4
        assert cfg.launched_threads == 1024
        assert cfg.idle_threads == 24

    def test_exact_fit(self):
        cfg = launch_config(512, 256)
        assert cfg.grid == 2
        assert cfg.idle_threads == 0

    def test_invalid_threads(self):
        with pytest.raises(InvalidLaunchError):
            launch_config(0)

    def test_invalid_block(self):
        with pytest.raises(InvalidLaunchError):
            launch_config(10, 0)

    def test_block_over_device_limit(self):
        with pytest.raises(InvalidLaunchError):
            launch_config(10, 1024, GTX280_PARAMS)


def test_stats_reset_standalone():
    s = DeviceStats()
    s.record_kernel("k", 1.0, OpCost(flops=10))
    s.bytes_in_use = 42
    s.reset()
    assert s.kernel_launches == 0
    assert s.bytes_in_use == 42  # allocations survive


def test_stats_reset_reanchors_peak():
    # peak_bytes_in_use restarts at the live amount, not at the old peak
    # and not at zero (live allocations are still in memory)
    s = DeviceStats()
    s.bytes_in_use = 100
    s.peak_bytes_in_use = 5000
    s.reset()
    assert s.peak_bytes_in_use == 100
    assert s.bytes_in_use == 100


def test_stats_reset_clears_counters_and_sections():
    s = DeviceStats()
    s.record_kernel("k", 1.0, OpCost(flops=10))
    s.allocations = 3
    s.frees = 1
    s.htod_bytes = 4096
    s.sections["phase"] = 2.5
    s.reset()
    assert s.kernel_launches == 0
    assert s.kernel_seconds == 0.0
    assert s.by_kernel == {}
    assert s.allocations == 0
    assert s.frees == 0
    assert s.htod_bytes == 0
    assert s.sections == {}
