"""The constant-cost launch path of the dense device kernels.

``repro.gpu.blas._prep`` and ``repro.gpu.reduce._prep`` accept the usual
operands in one identity pass and fall back to the full ``require_*``
chain otherwise; these tests hold them to the former checks (frozen in
``conftest``) error for error.  The timeline event type is a named tuple
with the dataclass's fields, and a profiler wrapped around a whole solve
still sees every launch the device counts.
"""

from __future__ import annotations

import collections

import numpy as np
import pytest
from conftest import frozen_blas_prep, frozen_reduce_prep

from repro.core.gpu_revised_simplex import GpuRevisedSimplex
from repro.errors import DeviceArrayError
from repro.gpu import blas, reduce
from repro.gpu.device import Device, TimelineEvent
from repro.gpu.profiler import profile
from repro.lp.generators import random_dense_lp
from repro.simplex.options import SolverOptions


def _outcome(fn, *args):
    """What ``fn(*args)`` does: its (device, dtype, itemsize), or the type
    and message of the error it raises."""
    try:
        dev, dtype, itemsize = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return ("raises", type(exc), str(exc))
    return ("returns", id(dev), np.dtype(dtype), itemsize)


def _bad_operands(device: Device) -> dict:
    """One operand per way a kernel argument can be wrong (or unusual)."""
    freed = device.to_device(np.ones(4))
    freed.free()
    return {
        "freed": freed,
        "host array": np.ones(4),
        "int dtype": device.to_device(np.ones(4, dtype=np.int64)),
        "float32 among float64": device.to_device(np.ones(4, dtype=np.float32)),
        "other device": Device().to_device(np.ones(4)),
        "big-endian float64": device.to_device(np.ones(4, dtype=">f8")),
        "2-D": device.to_device(np.ones((2, 2))),
    }


class TestPrepErrorParity:
    @pytest.mark.parametrize("n_args", [1, 2, 3])
    def test_blas_prep_matches_the_former_checks(self, device, n_args):
        for label, bad in _bad_operands(device).items():
            for pos in range(n_args):
                args = [device.to_device(np.ones(4)) for _ in range(n_args)]
                args[pos] = bad
                want = _outcome(frozen_blas_prep, *args)
                got = _outcome(blas._prep, *args)
                assert got == want, (label, pos)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blas_prep_accepts_valid_operands(self, device, dtype):
        args = [device.to_device(np.ones(4, dtype=dtype)) for _ in range(3)]
        dev, got_dtype, w = blas._prep(*args)
        assert dev is device
        assert got_dtype == np.dtype(dtype)
        assert w == np.dtype(dtype).itemsize

    def test_reduce_prep_matches_the_former_checks(self, device):
        cases = {
            **_bad_operands(device),
            "float32": device.to_device(np.ones(4, dtype=np.float32)),
            "float64": device.to_device(np.ones(4)),
        }
        for label, x in cases.items():
            want = _outcome(frozen_reduce_prep, x)
            assert _outcome(reduce._prep, x) == want, label

    def test_fallback_raises_through_public_kernels(self, device):
        x = device.to_device(np.ones(4))
        y = device.to_device(np.ones(4, dtype=np.float32))
        with pytest.raises(DeviceArrayError, match="mixed dtypes"):
            blas.axpy(1.0, x, y)
        x.free()
        with pytest.raises(DeviceArrayError, match="freed"):
            reduce.argmin(x)


class TestTimelineEvent:
    def test_fields_and_defaults(self):
        assert TimelineEvent._fields == (
            "kind", "name", "seconds", "threads", "nbytes", "start",
        )
        e = TimelineEvent("kernel", "k", 1e-3)
        assert (e.threads, e.nbytes, e.start) == (0, 0, None)
        full = TimelineEvent("htod", "transfer", 2e-3, 0, 64, 0.5)
        assert full == TimelineEvent(
            kind="htod", name="transfer", seconds=2e-3, nbytes=64, start=0.5
        )
        assert hash(full) == hash(TimelineEvent("htod", "transfer", 2e-3, 0, 64, 0.5))

    def test_immutable(self):
        e = TimelineEvent("kernel", "k", 1e-3)
        with pytest.raises(AttributeError):
            e.seconds = 2e-3  # type: ignore[misc]
        with pytest.raises(AttributeError):
            e.extra = 1  # type: ignore[attr-defined]

    def test_device_events_carry_the_launch(self, device):
        device.record_timeline()
        x = device.to_device(np.ones(100))
        blas.scal(2.0, x)
        htod, kernel = device.timeline
        assert htod == TimelineEvent("htod", "transfer", htod.seconds, 0, 800, 0.0)
        assert kernel.kind == "kernel" and kernel.name == "blas.scal"
        assert (kernel.threads, kernel.nbytes) == (100, 1600)
        assert kernel.start == pytest.approx(htod.seconds)  # clock - seconds
        assert kernel.seconds == device.stats.by_kernel["blas.scal"].seconds


@pytest.mark.parametrize("fusion", [False, True])
def test_profile_sees_every_launch_of_a_solve(device, fusion):
    """``gpu.profiler.profile`` wraps ``Device.launch`` per instance; the
    launch memo and the inlined statistics must not route any launch
    around it.  With fusion on, a captured launch is profiled once, when
    its lowered launch executes, not also when it is captured."""
    lp = random_dense_lp(12, 16, seed=5)
    with profile(device) as prof:
        result = GpuRevisedSimplex(SolverOptions(fusion=fusion), device=device).solve(lp)
    assert result.status.value == "optimal"
    seen = collections.Counter(e.name for e in prof.kernels())
    counted = {name: rec.launches for name, rec in device.stats.by_kernel.items()}
    assert dict(seen) == counted
    assert sum(seen.values()) == device.stats.kernel_launches > 50
    assert {e.name for e in prof.transfers()} <= {
        "memcpy.htod", "memcpy.dtoh", "memcpy.dtod"
    }


def test_memo_hits_give_the_cost_model_seconds(device):
    """A launch answered from the memo advances the clock by exactly the
    cost model's seconds for that launch."""
    from repro.perfmodel.gpu_model import GpuCostModel

    x = device.to_device(np.ones(300))
    y = device.to_device(np.ones(300))
    model = GpuCostModel(device.params)
    for _ in range(3):
        t0 = device.clock
        blas.axpy(0.5, x, y)
        want = model.kernel_time(
            blas.op_cost(flops=600, bytes_read=4800, bytes_written=2400, threads=300),
            np.float64, 256,
        )
        assert device.clock == t0 + want
    assert device.stats.by_kernel["blas.axpy"].launches == 3
    assert len(device._launch_memo) >= 1

