"""Tests for the sequential CPU roofline model and its recorder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perfmodel.cpu_model import CpuCostModel, CpuCostRecorder, CpuModelParams
from repro.perfmodel.ops import OpCost
from repro.perfmodel.presets import CORE2_CPU_PARAMS, MODERN_CPU_PARAMS


@pytest.fixture
def model() -> CpuCostModel:
    return CpuCostModel(CORE2_CPU_PARAMS)


class TestParams:
    def test_bad_flops(self):
        with pytest.raises(ValueError):
            CpuModelParams(sustained_flops_fp32=0)

    def test_bad_bandwidth(self):
        with pytest.raises(ValueError):
            CpuModelParams(mem_bandwidth=-1)

    def test_bad_cache_fraction(self):
        with pytest.raises(ValueError):
            CpuModelParams(cache_hit_fraction=1.0)

    def test_dtype_rates(self):
        p = CORE2_CPU_PARAMS
        assert p.sustained_flops(np.float32) == p.sustained_flops_fp32
        assert p.sustained_flops(np.float64) == p.sustained_flops_fp64


class TestOpTime:
    def test_overhead_floor(self, model):
        assert model.op_time(OpCost()) == pytest.approx(CORE2_CPU_PARAMS.call_overhead)

    def test_compute_bound(self, model):
        t = model.op_time(OpCost(flops=8e9), np.float64)
        assert t == pytest.approx(CORE2_CPU_PARAMS.call_overhead + 1.0)

    def test_memory_bound_uses_roofline_max(self, model):
        c = OpCost(flops=1e3, bytes_read=6.4e9 * 10)
        t = model.op_time(c, np.float64)
        # memory term dominates; cache fraction discounts it
        expected_mem = 6.4e9 * 10 * (1 - CORE2_CPU_PARAMS.cache_hit_fraction) / 6.4e9
        assert t == pytest.approx(CORE2_CPU_PARAMS.call_overhead + expected_mem)

    def test_strided_amplification(self):
        p = CpuModelParams(cache_hit_fraction=0.0)
        model = CpuCostModel(p)
        unit = model.op_time(OpCost(bytes_read=1e6, coalesced_fraction=1.0), np.float64)
        strided = model.op_time(OpCost(bytes_read=1e6, coalesced_fraction=0.0), np.float64)
        assert strided > unit

    def test_fp32_twice_fp64_rate(self, model):
        c = OpCost(flops=1e9)
        assert model.op_time(c, np.float64) > model.op_time(c, np.float32)


class TestRecorder:
    def test_accumulates(self, model):
        rec = CpuCostRecorder(model)
        s1 = rec.charge("gemv", OpCost(flops=1e6))
        s2 = rec.charge("gemv", OpCost(flops=1e6))
        assert rec.total_seconds == pytest.approx(s1 + s2)
        assert rec.by_op["gemv"] == pytest.approx(s1 + s2)
        assert rec.op_count == 2

    def test_separate_names(self, model):
        rec = CpuCostRecorder(model)
        rec.charge("a", OpCost(flops=1e6))
        rec.charge("b", OpCost(flops=2e6))
        assert set(rec.by_op) == {"a", "b"}
        assert rec.by_op["b"] > rec.by_op["a"]

    def test_reset(self, model):
        rec = CpuCostRecorder(model)
        rec.charge("a", OpCost(flops=1e6))
        rec.reset()
        assert rec.total_seconds == 0.0
        assert rec.by_op == {}
        assert rec.op_count == 0

    def test_dtype_respected(self, model):
        r32 = CpuCostRecorder(model, dtype=np.float32)
        r64 = CpuCostRecorder(model, dtype=np.float64)
        c = OpCost(flops=1e9)
        assert r64.charge("x", c) > r32.charge("x", c)

    def test_modern_cpu_faster(self):
        old = CpuCostRecorder(CpuCostModel(CORE2_CPU_PARAMS))
        new = CpuCostRecorder(CpuCostModel(MODERN_CPU_PARAMS))
        c = OpCost(flops=1e9, bytes_read=1e8)
        assert new.charge("x", c) < old.charge("x", c)


# ---------------------------------------------------------------------------
# op_time memo: exact, keyed on equal values, bounded
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    work=st.lists(
        st.tuples(
            st.integers(0, 10**9), st.integers(0, 10**9), st.integers(0, 10**8),
            st.sampled_from([0.25, 0.5, 1.0]),
        ),
        min_size=1, max_size=6,
    ),
    dtype=st.sampled_from([np.float32, np.float64, "float64", np.dtype("f4")]),
)
def test_op_time_memo_equals_fresh_model(work, dtype):
    memo = CpuCostModel(CORE2_CPU_PARAMS)
    for _ in range(2):
        for flops, rd, wr, coal in work:
            as_int = OpCost(
                flops=flops, bytes_read=rd, bytes_written=wr, coalesced_fraction=coal
            )
            as_float = OpCost(
                flops=float(flops), bytes_read=float(rd), bytes_written=float(wr),
                coalesced_fraction=coal,
            )
            fresh = CpuCostModel(CORE2_CPU_PARAMS).op_time(as_int, dtype)
            assert memo.op_time(as_int, dtype).hex() == fresh.hex()
            assert memo.op_time(as_float, np.dtype(dtype)).hex() == fresh.hex()


def test_op_time_equal_keys_share_one_entry(model):
    a = model.op_time(OpCost(flops=10), np.float32)
    b = model.op_time(OpCost(flops=10.0), np.dtype("float32"))
    assert a.hex() == b.hex()
    assert len(model._memo) == 1


def test_op_time_memo_bounded_after_revised_sparse_solve(monkeypatch):
    import repro.perfmodel.cpu_model as cpu_model
    from repro import solve
    from repro.lp.generators import random_sparse_lp
    from repro.perfmodel.ops import MEMO_CAP

    models = []
    init = CpuCostModel.__init__

    def recording_init(self, params):
        init(self, params)
        models.append(self)

    monkeypatch.setattr(CpuCostModel, "__init__", recording_init)
    lp = random_sparse_lp(40, 60, density=0.1, seed=7)
    reference = solve(lp, method="revised-sparse")
    sizes = [len(m._memo) for m in models]
    assert sizes and 16 < max(sizes) <= MEMO_CAP
    models.clear()
    monkeypatch.setattr(cpu_model, "MEMO_CAP", 16)
    capped = solve(lp, method="revised-sparse")
    assert models and all(len(m._memo) <= 16 for m in models)
    # emptying a full memo changes no modeled second
    assert capped.timing.modeled_seconds == reference.timing.modeled_seconds
    assert capped.objective == reference.objective
