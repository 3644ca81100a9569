"""Tests for the machine-neutral OpCost descriptor."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.perfmodel.gpu_model import GpuCostModel
from repro.perfmodel.ops import MEMO_CAP, OpCost, ZERO_COST, op_cost
from repro.perfmodel.presets import GTX280_PARAMS


class TestValidation:
    def test_defaults(self):
        c = OpCost()
        assert c.flops == 0.0
        assert c.bytes_total == 0.0
        assert c.threads == 1
        assert c.coalesced_fraction == 1.0

    def test_negative_flops_rejected(self):
        with pytest.raises(ValueError):
            OpCost(flops=-1.0)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            OpCost(bytes_read=-1.0)
        with pytest.raises(ValueError):
            OpCost(bytes_written=-8.0)

    def test_zero_threads_rejected(self):
        with pytest.raises(ValueError):
            OpCost(threads=0)

    def test_coalesced_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            OpCost(coalesced_fraction=1.5)
        with pytest.raises(ValueError):
            OpCost(coalesced_fraction=-0.1)

    def test_divergent_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            OpCost(divergent_fraction=2.0)

    def test_frozen(self):
        c = OpCost(flops=10)
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.flops = 20  # type: ignore[misc]


class TestArithmetic:
    def test_bytes_total(self):
        c = OpCost(bytes_read=100, bytes_written=28)
        assert c.bytes_total == 128

    def test_scaled(self):
        c = OpCost(flops=10, bytes_read=20, bytes_written=4, threads=7)
        s = c.scaled(3.0)
        assert s.flops == 30
        assert s.bytes_read == 60
        assert s.bytes_written == 12
        assert s.threads == 7  # parallel width unchanged

    def test_scaled_negative_rejected(self):
        with pytest.raises(ValueError):
            OpCost(flops=1).scaled(-1.0)

    def test_add_sums_work_and_traffic(self):
        a = OpCost(flops=10, bytes_read=100, bytes_written=0, threads=4)
        b = OpCost(flops=5, bytes_read=0, bytes_written=50, threads=9)
        c = a + b
        assert c.flops == 15
        assert c.bytes_read == 100
        assert c.bytes_written == 50
        assert c.threads == 9  # sequential composition keeps the max width

    def test_add_weights_coalescing_by_traffic(self):
        a = OpCost(bytes_read=100, coalesced_fraction=1.0)
        b = OpCost(bytes_read=100, coalesced_fraction=0.0)
        assert (a + b).coalesced_fraction == pytest.approx(0.5)

    def test_add_weights_divergence_by_flops(self):
        a = OpCost(flops=100, divergent_fraction=0.0)
        b = OpCost(flops=100, divergent_fraction=1.0)
        assert (a + b).divergent_fraction == pytest.approx(0.5)

    def test_add_zero_is_identity_for_work(self):
        a = OpCost(flops=3, bytes_read=7, bytes_written=9, threads=5)
        c = a + ZERO_COST
        assert c.flops == a.flops
        assert c.bytes_total == a.bytes_total

    def test_add_wrong_type(self):
        with pytest.raises(TypeError):
            OpCost() + 3  # type: ignore[operator]


@given(
    f1=st.floats(0, 1e9),
    f2=st.floats(0, 1e9),
    r1=st.floats(0, 1e9),
    r2=st.floats(0, 1e9),
    t1=st.integers(1, 10**6),
    t2=st.integers(1, 10**6),
)
def test_add_commutative_in_totals(f1, f2, r1, r2, t1, t2):
    a = OpCost(flops=f1, bytes_read=r1, threads=t1)
    b = OpCost(flops=f2, bytes_read=r2, threads=t2)
    ab, ba = a + b, b + a
    assert ab.flops == ba.flops
    assert ab.bytes_total == ba.bytes_total
    assert ab.threads == ba.threads


@given(
    flops=st.floats(0, 1e12),
    br=st.floats(0, 1e12),
    bw=st.floats(0, 1e12),
    k=st.floats(0, 100),
)
def test_scaling_is_linear(flops, br, bw, k):
    c = OpCost(flops=flops, bytes_read=br, bytes_written=bw)
    s = c.scaled(k)
    assert s.flops == pytest.approx(flops * k)
    assert s.bytes_total == pytest.approx((br + bw) * k)


# Either type a caller may pass for each field: op_cost interns per type.
_number = st.one_of(st.integers(0, 10**9), st.floats(0, 1e12))
_fraction = st.one_of(st.just(1), st.just(0), st.floats(0, 1))


@given(
    fields=st.fixed_dictionaries(
        {},
        optional={
            "flops": _number,
            "bytes_read": _number,
            "bytes_written": _number,
            "threads": st.integers(1, 10**7),
            "coalesced_fraction": _fraction,
            "divergent_fraction": _fraction,
        },
    ),
    dtype=st.sampled_from(["float32", "float64"]),
    block=st.sampled_from([64, 128, 256, 512]),
)
def test_op_cost_interns_an_equal_cost(fields, dtype, block):
    """``op_cost(**f)`` is ``OpCost(**f)``: equal, same hash, fields of the
    same types, and the same modeled seconds bit for bit from a fresh
    model; a second call returns the very same object."""
    interned = op_cost(**fields)
    fresh = OpCost(**fields)
    assert interned == fresh
    assert hash(interned) == hash(fresh)
    for f in dataclasses.fields(OpCost):
        assert type(getattr(interned, f.name)) is type(getattr(fresh, f.name))
    assert op_cost(**fields) is interned
    want = GpuCostModel(GTX280_PARAMS).kernel_time(fresh, dtype, block)
    got = GpuCostModel(GTX280_PARAMS).kernel_time(interned, dtype, block)
    assert got.hex() == want.hex()


class TestInterning:
    def test_int_and_float_fields_stay_apart(self):
        a, b = op_cost(flops=10), op_cost(flops=10.0)
        assert a == b and a is not b
        assert type(a.flops) is int and type(b.flops) is float

    def test_invalid_arguments_raise_every_call(self):
        for _ in range(2):
            with pytest.raises(ValueError):
                op_cost(threads=0)

    def test_cache_is_bounded(self):
        for i in range(MEMO_CAP + 10):
            op_cost(flops=float(i), threads=7)
        assert op_cost.cache_info().currsize <= MEMO_CAP

    def test_hash_is_the_field_tuple_hash(self):
        c = OpCost(flops=3, bytes_read=8.0, threads=4)
        assert hash(c) == hash((3, 8.0, 0.0, 4, 1.0, 0.0))
        assert hash(c.scaled(2.0)) == hash(OpCost(flops=6.0, bytes_read=16.0, threads=4))
