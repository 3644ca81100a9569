"""Shared fixtures and oracle helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gpu.device import Device
from repro.lp.problem import Bounds, ConstraintSense, LPProblem
from repro.perfmodel.presets import GTX280_PARAMS


@pytest.fixture
def device() -> Device:
    """A fresh GTX 280-modeled device per test."""
    return Device(GTX280_PARAMS)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def textbook_lp() -> LPProblem:
    """max 3x + 5y s.t. x<=4, 2y<=12, 3x+2y<=18 — optimum 36 at (2, 6)."""
    return LPProblem.maximize_problem(
        c=[3.0, 5.0],
        a_ub=[[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]],
        b_ub=[4.0, 12.0, 18.0],
    )


TEXTBOOK_OPTIMUM = 36.0
TEXTBOOK_X = (2.0, 6.0)


@pytest.fixture
def infeasible_lp() -> LPProblem:
    """x <= 1 and x >= 3 simultaneously."""
    return LPProblem.minimize(c=[1.0], a_ub=[[1.0], [-1.0]], b_ub=[1.0, -3.0])


@pytest.fixture
def unbounded_lp() -> LPProblem:
    """min -x with x - y <= 1, both nonnegative: x can grow with y."""
    return LPProblem.minimize(c=[-1.0, 0.0], a_ub=[[1.0, -1.0]], b_ub=[1.0])


@pytest.fixture
def equality_lp() -> LPProblem:
    """min x + 2y s.t. x + y = 4, x - y <= 2 — optimum 5 at (3, 1)?"""
    return LPProblem.minimize(
        c=[1.0, 2.0],
        a_ub=[[1.0, -1.0]],
        b_ub=[2.0],
        a_eq=[[1.0, 1.0]],
        b_eq=[4.0],
    )


@pytest.fixture
def bounded_vars_lp() -> LPProblem:
    """A bounded LP exercising free, negative and range bounds."""
    return LPProblem.minimize(
        c=[1.0, 2.0, -1.0],
        a_ub=[[1.0, 1.0, 1.0], [-1.0, 2.0, 0.0]],
        b_ub=[10.0, 8.0],
        a_eq=[[1.0, -1.0, 2.0]],
        b_eq=[3.0],
        bounds=[(-4.0, 4.0), (None, None), (-2.0, 5.0)],
    )


BOUNDED_VARS_OPTIMUM = -24.0


def scipy_oracle(lp: LPProblem) -> float | None:
    """Optimal objective via scipy HiGHS in the problem's orientation."""
    from repro.bench.harness import scipy_reference

    return scipy_reference(lp)


def assert_matches_oracle(lp: LPProblem, result, tol: float = 1e-5) -> None:
    """Assert an optimal result agrees with scipy and is primal feasible."""
    ref = scipy_oracle(lp)
    assert ref is not None, "oracle could not solve the instance"
    assert result.status.value == "optimal", result.status
    assert abs(result.objective - ref) <= tol * (1.0 + abs(ref)), (
        result.objective,
        ref,
    )
    assert result.x is not None
    assert lp.constraint_violation(result.x) <= 1e-5


def frozen_segment_sums(data, indptr) -> np.ndarray:
    """The per-call segmented reduction that ``repro.sparse.Segments``
    replaced, kept verbatim as the byte-equality reference: a 0.0 sentinel
    is appended so start indices can be clamped into range, and empty
    segments (where ``reduceat`` reports the next segment's first element)
    are forced to 0.0."""
    indptr = np.asarray(indptr, dtype=np.int64)
    if indptr.size <= 1:
        return np.zeros(0, dtype=np.float64)
    data = np.asarray(data, dtype=np.float64)
    out = np.add.reduceat(
        np.concatenate([data, [0.0]]),
        np.minimum(indptr[:-1], data.size),
    )
    lengths = np.diff(indptr)
    return np.asarray(np.where(lengths > 0, out, 0.0), dtype=np.float64)


def frozen_blas_prep(*arrays):
    """The operand checks ``repro.gpu.blas._prep`` ran before its one-pass
    fast path, kept verbatim as the error-parity reference."""
    from repro.gpu._checks import (
        require_device_array,
        require_float_dtype,
        require_same_device,
        require_same_dtype,
    )

    for i, a in enumerate(arrays):
        require_device_array(f"arg{i}", a)
        require_float_dtype(f"arg{i}", a)
    require_same_device(*arrays)
    dtype = require_same_dtype(*arrays)
    return arrays[0].device, dtype, np.dtype(dtype).itemsize


def frozen_reduce_prep(x):
    """The operand checks ``repro.gpu.reduce._prep`` ran before its
    one-pass fast path, kept verbatim as the error-parity reference."""
    from repro.gpu._checks import (
        require_device_array,
        require_float_dtype,
        require_vector,
    )

    require_device_array("x", x)
    require_float_dtype("x", x)
    require_vector("x", x)
    return x.device, x.dtype, x.dtype.itemsize
