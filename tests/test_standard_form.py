"""Tests for the general-form → standard-form conversion and recovery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lp.problem import Bounds, ConstraintSense, LPProblem
from repro.lp.standard_form import StandardFormLP, VariableTransform, to_standard_form
from repro.sparse import CooMatrix, CscMatrix


def feasible_point_roundtrip(lp, x_orig):
    """Map x through the standard form and back; consistency checks."""
    std = to_standard_form(lp)
    # invariants of the standard form itself
    assert np.all(std.b >= 0)
    assert std.num_cols == std.c.size
    return std


class TestBasics:
    def test_all_le_keeps_shape(self, textbook_lp):
        std = to_standard_form(textbook_lp)
        m = textbook_lp.num_constraints
        assert std.num_rows == m
        assert std.num_cols == textbook_lp.num_vars + m  # one slack per row
        assert std.has_full_slack_basis

    def test_maximize_negates_costs(self, textbook_lp):
        std = to_standard_form(textbook_lp)
        assert np.array_equal(std.c[:2], [-3.0, -5.0])
        # objective recovery flips back
        assert std.original_objective(-36.0) == pytest.approx(36.0)

    def test_equality_rows_have_no_slack(self, equality_lp):
        std = to_standard_form(equality_lp)
        assert not std.has_full_slack_basis
        assert std.slack_of_row[1] == -1  # the EQ row

    def test_ge_rows_get_surplus_not_slack_basis(self):
        lp = LPProblem(c=[1.0], a=[[1.0]], senses=[">="], b=[2.0],
                       bounds=Bounds.nonnegative(1))
        std = to_standard_form(lp)
        assert std.slack_of_row[0] == -1
        # surplus column has coefficient -1
        assert std.a_dense()[0, 1] == -1.0

    def test_negative_rhs_flips_row(self):
        lp = LPProblem(c=[1.0], a=[[-2.0]], senses=["<="], b=[-4.0],
                       bounds=Bounds.nonnegative(1))
        std = to_standard_form(lp)
        assert std.b[0] == 4.0
        assert std.a_dense()[0, 0] == 2.0
        # flipped <= becomes >=, so no +1 slack
        assert std.slack_of_row[0] == -1

    def test_standard_b_nonnegative_always(self, bounded_vars_lp):
        std = to_standard_form(bounded_vars_lp)
        assert np.all(std.b >= 0)


class TestBoundTransforms:
    def test_shift_lower_bound(self):
        # min x s.t. x <= 10, x >= 3  -> shifted variable x' = x - 3
        lp = LPProblem(c=[1.0], a=[[1.0]], senses=["<="], b=[10.0],
                       bounds=Bounds(np.array([3.0]), np.array([np.inf])))
        std = to_standard_form(lp)
        assert std.constant == pytest.approx(3.0)
        assert std.b[0] == pytest.approx(7.0)  # 10 - 3
        # x' = 0 recovers x = 3
        x = std.recover_x(np.zeros(std.num_cols))
        assert x[0] == pytest.approx(3.0)

    def test_reflect_upper_only(self):
        # x <= 5 with no lower bound: x = 5 - x'
        lp = LPProblem(c=[2.0], a=[[1.0]], senses=["<="], b=[3.0],
                       bounds=Bounds(np.array([-np.inf]), np.array([5.0])))
        std = to_standard_form(lp)
        assert std.constant == pytest.approx(10.0)  # c * hi
        x = std.recover_x(np.zeros(std.num_cols))
        assert x[0] == pytest.approx(5.0)
        # column sign flipped
        assert std.a_dense()[0, 0] == pytest.approx(1.0)  # -1 * -1 (row flip: b = 3 - 5 = -2 < 0)

    def test_range_bounds_add_row(self):
        lp = LPProblem(c=[1.0], a=[[1.0]], senses=["<="], b=[10.0],
                       bounds=Bounds(np.array([1.0]), np.array([4.0])))
        std = to_standard_form(lp)
        assert std.num_rows == 2  # original row + bound row x' <= 3
        assert std.b[1] == pytest.approx(3.0)

    def test_free_split(self):
        lp = LPProblem(c=[1.0], a=[[1.0]], senses=["<="], b=[10.0],
                       bounds=Bounds(np.array([-np.inf]), np.array([np.inf])))
        std = to_standard_form(lp)
        assert std.n_structural == 2  # x+ and x-
        a = std.a_dense()
        assert a[0, 0] == 1.0 and a[0, 1] == -1.0
        assert std.c[0] == 1.0 and std.c[1] == -1.0
        x = std.recover_x(np.array([2.0, 5.0, 0.0]))
        assert x[0] == pytest.approx(-3.0)

    def test_fixed_variable(self):
        lp = LPProblem(c=[1.0, 1.0], a=[[1.0, 1.0]], senses=["<="], b=[10.0],
                       bounds=Bounds(np.array([2.0, 0.0]), np.array([2.0, np.inf])))
        std = to_standard_form(lp)
        # fixed var becomes shift + bound row x' <= 0
        x = std.recover_x(np.zeros(std.num_cols))
        assert x[0] == pytest.approx(2.0)


class TestSparsePreservation:
    def test_sparse_in_sparse_out(self):
        a = CscMatrix.from_dense(np.array([[1.0, 0.0], [0.0, 2.0]]))
        lp = LPProblem(c=[1.0, 1.0], a=a, senses=["<=", "<="], b=[1.0, 2.0],
                       bounds=Bounds.nonnegative(2))
        std = to_standard_form(lp)
        assert std.is_sparse
        assert isinstance(std.a, CscMatrix)

    def test_dense_in_dense_out(self, textbook_lp):
        std = to_standard_form(textbook_lp)
        assert not std.is_sparse
        assert isinstance(std.a, np.ndarray)

    def test_column_access(self, textbook_lp):
        std = to_standard_form(textbook_lp)
        dense = std.a_dense()
        for j in range(std.num_cols):
            np.testing.assert_array_equal(std.column(j), dense[:, j])

    def test_column_out_of_range(self, textbook_lp):
        from repro.errors import LPDimensionError

        std = to_standard_form(textbook_lp)
        with pytest.raises(LPDimensionError):
            std.column(std.num_cols)


class TestRecovery:
    def test_recover_wrong_length(self, textbook_lp):
        from repro.errors import LPDimensionError

        std = to_standard_form(textbook_lp)
        with pytest.raises(LPDimensionError):
            std.recover_x(np.zeros(std.num_cols + 1))

    def test_known_solution_roundtrip(self, textbook_lp):
        """Push the known optimum through the standard form and back."""
        std = to_standard_form(textbook_lp)
        # x = (2, 6); slacks = b - Ax = (2, 0, 0)
        x_std = np.array([2.0, 6.0, 2.0, 0.0, 0.0])
        a = std.a_dense()
        np.testing.assert_allclose(a @ x_std, std.b)
        x = std.recover_x(x_std)
        np.testing.assert_allclose(x, [2.0, 6.0])
        z_std = float(std.c @ x_std)
        assert std.original_objective(z_std) == pytest.approx(36.0)


@st.composite
def general_lps(draw):
    """Random general-form LPs with mixed senses and bound types."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, n))
    b = rng.normal(size=m)
    c = rng.normal(size=n)
    senses = [draw(st.sampled_from(["<=", ">=", "="])) for _ in range(m)]
    lower = np.where(rng.random(n) < 0.3, -np.inf, rng.normal(size=n) - 2)
    upper = np.where(rng.random(n) < 0.3, np.inf, lower + np.abs(rng.normal(size=n)) + 0.5)
    upper = np.where(np.isneginf(lower), np.where(rng.random(n) < 0.5, np.inf, rng.normal(size=n)), upper)
    maximize = draw(st.booleans())
    return LPProblem(c=c, a=a, senses=senses, b=b,
                     bounds=Bounds(lower, upper), maximize=maximize)


@settings(max_examples=50, deadline=None)
@given(lp=general_lps())
def test_standard_form_invariants(lp):
    std = to_standard_form(lp)
    # 1. b >= 0
    assert np.all(std.b >= 0)
    # 2. every slack hint points at a +1 identity column
    a = std.a_dense()
    for i, col in enumerate(std.slack_of_row):
        if col >= 0:
            e = np.zeros(std.num_rows)
            e[i] = 1.0
            np.testing.assert_array_equal(a[:, col], e)
    # 3. transforms cover every original variable exactly once
    assert len(std.transforms) == lp.num_vars
    # 4. any standard-form point recovers to a point whose objective matches
    rng = np.random.default_rng(0)
    x_std = np.abs(rng.normal(size=std.num_cols))
    x = std.recover_x(x_std)
    c_min = -lp.c if lp.maximize else lp.c
    direct = float(c_min @ x)
    via_std = float(std.c @ x_std) + std.constant
    assert direct == pytest.approx(via_std, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# Bit-identity against the loop implementation
# ---------------------------------------------------------------------------
#
# ``reference_to_standard_form`` is the earlier implementation of
# ``to_standard_form`` — a Python loop per nonzero for the b adjustments and
# split columns, ``np.append`` per bounded column, and ``CooMatrix.to_dense``
# for the dense output — frozen verbatim.  The vectorised version must match
# it bit for bit: every solver's pivot sequence (and so the golden fixture)
# starts from these arrays.


def reference_to_standard_form(
    problem: LPProblem, *, range_bounds_as_rows: bool = True
) -> StandardFormLP:
    """The loop implementation (one Python step per nonzero), frozen."""
    m, n = problem.a.shape

    # Work in triplet form so the same code serves dense and sparse inputs.
    if problem.is_sparse:
        coo = problem.a.tocoo() if hasattr(problem.a, "tocoo") else problem.a
        rows = coo.row.copy()
        cols = coo.col.copy()
        vals = coo.val.copy()
    else:
        rr, cc = np.nonzero(problem.a)
        rows, cols, vals = rr.astype(np.int64), cc.astype(np.int64), problem.a[rr, cc].astype(np.float64)

    c_orig = problem.c.astype(np.float64).copy()
    if problem.maximize:
        c_orig = -c_orig

    b = problem.b.astype(np.float64).copy()
    senses = list(problem.senses)
    lower = problem.bounds.lower
    upper = problem.bounds.upper

    # Dense per-column views are needed for the b adjustments of shifts and
    # reflections; build them lazily from the triplets.
    col_entries: list[list[int]] = [[] for _ in range(n)]
    for k in range(cols.size):
        col_entries[int(cols[k])].append(k)

    transforms: list[VariableTransform] = []
    new_cols_c: list[float] = []
    constant = 0.0
    extra_rows: list[tuple[int, float]] = []  # (std col, upper bound) rows to add
    col_upper: dict[int, float] = {}  # finite column bounds (bounded form)
    next_col = 0
    col_map = np.full(n, -1, dtype=np.int64)  # original col -> new col
    negate_col = np.zeros(n, dtype=bool)
    split_cols: list[tuple[int, int]] = []  # (orig col, new negative col)

    for j in range(n):
        lo, hi = float(lower[j]), float(upper[j])
        lo_finite, hi_finite = np.isfinite(lo), np.isfinite(hi)
        if not lo_finite and not hi_finite:
            # free variable: split
            cp = next_col
            cn = next_col + 1
            next_col += 2
            transforms.append(VariableTransform("split", cp, cn))
            new_cols_c.extend([c_orig[j], -c_orig[j]])
            col_map[j] = cp
            split_cols.append((j, cn))
        elif not lo_finite:
            # x <= hi only: reflect x' = hi - x
            cp = next_col
            next_col += 1
            transforms.append(VariableTransform("reflect", cp, offset=hi))
            new_cols_c.append(-c_orig[j])
            constant += c_orig[j] * hi
            negate_col[j] = True
            col_map[j] = cp
            # b -= A_j * hi  (x = hi - x' substituted into every row)
            for k in col_entries[j]:
                b[int(rows[k])] -= vals[k] * hi
        else:
            # lo finite: shift x' = x - lo (lo may be 0 -> identity)
            cp = next_col
            next_col += 1
            if lo == 0.0:
                transforms.append(VariableTransform("identity", cp))
            else:
                transforms.append(VariableTransform("shift", cp, offset=lo))
                constant += c_orig[j] * lo
                for k in col_entries[j]:
                    b[int(rows[k])] -= vals[k] * lo
            new_cols_c.append(c_orig[j])
            col_map[j] = cp
            if hi_finite:
                if range_bounds_as_rows:
                    extra_rows.append((cp, hi - lo))
                else:
                    col_upper[cp] = hi - lo

    # Rewrite the triplets into the new column space.
    new_rows = [rows]
    new_cols = [col_map[cols]]
    new_vals = [np.where(negate_col[cols], -vals, vals)]
    for j, cn in split_cols:
        ks = col_entries[j]
        if ks:
            ks = np.asarray(ks, dtype=np.int64)
            new_rows.append(rows[ks])
            new_cols.append(np.full(len(ks), cn, dtype=np.int64))
            new_vals.append(-vals[ks])

    # Append the upper-bound rows x'_cp <= ub.
    row_count = m
    ub_rows: list[tuple[int, int, float]] = []
    for cp, ub in extra_rows:
        ub_rows.append((row_count, cp, 1.0))
        b = np.append(b, ub)
        senses.append(ConstraintSense.LE)
        row_count += 1
    if ub_rows:
        r, cidx, v = zip(*ub_rows)
        new_rows.append(np.asarray(r, dtype=np.int64))
        new_cols.append(np.asarray(cidx, dtype=np.int64))
        new_vals.append(np.asarray(v, dtype=np.float64))

    rows = np.concatenate(new_rows) if new_rows else np.zeros(0, dtype=np.int64)
    cols = np.concatenate(new_cols) if new_cols else np.zeros(0, dtype=np.int64)
    vals = np.concatenate(new_vals) if new_vals else np.zeros(0, dtype=np.float64)
    n_structural = next_col

    # Row provenance: original-constraint index for the first m rows,
    # -1 for the synthesised upper-bound rows.
    row_origin = np.concatenate(
        [np.arange(m, dtype=np.int64), np.full(row_count - m, -1, dtype=np.int64)]
    )

    # Row-sign normalisation: b >= 0.
    neg = b < 0.0
    if neg.any():
        flip = neg[rows]
        vals = np.where(flip, -vals, vals)
        b = np.where(neg, -b, b)
        senses = [s.flipped() if neg[i] else s for i, s in enumerate(senses)]
    row_flipped = neg.copy()

    # Slack / surplus columns.
    slack_of_row = np.full(row_count, -1, dtype=np.int64)
    slack_rows: list[int] = []
    slack_vals: list[float] = []
    slack_cols: list[int] = []
    col = n_structural
    for i, sense in enumerate(senses):
        if sense is ConstraintSense.EQ:
            continue
        coeff = 1.0 if sense is ConstraintSense.LE else -1.0
        slack_rows.append(i)
        slack_cols.append(col)
        slack_vals.append(coeff)
        if coeff > 0:
            slack_of_row[i] = col
        col += 1
    n_total = col
    if slack_rows:
        rows = np.concatenate([rows, np.asarray(slack_rows, dtype=np.int64)])
        cols = np.concatenate([cols, np.asarray(slack_cols, dtype=np.int64)])
        vals = np.concatenate([vals, np.asarray(slack_vals, dtype=np.float64)])

    c_std = np.concatenate([np.asarray(new_cols_c, dtype=np.float64),
                            np.zeros(n_total - n_structural)])

    upper_vec: np.ndarray | None = None
    if not range_bounds_as_rows:
        upper_vec = np.full(n_total, np.inf)
        for cp, ub in col_upper.items():
            upper_vec[cp] = ub

    coo = CooMatrix((row_count, n_total), rows, cols, vals)
    a_std: "np.ndarray | CscMatrix"
    if problem.is_sparse:
        a_std = coo.tocsc()
    else:
        a_std = coo.to_dense()

    return StandardFormLP(
        a=a_std,
        b=b,
        c=c_std,
        constant=constant,
        maximize=problem.maximize,
        transforms=transforms,
        slack_of_row=slack_of_row,
        n_structural=n_structural,
        row_origin=row_origin,
        row_flipped=row_flipped,
        upper=upper_vec,
        source_name=problem.name,
    )


_BOUND_KINDS = ("nonneg", "shift", "boxed", "fixed", "upper_only", "free")
#: Coefficients include values whose products round, and signed zeros.
_VALUES = (1.0, -1.0, 0.1, -0.3, 2.5, 1e-3, -7.0, 1.0 / 3.0)
_RHS = (0.0, -0.0, 1.0, -2.0, 0.7, -0.1, 3.0 / 7.0, -5.5)
_OFFSETS = (0.0, -0.0, 0.5, -1.5, 0.1, 2.0, -1.0 / 3.0)


@st.composite
def hostile_lps(draw):
    """LPs exercising every conversion branch, dense or sparse."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    lower = np.zeros(n)
    upper = np.full(n, np.inf)
    for j in range(n):
        kind = draw(st.sampled_from(_BOUND_KINDS))
        off = draw(st.sampled_from(_OFFSETS))
        width = draw(st.sampled_from((0.25, 1.0, 3.0)))
        if kind == "shift":
            lower[j] = off
        elif kind == "boxed":
            lower[j], upper[j] = off, off + width
        elif kind == "fixed":
            lower[j] = upper[j] = off
        elif kind == "upper_only":
            lower[j], upper[j] = -np.inf, off
        elif kind == "free":
            lower[j] = -np.inf
    value = st.sampled_from(_VALUES)
    if draw(st.booleans()):
        a = np.array([[draw(value) if draw(st.booleans()) else 0.0
                       for _ in range(n)] for _ in range(m)])
    else:
        # Sparse triplets with repeated coordinates: duplicates are summed,
        # and a cancelling pair leaves an explicit zero entry.
        k = draw(st.integers(0, 2 * m * n))
        rows = [draw(st.integers(0, m - 1)) for _ in range(k)]
        cols = [draw(st.integers(0, n - 1)) for _ in range(k)]
        vals = [draw(value) for _ in range(k)]
        if k and draw(st.booleans()):
            rows += [rows[0], rows[0]]
            cols += [cols[0], cols[0]]
            vals += [vals[0], -vals[0]]
        a = CooMatrix((m, n), rows, cols, vals)
        if draw(st.booleans()):
            a = a.tocsc()
    return LPProblem(
        c=[draw(value) for _ in range(n)],
        a=a,
        senses=[draw(st.sampled_from(["<=", ">=", "="])) for _ in range(m)],
        b=[draw(st.sampled_from(_RHS)) for _ in range(m)],
        bounds=Bounds(lower, upper),
        maximize=draw(st.booleans()),
    )


def _matrix_bytes(a) -> tuple[bytes, ...]:
    if isinstance(a, CscMatrix):
        return (a.indptr.tobytes(), a.indices.tobytes(), a.data.tobytes())
    return (a.dtype.str.encode(), str(a.shape).encode(), a.tobytes())


def _transform_key(t):
    return (t.kind, t.col, t.col2, float(t.offset).hex())


@settings(max_examples=300, deadline=None)
@given(lp=hostile_lps(), range_rows=st.booleans())
def test_matches_loop_implementation_bit_for_bit(lp, range_rows):
    new = to_standard_form(lp, range_bounds_as_rows=range_rows)
    ref = reference_to_standard_form(lp, range_bounds_as_rows=range_rows)
    assert type(new.a) is type(ref.a)
    assert _matrix_bytes(new.a) == _matrix_bytes(ref.a)
    for name in ("b", "c", "slack_of_row", "row_origin", "row_flipped"):
        got, want = getattr(new, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert (new.upper is None) == (ref.upper is None)
    if ref.upper is not None:
        assert new.upper.tobytes() == ref.upper.tobytes()
    assert float(new.constant).hex() == float(ref.constant).hex()
    assert [_transform_key(t) for t in new.transforms] == [
        _transform_key(t) for t in ref.transforms
    ]
    assert new.n_structural == ref.n_structural
    assert new.maximize == ref.maximize

