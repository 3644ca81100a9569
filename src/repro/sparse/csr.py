"""CSR (compressed sparse row) format: fast row access and matvec."""

from __future__ import annotations

import numpy as np

from repro.errors import SparseFormatError
from repro.sparse.base import SparseMatrix


class CsrMatrix(SparseMatrix):
    """Sparse matrix in CSR form: ``indptr`` (m+1), ``indices`` (col ids per
    entry, sorted within each row), ``data`` (values)."""

    def __init__(self, shape, indptr, indices, data):
        self.shape = self._validate_shape(shape)
        m, n = self.shape
        self.indptr = self._as_index_array("indptr", indptr, m + 1)
        nnz = int(self.indptr[-1]) if self.indptr.size else 0
        self.indices = self._as_index_array("indices", indices, nnz)
        self.data = self._as_value_array("data", data, nnz)
        self._validate_structure()

    def _validate_structure(self) -> None:
        m, n = self.shape
        if self.indptr.size and self.indptr[0] != 0:
            raise SparseFormatError("indptr must start at 0")
        if np.any(np.diff(self.indptr) < 0):
            raise SparseFormatError("indptr must be non-decreasing")
        if self.indices.size:
            if self.indices.min() < 0 or self.indices.max() >= n:
                raise SparseFormatError("column index out of range")
            # column indices sorted within each row (canonical CSR)
            for i in range(m):
                lo, hi = self.indptr[i], self.indptr[i + 1]
                seg = self.indices[lo:hi]
                if seg.size > 1 and np.any(np.diff(seg) <= 0):
                    raise SparseFormatError(
                        f"row {i} has unsorted or duplicate column indices"
                    )

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_dense(cls, dense: np.ndarray, tol: float = 0.0) -> "CsrMatrix":
        from repro.sparse.coo import CooMatrix

        return CooMatrix.from_dense(dense, tol).tocsr()

    @classmethod
    def eye(cls, n: int) -> "CsrMatrix":
        """The n×n identity (the initial basis inverse of phase 1)."""
        return cls(
            (n, n),
            np.arange(n + 1, dtype=np.int64),
            np.arange(n, dtype=np.int64),
            np.ones(n),
        )

    # -- SparseMatrix API ------------------------------------------------------

    @property
    def nnz(self) -> int:
        return self.data.size

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.float64)
        for i in range(self.shape[0]):
            lo, hi = self.indptr[i], self.indptr[i + 1]
            out[i, self.indices[lo:hi]] = self.data[lo:hi]
        return out

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = self._matvec_check(x)
        # one sum per row
        return self._segments().sum_products(self.data, x[self.indices])

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        y = self._rmatvec_check(y)
        out = np.zeros(self.shape[1], dtype=np.float64)
        np.add.at(out, self.indices, self.data * y[self._segments().col_of])
        return out

    # -- row/col access ----------------------------------------------------------

    def getrow(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """(column indices, values) of row i — O(row nnz)."""
        if not 0 <= i < self.shape[0]:
            raise SparseFormatError(f"row {i} out of range for {self.shape}")
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi].copy(), self.data[lo:hi].copy()

    def getcol_dense(self, j: int) -> np.ndarray:
        """Column j as a dense vector — O(nnz); use CSC for hot column reads."""
        if not 0 <= j < self.shape[1]:
            raise SparseFormatError(f"column {j} out of range for {self.shape}")
        out = np.zeros(self.shape[0], dtype=np.float64)
        hits = self.indices == j
        if hits.any():
            row_of = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
            out[row_of[hits]] = self.data[hits]
        return out

    # -- conversions ----------------------------------------------------------

    def tocoo(self):
        from repro.sparse.coo import CooMatrix

        row = np.repeat(np.arange(self.shape[0], dtype=np.int64), np.diff(self.indptr))
        return CooMatrix(self.shape, row, self.indices.copy(), self.data.copy())

    def tocsc(self):
        return self.tocoo().tocsc()

    def transpose(self):
        """Aᵀ as CSC — a pure buffer reinterpretation, O(nnz) copies.

        This CSR *is* the CSC of the transpose, so no sort through COO is
        needed; use ``.tocsr()`` on the result if Aᵀ is wanted row-major.
        """
        from repro.sparse.csc import CscMatrix

        return CscMatrix(
            (self.shape[1], self.shape[0]),
            self.indptr.copy(),
            self.indices.copy(),
            self.data.copy(),
        )

    def prune(self, tol: float = 0.0) -> "CsrMatrix":
        """Drop entries of magnitude <= tol (counters fill-in from updates)."""
        keep = np.abs(self.data) > tol
        lengths = np.zeros(self.shape[0], dtype=np.int64)
        row_of = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        np.add.at(lengths, row_of[keep], 1)
        indptr = np.zeros(self.shape[0] + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        return CsrMatrix(self.shape, indptr, self.indices[keep], self.data[keep])
