"""CSC (compressed sparse column) format: fast column extraction.

Revised simplex reads one *column* of A per iteration (the entering column
``a_q``); CSC makes that O(column nnz), which is why the solver stores the
constraint matrix column-wise.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SparseFormatError
from repro.sparse.base import SparseMatrix


class CscMatrix(SparseMatrix):
    """Sparse matrix in CSC form: ``indptr`` (n+1), ``indices`` (row ids per
    entry, sorted within each column), ``data`` (values)."""

    def __init__(self, shape, indptr, indices, data):
        self.shape = self._validate_shape(shape)
        m, n = self.shape
        self.indptr = self._as_index_array("indptr", indptr, n + 1)
        nnz = int(self.indptr[-1]) if self.indptr.size else 0
        self.indices = self._as_index_array("indices", indices, nnz)
        self.data = self._as_value_array("data", data, nnz)
        self._validate_structure()

    def _validate_structure(self) -> None:
        m, _ = self.shape
        if self.indptr.size and self.indptr[0] != 0:
            raise SparseFormatError("indptr must start at 0")
        if np.any(np.diff(self.indptr) < 0):
            raise SparseFormatError("indptr must be non-decreasing")
        if self.indices.size:
            if self.indices.min() < 0 or self.indices.max() >= m:
                raise SparseFormatError("row index out of range")
            for j in range(self.shape[1]):
                lo, hi = self.indptr[j], self.indptr[j + 1]
                seg = self.indices[lo:hi]
                if seg.size > 1 and np.any(np.diff(seg) <= 0):
                    raise SparseFormatError(
                        f"column {j} has unsorted or duplicate row indices"
                    )

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_dense(cls, dense: np.ndarray, tol: float = 0.0) -> "CscMatrix":
        from repro.sparse.coo import CooMatrix

        return CooMatrix.from_dense(dense, tol).tocsc()

    # -- SparseMatrix API -------------------------------------------------------

    @property
    def nnz(self) -> int:
        return self.data.size

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.float64)
        for j in range(self.shape[1]):
            lo, hi = self.indptr[j], self.indptr[j + 1]
            out[self.indices[lo:hi], j] = self.data[lo:hi]
        return out

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = self._matvec_check(x)
        out = np.zeros(self.shape[0], dtype=np.float64)
        np.add.at(out, self.indices, self.data * x[self._segments().col_of])
        return out

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        y = self._rmatvec_check(y)
        # one sum per column
        return self._segments().sum_products(self.data, y[self.indices])

    # -- column access ------------------------------------------------------------

    def getcol(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """(row indices, values) of column j — O(column nnz)."""
        if not 0 <= j < self.shape[1]:
            raise SparseFormatError(f"column {j} out of range for {self.shape}")
        lo, hi = self.indptr[j], self.indptr[j + 1]
        return self.indices[lo:hi].copy(), self.data[lo:hi].copy()

    def getcol_dense(self, j: int) -> np.ndarray:
        """Column j scattered into a dense m-vector."""
        rows, vals = self.getcol(j)
        out = np.zeros(self.shape[0], dtype=np.float64)
        out[rows] = vals
        return out

    def col_nnz(self) -> np.ndarray:
        """Entry count per column."""
        return np.diff(self.indptr)

    # -- conversions ----------------------------------------------------------------

    def tocoo(self):
        from repro.sparse.coo import CooMatrix

        col = np.repeat(np.arange(self.shape[1], dtype=np.int64), np.diff(self.indptr))
        return CooMatrix(self.shape, self.indices.copy(), col, self.data.copy())

    def tocsr(self):
        return self.tocoo().tocsr()

    def transpose(self):
        """Aᵀ as CSR — a pure buffer reinterpretation, O(nnz) copies.

        This CSC *is* the CSR of the transpose, so no sort through COO is
        needed; use ``.tocsc()`` on the result if Aᵀ is wanted column-major.
        """
        from repro.sparse.csr import CsrMatrix

        return CsrMatrix(
            (self.shape[1], self.shape[0]),
            self.indptr.copy(),
            self.indices.copy(),
            self.data.copy(),
        )
