"""Shared behaviour of the sparse matrix formats."""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import SparseFormatError


def segment_sums(data: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-segment sums of ``data`` partitioned by ``indptr`` boundaries.

    Segment ``i`` covers ``data[indptr[i]:indptr[i+1]]``; the result has
    ``len(indptr) - 1`` entries, and an empty segment sums to 0.0.  A
    one-off call of :meth:`Segments.sums`; callers that reduce over the same
    ``indptr`` repeatedly keep the :class:`Segments` instead.
    """
    return Segments(indptr).sums(data)


class Segments:
    """The segment structure of one ``indptr``, computed once per matrix.

    This is the one implementation of the segmented reduction behind every
    SpMV.  It runs ``np.add.reduceat`` over the *nonempty* segments' starts
    only (``reduceat`` would report the next segment's first element for a
    zero-length one), and fills empty segments with 0.0 afterwards.  The
    data is reduced with a trailing 0.0 sentinel, so a nonempty *final*
    segment is summed with that 0.0 as its last term (which turns a
    ``-0.0`` sum into ``0.0`` and can change how ``reduceat`` pairs up the
    terms); a nonempty segment followed only by empty ones is not.
    :attr:`sentinel` records which case holds.  The rule is the one the
    former per-call body (a sentinel appended so clamped start indices stay
    in range) followed, kept so every sum stays bit-identical to it.

    ``col_of`` is the segment id of every entry — the column of each CSC
    entry, the row of each CSR entry — for the scatter-add products.  The
    structure assumes ``indptr`` is not modified in place afterwards.
    """

    __slots__ = ("indptr", "size", "nnz", "starts", "rows", "sentinel", "_col_of")

    def __init__(self, indptr: np.ndarray):
        #: The array this structure was built from (identity-checked by the
        #: owning matrix, which rebuilds if ``indptr`` is reassigned).
        self.indptr = indptr
        ptr = np.asarray(indptr, dtype=np.int64)
        self.size = max(ptr.size - 1, 0)
        self.nnz = int(ptr[-1]) if ptr.size else 0
        lengths = np.diff(ptr)
        nonempty = lengths > 0
        self.starts = ptr[:-1][nonempty]
        #: Output slots of the nonempty segments; None when all are nonempty.
        self.rows = None if nonempty.all() else np.flatnonzero(nonempty)
        self.sentinel = bool(self.size) and bool(nonempty[-1])
        self._col_of: np.ndarray | None = None

    @property
    def col_of(self) -> np.ndarray:
        if self._col_of is None:
            ptr = np.asarray(self.indptr, dtype=np.int64)
            self._col_of = np.repeat(np.arange(self.size), np.diff(ptr))
        return self._col_of

    def sums(self, data: np.ndarray) -> np.ndarray:
        """Per-segment sums of ``data`` (length nnz), in float64."""
        data = np.asarray(data, dtype=np.float64)
        if data.shape != (self.nnz,):
            raise ValueError(f"data has shape {data.shape}, expected ({self.nnz},)")
        buf = np.empty(self.nnz + 1, dtype=np.float64)
        buf[: self.nnz] = data
        return self._reduce(buf)

    def sum_products(self, values: np.ndarray, factors: np.ndarray) -> np.ndarray:
        """Per-segment sums of ``values * factors`` (both of length nnz),
        multiplied and summed in float64."""
        buf = np.empty(self.nnz + 1, dtype=np.float64)
        np.multiply(values, factors, out=buf[: self.nnz], dtype=np.float64)
        return self._reduce(buf)

    def _reduce(self, buf: np.ndarray) -> np.ndarray:
        """Segment sums of ``buf[:nnz]``; ``buf[nnz]`` is the sentinel slot."""
        if not self.starts.size:
            return np.zeros(self.size, dtype=np.float64)
        nnz = self.nnz
        buf[nnz] = 0.0
        sums = np.add.reduceat(buf if self.sentinel else buf[:nnz], self.starts)
        if self.rows is None:
            return sums
        out = np.zeros(self.size, dtype=np.float64)
        out[self.rows] = sums
        return out


class SparseMatrix(abc.ABC):
    """Abstract base: shape/nnz bookkeeping and format-neutral helpers."""

    shape: tuple[int, int]

    @property
    @abc.abstractmethod
    def nnz(self) -> int:
        """Number of stored entries (explicit zeros count until pruned)."""

    @abc.abstractmethod
    def to_dense(self) -> np.ndarray:
        """Materialise as a dense ndarray."""

    @abc.abstractmethod
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Return ``A @ x``."""

    @abc.abstractmethod
    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """Return ``A.T @ y``."""

    @property
    def density(self) -> float:
        """nnz / (rows * cols); 0 for an empty shape."""
        cells = self.shape[0] * self.shape[1]
        return self.nnz / cells if cells else 0.0

    def _segments(self) -> Segments:
        """The :class:`Segments` of ``self.indptr`` (CSR/CSC), built on
        first use and rebuilt only if ``indptr`` is reassigned."""
        seg = self.__dict__.get("_seg")
        if seg is None or seg.indptr is not self.indptr:
            seg = self._seg = Segments(self.indptr)
        return seg

    # -- shared validation --------------------------------------------------

    @staticmethod
    def _validate_shape(shape) -> tuple[int, int]:
        try:
            m, n = (int(shape[0]), int(shape[1]))
        except (TypeError, IndexError, ValueError):
            raise SparseFormatError(f"shape must be a pair, got {shape!r}") from None
        if m < 0 or n < 0:
            raise SparseFormatError(f"shape must be non-negative, got {(m, n)}")
        return m, n

    @staticmethod
    def _as_index_array(name: str, arr, n_expected: int | None = None) -> np.ndarray:
        out = np.asarray(arr)
        if out.ndim != 1:
            raise SparseFormatError(f"{name} must be 1-D")
        if out.size and not np.issubdtype(out.dtype, np.integer):
            if not np.all(out == out.astype(np.int64)):
                raise SparseFormatError(f"{name} must contain integers")
        out = out.astype(np.int64, copy=False)
        if n_expected is not None and out.size != n_expected:
            raise SparseFormatError(
                f"{name} must have length {n_expected}, got {out.size}"
            )
        return out

    @staticmethod
    def _as_value_array(name: str, arr, n_expected: int | None = None) -> np.ndarray:
        out = np.asarray(arr, dtype=np.float64)
        if out.ndim != 1:
            raise SparseFormatError(f"{name} must be 1-D")
        if n_expected is not None and out.size != n_expected:
            raise SparseFormatError(
                f"{name} must have length {n_expected}, got {out.size}"
            )
        return out

    def _matvec_check(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.shape[1],):
            raise SparseFormatError(
                f"matvec operand has shape {x.shape}, expected ({self.shape[1]},)"
            )
        return x

    def _rmatvec_check(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.shape[0],):
            raise SparseFormatError(
                f"rmatvec operand has shape {y.shape}, expected ({self.shape[0]},)"
            )
        return y

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} {self.shape[0]}x{self.shape[1]} "
            f"nnz={self.nnz} ({100 * self.density:.2f}%)>"
        )
