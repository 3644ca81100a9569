"""Sparse matrix formats implemented from scratch.

The library's sparse substrate: COO (construction-friendly), CSR (fast row
access / matvec) and CSC (fast column extraction — the access pattern revised
simplex needs for entering columns ``a_q``).  All formats are backed by plain
NumPy index/value arrays, validate their structural invariants on
construction, and interconvert losslessly.

These are deliberately *not* wrappers around ``scipy.sparse``; scipy is used
only in the test-suite as an independent oracle.
"""

from repro.sparse.base import Segments, segment_sums
from repro.sparse.coo import CooMatrix
from repro.sparse.csr import CsrMatrix
from repro.sparse.csc import CscMatrix

__all__ = ["CooMatrix", "CsrMatrix", "CscMatrix", "Segments", "segment_sums"]
