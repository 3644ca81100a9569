"""First-order LP solvers: restarted, preconditioned PDHG (PDLP-style).

The non-simplex wing of the engine, written as one loop on two machines.
``repro.firstorder.pdhg`` holds the method — :class:`~repro.firstorder.pdhg.PdhgSolver`,
the single restart/ray/KKT loop, plus its controls and termination logic;
``repro.firstorder.cpu`` (``"pdlp"``) runs it on a host executor of
NumPy/CSC ops charged to the CPU cost model, and ``repro.firstorder.gpu``
(``"gpu-pdlp"``) on a device executor of fused kernels inside launch-plan
sections.  ``repro.firstorder.rescale`` holds the diagonal
preconditioning both executors iterate on.
"""

from repro.firstorder.cpu import PdlpSolver
from repro.firstorder.gpu import GpuPdlpSolver

__all__ = ["PdlpSolver", "GpuPdlpSolver"]
