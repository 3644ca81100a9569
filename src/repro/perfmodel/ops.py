"""Machine-neutral operation cost descriptors.

Every kernel launch on the simulated device — and every BLAS-style operation
in the CPU baselines — produces an :class:`OpCost` describing *what the
operation does physically*: floating-point work, memory traffic, available
parallelism and access-pattern quality.  Machine models turn an ``OpCost``
into seconds.
"""

from __future__ import annotations

import dataclasses

#: Entry cap of the cost models' per-instance memos (``kernel_time``,
#: ``op_time``).  A full memo is emptied and refilled, so it never holds
#: more than this many entries.  Memoization is exact: the models are pure
#: functions of ``(OpCost, dtype[, block])`` and their frozen parameters,
#: and equal keys (``OpCost(flops=10)`` and ``OpCost(flops=10.0)``, say)
#: hold numerically equal fields, which the models' float arithmetic turns
#: into the same seconds.  A PDHG solve needs under 20 keys and a serve
#: replay's long-lived devices under 200; a sparse simplex solve at 300x450
#: needs about a thousand, so its memo is emptied a few times per solve.
#: The cap bounds the memo's memory (about 0.45 kB per entry, counting the
#: key's ``OpCost``): at 1024 entries the sparse-simplex pass's peak RSS
#: rose by about 1 MB, at 256 by about 0.15 MB.
MEMO_CAP = 256


@dataclasses.dataclass(frozen=True)
class OpCost:
    """Physical cost of one operation, independent of the machine.

    Attributes
    ----------
    flops:
        Floating-point operations performed (multiply-add counts as 2).
    bytes_read / bytes_written:
        Bytes moved from/to the main memory of the machine (device global
        memory on the GPU, DRAM on the CPU).  Cache/shared-memory reuse should
        already be discounted by the caller — these are *main-memory* bytes.
    threads:
        Number of logical parallel work items.  On the GPU this drives the
        device-fill correction (a 64-thread kernel cannot saturate 30 SMs);
        ignored by sequential CPU models.
    coalesced_fraction:
        Fraction of memory traffic that is fully coalesced (GPU) /
        unit-stride (CPU).  Non-coalesced traffic is charged an amplification
        factor by the model.
    divergent_fraction:
        Fraction of warps that suffer branch divergence; divergent warps
        execute both sides of a branch, doubling their compute cost.
    """

    flops: float = 0.0
    bytes_read: float = 0.0
    bytes_written: float = 0.0
    threads: int = 1
    coalesced_fraction: float = 1.0
    divergent_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.flops < 0 or self.bytes_read < 0 or self.bytes_written < 0:
            raise ValueError("OpCost fields must be non-negative")
        if self.threads < 1:
            raise ValueError("OpCost.threads must be >= 1")
        if not 0.0 <= self.coalesced_fraction <= 1.0:
            raise ValueError("coalesced_fraction must lie in [0, 1]")
        if not 0.0 <= self.divergent_fraction <= 1.0:
            raise ValueError("divergent_fraction must lie in [0, 1]")

    @property
    def bytes_total(self) -> float:
        return self.bytes_read + self.bytes_written

    def scaled(self, factor: float) -> "OpCost":
        """Return a copy with work and traffic scaled by ``factor``."""
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        return dataclasses.replace(
            self,
            flops=self.flops * factor,
            bytes_read=self.bytes_read * factor,
            bytes_written=self.bytes_written * factor,
        )

    def __add__(self, other: "OpCost") -> "OpCost":
        """Combine two costs executed back-to-back (threads = max, traffic
        quality = traffic-weighted average)."""
        if not isinstance(other, OpCost):
            return NotImplemented
        return OpCost.fuse(self, other)

    @classmethod
    def fuse(cls, *costs: "OpCost", shared_read_bytes: float = 0.0) -> "OpCost":
        """Compose the costs of ops fused into **one** kernel launch.

        flops and bytes sum; ``threads`` takes the max (the fused kernel's
        grid covers the widest op, narrower stages idle their extra lanes);
        ``coalesced_fraction`` is traffic-weighted and ``divergent_fraction``
        compute-weighted across the parts.  ``shared_read_bytes`` is the
        global-memory read traffic the fusion eliminates: operands a later
        stage reads that an earlier stage already holds in registers/shared
        memory are counted once, not re-fetched (clamped so a fused op can
        never go traffic-negative).  Zero-byte / zero-flop parts are safe:
        the weighted averages guard their denominators instead of dividing
        by zero.
        """
        if not costs:
            raise ValueError("OpCost.fuse needs at least one cost")
        if shared_read_bytes < 0:
            raise ValueError("shared_read_bytes must be non-negative")
        for c in costs:
            if not isinstance(c, OpCost):
                raise TypeError(f"OpCost.fuse got {type(c).__name__}")
        total_bytes = sum(c.bytes_total for c in costs)
        if total_bytes > 0:
            coalesced = (
                sum(c.coalesced_fraction * c.bytes_total for c in costs)
                / total_bytes
            )
        else:
            coalesced = 1.0
        total_flops = sum(c.flops for c in costs)
        if total_flops > 0:
            divergent = (
                sum(c.divergent_fraction * c.flops for c in costs)
                / total_flops
            )
        else:
            divergent = 0.0
        bytes_read = sum(c.bytes_read for c in costs)
        return cls(
            flops=total_flops,
            bytes_read=max(0.0, bytes_read - min(shared_read_bytes, bytes_read)),
            bytes_written=sum(c.bytes_written for c in costs),
            threads=max(c.threads for c in costs),
            coalesced_fraction=min(1.0, max(0.0, coalesced)),
            divergent_fraction=min(1.0, max(0.0, divergent)),
        )


ZERO_COST = OpCost()
