"""Host speed reference for the host-time figures.

The benchmark host is shared, and its speed drifts, within seconds and
over minutes, by up to a factor of two: the same 256×256 ``gpu-revised``
solve ran at 3.8 and 7.5 host seconds per modeled second in processes
started seconds apart.
A run therefore also times a fixed reference workload between its timed
units and scales each unit's host time by ``REFERENCE_S`` over the mean
of the samples just before and just after it, and its set-up time by
``REFERENCE_S`` over the median of all of them.

The reference walks a working set of a few MB built once at import
(a linked list of slotted objects, dict lookups and updates) and runs
small numpy operations: the mix the program itself runs, without
allocating, because page faults made an allocating reference noisier
than the program.  A slow spell slows the reference too and largely
cancels; a change to the program does not touch it.
"""

from __future__ import annotations

import random
import time

import numpy as np

#: Nominal seconds of one reference sample: scaled figures read as host
#: seconds on a host where one sample takes this long.
REFERENCE_S = 0.006


class _Node:
    __slots__ = ("key", "val", "next")

    def __init__(self, key: int, val: int) -> None:
        self.key = key
        self.val = val
        self.next = None


def _build(n: int = 40000):
    keys = list(range(n))
    random.Random(0).shuffle(keys)
    nodes = [_Node(k, i) for i, k in enumerate(keys)]
    for a, b in zip(nodes, nodes[1:]):
        a.next = b
    index = {node.key: node for node in nodes}
    return nodes[0], index, keys[::4]


_HEAD, _INDEX, _PROBES = _build()
_ARRAYS = [np.full(16, float(i)) for i in range(256)]


def reference_once() -> float:
    """Seconds of one reference sample, measured now."""
    t0 = time.perf_counter()
    acc = 0
    node = _HEAD
    while node is not None:
        acc += node.val
        node = node.next
    for key in _PROBES:
        hit = _INDEX[key]
        hit.val += 1
    total = 0.0
    for a in _ARRAYS:
        total += float((a * 1.5 + 2.0).sum())
    elapsed = time.perf_counter() - t0
    if acc < 0 or total < 0:  # keeps the work observable
        raise ArithmeticError("reference workload went negative")
    return elapsed


def reference_sample() -> float:
    """The fastest of three reference runs: the first after a solve or a
    child process finds the working set cold in cache and reads up to 3x
    slow."""
    return min(reference_once() for _ in range(3))


def scale(host_s: float, reference_s: float) -> float:
    """``host_s`` expressed at the nominal reference speed."""
    return host_s * REFERENCE_S / reference_s
