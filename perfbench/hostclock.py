"""Host-speed reference: fixed work timed between slices, to scale host times.

A shared host does not run the same Python code at the same speed from
minute to minute: interpreter-bound and small-call NumPy code slows by up
to 2x while neighbours run, for whole runs at a time, and no statistic
taken inside one run can remove that.  The benchmark therefore times a
fixed reference work next to every measured slice and reports each host
time *at reference speed*::

    reported time = measured time * REFERENCE_NS / reference time around the slice
    reported rate = measured rate * reference time around the slice / REFERENCE_NS

The reference work mixes the three kinds of host work the pLUTo stack
does: interpreter-bound Python (objects, dicts, calls), many small NumPy
calls, and a bulk NumPy table gather.  It is fixed code of the benchmark
and never imports the program, so a change to the program moves the
numerator only.  :data:`REFERENCE_NS` is the reference work's time on a
quiet 2-vCPU Xeon host (2.1 GHz), so on such a host reported and measured
times agree; the raw times are printed next to the reported ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Time of one :func:`reference_work` on a quiet host (ns).
REFERENCE_NS = 3_300_000
#: Timings per sample; the sample is their median.
REPEATS = 3

_RNG = np.random.default_rng(0x5EED)
_INDICES = _RNG.integers(0, 256, 65536, dtype=np.uint8)
_TABLE = _RNG.integers(0, 256, 256, dtype=np.uint8)
_SMALL = np.arange(64, dtype=np.uint64)


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def reference_work() -> int:
    """The fixed reference work; returns a checksum so nothing is optimised away."""
    table: dict[int, _Item] = {}
    total = 0
    for index in range(2000):
        item = _Item(index, total)
        table[index & 63] = item
        total += table.get(index & 31, item).key + len(str(index))
    for _ in range(300):
        total += int(((_SMALL + _SMALL) & 7)[1])
    for _ in range(10):
        total += int(_TABLE[_INDICES][0])
    return total


def sample_ns() -> float:
    """One reference sample: the median of :data:`REPEATS` timed runs."""
    times = []
    for _ in range(REPEATS):
        started = time.perf_counter_ns()
        reference_work()
        times.append(time.perf_counter_ns() - started)
    return statistics.median(times)


def slowdown(samples: list[float]) -> float:
    """How much slower than the reference host the samples ran (>1 is slower)."""
    return statistics.median(samples) / REFERENCE_NS
