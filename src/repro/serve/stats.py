"""Streaming latency percentiles for the serving layer.

Per-request wall-clock means hide tail behaviour, and a pool of worker
processes cannot ship every sample back to the dispatcher.  This module
provides the standard production answer: a **log-bucketed histogram**
(:class:`LatencyHistogram`) with O(1) recording, bounded memory, ~7%
value resolution, and — the property the multi-worker layer depends on —
loss-free **merging**, so each worker accumulates locally and the
dispatcher folds the worker histograms into pool-wide p50/p95/p99.

:class:`LatencyBreakdown` groups the three distributions every serving
layer reports: queue wait, execution, and end-to-end turnaround.
Both types are plain data (dicts of ints) and therefore picklable, so
they cross process boundaries with the rest of the worker protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.service import ServedResult

__all__ = ["LatencyHistogram", "LatencyBreakdown"]


#: Smallest resolvable latency (seconds); everything below lands in
#: bucket 0.  100 ns is far under one Python bytecode dispatch, so no
#: real request is flattened.
_FLOOR_S = 1e-7

#: Geometric bucket growth: each bucket spans 7% more than the last,
#: bounding quantile error at ~±3.5% — plenty for p50/p95/p99 gates —
#: while 0.1 µs..100 s fits in ~306 buckets.
_GROWTH = 1.07

_LOG_GROWTH = math.log(_GROWTH)


def _bucket_of(seconds: float) -> int:
    if seconds <= _FLOOR_S:
        return 0
    return 1 + int(math.log(seconds / _FLOOR_S) / _LOG_GROWTH)


def _bucket_value(bucket: int) -> float:
    """Representative latency of a bucket (geometric midpoint)."""
    if bucket <= 0:
        return _FLOOR_S
    return _FLOOR_S * _GROWTH ** (bucket - 0.5)


@dataclass
class LatencyHistogram:
    """A mergeable log-bucketed latency distribution (seconds)."""

    #: Bucket index -> sample count.  Sparse: an idle service costs
    #: nothing, a loaded one a few hundred entries at most.
    buckets: dict[int, int] = field(default_factory=dict)
    count: int = 0
    total_s: float = 0.0
    max_s: float = 0.0

    def record(self, seconds: float) -> None:
        """Fold one latency sample into the distribution."""
        if seconds < 0:
            # Clock skew between monotonic reads in different layers can
            # produce a tiny negative wait; clamp rather than corrupt.
            seconds = 0.0
        bucket = _bucket_of(seconds)
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1
        self.count += 1
        self.total_s += seconds
        if seconds > self.max_s:
            self.max_s = seconds

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram in (loss-free; used by the dispatcher)."""
        for bucket, samples in other.buckets.items():
            self.buckets[bucket] = self.buckets.get(bucket, 0) + samples
        self.count += other.count
        self.total_s += other.total_s
        if other.max_s > self.max_s:
            self.max_s = other.max_s

    @property
    def mean_s(self) -> float:
        """Arithmetic mean of every recorded sample."""
        return self.total_s / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-quantile latency in seconds (0 when empty).

        Exact to within one bucket (~±3.5%); the true maximum caps the
        answer so a single slow sample cannot be over-reported.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        if q >= 1.0:
            return self.max_s
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for bucket in sorted(self.buckets):
            seen += self.buckets[bucket]
            if seen >= rank:
                return min(_bucket_value(bucket), self.max_s)
        return self.max_s  # pragma: no cover - rank <= count always hits

    def summary(self) -> dict[str, float]:
        """Count, mean, p50/p95/p99, and max — the reporting shape."""
        return {
            "count": float(self.count),
            "mean_s": self.mean_s,
            "p50_s": self.quantile(0.50),
            "p95_s": self.quantile(0.95),
            "p99_s": self.quantile(0.99),
            "max_s": self.max_s,
        }


@dataclass
class LatencyBreakdown:
    """The three serving distributions: queue wait, execute, end-to-end."""

    queue_wait: LatencyHistogram = field(default_factory=LatencyHistogram)
    execute: LatencyHistogram = field(default_factory=LatencyHistogram)
    end_to_end: LatencyHistogram = field(default_factory=LatencyHistogram)

    def observe(
        self,
        *,
        queue_wait_s: float,
        execute_s: float,
        end_to_end_s: float | None = None,
    ) -> None:
        """Record one served request's wall-clock components."""
        self.queue_wait.record(queue_wait_s)
        self.execute.record(execute_s)
        self.end_to_end.record(
            end_to_end_s
            if end_to_end_s is not None
            else queue_wait_s + execute_s
        )

    def observe_result(self, served: "ServedResult") -> None:
        """Record a :class:`~repro.api.service.ServedResult`'s accounting."""
        self.observe(
            queue_wait_s=served.queue_wait_s,
            execute_s=served.execute_s,
            end_to_end_s=served.turnaround_s,
        )

    def merge(self, other: "LatencyBreakdown") -> None:
        """Fold another breakdown in (dispatcher-side aggregation)."""
        self.queue_wait.merge(other.queue_wait)
        self.execute.merge(other.execute)
        self.end_to_end.merge(other.end_to_end)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-distribution :meth:`LatencyHistogram.summary` snapshots."""
        return {
            "queue_wait": self.queue_wait.summary(),
            "execute": self.execute.summary(),
            "end_to_end": self.end_to_end.summary(),
        }
