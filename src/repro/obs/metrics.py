"""Process-wide metrics registry unifying the stack's stats islands.

Before this module the repository had four disjoint stats surfaces: the
``cache_stats()`` dict of memo-layer hit counters, the mergeable latency
histograms in ``serve/stats.py``, the shed/crash/drain counters on the
worker pool, and the per-command latency/energy accounting inside
``dram/commands.py``.  :class:`MetricsRegistry` gives them one home as
Prometheus-style counters, gauges, and histograms, and adds the
per-request *energy attribution* the ROADMAP calls for: DRAM command
counts by type, energy in picojoules, and refresh overhead drawn from
:class:`repro.dram.refresh.RefreshModel`.

Everything here is pure bookkeeping over plain dicts — no third-party
client library — and the exposition formats live in
:mod:`repro.obs.export`.
"""

from __future__ import annotations

import math
import threading
from typing import TYPE_CHECKING, Any, Iterator, Mapping

if TYPE_CHECKING:
    from repro.dram.commands import CommandTrace

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "command_counts",
    "record_cache_stats",
    "record_served_request",
    "registry",
    "request_accounting",
    "reset_metrics",
]

#: Bucket-boundary growth factor; matches ``repro.serve.stats`` so merged
#: quantiles agree with the serving layer's own histograms (~7% resolution).
_GROWTH = 1.07
_LOG_GROWTH = math.log(_GROWTH)
#: Smallest resolvable observation.  Observations are recorded in seconds
#: or nanoseconds depending on the metric; 1e-9 resolves both.
_FLOOR = 1e-9

LabelPairs = tuple[tuple[str, str], ...]


def _label_pairs(labels: Mapping[str, str]) -> LabelPairs:
    return tuple(sorted((str(key), str(value)) for key, value in labels.items()))


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("name", "help", "labels", "value")

    def __init__(self, name: str, help: str = "", labels: LabelPairs = ()) -> None:
        self.name = name
        self.help = help
        self.labels = labels
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        self.value += amount


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("name", "help", "labels", "value")

    def __init__(self, name: str, help: str = "", labels: LabelPairs = ()) -> None:
        self.name = name
        self.help = help
        self.labels = labels
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """Log-bucketed streaming histogram with quantile estimation.

    Same bucket math as ``repro.serve.stats.LatencyHistogram`` (growth
    ``1.07``) so quantiles computed here line up with the serving layer's
    summaries, but label-aware and unit-agnostic.
    """

    __slots__ = ("name", "help", "labels", "buckets", "count", "total", "max_value")

    def __init__(self, name: str, help: str = "", labels: LabelPairs = ()) -> None:
        self.name = name
        self.help = help
        self.labels = labels
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.max_value = 0.0

    def observe(self, value: float) -> None:
        if value < 0:
            value = 0.0
        bucket = 0 if value < _FLOOR else int(math.log(value / _FLOOR) / _LOG_GROWTH) + 1
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1
        self.count += 1
        self.total += value
        if value > self.max_value:
            self.max_value = value

    @staticmethod
    def _bucket_value(bucket: int) -> float:
        if bucket <= 0:
            return 0.0
        # Geometric midpoint of the bucket's [lo, lo*growth) range.
        return _FLOOR * (_GROWTH ** (bucket - 1)) * math.sqrt(_GROWTH)

    def quantile(self, q: float) -> float:
        if self.count == 0:
            return 0.0
        q = min(max(q, 0.0), 1.0)
        rank = q * (self.count - 1)
        seen = 0
        for bucket in sorted(self.buckets):
            seen += self.buckets[bucket]
            if seen > rank:
                return self._bucket_value(bucket)
        return self._bucket_value(max(self.buckets))

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict[str, float]:
        return {
            "count": float(self.count),
            "sum": self.total,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "max": self.max_value,
        }


Metric = Counter | Gauge | Histogram


class MetricsRegistry:
    """Get-or-create store of named, optionally labelled metrics."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, LabelPairs], Metric] = {}
        self._help: dict[str, str] = {}

    def _get(
        self,
        kind: type[Counter] | type[Gauge] | type[Histogram],
        name: str,
        help: str,
        labels: Mapping[str, str],
    ) -> Metric:
        pairs = _label_pairs(labels) if labels else ()
        key = (name, pairs)
        metric = self._metrics.get(key)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(key)
                if metric is None:
                    if help:
                        self._help.setdefault(name, help)
                    metric = kind(name, self._help.get(name, help), pairs)
                    self._metrics[key] = metric
        if not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        metric = self._get(Counter, name, help, labels)
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        metric = self._get(Gauge, name, help, labels)
        assert isinstance(metric, Gauge)
        return metric

    def histogram(self, name: str, help: str = "", **labels: str) -> Histogram:
        metric = self._get(Histogram, name, help, labels)
        assert isinstance(metric, Histogram)
        return metric

    def __iter__(self) -> Iterator[Metric]:
        return iter(list(self._metrics.values()))

    def __len__(self) -> int:
        return len(self._metrics)

    def help_for(self, name: str) -> str:
        return self._help.get(name, "")

    def snapshot(self) -> dict[str, Any]:
        """A plain-dict view of every metric (JSON-serialisable)."""

        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict[str, float]] = {}
        for metric in self:
            label = _render_name(metric.name, metric.labels)
            if isinstance(metric, Counter):
                counters[label] = metric.value
            elif isinstance(metric, Gauge):
                gauges[label] = metric.value
            else:
                histograms[label] = metric.summary()
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()
            self._help.clear()


def _render_name(name: str, labels: LabelPairs) -> str:
    if not labels:
        return name
    rendered = ",".join(f'{key}="{value}"' for key, value in labels)
    return f"{name}{{{rendered}}}"


#: The process-wide registry every layer records into.
REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """Return the process-wide registry."""

    return REGISTRY


def reset_metrics() -> None:
    """Clear the process-wide registry (tests and benchmarks)."""

    REGISTRY.reset()


# --------------------------------------------------------------------------- #
# Cache-stats bridge
# --------------------------------------------------------------------------- #


def record_cache_stats(stats: Mapping[str, Any]) -> None:
    """Mirror a ``cache_stats()`` dict into ``pluto_cache_*`` gauges.

    Accepts the exact nested dict shape ``repro.api.session.cache_stats``
    returns (including the per-engine sub-dicts of ``engine_helpers``) and
    leaves it untouched — the dict remains the public API; the gauges are
    the unified view.
    """

    _record_cache_layer("pluto_cache", stats)


def _record_cache_layer(prefix: str, stats: Mapping[str, Any]) -> None:
    for key, value in stats.items():
        if isinstance(value, Mapping):
            _record_cache_layer(f"{prefix}_{key}", value)
        elif isinstance(value, (int, float)):
            REGISTRY.gauge(
                f"{prefix}_{key}", help="Memo-layer statistic from cache_stats()"
            ).set(float(value))


# --------------------------------------------------------------------------- #
# Per-request DRAM command and energy attribution
# --------------------------------------------------------------------------- #


def _pin_store(trace: Any) -> dict[str, Any]:
    """The dict observability results are memoized in for ``trace``.

    Traces realized from a :class:`~repro.controller.executor.TraceTemplate`
    carry ``_obs_pins`` — a reference to the template's own pin dict, which
    the template also carries — so the template and every realization of
    one program structure share a single memo; free-standing traces
    memoize on themselves.
    """

    store: dict[str, Any] | None = trace.__dict__.get("_obs_pins")
    if store is not None:
        return store
    own: dict[str, Any] = trace.__dict__
    return own


def command_counts(trace: "CommandTrace | Any") -> dict[str, int]:
    """Per-type DRAM command counts for a command trace, memoized in place.

    Works on both :class:`~repro.dram.commands.CommandTrace` instances and
    :class:`~repro.controller.executor.TraceTemplate` realisations; the
    counts are pinned on the trace's shared pin store so the hot serving
    path (which reuses one template per structure key) computes them
    exactly once per program structure.
    """

    store = _pin_store(trace)
    cached: dict[str, int] | None = store.get("_obs_command_counts")
    if cached is not None:
        return dict(cached)
    counts: dict[str, int] = {}
    for command in trace.commands:
        kind = command.kind.value
        counts[kind] = counts.get(kind, 0) + 1
    store["_obs_command_counts"] = counts
    return dict(counts)


def request_accounting(trace: "CommandTrace | Any") -> dict[str, Any]:
    """Full hardware-cost attribution for one request's command trace.

    Returns a JSON-friendly dict with the paper's units: DRAM command
    counts by type, modelled energy in picojoules, and the refresh
    overhead the ROADMAP asks to fold into served-path accounting
    (refresh-inflated latency, refresh commands falling inside the
    request's window).  Memoized on the trace object like
    :func:`command_counts`.
    """

    store = _pin_store(trace)
    cached: dict[str, Any] | None = store.get("_obs_accounting")
    if cached is not None:
        return dict(cached)
    from repro.dram.refresh import RefreshModel

    refresh = RefreshModel(trace.timing)
    latency_ns = float(trace.total_latency_ns)
    counts = command_counts(trace)
    overhead = refresh.overhead_fraction
    inflated = (
        refresh.inflate_latency(latency_ns) if overhead < 1.0 else float("inf")
    )
    accounting: dict[str, Any] = {
        "dram_commands": int(sum(counts.values())),
        "dram_commands_by_type": counts,
        "energy_pj": float(trace.total_energy_nj) * 1000.0,
        "refresh_overhead_fraction": overhead,
        "refresh_commands": refresh.refreshes_during(latency_ns),
        "refresh_inflated_latency_ns": inflated,
    }
    store["_obs_accounting"] = accounting
    return dict(accounting)


# --------------------------------------------------------------------------- #
# Served-request recording
# --------------------------------------------------------------------------- #


def record_served_request(
    *,
    path: str,
    end_to_end_s: float,
    queue_wait_s: float = 0.0,
    execute_s: float = 0.0,
    energy_nj: float = 0.0,
    commands: Mapping[str, int] | None = None,
) -> None:
    """Record one served request into the process-wide registry."""

    REGISTRY.counter("pluto_requests_total", "Requests served", path=path).inc()
    REGISTRY.counter(
        "pluto_energy_pj_total", "Modelled DRAM energy spent serving", path=path
    ).inc(energy_nj * 1000.0)
    REGISTRY.histogram(
        "pluto_request_seconds", "End-to-end request latency", path=path
    ).observe(end_to_end_s)
    if queue_wait_s:
        REGISTRY.histogram(
            "pluto_queue_wait_seconds", "Time spent queued before execution", path=path
        ).observe(queue_wait_s)
    if execute_s:
        REGISTRY.histogram(
            "pluto_execute_seconds", "Time spent executing on the device", path=path
        ).observe(execute_s)
    if commands:
        for kind, count in commands.items():
            REGISTRY.counter(
                "pluto_dram_commands_total", "DRAM commands issued", type=kind
            ).inc(float(count))
