"""Metrics primitives: counters, gauges, histograms, and span timers.

:class:`MetricsRegistry` is the single sink every instrumented code path
records into. It is dependency-free, picklable, and designed around two
constraints of the day-parallel pipeline (:mod:`repro.core.parallel`):

* **mergeable** — metrics recorded inside pool workers ship back with
  task results and fold into the parent registry via :meth:`MetricsRegistry.merge`,
  the same reduction shape as ``StreamingAnalyzer.merge()``. Counter
  merge is addition, gauge merge is max, histogram merge is per-bucket
  addition, span merge adds calls and wall time — all commutative and
  associative, so any partition of the work merges to the one-pass
  result for deterministic counters;
* **free when off** — a disabled registry turns every record call into a
  single attribute check and :meth:`MetricsRegistry.span` into a shared
  no-op context manager, so always-on instrumentation costs nearly
  nothing unless a run opts in (``--metrics-out`` / ``--profile``).

Naming conventions (relied on by tests and the profile report):

* deterministic work counters live under the ``scenario.``,
  ``streaming.``, ``pipeline.`` and ``econ.`` families and must be
  identical for ``jobs=1`` and ``jobs=N`` runs of the same work, cached
  or not. ``scenario.*`` counts the days the day engine served to its
  callers, not the syntheses it ran: each read of
  :func:`repro.core.parallel.day_reductions` (and the wrappers over it)
  counts, per day, the ground truth once (``days_generated``,
  ``attacks_generated``, ``flows_synthesized``) and each vantage it
  asked for once (``days_observed``, ``flows_observed``), from the work
  counts cached beside each value. Physical synthesis and observation
  show as the ``scenario.day_traffic`` and ``scenario.observe_day``
  spans;
* timing counters end in ``_s`` (seconds) and execution-strategy
  metrics live under the ``cache.`` / ``pool.`` / ``serve.`` /
  ``visibility.`` / ``parallel.`` families — all of these are
  strategy- or load-dependent and excluded from determinism comparisons
  (the authoritative prefix lists are
  :data:`repro.obs.runledger.DETERMINISTIC_PREFIXES` and
  :data:`repro.obs.runledger.EXCLUDED_PREFIXES`; the hygiene test in
  ``tests/test_obs_metric_hygiene.py`` enforces that every recorded
  name belongs to exactly one of them).
"""

from __future__ import annotations

import time
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.obs.trace import TraceRecorder

__all__ = [
    "DEFAULT_BUCKETS",
    "FINE_LATENCY_BUCKETS",
    "Histogram",
    "SpanStats",
    "MetricsRegistry",
    "metrics",
    "set_metrics",
    "use_metrics",
]

#: Default fixed histogram buckets (upper bounds, in seconds when timing).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    float("inf"),
)

#: Latency buckets with sub-millisecond resolution prepended. Warm serve
#: responses sit well under 1 ms, so :data:`DEFAULT_BUCKETS` collapses
#: them all into its lowest bucket and p50/p99 become unreadable; the
#: serve latency histogram uses these instead.
FINE_LATENCY_BUCKETS: tuple[float, ...] = (0.0001, 0.00025, 0.0005) + DEFAULT_BUCKETS


@dataclass
class Histogram:
    """Fixed-bucket histogram: cumulative-free counts plus sum/count.

    ``buckets`` are upper bounds; an observation lands in the first
    bucket whose bound is >= the value (the last bound should be
    ``inf`` so nothing is dropped).
    """

    buckets: tuple[float, ...] = DEFAULT_BUCKETS
    counts: list[int] = field(default_factory=list)
    count: int = 0
    total: float = 0.0

    def __post_init__(self) -> None:
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket")
        if list(self.buckets) != sorted(self.buckets):
            raise ValueError("histogram buckets must be sorted ascending")
        if not self.counts:
            self.counts = [0] * len(self.buckets)
        elif len(self.counts) != len(self.buckets):
            raise ValueError("counts length must match buckets length")

    def observe(self, value: float) -> None:
        """Record one observation."""
        # The first bucket whose bound is >= value; above every bound
        # (or NaN, which compares false to all), clamp into the last.
        i = bisect_left(self.buckets, value) if value == value else len(self.counts)
        self.counts[min(i, len(self.counts) - 1)] += 1
        self.count += 1
        self.total += value

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold another histogram with identical buckets into this one."""
        if other.buckets != self.buckets:
            raise ValueError(
                f"cannot merge histograms with different buckets: "
                f"{self.buckets} vs {other.buckets}"
            )
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.count += other.count
        self.total += other.total
        return self

    def to_dict(self) -> dict[str, Any]:
        """JSON-stable representation (``inf`` encoded as a string)."""
        return {
            "buckets": ["inf" if b == float("inf") else b for b in self.buckets],
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
        }


@dataclass
class SpanStats:
    """Accumulated timing of one node in the span call tree."""

    calls: int = 0
    total_s: float = 0.0

    def merge(self, other: "SpanStats") -> "SpanStats":
        """Fold another node's calls and wall time into this one."""
        self.calls += other.calls
        self.total_s += other.total_s
        return self


class _NullSpan:
    """Shared no-op context manager returned by disabled registries."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    """Live span: pushes its name on the registry stack while active."""

    __slots__ = ("_registry", "_name", "_path", "_start", "_trace_args")

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        trace_args: dict[str, Any] | None = None,
    ) -> None:
        self._registry = registry
        self._name = name
        self._trace_args = trace_args

    def __enter__(self) -> "_Span":
        stack = self._registry._span_stack
        stack.append(self._name)
        self._path = tuple(stack)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        elapsed = time.perf_counter() - self._start
        registry = self._registry
        registry._span_stack.pop()
        node = registry.spans.get(self._path)
        if node is None:
            node = registry.spans[self._path] = SpanStats()
        node.calls += 1
        node.total_s += elapsed
        if registry.trace is not None:
            registry.trace.record(self._name, self._start, elapsed, self._trace_args)


class MetricsRegistry:
    """Process-local metrics sink with counters, gauges, histograms, spans.

    All record methods are no-ops when ``enabled`` is False. Registries
    pickle cleanly (the transient span stack is dropped), which is how
    worker processes ship their metrics back to the parent for
    :meth:`merge`.

    Attaching a :class:`~repro.obs.trace.TraceRecorder` as ``trace``
    additionally turns every completed span into one trace event
    (name, wall-clock offset, duration, pid/tid, span args); recorders
    ship back from workers and merge exactly like the metrics.
    """

    def __init__(self, enabled: bool = True, trace: TraceRecorder | None = None) -> None:
        self.enabled = enabled
        self.trace = trace
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}
        self.spans: dict[tuple[str, ...], SpanStats] = {}
        self._span_stack: list[str] = []

    # -- recording ----------------------------------------------------------

    def inc(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` (creating it at zero)."""
        if not self.enabled:
            return
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name``; merged registries keep the maximum."""
        if not self.enabled:
            return
        self.gauges[name] = float(value)

    def observe(self, name: str, value: float, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        """Record ``value`` into fixed-bucket histogram ``name``."""
        if not self.enabled:
            return
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(buckets=buckets)
        histogram.observe(value)

    def span(self, name: str, trace_args: dict[str, Any] | None = None):
        """Context-manager timer; nested spans form a call-tree profile.

        ``trace_args`` ride along on the trace event when a recorder is
        attached (e.g. the scenario day or experiment id); they never
        affect the aggregated span statistics.
        """
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, trace_args)

    # -- merge protocol -----------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry into this one (commutative, associative).

        Counters and span calls/time add, gauges take the max, histogram
        buckets add. Merging ignores either side's ``enabled`` flag: the
        data already exists.
        """
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, value in other.gauges.items():
            current = self.gauges.get(name)
            if current is None or value > current:
                self.gauges[name] = value
        for name, histogram in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                self.histograms[name] = Histogram(
                    buckets=histogram.buckets,
                    counts=list(histogram.counts),
                    count=histogram.count,
                    total=histogram.total,
                )
            else:
                mine.merge(histogram)
        for path, node in other.spans.items():
            mine_node = self.spans.get(path)
            if mine_node is None:
                self.spans[path] = SpanStats(calls=node.calls, total_s=node.total_s)
            else:
                mine_node.merge(node)
        if other.trace is not None and (other.trace.events or other.trace.dropped):
            if self.trace is None:
                self.trace = TraceRecorder(max_events=other.trace.max_events)
            self.trace.merge(other.trace)
        return self

    # -- inspection / export ------------------------------------------------

    def counter(self, name: str) -> float:
        """Current value of counter ``name`` (0 if never incremented)."""
        return self.counters.get(name, 0)

    def clear(self) -> None:
        """Drop all recorded data (the enabled flag is unchanged)."""
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()
        self.spans.clear()
        self._span_stack.clear()
        if self.trace is not None:
            self.trace.events.clear()
            self.trace.dropped = 0

    def to_dict(self) -> dict[str, Any]:
        """Stable, JSON-serializable schema of everything recorded.

        Keys are sorted and span paths joined with ``/`` so two equal
        registries serialize identically (the basis of the merge-law
        property tests and the ``--metrics-out`` file format).
        """
        return {
            "schema": "repro.obs.metrics/1",
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "histograms": {
                k: self.histograms[k].to_dict() for k in sorted(self.histograms)
            },
            "spans": [
                {
                    "stage": "/".join(path),
                    "depth": len(path) - 1,
                    "calls": node.calls,
                    "total_s": node.total_s,
                }
                for path, node in sorted(self.spans.items())
            ],
        }

    def __getstate__(self) -> dict[str, Any]:
        state = self.__dict__.copy()
        state["_span_stack"] = []  # transient; never ship open spans
        return state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetricsRegistry(enabled={self.enabled}, "
            f"{len(self.counters)} counters, {len(self.spans)} spans)"
        )


#: The active registry. Disabled by default so library code can record
#: unconditionally; runs opt in by installing an enabled registry.
_ACTIVE = MetricsRegistry(enabled=False)


def metrics() -> MetricsRegistry:
    """The active registry: the process-wide one, disabled by default."""
    return _ACTIVE


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the active sink; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = registry
    return previous


@contextmanager
def use_metrics(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Scope ``registry`` as the active sink for a ``with`` block."""
    previous = set_metrics(registry)
    try:
        yield registry
    finally:
        set_metrics(previous)
