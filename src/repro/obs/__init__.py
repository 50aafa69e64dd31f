"""Observability: metrics registry, span timers, tracing, provenance.

Lightweight and dependency-free. Library code records unconditionally
into the active registry (:func:`metrics`), which is a disabled no-op
unless a run installs an enabled one (``repro-experiments
--metrics-out`` / ``--profile``, or :func:`use_metrics` in the API).
Worker processes record into their own registries, which ship back with
task results and fold into the parent via
:meth:`MetricsRegistry.merge` — the same reduction shape as
``StreamingAnalyzer.merge()``. The day engine's ``scenario.*`` work
counters do not travel that way: each read counts them in the calling
process from the work counts cached beside each day's values
(:mod:`repro.core.parallel`), so ``jobs=1`` and ``jobs=N`` runs, cached
or not, agree on every deterministic counter.

On top of the registry sit three run-comparison layers (PR 3):

* :mod:`repro.obs.trace` — per-span event buffers exported as Chrome
  trace-event JSON (``repro-experiments --trace-out``);
* :mod:`repro.obs.runledger` — an append-only JSONL provenance ledger,
  one ``repro.obs.run/1`` record per runner invocation (``--ledger``);
* :mod:`repro.obs.cli` — the ``repro-obs`` tool that diffs two runs and
  classifies drift as logic change vs perf regression.

The live telemetry plane (PR 8) adds two more:

* :mod:`repro.obs.expo` — Prometheus text exposition (v0.0.4) rendering
  + strict parsing/validation, served at ``/v1/metrics`` and consumed by
  the ``repro-obs top`` dashboard;
* :mod:`repro.obs.window` — ring-buffer rolling windows (per-second
  rate, sliding p50/p99, error rate/SLO burn) surfaced in
  ``/v1/health``.

Request-scoped tracing lives in :mod:`repro.obs.trace`: the serving
plane binds a request id per exchange (:func:`request_scope`), the
worker pool forwards it across the process boundary, and every trace
event stamps it into its args — so one id connects an access-log line
to its pool-worker spans in the Perfetto export.
"""

from repro.obs.expo import (
    EXPO_CONTENT_TYPE,
    histogram_quantile,
    parse_exposition,
    render_exposition,
    sanitize_metric_name,
    validate_exposition,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    FINE_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
    SpanStats,
    metrics,
    set_metrics,
    use_metrics,
)
from repro.obs.profile import (
    EXPORT_SCHEMA,
    cache_hit_rate,
    export_metrics,
    load_export,
    pool_utilization,
    registry_from_dict,
    render_profile,
)
from repro.obs.runledger import (
    DETERMINISTIC_PREFIXES,
    EXCLUDED_PREFIXES,
    RUN_SCHEMA,
    append_run_record,
    artifact_digest,
    build_run_record,
    counter_digest,
    deterministic_counters,
    read_ledger,
)
from repro.obs.trace import (
    TRACE_SCHEMA,
    TraceRecorder,
    chrome_trace_events,
    current_request_id,
    request_scope,
    reset_request_id,
    set_request_id,
    write_chrome_trace,
)
from repro.obs.window import RollingWindow, WindowSnapshot

__all__ = [
    "DEFAULT_BUCKETS",
    "DETERMINISTIC_PREFIXES",
    "EXCLUDED_PREFIXES",
    "EXPO_CONTENT_TYPE",
    "EXPORT_SCHEMA",
    "FINE_LATENCY_BUCKETS",
    "RUN_SCHEMA",
    "TRACE_SCHEMA",
    "Histogram",
    "MetricsRegistry",
    "RollingWindow",
    "SpanStats",
    "TraceRecorder",
    "WindowSnapshot",
    "append_run_record",
    "artifact_digest",
    "build_run_record",
    "cache_hit_rate",
    "chrome_trace_events",
    "counter_digest",
    "current_request_id",
    "deterministic_counters",
    "export_metrics",
    "histogram_quantile",
    "load_export",
    "metrics",
    "parse_exposition",
    "pool_utilization",
    "read_ledger",
    "registry_from_dict",
    "render_exposition",
    "render_profile",
    "request_scope",
    "reset_request_id",
    "sanitize_metric_name",
    "set_metrics",
    "set_request_id",
    "use_metrics",
    "validate_exposition",
    "write_chrome_trace",
]
