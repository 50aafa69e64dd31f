"""Render a recorded registry as a profile table and export it as JSON.

The profile table is the runner's per-experiment view of where time
went: one row per span call-tree node (indented by depth), plus summary
lines derived from the cache and pool counters. The JSON export is the
stable schema behind ``repro-experiments --metrics-out``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.obs.metrics import Histogram, MetricsRegistry, SpanStats

__all__ = [
    "EXPORT_SCHEMA",
    "cache_hit_rate",
    "disk_cache_hit_rate",
    "pool_utilization",
    "render_profile",
    "export_metrics",
    "load_export",
    "registry_from_dict",
]

#: Schema tag of the ``--metrics-out`` file format.
EXPORT_SCHEMA = "repro.obs.export/1"


def cache_hit_rate(registry: MetricsRegistry) -> float | None:
    """Day-cache hit rate over the recorded run, or ``None`` if unused."""
    hits = registry.counter("cache.hits")
    misses = registry.counter("cache.misses")
    total = hits + misses
    if total == 0:
        return None
    return hits / total


def disk_cache_hit_rate(registry: MetricsRegistry) -> float | None:
    """Disk-tier hit rate over the recorded run, or ``None`` if unused.

    Only meaningful when a ``--cache-dir`` is attached; a disk lookup
    happens on every in-memory miss, so this is the fraction of memory
    misses the durable tier absorbed.
    """
    hits = registry.counter("cache.disk_hits")
    misses = registry.counter("cache.disk_misses")
    total = hits + misses
    if total == 0:
        return None
    return hits / total


def pool_utilization(registry: MetricsRegistry) -> float | None:
    """Worker-pool busy fraction: task busy time over pool capacity.

    Capacity is accumulated per pool run as ``workers x wall`` seconds,
    busy time as the sum of worker task wall times, so the ratio is the
    average fraction of pool slots doing work. ``None`` if no pool ran.
    """
    capacity = registry.counter("pool.capacity_s")
    if capacity == 0:
        return None
    return registry.counter("pool.busy_s") / capacity


def _format_row(cells: list[str], widths: list[int]) -> str:
    return "  ".join(c.ljust(w) for c, w in zip(cells, widths))


def render_profile(registry: MetricsRegistry, title: str | None = None) -> str:
    """Aligned per-stage profile table plus cache/pool summary lines.

    Rows are span call-tree nodes in path order, indented by nesting
    depth, with calls, total and mean wall-clock milliseconds.
    """
    headers = ["stage", "calls", "total ms", "mean ms"]
    rows: list[list[str]] = []
    for path, node in sorted(registry.spans.items()):
        indent = "  " * (len(path) - 1)
        total_ms = node.total_s * 1e3
        mean_ms = total_ms / node.calls if node.calls else 0.0
        rows.append(
            [f"{indent}{path[-1]}", str(node.calls), f"{total_ms:.1f}", f"{mean_ms:.2f}"]
        )
    if not rows:
        rows.append(["(no spans recorded)", "-", "-", "-"])
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append(_format_row(headers, widths))
    lines.append(_format_row(["-" * w for w in widths], widths))
    lines.extend(_format_row(row, widths) for row in rows)

    summary: list[str] = []
    hit_rate = cache_hit_rate(registry)
    if hit_rate is not None:
        summary.append(
            f"day-cache hit rate: {hit_rate * 100:.1f}% "
            f"({registry.counter('cache.hits'):.0f}/"
            f"{registry.counter('cache.hits') + registry.counter('cache.misses'):.0f})"
        )
    disk_rate = disk_cache_hit_rate(registry)
    if disk_rate is not None:
        corrupt = registry.counter("cache.disk_corrupt")
        corrupt_note = f", {corrupt:.0f} corrupt" if corrupt else ""
        summary.append(
            f"disk-cache hit rate: {disk_rate * 100:.1f}% "
            f"({registry.counter('cache.disk_hits'):.0f}/"
            f"{registry.counter('cache.disk_hits') + registry.counter('cache.disk_misses'):.0f}"
            f"{corrupt_note})"
        )
    utilization = pool_utilization(registry)
    if utilization is not None:
        summary.append(
            f"pool utilization: {utilization * 100:.1f}% "
            f"({registry.gauges.get('pool.workers', 0):.0f} workers, "
            f"{registry.counter('pool.tasks'):.0f} tasks)"
        )
    spawns = registry.counter("pool.spawns")
    reuses = registry.counter("pool.reuses")
    if spawns or reuses:
        respawns = registry.counter("pool.respawns")
        respawn_note = f", {respawns:.0f} respawns" if respawns else ""
        summary.append(
            f"pool reuse: {spawns:.0f} spawn(s) / {reuses:.0f} reuse(s)"
            f"{respawn_note}"
        )
    requests = registry.counter("serve.requests")
    if requests:
        tiers = "/".join(
            f"{registry.counter(f'serve.cache_tier.{tier}'):.0f}"
            for tier in ("mem", "disk", "compute")
        )
        flights = registry.counter("serve.singleflight_hits")
        summary.append(
            f"serve: {requests:.0f} request(s), tiers mem/disk/compute {tiers}, "
            f"{flights:.0f} coalesced"
        )
    if summary:
        lines.append("  |  ".join(summary))
    return "\n".join(lines)


def export_metrics(
    per_experiment: dict[str, MetricsRegistry],
    total: MetricsRegistry,
    path: str | Path,
    run_info: dict[str, Any] | None = None,
) -> Path:
    """Write the run's metrics to ``path`` as stable-schema JSON.

    The file carries one registry dump per experiment plus the merged
    run total and the run parameters, under a versioned ``schema`` key
    so downstream tooling can detect format changes.
    """
    payload = {
        "schema": EXPORT_SCHEMA,
        "run": dict(run_info or {}),
        "experiments": {
            experiment_id: registry.to_dict()
            for experiment_id, registry in sorted(per_experiment.items())
        },
        "total": total.to_dict(),
    }
    out = Path(path)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return out


def load_export(path: str | Path) -> dict[str, Any]:
    """Read and schema-validate a ``--metrics-out`` export file.

    Rejects files whose ``schema`` field is missing or not
    :data:`EXPORT_SCHEMA`, naming the file and the version found, so
    tooling (``repro-obs``) fails with a diagnosis instead of a
    ``KeyError`` deep in a diff.
    """
    source = Path(path)
    try:
        payload = json.loads(source.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{source}: not valid JSON: {exc}") from None
    schema = payload.get("schema") if isinstance(payload, dict) else None
    if schema != EXPORT_SCHEMA:
        raise ValueError(
            f"{source}: unsupported metrics-export schema {schema!r} "
            f"(expected {EXPORT_SCHEMA!r}); refresh the file with "
            f"repro-experiments --metrics-out"
        )
    missing = {"run", "experiments", "total"} - set(payload)
    if missing:
        raise ValueError(
            f"{source}: metrics export is missing sections: {', '.join(sorted(missing))}"
        )
    return payload


def registry_from_dict(payload: dict[str, Any]) -> MetricsRegistry:
    """Rebuild a :class:`MetricsRegistry` from ``MetricsRegistry.to_dict``.

    The inverse of the export serialization, so ``repro-obs show`` can
    re-render profile tables offline from a ``--metrics-out`` file.
    """
    schema = payload.get("schema")
    if schema != "repro.obs.metrics/1":
        raise ValueError(
            f"unsupported registry schema {schema!r} (expected 'repro.obs.metrics/1')"
        )
    registry = MetricsRegistry()
    registry.counters = {k: float(v) for k, v in payload.get("counters", {}).items()}
    registry.gauges = {k: float(v) for k, v in payload.get("gauges", {}).items()}
    for name, data in payload.get("histograms", {}).items():
        registry.histograms[name] = Histogram(
            buckets=tuple(float("inf") if b == "inf" else float(b) for b in data["buckets"]),
            counts=[int(n) for n in data["counts"]],
            count=int(data["count"]),
            total=float(data["total"]),
        )
    for row in payload.get("spans", []):
        path_key = tuple(row["stage"].split("/"))
        registry.spans[path_key] = SpanStats(
            calls=int(row["calls"]), total_s=float(row["total_s"])
        )
    return registry
