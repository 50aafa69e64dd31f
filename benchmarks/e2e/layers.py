"""Per-layer attribution, measured from outside the program.

Layers are named after the program's modules. :func:`install` runs in
the child host before ``main`` and replaces the public functions listed
in :data:`LAYER_FUNCTIONS` with thin wrappers:

* a synchronous function gets a ``repro.obs.metrics().span("<layer>:<qualname>")``
  around each call, so the program's own registry builds the call tree.
  Pool workers fork after the wrappers are installed and ship their
  spans back through the existing registry merge, and ``--metrics-out``
  exports everything;
* a coroutine, or a function that runs on the serve event loop, is
  timed per call into ``bench.flat.*`` counters instead. Two keep-alive
  connections interleave on one loop while a compute thread has spans
  open, so nested spans there would be parented to the wrong call.

A module-level function is rebound in every ``repro`` module that
imported it by name, not only where it is defined.

:func:`rollup` and :func:`layer_metrics` turn an exported registry into
calls, busy seconds and self seconds per layer plus the layer counts.
They are plain Python, so the benchmark process never imports the
program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from typing import Any, Callable

__all__ = ["LAYERS", "LAYER_FUNCTIONS", "coverage", "install", "layer_metrics", "rollup"]

LAYERS = (
    "netmodel",
    "scenario",
    "booter",
    "vantage",
    "flows.sampling",
    "flows",
    "core.pipeline",
    "core.parallel",
    "core.diskcache",
    "core.workerpool",
    "core.streaming",
    "core.classify",
    "core.victims",
    "core.takedown_analysis",
    "economics",
    "domains",
    "serve",
)

#: (layer, defining module, qualified name) of every wrapped function.
LAYER_FUNCTIONS = (
    ("netmodel", "repro.netmodel.topology", "build_topology"),
    ("netmodel", "repro.netmodel.topology", "ASTopology.routes_to_many"),
    ("scenario", "repro.scenario.scenario", "Scenario.__init__"),
    ("scenario", "repro.scenario.scenario", "Scenario.day_traffic"),
    ("scenario", "repro.scenario.background", "BenignBackground.flows_for_day"),
    ("booter", "repro.booter.market", "BooterMarket.attacks_for_day"),
    ("booter", "repro.booter.market", "BooterMarket.scan_flows_for_day"),
    ("booter", "repro.booter.attack", "synthesize_attack_flows"),
    ("booter", "repro.booter.attack", "synthesize_trigger_flows"),
    ("vantage", "repro.scenario.scenario", "Scenario.observe_day"),
    ("vantage", "repro.vantage.matrix", "VisibilityMatrix.pair_index"),
    ("vantage", "repro.vantage.matrix", "VisibilityMatrix.ixp_tables"),
    ("vantage", "repro.vantage.matrix", "VisibilityMatrix.isp_tables"),
    ("vantage", "repro.vantage.ixp", "IXPVantagePoint.visibility_filter"),
    ("vantage", "repro.vantage.isp", "ISPVantagePoint.visibility_filter"),
    ("vantage", "repro.vantage.observatory", "IXPObservatory.capture_attack"),
    ("flows.sampling", "repro.flows.sampling", "PacketSampler.apply"),
    ("flows", "repro.flows.records", "FlowTable.concat"),
    ("flows", "repro.flows.records", "FlowTable.select"),
    ("flows", "repro.flows.records", "FlowTable.filter"),
    ("flows", "repro.flows.timeseries", "per_destination_stats"),
    ("core.pipeline", "repro.core.pipeline", "TrafficSelector.packets"),
    ("core.parallel", "repro.core.parallel", "DayResultCache.get"),
    ("core.parallel", "repro.core.parallel", "DayResultCache.put"),
    ("core.parallel", "repro.core.parallel", "observed_days"),
    ("core.parallel", "repro.core.parallel", "daily_port_counts"),
    ("core.parallel", "repro.core.parallel", "streaming_ingest"),
    ("core.parallel", "repro.core.parallel", "day_events"),
    ("core.parallel", "repro.core.parallel", "day_attack_tables"),
    ("core.diskcache", "repro.core.diskcache", "DiskDayCache.get"),
    ("core.diskcache", "repro.core.diskcache", "DiskDayCache.put"),
    ("core.workerpool", "repro.core.workerpool", "WorkerPool.map_with_deltas"),
    ("core.streaming", "repro.core.streaming", "StreamingAnalyzer.ingest_day"),
    ("core.classify", "repro.core.classify", "OptimisticClassifier.amplification_flows"),
    ("core.classify", "repro.core.classify", "ConservativeClassifier.classify"),
    ("core.classify", "repro.core.classify", "ConservativeClassifier.destination_mask"),
    ("core.classify", "repro.core.classify", "ConservativeClassifier.rule_reductions"),
    ("core.victims", "repro.core.victims", "victim_report"),
    ("core.victims", "repro.core.victims", "attacks_per_hour"),
    ("core.takedown_analysis", "repro.core.takedown_analysis", "analyze_takedown"),
    ("economics", "repro.economics.simulate", "EconomySimulation.run"),
    ("economics", "repro.economics.ledger", "CustomerLedger.step"),
    ("domains", "repro.domains.zone", "DomainUniverse.__init__"),
    ("domains", "repro.domains.alexa", "AlexaModel.monthly_median_rank"),
    ("domains", "repro.domains.crawl", "KeywordCrawler.crawl"),
    ("serve", "repro.serve.http", "read_request"),
    ("serve", "repro.serve.http", "write_response"),
    ("serve", "repro.serve.service", "ObservatoryService.day_payload"),
    ("serve", "repro.serve.service", "ObservatoryService.victims_payload"),
    ("serve", "repro.serve.service", "ObservatoryService.series_payload"),
    ("serve", "repro.serve.service", "canonical_json"),
)

#: Synchronous functions that run on the serve event loop thread.
_LOOP_THREAD = frozenset({"canonical_json"})

#: The program's own span names, by prefix, and the layer each belongs to.
_PROGRAM_SPANS = (
    ("experiment.", "experiments"),
    ("parallel.", "core.parallel"),
    ("pipeline.", "core.pipeline"),
    ("streaming.", "core.streaming"),
    ("scenario.observe_day", "vantage"),
    ("scenario.", "scenario"),
)

_FLAT_PREFIX = "bench.flat."


def _count_sampling(args: tuple, result: Any) -> dict[str, int]:
    return {"bench.count.sampling.rows_in": len(args[1]), "bench.count.sampling.rows_out": len(result)}


def _count_pool_tasks(args: tuple, result: Any) -> dict[str, int]:
    return {"bench.count.workerpool.tasks": len(result)}


#: Extra counts recorded after a call, from its arguments and result.
_COUNTS: dict[str, Callable[[tuple, Any], dict[str, int]]] = {
    "PacketSampler.apply": _count_sampling,
    "WorkerPool.map_with_deltas": _count_pool_tasks,
}


def _wrap(fn: Callable, name: str, qualname: str) -> Callable:
    from repro.obs import metrics

    def record_flat(start: float) -> None:
        elapsed = time.perf_counter() - start
        registry = metrics()
        registry.inc(f"{_FLAT_PREFIX}{name}.calls")
        registry.inc(f"{_FLAT_PREFIX}{name}.busy_s", elapsed)
        if registry.trace is not None:
            registry.trace.record(name, start, elapsed)

    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def timed_coroutine(*args, **kwargs):
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                record_flat(start)

        return timed_coroutine

    if qualname in _LOOP_THREAD:

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record_flat(start)

        return timed

    count = _COUNTS.get(qualname)

    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        registry = metrics()
        with registry.span(name):
            result = fn(*args, **kwargs)
        if count is not None and registry.enabled:
            for key, value in count(args, result).items():
                registry.inc(key, value)
        return result

    return spanned


def install() -> None:
    """Wrap every function of :data:`LAYER_FUNCTIONS` in this process."""
    for layer, module_name, qualname in LAYER_FUNCTIONS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        raw = inspect.getattr_static(owner, attr)
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        wrapped = _wrap(fn, f"{layer}:{qualname}", qualname)
        setattr(owner, attr, staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
        if owner_name:
            continue
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").startswith("repro") and getattr(other, attr, None) is fn:
                setattr(other, attr, wrapped)


# -- roll-up (benchmark side; no program imports) -----------------------------


def _span_layer(name: str) -> str | None:
    layer, sep, _ = name.partition(":")
    if sep:
        return layer
    for prefix, program_layer in _PROGRAM_SPANS:
        if name.startswith(prefix):
            return program_layer
    return None


def rollup(registry: dict[str, Any]) -> dict[str, Any]:
    """Calls, busy and self seconds per layer and per wrapped function.

    ``registry`` is ``MetricsRegistry.to_dict()`` output. A node's self
    time is its total minus its children's totals. A layer's calls and
    busy time count only its outermost entries, so a layer calling
    itself is not counted twice. Pool workers' spans merge in as
    separate roots and count like the parent's.
    """
    nodes = {
        tuple(span["stage"].split("/")): (span["calls"], span["total_s"])
        for span in registry.get("spans", [])
    }
    children_total: dict[tuple[str, ...], float] = defaultdict(float)
    for path, (_, total) in nodes.items():
        if len(path) > 1:
            children_total[path[:-1]] += total
    layers = {name: {"calls": 0.0, "busy_s": 0.0, "self_s": 0.0} for name in (*LAYERS, "experiments")}
    functions: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0.0, "busy_s": 0.0, "self_s": 0.0})
    for path, (calls, total) in nodes.items():
        name = path[-1]
        layer = _span_layer(name)
        if layer is None:
            continue
        self_s = total - children_total[path]
        outermost = all(_span_layer(outer) != layer for outer in path[:-1])
        for entry, counted in ((layers[layer], outermost), (functions[name], name not in path[:-1])):
            entry["self_s"] += self_s
            if counted:
                entry["calls"] += calls
                entry["busy_s"] += total
    counters = registry.get("counters", {})
    for key, value in counters.items():
        if not key.startswith(_FLAT_PREFIX):
            continue
        name, _, stat = key[len(_FLAT_PREFIX) :].rpartition(".")
        for entry in (layers[name.partition(":")[0]], functions[name]):
            entry[stat] += value
            if stat == "busy_s":
                entry["self_s"] += value
    return {"layers": layers, "functions": dict(functions)}


def coverage(trace: dict[str, Any], wall_s: float) -> float:
    """Share of ``wall_s`` during which the program's main process was in a layer.

    ``trace`` is a Chrome trace export of the traced run. Only the main
    process counts (pool workers run in parallel with it), and the
    experiment roll-up spans do not count as a layer. Overlapping events
    (nested spans, or the serve loop thread and compute thread at once)
    count once: the covered time is the union of their intervals.
    """
    events = trace["traceEvents"]
    main_pid = next(e["pid"] for e in events if e["ph"] == "M" and e["args"]["name"] == "repro-experiments")
    intervals = sorted(
        (e["ts"], e["ts"] + e["dur"])
        for e in events
        if e["ph"] == "X" and e["pid"] == main_pid and _span_layer(e["name"]) not in (None, "experiments")
    )
    covered_us, end = 0.0, float("-inf")
    for lo, hi in intervals:
        if hi > end:
            covered_us += hi - max(lo, end)
            end = hi
    return covered_us / 1e6 / wall_s


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(registry: dict[str, Any]) -> tuple[dict[str, float], dict[str, Any]]:
    """Per-layer metrics by name, and the roll-up they came from."""
    rolled = rollup(registry)
    counters = registry.get("counters", {})
    gauges = registry.get("gauges", {})
    out: dict[str, float] = {}
    for layer in LAYERS:
        for stat, value in rolled["layers"][layer].items():
            out[f"{layer}.{stat}"] = value
    init = rolled["functions"].get("scenario:Scenario.__init__", {})
    out["scenario.init.calls"] = init.get("calls", 0.0)
    out["scenario.init.busy_s"] = init.get("busy_s", 0.0)
    synthesized = counters.get("scenario.flows_synthesized", 0)
    out["scenario.flows_synthesized"] = synthesized
    out["vantage.visible_ratio"] = _ratio(counters.get("scenario.flows_observed", 0), synthesized)
    out["flows.sampling.keep_ratio"] = _ratio(
        counters.get("bench.count.sampling.rows_out", 0), counters.get("bench.count.sampling.rows_in", 0)
    )
    hits, misses = counters.get("cache.hits", 0), counters.get("cache.misses", 0)
    out["cache.mem.hit_ratio"] = _ratio(hits, hits + misses)
    out["cache.mem.resident_mb"] = gauges.get("cache.resident_bytes", 0) / 1e6
    disk_hits, disk_misses = counters.get("cache.disk_hits", 0), counters.get("cache.disk_misses", 0)
    out["cache.disk.hit_ratio"] = _ratio(disk_hits, disk_hits + disk_misses)
    out["cache.disk.corrupt"] = counters.get("cache.disk_corrupt", 0)
    out["core.workerpool.tasks"] = counters.get("bench.count.workerpool.tasks", 0)
    for name in ("pool.busy_s", "pool.capacity_s", "pool.respawns", "shm.bytes", "pool.pipe_bytes"):
        out[name] = counters.get(name, 0)
    step = rolled["functions"].get("economics:CustomerLedger.step", {})
    out["econ.customer_days_per_s"] = _ratio(counters.get("econ.customer_days", 0), step.get("busy_s", 0.0))
    flights_hit = counters.get("serve.singleflight_hits", 0)
    out["serve.singleflight.dedup_ratio"] = _ratio(
        flights_hit, flights_hit + counters.get("serve.singleflight_leaders", 0)
    )
    for tier in ("mem", "disk", "compute"):
        out[f"serve.cache_tier.{tier}"] = counters.get(f"serve.cache_tier.{tier}", 0)
    return out, rolled
