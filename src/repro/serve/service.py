"""Domain layer of the observatory service: cache-tier-resolved payloads.

Every endpoint payload is derived from the same deterministic day
engine the experiments use, :func:`repro.core.parallel.day_reductions`
with caching on. Every endpoint asks for one fixed request per day and
vantage point, :data:`SERVE_DAY`: the day's per-selector packet counts,
its flow/packet/byte totals and its victim ranking cut at
:data:`MAX_TOP_VICTIMS` there, plus the day's ground-truth attack
summary. A request resolves through the tiers in order:

1. in-memory :class:`~repro.core.parallel.DayResultCache` — hit in
   microseconds, and never touches a flow table;
2. the attached :class:`~repro.core.diskcache.DiskDayCache` (when the
   server runs with ``--cache-dir``) — the reductions are small
   JSON-exact values, one sidecar file each;
3. warm-pool compute via :mod:`repro.core.workerpool` under the server's
   configured ``--jobs/--executor`` — the expensive path, coalesced by
   the single-flight layer so concurrent misses run it once. A cold
   (day, vantage) is synthesized and observed once and every reduction
   of it is cached, so a later request of any endpoint for that day and
   vantage is a memory hit.

Which tier served each request is counted as
``serve.cache_tier.{mem,disk,compute}`` by watching the cache counters
across the call (a request that generated anything counts as compute, a
request fully absorbed by the durable tier as disk, else mem).

All payload builders are synchronous — the server runs them in worker
threads via ``asyncio.to_thread`` behind a bounded semaphore — and end
in :func:`canonical_json`: sorted keys, no whitespace, ``allow_nan``
off. Determinism of the upstream day engine (bit-identical across
``jobs``, executors, and cache temperature) therefore lifts to
byte-identical HTTP payloads, which ``tests/test_serve_routes.py`` pins.
"""

from __future__ import annotations

import json
import threading
from functools import partial
from typing import Any, Callable

import numpy as np

from repro.core.classify import ClassifierThresholds
from repro.core.parallel import (
    Reduction,
    day_cache,
    day_events,
    day_reductions,
    port_counts,
    resolve_jobs,
)
from repro.core.workerpool import get_pool
from repro.core.takedown_analysis import analyze_takedown
from repro.core.victims import victim_report
from repro.experiments.base import ExperimentConfig, build_scenario
from repro.experiments.fig4 import SELECTORS
from repro.flows.records import FlowTable
from repro.obs import metrics
from repro.scenario.scenario import DayTraffic
from repro.serve.http import HttpError
from repro.timeutil import TRAFFIC_EPOCH, date_of, day_index, parse_date

__all__ = ["ObservatoryService", "SERVE_DAY", "VANTAGES", "VP_SAMPLING", "canonical_json"]

#: Vantage points a request may select (the paper's three).
VANTAGES = ("ixp", "tier1", "tier2")

#: Renormalization per vantage point (mirrors fig2's sampling factors).
VP_SAMPLING = {"ixp": 10_000.0, "tier1": 1_000.0, "tier2": 1_000.0}

#: Hard caps on the work one request may ask for. The victim ranking is
#: cached cut at ``MAX_TOP_VICTIMS``; ``?top=`` slices it.
MAX_SERIES_DAYS = 366
MAX_TOP_VICTIMS = 1000

#: Bin of the per-victim peak rate: one minute, as in Figure 2.
VICTIM_BIN_SECONDS = 60.0


#: Leaf types :func:`_py` passes through unchanged.
_JSON_LEAVES = frozenset((str, int, float, bool, type(None)))


def _py(value: Any) -> Any:
    """Recursively convert numpy scalars/arrays to canonical-JSON types."""
    if type(value) in _JSON_LEAVES:
        return value
    if isinstance(value, dict):
        return {str(k): _py(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_py(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_py(v) for v in value.tolist()]
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def canonical_json(payload: Any) -> bytes:
    """Serialize to byte-stable JSON: sorted keys, tight separators.

    ``allow_nan=False`` turns any non-finite float into a loud error
    instead of emitting ``NaN`` (invalid JSON) nondeterministically.
    """
    return json.dumps(
        _py(payload), sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


def _warm_probe(item: int) -> int:
    """No-op pool task: dispatching one per worker forces every worker
    process to exist (ProcessPoolExecutor forks lazily on submit)."""
    return item


def _dotted(ip: int) -> str:
    ip = int(ip)
    return f"{(ip >> 24) & 255}.{(ip >> 16) & 255}.{(ip >> 8) & 255}.{ip & 255}"


# -- the per-day reductions every endpoint reads ----------------------------------


def _day_totals(day: int, observed: FlowTable) -> dict[str, int]:
    return {
        "flows": len(observed),
        "packets": int(observed["packets"].sum()),
        "bytes": int(observed["bytes"].sum()),
    }


def _victim_ranking(sampling_factor: float, day: int, observed: FlowTable) -> dict[str, Any]:
    report = victim_report(
        observed, bin_seconds=VICTIM_BIN_SECONDS, sampling_factor=sampling_factor
    )
    stats = report.stats
    peak = report.peak_gbps
    # Deterministic ranking: peak Gbps descending, destination IP as
    # the tie-break so equal peaks never reorder run to run.
    order = np.lexsort((stats.destinations, -peak))[:MAX_TOP_VICTIMS]
    return {
        "n_destinations": report.n_destinations,
        "victims_above_1gbps": report.victims_above_gbps(1.0),
        "victims": [
            {
                "ip": _dotted(stats.destinations[i]),
                "peak_gbps": float(peak[i]),
                "unique_sources": int(stats.unique_sources[i]),
                "max_sources_per_min": int(stats.max_sources_per_bin[i]),
            }
            for i in order
        ],
    }


#: Per-selector packet counts of the day (fig4's selectors).
PORTS = port_counts(SELECTORS.values())

#: The day's observed flow/packet/byte totals.
TOTALS = Reduction(("totals",), _day_totals)

#: Per vantage point, the day's victims ranked by peak Gbps renormalized
#: by its sampling factor, cut at ``MAX_TOP_VICTIMS``: the destination
#: count, the count above 1 Gbps, and payload-ready victim dicts. The key
#: pins the default classifier thresholds, the bin and the cut.
RANKINGS = {
    vantage: Reduction(
        (
            "victim_ranking",
            VP_SAMPLING[vantage],
            repr(ClassifierThresholds()),
            VICTIM_BIN_SECONDS,
            MAX_TOP_VICTIMS,
        ),
        partial(_victim_ranking, VP_SAMPLING[vantage]),
    )
    for vantage in VANTAGES
}


def _attack_summary(day: int, traffic: DayTraffic) -> dict[str, Any]:
    events = traffic.events
    return {
        "events": len(events),
        "victims": len({int(e.victim_ip) for e in events}),
        "peak_pps": max((float(e.total_pps) for e in events), default=0.0),
        "vectors": sorted({e.vector for e in events}),
    }


#: The day's ground-truth attack events, summarized (vantage ``None``).
ATTACKS = Reduction(("attack_summary",), _attack_summary)

#: Per vantage point, the one request every endpoint makes for a day
#: there. Asking for all three vantage points at once would synthesize a
#: day once for traffic that asks it at several of them, but pay two
#: extra observations and rankings per cold day for traffic that asks
#: one; no benchmark workload has the second kind of traffic to weigh
#: the two against.
SERVE_DAY = {v: {None: (ATTACKS,), v: (PORTS, TOTALS, RANKINGS[v])} for v in VANTAGES}


class ObservatoryService:
    """Builds endpoint payloads for one scenario world.

    The scenario is built lazily on the first request that needs it (a
    ``/v1/health`` probe right after boot answers immediately); the
    build is locked so concurrent first requests construct it once.
    """

    def __init__(self, config: ExperimentConfig) -> None:
        self.config = config
        self.scenario_config = config.scenario_config()
        self._scenario = None
        self._build_lock = threading.Lock()

    # -- world access --------------------------------------------------------

    @property
    def scenario_built(self) -> bool:
        return self._scenario is not None

    @property
    def scenario(self):
        """The built scenario, constructing it on first use (thread-safe)."""
        scenario = self._scenario
        if scenario is None:
            with self._build_lock:
                scenario = self._scenario
                if scenario is None:
                    scenario = self._scenario = build_scenario(self.config)
        return scenario

    def warm_pool(self) -> None:
        """Spawn the worker pool now, before any client socket exists.

        Under the ``fork`` start method a lazily-forked pool worker
        inherits every open file descriptor — including live client
        connections, which then never see EOF when the server closes
        them. The server calls this before it starts accepting, so the
        long-lived workers hold no connection fds. ``inline`` and
        single-job configs have no pool and return immediately.
        """
        n_jobs = resolve_jobs(self.config.jobs)
        if self.config.executor == "inline" or n_jobs <= 1:
            return
        pool = get_pool(self.scenario, n_jobs, self.config.executor)
        pool.map_with_deltas(_warm_probe, list(range(pool.workers)))

    # -- request-facing parsing helpers --------------------------------------

    def parse_day(self, text: str) -> int:
        """A ``YYYY-MM-DD`` request segment as a scenario day index.

        400 for unparseable dates, 404 for dates outside the scenario's
        day range (the resource genuinely does not exist).
        """
        try:
            date = parse_date(text)
        except ValueError:
            raise HttpError(
                400, f"invalid date {text!r} (expected YYYY-MM-DD)", close=False
            ) from None
        day = day_index(date)
        if not 0 <= day < self.scenario_config.n_days:
            first = date_of(0)
            last = date_of(self.scenario_config.n_days - 1)
            raise HttpError(
                404, f"date {text} outside the scenario window {first}..{last}", close=False
            )
        return day

    def parse_vantage(self, value: str | None) -> str:
        vantage = value or "ixp"
        if vantage not in VANTAGES:
            raise HttpError(
                400, f"unknown vantage {vantage!r} (choose from {'/'.join(VANTAGES)})",
                close=False,
            )
        return vantage

    # -- cache-tier accounting ------------------------------------------------

    def _resolve(self, fn: Callable[[], Any]) -> Any:
        """Run a pipeline access and count which cache tier satisfied it.

        Classification watches the shared day-cache counters across the
        call: any day neither memory nor disk could serve makes the
        request ``compute``; all memory misses absorbed by the durable
        tier make it ``disk``; otherwise ``mem``. Concurrent requests
        resolving other keys can skew the attribution of *this* one, but
        totals across requests stay exact.
        """
        cache = day_cache()
        before_misses = cache.misses
        before_disk_hits = cache.disk.hits if cache.disk is not None else 0
        result = fn()
        misses = cache.misses - before_misses
        disk_hits = (cache.disk.hits - before_disk_hits) if cache.disk is not None else 0
        if misses == 0:
            tier = "mem"
        elif disk_hits >= misses:
            tier = "disk"
        else:
            tier = "compute"
        metrics().inc(f"serve.cache_tier.{tier}")
        return result

    def _serve_days(
        self, days: list[int], vantage: str
    ) -> dict[tuple[str | None, Reduction], list[Any]]:
        """:data:`SERVE_DAY` of ``vantage`` for ``days``, through the cache tiers."""
        return day_reductions(
            self.scenario,
            days,
            SERVE_DAY[vantage],
            jobs=self.config.jobs,
            cache=True,
            executor=self.config.executor,
            batch_days=self.config.batch_days,
        )

    # -- endpoint payloads ----------------------------------------------------

    def health_payload(self) -> dict[str, Any]:
        """Liveness probe: cheap, never builds the scenario."""
        from repro import __version__

        return {
            "status": "ok",
            "version": __version__,
            "scenario_built": self.scenario_built,
            "n_days": self.scenario_config.n_days,
            "first_date": str(TRAFFIC_EPOCH),
            "last_date": str(date_of(self.scenario_config.n_days - 1)),
        }

    def config_payload(self) -> dict[str, Any]:
        """Scenario identity, executor policy, and live cache statistics."""
        cache = day_cache()
        return {
            "scenario": {
                "content_hash": self.scenario_config.content_hash(),
                "preset": self.config.preset,
                "seed": self.config.seed,
                "scale": self.scenario_config.scale,
                "n_days": self.scenario_config.n_days,
                "takedown_day": self.scenario_config.takedown_day,
                "takedown_date": str(date_of(self.scenario_config.takedown_day)),
                "per_event_seeds": self.scenario_config.per_event_seeds,
            },
            "executor": {
                "mode": self.config.executor,
                "jobs": self.config.jobs,
                "batch_days": self.config.batch_days,
                "day_shards": self.config.day_shards,
            },
            "cache": cache.stats(),
            "vantages": list(VANTAGES),
        }

    def day_payload(self, date_text: str, vantage: str | None) -> dict[str, Any]:
        """Per-day observed-attack aggregates for ``/v1/days/{date}``."""
        vantage_name = self.parse_vantage(vantage)
        day = self.parse_day(date_text)
        values = self._resolve(lambda: self._serve_days([day], vantage_name))
        return {
            "date": date_text,
            "day_index": day,
            "vantage": vantage_name,
            "observed": {
                **values[vantage_name, TOTALS][0],
                "ports": values[vantage_name, PORTS][0],
            },
            "attacks": values[None, ATTACKS][0],
        }

    def series_payload(
        self,
        start_text: str,
        end_text: str,
        vantage: str | None,
        selector_csv: str | None,
        window_text: str | None,
    ) -> dict[str, Any]:
        """Takedown time-series for ``/v1/series/takedown``.

        ``start``/``end`` are inclusive dates; ``selectors`` a comma list
        of fig4 selector names (default: all); ``window`` optionally adds
        the paper's before/after significance analysis at that half-width
        when the range covers the takedown day.
        """
        vantage_name = self.parse_vantage(vantage)
        start_day = self.parse_day(start_text)
        end_day = self.parse_day(end_text)
        if end_day < start_day:
            raise HttpError(400, f"end {end_text} precedes start {start_text}", close=False)
        n_days = end_day - start_day + 1
        if n_days > MAX_SERIES_DAYS:
            raise HttpError(
                400, f"range of {n_days} days exceeds the {MAX_SERIES_DAYS}-day cap",
                close=False,
            )
        names = (
            [n.strip() for n in selector_csv.split(",") if n.strip()]
            if selector_csv
            else sorted(SELECTORS)
        )
        unknown = [n for n in names if n not in SELECTORS]
        if unknown:
            raise HttpError(
                400,
                f"unknown selectors {', '.join(unknown)} "
                f"(choose from {', '.join(sorted(SELECTORS))})",
                close=False,
            )
        days = list(range(start_day, end_day + 1))
        counts = self._resolve(lambda: self._serve_days(days, vantage_name))[vantage_name, PORTS]
        series = {name: [day_counts[name] for day_counts in counts] for name in names}
        takedown_day = self.scenario_config.takedown_day
        payload: dict[str, Any] = {
            "vantage": vantage_name,
            "start": start_text,
            "end": end_text,
            "days": [str(date_of(day)) for day in days],
            "takedown_day": takedown_day,
            "takedown_date": str(date_of(takedown_day)),
            "series": series,
        }
        if window_text is not None:
            payload["analysis"] = self._series_analysis(
                series, days, takedown_day, window_text
            )
        return payload

    def _series_analysis(
        self,
        series: dict[str, list[int]],
        days: list[int],
        takedown_day: int,
        window_text: str,
    ) -> dict[str, Any]:
        try:
            window = int(window_text)
        except ValueError:
            raise HttpError(400, f"invalid window {window_text!r}", close=False) from None
        if window < 2:
            raise HttpError(400, "window must be >= 2 days", close=False)
        if takedown_day not in days:
            raise HttpError(
                400, "analysis window requires the range to cover the takedown day",
                close=False,
            )
        takedown_index = days.index(takedown_day)
        analysis = {}
        for name, values in series.items():
            try:
                report = analyze_takedown(
                    np.asarray(values, dtype=float),
                    takedown_index,
                    windows=(window,),
                    series_name=name,
                )
            except ValueError as exc:
                raise HttpError(400, f"analysis window invalid: {exc}", close=False) from None
            result = report.window(window)
            analysis[name] = {
                "window": window,
                "significant": bool(result.significant),
                "reduction_ratio": float(result.reduction_ratio),
            }
        return analysis

    def victims_payload(
        self, date_text: str, vantage: str | None, top_text: str | None
    ) -> dict[str, Any]:
        """Top-N victimization stats for ``/v1/victims/top``."""
        vantage_name = self.parse_vantage(vantage)
        day = self.parse_day(date_text)
        try:
            top = int(top_text) if top_text is not None else 10
        except ValueError:
            raise HttpError(400, f"invalid top {top_text!r}", close=False) from None
        if not 1 <= top <= MAX_TOP_VICTIMS:
            raise HttpError(
                400, f"top must be in [1, {MAX_TOP_VICTIMS}], got {top}", close=False
            )
        values = self._resolve(lambda: self._serve_days([day], vantage_name))
        ranking = values[vantage_name, RANKINGS[vantage_name]][0]
        return {
            "date": date_text,
            "day_index": day,
            "vantage": vantage_name,
            "sampling_factor": VP_SAMPLING[vantage_name],
            "n_destinations": ranking["n_destinations"],
            "victims_above_1gbps": ranking["victims_above_1gbps"],
            "victims": ranking["victims"][:top],
        }

    def day_events_payload(self, day: int) -> list[dict[str, Any]]:
        """Ground-truth attack events of one day, as SSE-ready dicts."""
        events = self._resolve(
            lambda: day_events(self.scenario, day, cache=True)
        )
        date_text = str(date_of(day))
        return [
            {
                "date": date_text,
                "day_index": day,
                "booter": event.booter,
                "vector": event.vector,
                "victim_ip": _dotted(event.victim_ip),
                "victim_asn": int(event.victim_asn),
                "start_s": float(event.start_time),
                "duration_s": float(event.duration_s),
                "total_pps": float(event.total_pps),
                "reflectors": int(event.reflector_ips.size),
            }
            for event in events
        ]
