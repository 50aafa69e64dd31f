"""Parallel day-pipeline execution and a content-addressed day-result cache.

Every per-day random stream in the simulator is derived from the
scenario's :class:`~repro.stats.rng.SeedSequenceTree` by *path* —
``("traffic", day)``, ``("observe", vantage, day)``, ``("demand", day)``
and so on — never by drawing from a shared generator. A day's traffic
therefore does not depend on which days were generated before it, in
which order, or in which process. This module exploits that with one
engine, :func:`day_reductions`:

* a caller names, per vantage point, the :class:`Reduction` values it
  wants for each day — per-selector packet counts (:func:`port_counts`),
  hourly conservative attack counts (:func:`hourly_attacks`), the rows
  of the observed table an analysis reads (a row filter), or, at
  vantage ``None``, a value of the day's ground truth;
* each day missing from the cache becomes **one** task that synthesizes
  the ground truth once, observes it once per vantage still needed and
  applies every requested reduction;
* tasks run inline (``jobs=1``, or a single task) or on the
  **persistent warm process pool** owned by :mod:`repro.core.workerpool`
  (spawned once per (jobs, config) and reused across call sites, with
  automatic day batching), so ``jobs=1`` and ``jobs=N`` are
  **bit-identical**.

:func:`prefetch` joins several :data:`Ask` values (what one
:func:`day_reductions` call takes) per day and computes what the cache
misses with one task per distinct day. The runner prefetches the asks
its experiments declare (:data:`repro.experiments.registry.ASKS`), so a
day several of them read is synthesized once per run.

:func:`daily_port_counts` serves
:func:`repro.core.pipeline.collect_daily_port_series`. The other
wrappers, :func:`observed_days`, :func:`streaming_ingest` and
:func:`day_attack_tables` (whole tables, :data:`OBSERVED` and
:data:`ATTACK_TABLE`), have no caller in the experiments or the serving
plane: they stay because ``benchmarks/e2e/layers.py`` wraps them by name.

:class:`DayResultCache` is a process-wide LRU. Every flow-derived value
lives under one key family, ``("day", config content hash, takedown,
vantage, day, reduction key)``; only ground-truth event lists
(:func:`day_events`) keep their own. A call caches only the values it
asked for. The serving plane (:mod:`repro.serve.service`) is a client
too: it asks for small per-day reductions at one vantage point.
"""

from __future__ import annotations

import copy
import os
import sys
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.booter.takedown import TakedownScenario
from repro.core.classify import ClassifierThresholds
from repro.core.victims import attacks_per_hour
from repro.core.workerpool import (
    REPLAY_PREFIX as _REPLAY_PREFIX,
    get_pool,
    record_inline_pool,
    scenario_for,
)
from repro.flows.records import FlowTable, SCHEMA
from repro.obs import MetricsRegistry, metrics
from repro.scenario.config import ScenarioConfig
from repro.scenario.scenario import DayTraffic, Scenario

__all__ = [
    "ATTACK_TABLE",
    "Ask",
    "DaySpec",
    "DayResultCache",
    "OBSERVED",
    "Reduction",
    "day_cache",
    "resolve_jobs",
    "day_reductions",
    "prefetch",
    "port_counts",
    "hourly_attacks",
    "daily_port_counts",
    "observed_days",
    "streaming_ingest",
    "day_events",
    "day_attack_tables",
]

SECONDS_PER_DAY = 86_400.0


# -- reductions -----------------------------------------------------------------


@dataclass(frozen=True)
class Reduction:
    """One value the engine keeps per (day, vantage).

    ``fn(day, data)`` maps the day's observed table at a vantage point —
    or, requested at vantage ``None``, its ground-truth
    :class:`~repro.scenario.scenario.DayTraffic` — to the value. ``key``
    names the value in the cache and must pin down everything ``fn``
    depends on. Values meant to persist in the disk tier must be flow
    tables or JSON-exact (``dict[str, int]``, ``list[int]``). Equality
    and hashing use ``key`` only, so two equal requests share entries.
    """

    key: tuple
    fn: Callable[[int, Any], Any] = field(compare=False, repr=False)

    def __post_init__(self) -> None:
        # The engine keys its per-call tables by reduction; hashing the
        # nested key tuple on every lookup cost more than the lookups.
        object.__setattr__(self, "_hash", hash(self.key))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        # String hashes differ between processes, so an unpickled
        # reduction computes its own instead of carrying the sender's.
        return (Reduction, (self.key, self.fn))

    def __call__(self, day: int, data: Any) -> Any:
        return self.fn(day, data)


def _observed_table(day: int, observed: FlowTable) -> FlowTable:
    return observed


def _attack_table(day: int, traffic: DayTraffic) -> FlowTable:
    return traffic.attack


def _port_counts(selectors: tuple[Any, ...], day: int, observed: FlowTable) -> dict[str, int]:
    return {s.name: s.packets(observed) for s in selectors}


def _hourly_attacks(
    thresholds: ClassifierThresholds, sampling_factor: float, day: int, observed: FlowTable
) -> list[int]:
    hourly = attacks_per_hour(
        observed,
        day * SECONDS_PER_DAY,
        (day + 1) * SECONDS_PER_DAY,
        thresholds=thresholds,
        sampling_factor=sampling_factor,
    )
    return hourly.tolist()


#: The whole observed table of a (day, vantage).
OBSERVED = Reduction(("observed",), _observed_table)

#: The ground-truth attack flow table of a day (request it at vantage ``None``).
ATTACK_TABLE = Reduction(("attack",), _attack_table)


def port_counts(selectors: Iterable[Any]) -> Reduction:
    """Packets per :class:`~repro.core.pipeline.TrafficSelector`, by name.

    The value is ``dict[str, int]``; the key holds each selector's
    (name, port, direction) in order.
    """
    selectors = tuple(selectors)
    fingerprint = tuple((s.name, s.port, s.direction) for s in selectors)
    return Reduction(("ports", fingerprint), partial(_port_counts, selectors))


def hourly_attacks(
    sampling_factor: float, thresholds: ClassifierThresholds = ClassifierThresholds()
) -> Reduction:
    """Systems under NTP attack per hour of the day (Figure 5).

    The value is the day's 24 :func:`~repro.core.victims.attacks_per_hour`
    counts as ``list[int]``.
    """
    sampling_factor = float(sampling_factor)
    return Reduction(
        ("hourly_attacks", sampling_factor, repr(thresholds)),
        partial(_hourly_attacks, thresholds, sampling_factor),
    )


# -- day specs and worker-side scenario reconstruction ------------------------


@dataclass(frozen=True)
class DaySpec:
    """Picklable recipe for one scenario-day of work.

    Carries everything a worker process needs to regenerate the day
    bit-identically: the full scenario config, the day index, the
    vantage point (``None`` for an engine task, whose vantages and
    reductions travel alongside the spec), and the (possibly customized)
    takedown scenario to apply.
    """

    config: ScenarioConfig
    day: int
    vantage: str | None
    takedown: TakedownScenario | None = None


def _materialize(spec: DaySpec) -> Scenario:
    """The process's world, under the takedown ``spec`` carries.

    The memoized world is shared by every experiment of the run, so a
    custom takedown never lands on it: the task gets a shallow copy that
    carries it instead.
    """
    scenario = scenario_for(spec.config)
    if spec.takedown is None or scenario.takedown == spec.takedown:
        return scenario
    view = copy.copy(scenario)
    view.takedown = spec.takedown
    return view


# -- the day task ---------------------------------------------------------------

#: What one day task computes: per vantage (``None`` = ground truth), the
#: reductions to apply.
_Need = tuple[tuple[str | None, tuple[Reduction, ...]], ...]


def _reduce_day(scenario: Scenario, day: int, need: _Need) -> list:
    """Synthesize ``day`` once, then observe it once per vantage of ``need``.

    Returns one ``(values, deltas)`` pair per vantage, aligned with
    ``need``. ``deltas`` keeps the day's ground-truth counters (what
    synthesizing the day recorded) apart from the counters of this
    vantage's observation, so a later replay can count the ground truth
    once per day however many vantages it serves. ``None`` when the
    registry is off.
    """
    registry = metrics()
    before = _counters_snapshot(registry)
    traffic = scenario.day_traffic(day)
    truth = _counters_delta(registry, before)
    out = []
    for vantage, reductions in need:
        observed: dict[str, float] | None = {}
        if vantage is None:
            data = traffic
        else:
            before = _counters_snapshot(registry)
            data = scenario.observe_day(vantage, traffic)
            observed = _counters_delta(registry, before)
        deltas = None if truth is None else {"truth": truth, "vantage": observed}
        out.append(([reduction(day, data) for reduction in reductions], deltas))
    return out


def _day_task(item: tuple[DaySpec, _Need]) -> list:
    """Pool task: one day of the engine, in a worker."""
    spec, need = item
    return _reduce_day(_materialize(spec), spec.day, need)


def _ingest_chunk_task(chunk: tuple[tuple[DaySpec, ...], Any]) -> Any:
    specs, analyzer = chunk
    for spec in specs:
        scenario = _materialize(spec)
        traffic = scenario.day_traffic(spec.day)
        analyzer.ingest_day(spec.day, scenario.observe_day(spec.vantage, traffic))
    return analyzer


# -- the executor -------------------------------------------------------------


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``jobs`` request: ``None``/``0`` means all CPU cores.

    Negative values are rejected here, with the offending value in the
    message, so a bad request can never reach the process pool (where
    ``max_workers <= 0`` raises a far less helpful error).
    """
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(
            f"jobs must be a positive worker count, or 0/None for all "
            f"CPU cores; got {jobs} (refusing to size a process pool "
            f"with a negative worker count)"
        )
    return jobs


def _use_pool(n_jobs: int, n_items: int) -> bool:
    """Whether this fan goes to the warm pool or runs inline.

    Single items stay inline even with ``jobs > 1`` — a warm dispatch
    is cheap, but the serial path skips pickling entirely and single
    one-shot lookups should not spawn a pool at all.
    """
    return n_jobs > 1 and n_items > 1


# -- the day-result cache ------------------------------------------------------

# The replayed counter family (``scenario.*``) is defined in
# :mod:`repro.core.workerpool` (imported above as ``_REPLAY_PREFIX``):
# logical work counters describe the dataset an experiment processed, not
# the physical generations the strategy happened to run, so serving a day
# from the cache must count the same as regenerating it. That is what
# keeps them identical across ``jobs`` and ``cache`` settings.


def _counters_snapshot(registry: MetricsRegistry) -> dict[str, float] | None:
    if not registry.enabled:
        return None
    return {
        name: value
        for name, value in registry.counters.items()
        if name.startswith(_REPLAY_PREFIX)
    }


def _counters_delta(
    registry: MetricsRegistry, before: dict[str, float] | None
) -> dict[str, float] | None:
    if before is None:
        return None
    return {
        name: value - before.get(name, 0)
        for name, value in registry.counters.items()
        if name.startswith(_REPLAY_PREFIX) and value != before.get(name, 0)
    }


def _replay(part: dict[str, float] | None) -> None:
    """Add one part of a cached entry's deltas to the active registry.

    Replay makes a hit indistinguishable from regeneration as far as the
    ``scenario.*`` counters are concerned. Entries cached while the
    registry was disabled carry no deltas and replay nothing — within one
    runner invocation the enabled state is constant, so exports stay
    strategy-independent.
    """
    registry = metrics()
    if registry.enabled and part:
        counters = registry.counters
        for name, amount in part.items():
            counters[name] = counters.get(name, 0) + amount


def _cache_get(key: tuple) -> tuple[Any, dict[str, dict[str, float]] | None] | None:
    """A cached ``(value, deltas)`` entry, replaying both parts of its deltas."""
    entry = _DAY_CACHE.get(key)
    if entry is not None and entry[1] is not None:
        _replay(entry[1]["truth"])
        _replay(entry[1]["vantage"])
    return entry


def _approx_nbytes(value: Any) -> int:
    """Best-effort size estimate of a cached value, in bytes.

    Exact for flow tables and numpy arrays (column buffer sizes),
    recursive for the containers the pipeline caches (count dicts,
    hourly lists, event lists), ``sys.getsizeof`` for everything else.
    """
    if isinstance(value, FlowTable):
        return int(sum(value[name].nbytes for name in SCHEMA))
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, dict):
        return sum(_approx_nbytes(v) for v in value.values()) + sys.getsizeof(value)
    if isinstance(value, (list, tuple)):
        return sum(_approx_nbytes(v) for v in value) + sys.getsizeof(value)
    return sys.getsizeof(value)


class DayResultCache:
    """Bounded LRU cache of per-day results, content-addressed by config.

    Entries are ``(value, deltas)`` pairs: a day's :class:`Reduction`
    values (observed or attack tables, port counts, hourly counts) and
    its ground-truth event lists. Keys embed the scenario config's
    ``content_hash()`` (seed included) and the takedown scenario, so two
    different worlds never collide and two identically-configured
    scenarios share.

    Every lookup and insert also feeds the active metrics registry
    (``cache.hits`` / ``cache.misses`` / ``cache.evictions`` /
    ``cache.bytes_stored`` and the ``cache.resident_bytes`` gauge).

    An optional durable tier (:class:`repro.core.diskcache.DiskDayCache`)
    can be attached with :meth:`attach_disk`: memory misses then consult
    the disk store (a hit is promoted back into memory without being
    rewritten to disk), and inserts write through. Flow tables evicted
    from the memory LRU remain reachable on disk.

    The cache is thread-safe: the serving plane resolves requests from
    ``asyncio.to_thread`` workers (several at once with
    ``--compute-slots`` above 1) that look up and insert concurrently,
    so every mutation of the LRU (and the paired size/counter
    bookkeeping) happens under one re-entrant lock. OrderedDict
    mutation is *not* atomic under concurrent ``move_to_end``/``popitem``
    — unlocked, a race corrupts the linked list or loses
    ``resident_bytes`` accounting.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._data: OrderedDict[tuple, Any] = OrderedDict()
        self._sizes: dict[tuple, int] = {}
        self._lock = threading.RLock()
        self.disk = None
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.resident_bytes = 0

    def attach_disk(self, disk: Any | None) -> None:
        """Attach (or, with ``None``, detach) a durable second tier.

        The disk object only needs the cache protocol: ``get(key)``
        returning a stored value or ``None``, ``put(key, value)``, and
        ``stats()``.
        """
        with self._lock:
            self.disk = disk

    def get(self, key: tuple) -> Any | None:
        """The cached value for ``key``, or ``None`` (counts hit/miss).

        On a memory miss the disk tier (if attached) gets a chance; a
        disk hit counts as a memory miss *and* a disk hit, and the value
        is promoted into the memory LRU for subsequent lookups.
        """
        return self.get_many((key,))[0]

    def get_many(self, keys: Sequence[tuple]) -> list[Any | None]:
        """:meth:`get` for each of ``keys``, under one lock and one count."""
        values: list[Any | None] = []
        with self._lock:
            for key in keys:
                value = self._data.get(key)
                if value is not None:
                    self._data.move_to_end(key)
                values.append(value)
            hits = sum(value is not None for value in values)
            self.hits += hits
            self.misses += len(keys) - hits
            registry = metrics()
            if hits:
                registry.inc("cache.hits", hits)
            if hits < len(keys):
                registry.inc("cache.misses", len(keys) - hits)
                if self.disk is not None:
                    for i, key in enumerate(keys):
                        if values[i] is None:
                            values[i] = self.disk.get(key)
                            if values[i] is not None:
                                self._insert(key, values[i], write_disk=False)
        return values

    def put(self, key: tuple, value: Any) -> None:
        """Insert (or refresh) an entry, evicting the least recently used.

        Writes through to the disk tier when one is attached (the disk
        store itself declines values it cannot persist exactly).
        """
        self._insert(key, value, write_disk=True)

    def _insert(self, key: tuple, value: Any, write_disk: bool) -> None:
        registry = metrics()
        size = _approx_nbytes(value)
        with self._lock:
            if key in self._sizes:
                self.resident_bytes -= self._sizes[key]
            self._data[key] = value
            self._sizes[key] = size
            self.resident_bytes += size
            self._data.move_to_end(key)
            if registry.enabled:
                registry.inc("cache.puts")
                registry.inc("cache.bytes_stored", size)
            while len(self._data) > self.max_entries:
                evicted_key, _ = self._data.popitem(last=False)
                self.resident_bytes -= self._sizes.pop(evicted_key, 0)
                self.evictions += 1
                registry.inc("cache.evictions")
            if registry.enabled:
                registry.gauge("cache.resident_bytes", self.resident_bytes)
            if write_disk and self.disk is not None:
                self.disk.put(key, value)

    def clear(self) -> None:
        """Drop all in-memory entries and reset every counter.

        The disk tier, if attached, is left untouched — clearing memory
        is how a disk-warm run proves the durable tier alone can serve
        the campaign.
        """
        with self._lock:
            self._data.clear()
            self._sizes.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.resident_bytes = 0

    def stats(self) -> dict[str, Any]:
        """Counters for reporting: entries, hits, misses, evictions, bytes.

        With a disk tier attached, its counters nest under ``"disk"``.
        """
        with self._lock:
            stats: dict[str, Any] = {
                "entries": len(self._data),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "resident_bytes": self.resident_bytes,
            }
            if self.disk is not None:
                stats["disk"] = self.disk.stats()
            return stats

    def __len__(self) -> int:
        return len(self._data)


_DAY_CACHE = DayResultCache()


def day_cache() -> DayResultCache:
    """The process-wide day-result cache singleton."""
    return _DAY_CACHE


def _context(scenario: Scenario) -> tuple[str, str]:
    """The config content hash and takedown fingerprint that key a scenario.

    The takedown scenario is a frozen dataclass; its repr is a stable
    fingerprint of every behavioural parameter. Callers take it once per
    call, not once per key.
    """
    return scenario.config.content_hash(), repr(scenario.takedown)


def _key(
    kind: str,
    config_hash: str,
    takedown: str,
    vantage: str | None,
    day: int,
    extra: Any = None,
) -> tuple:
    return (kind, config_hash, takedown, vantage, int(day), extra)


# -- the day-reduction engine ---------------------------------------------------

#: Days, and per vantage point (``None`` = ground truth) the reductions wanted.
Ask = tuple[Iterable[int], Mapping[str | None, Sequence[Reduction]]]


def _reduce_days(
    scenario: Scenario,
    asks: Sequence[Ask],
    jobs: int,
    cache: bool,
) -> list[dict[tuple[str | None, Reduction], list[Any]]]:
    """The engine: ``asks`` joined per day, one task per day with a miss.

    Returns, per ask, what :func:`day_reductions` returns for it.
    """
    asks = [
        ([int(d) for d in days], list(dict.fromkeys((v, r) for v, rs in requests.items() for r in rs)))
        for days, requests in asks
    ]
    # Each day's (vantage, reduction) pairs; a day of one ask shares its list.
    joined: dict[int, list[tuple[str | None, Reduction]]] = {}
    for days, pairs in asks:
        for day in days:
            have = joined.get(day)
            joined[day] = pairs if have is None else list(dict.fromkeys(have + pairs))
    config_hash, takedown = _context(scenario)
    registry = metrics()

    def key(vantage: str | None, day: int, reduction: Reduction) -> tuple:
        return _key("day", config_hash, takedown, vantage, day, reduction.key)

    found: dict[tuple[str | None, Reduction], dict[int, Any]] = {
        pair: {} for _, pairs in asks for pair in pairs
    }
    todo: list[tuple[int, _Need]] = []
    for day, pairs in joined.items():
        entries = (
            _DAY_CACHE.get_many([key(v, day, r) for v, r in pairs]) if cache else [None] * len(pairs)
        )
        missing: dict[str | None, list[Reduction]] = {}
        served: dict[str | None, dict[str, dict[str, float]] | None] = {}
        for (vantage, r), entry in zip(pairs, entries):
            if entry is None:
                missing.setdefault(vantage, []).append(r)
            else:
                found[vantage, r][day] = entry[0]
                served.setdefault(vantage, entry[1])
        # A day served from the cache counts like a computed one: each
        # vantage's observation once, and the ground truth once unless
        # the day is synthesized again below (which counts it live).
        truth = None
        for vantage, deltas in served.items():
            if vantage not in missing and deltas is not None:
                truth = deltas["truth"]
                _replay(deltas["vantage"])
        if missing:
            todo.append((day, tuple((v, tuple(rs)) for v, rs in missing.items())))
        else:
            _replay(truth)

    def store(day: int, need: _Need, result: list) -> None:
        for (vantage, reductions), (values, deltas) in zip(need, result):
            for reduction, value in zip(reductions, values):
                if cache:
                    _DAY_CACHE.put(key(vantage, day, reduction), (value, deltas))
                found[vantage, reduction][day] = value

    if todo:
        registry.inc("parallel.days_dispatched", len(todo))
        n_jobs = resolve_jobs(jobs)
        if _use_pool(n_jobs, len(todo)):
            items = [(DaySpec(scenario.config, day, None, scenario.takedown), need) for day, need in todo]
            pairs = get_pool(scenario, n_jobs).map_with_deltas(_day_task, items)
            for (day, need), (result, deltas) in zip(todo, pairs):
                if deltas is None:  # unmetered workers: nothing to replay later
                    result = [(values, None) for values, _ in result]
                store(day, need, result)
        else:
            start = time.perf_counter()
            for day, need in todo:
                store(day, need, _reduce_day(scenario, day, need))
            record_inline_pool(registry, len(todo), time.perf_counter() - start)
    return [{pair: list(map(found[pair].__getitem__, days)) for pair in pairs} for days, pairs in asks]


def day_reductions(
    scenario: Scenario,
    days: Iterable[int],
    requests: Mapping[str | None, Sequence[Reduction]],
    jobs: int = 1,
    cache: bool = False,
) -> dict[tuple[str | None, Reduction], list[Any]]:
    """Apply every requested reduction to every day, synthesizing each day once.

    ``requests`` maps a vantage point (``'ixp'`` | ``'tier1'`` |
    ``'tier2'``, or ``None`` for ground-truth reductions) to the
    :class:`Reduction` values wanted there. Returns, per
    ``(vantage, reduction)``, one value per day in ``days`` order.

    With ``cache``, each value is cached per (reduction, day) and only
    the requested values are kept. Each day with a value missing is one
    task — inline, or on the warm pool with ``jobs > 1`` — that
    synthesizes the ground truth once and observes it once per vantage
    still needed. Results and the ``scenario.*`` counters are the same
    for every ``jobs`` and cache state: per day, the ground truth counts
    once and each requested vantage's observation once.
    """
    with metrics().span("parallel.day_reductions"):
        return _reduce_days(scenario, [(days, requests)], jobs, cache)[0]


def prefetch(scenario: Scenario, asks: Sequence[Ask], jobs: int = 1) -> None:
    """Compute and cache every value of ``asks``, one task per distinct day.

    The ``scenario.*`` counters it adds are restored afterwards: a later
    :func:`day_reductions` read of an ask counts its days by replay, as
    an uncached call would, so counter digests ignore the prefetch.
    """
    registry = metrics()
    with registry.span("parallel.prefetch"):
        before = _counters_snapshot(registry)
        _reduce_days(scenario, asks, jobs, cache=True)
        if before is not None:
            counters = registry.counters
            for name in [n for n in counters if n.startswith(_REPLAY_PREFIX)]:
                if name in before:
                    counters[name] = before[name]
                else:
                    del counters[name]


# -- wrappers ---------------------------------------------------------------------


def observed_days(
    scenario: Scenario,
    vantage: str,
    days: Iterable[int],
    jobs: int = 1,
    cache: bool = False,
) -> list[FlowTable]:
    """The :data:`OBSERVED` table of each day, in ``days`` order."""
    with metrics().span("parallel.observed_days"):
        return _reduce_days(scenario, [(days, {vantage: (OBSERVED,)})], jobs, cache)[0][vantage, OBSERVED]


def daily_port_counts(
    scenario: Scenario,
    vantage: str,
    selectors: Sequence[Any],
    days: Iterable[int],
    jobs: int = 1,
    cache: bool = False,
) -> dict[int, dict[str, int]]:
    """The :func:`port_counts` of each day, keyed by day."""
    with metrics().span("parallel.daily_port_counts"):
        days = [int(d) for d in days]
        reduction = port_counts(selectors)
        counts = _reduce_days(scenario, [(days, {vantage: (reduction,)})], jobs, cache)[0][vantage, reduction]
        return dict(zip(days, counts))


def streaming_ingest(
    scenario: Scenario,
    vantage: str,
    analyzer: Any,
    days: Iterable[int],
    jobs: int = 1,
    cache: bool = False,
) -> Any:
    """Feed ``days`` through ``analyzer``, optionally over the pool.

    Serially, each day's observed table is the engine's :data:`OBSERVED`
    value (cached under the engine's key), one day at a time. With ``jobs > 1``
    the analyzer must implement the merge protocol (``clone_empty()`` +
    ``merge(other)``): cached observed days are ingested in the parent,
    and the rest are pre-chunked at the pool's automatic batch size, one
    pool task per chunk, whose clones fold back order-independently.
    """
    with metrics().span("parallel.streaming_ingest"):
        days = [int(d) for d in days]
        n_jobs = resolve_jobs(jobs)
        if not _use_pool(n_jobs, len(days)):
            for day in days:
                observed = _reduce_days(scenario, [([day], {vantage: (OBSERVED,)})], 1, cache)[0]
                analyzer.ingest_day(day, observed[vantage, OBSERVED][0])
            return analyzer
        if not (hasattr(analyzer, "clone_empty") and hasattr(analyzer, "merge")):
            raise TypeError(
                "streaming_ingest with jobs > 1 needs an analyzer with the merge "
                "protocol (clone_empty() and merge()); got "
                f"{type(analyzer).__name__}"
            )
        config_hash, takedown = _context(scenario)
        pending: list[int] = []
        for day in days:
            if cache:
                hit = _cache_get(_key("day", config_hash, takedown, vantage, day, OBSERVED.key))
                if hit is not None:
                    analyzer.ingest_day(day, hit[0])
                    continue
            pending.append(day)
        if not pending:
            return analyzer
        metrics().inc("parallel.days_dispatched", len(pending))
        pool = get_pool(scenario, n_jobs)
        chunk_size = pool.resolve_batch(len(pending))
        tasks = [
            (
                tuple(
                    DaySpec(scenario.config, d, vantage, scenario.takedown)
                    for d in pending[i : i + chunk_size]
                ),
                analyzer.clone_empty(),
            )
            for i in range(0, len(pending), chunk_size)
        ]
        # Each task is already a chunk of days sharing one analyzer
        # clone; at most _OVERSUBSCRIBE chunks per worker, so the pool's
        # automatic batches hold one chunk each.
        for part, _ in pool.map_with_deltas(_ingest_chunk_task, tasks):
            analyzer.merge(part)
        return analyzer


def day_events(
    scenario: Scenario,
    day: int,
    cache: bool = False,
) -> list:
    """Ground-truth attack events for ``day`` (cached; no flow synthesis).

    Event lists are not flow values, so they keep their own ``"events"``
    key family instead of the engine's.
    """
    config_hash, takedown = _context(scenario)
    key = _key("events", config_hash, takedown, None, day)
    if cache:
        hit = _cache_get(key)
        if hit is not None:
            return hit[0]
    registry = metrics()
    before = _counters_snapshot(registry)
    events = scenario.day_events(day)
    if cache:
        truth = _counters_delta(registry, before)
        _DAY_CACHE.put(key, (events, None if truth is None else {"truth": truth, "vantage": {}}))
    return events


def day_attack_tables(
    scenario: Scenario,
    days: Iterable[int],
    jobs: int = 1,
    cache: bool = False,
) -> list[FlowTable]:
    """The :data:`ATTACK_TABLE` of each day, in ``days`` order."""
    with metrics().span("parallel.day_attack_tables"):
        return _reduce_days(scenario, [(days, {None: (ATTACK_TABLE,)})], jobs, cache)[0][None, ATTACK_TABLE]
