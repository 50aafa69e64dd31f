"""Parallel day-pipeline execution and a content-addressed day-result cache.

Every per-day random stream in the simulator is derived from the
scenario's :class:`~repro.stats.rng.SeedSequenceTree` by *path* —
``("traffic", day)``, ``("observe", vantage, day)``, ``("demand", day)``
and so on — never by drawing from a shared generator. A day's traffic
therefore does not depend on which days were generated before it, in
which order, or in which process. This module exploits that with one
engine, :func:`day_reductions`:

* a caller names, per vantage point, the :class:`Reduction` values it
  wants for each day — the observed table itself (:data:`OBSERVED`),
  per-selector packet counts (:func:`port_counts`), hourly conservative
  attack counts (:func:`hourly_attacks`), or, at vantage ``None``, the
  ground-truth attack table (:data:`ATTACK_TABLE`);
* each day missing from the cache becomes **one** task that synthesizes
  the ground truth once, observes it once per vantage still needed and
  applies every requested reduction, so consumers of the same days
  (fig4 and fig5) share one synthesis instead of one each;
* tasks run inline or on the **persistent warm pool** owned by
  :mod:`repro.core.workerpool` (spawned once per (executor, jobs,
  config) and reused across call sites, with day batching and, for
  per-event-seeded scenarios, intra-day event-range sharding), so
  ``jobs=1`` and ``jobs=N`` are **bit-identical** for every executor.

:func:`observed_days`, :func:`daily_port_counts` and
:func:`day_attack_tables` are thin wrappers that name their reduction;
:func:`streaming_ingest` feeds observed tables through a mergeable
analyzer.

:class:`DayResultCache` is a process-wide LRU. Every flow-derived value
lives under one key family, ``("day", config content hash, takedown,
vantage, day, with_takedown, reduction key)``; only ground-truth event
lists (:func:`day_events`) keep their own. A call caches only the
values it asked for, so experiments sharing days (fig2b/fig2c/landscape,
fig5 after fig4, victimization after honeypot) reuse each other's work
without the cache holding whole tables nobody reads. The serving plane
(:mod:`repro.serve.service`) is a client too: it asks for small
per-day reductions at one vantage point, never for tables.
"""

from __future__ import annotations

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
    WorkerPool,
    execution_policy,
    get_pool,
    record_inline_pool,
    register_scenario,
    scenario_for,
)
from repro.flows.records import FlowTable, SCHEMA
from repro.obs import MetricsRegistry, metrics
from repro.scenario.config import ScenarioConfig
from repro.scenario.scenario import DayTraffic, Scenario

__all__ = [
    "ATTACK_TABLE",
    "DaySpec",
    "DayResultCache",
    "OBSERVED",
    "Reduction",
    "day_cache",
    "resolve_jobs",
    "register_scenario",
    "day_reductions",
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
    reductions travel alongside the spec), the takedown flag, and the
    (possibly customized) takedown scenario to apply.
    """

    config: ScenarioConfig
    day: int
    vantage: str | None
    with_takedown: bool
    takedown: TakedownScenario | None = None


@dataclass(frozen=True)
class DayShardSpec:
    """Picklable recipe for one event-range shard of one scenario-day.

    Only valid for scenarios built with ``per_event_seeds=True`` —
    see :meth:`repro.scenario.scenario.Scenario.day_traffic_shard`.
    """

    config: ScenarioConfig
    day: int
    with_takedown: bool
    takedown: TakedownScenario | None
    shard: int
    n_shards: int


def _materialize(spec: DaySpec | DayShardSpec) -> Scenario:
    scenario = scenario_for(spec.config)
    if spec.takedown is not None and scenario.takedown != spec.takedown:
        scenario.takedown = spec.takedown
    return scenario


# -- the day task ---------------------------------------------------------------

#: What one day task computes: per vantage (``None`` = ground truth), the
#: reductions to apply.
_Need = tuple[tuple[str | None, tuple[Reduction, ...]], ...]


def _reduce_traffic(
    scenario: Scenario, traffic: DayTraffic, need: _Need, truth: dict[str, float] | None
) -> list[tuple[list[Any], dict[str, dict[str, float]] | None]]:
    """Observe ``traffic`` once per vantage of ``need`` and reduce it.

    Returns one ``(values, deltas)`` pair per vantage, aligned with
    ``need``. ``deltas`` keeps the day's ground-truth counters
    (``truth``, what synthesizing the day recorded) apart from the
    counters of this vantage's observation, so a later replay can count
    the ground truth once per day however many vantages it serves.
    ``None`` when the registry is off.
    """
    registry = metrics()
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
        out.append(([reduction(traffic.day, data) for reduction in reductions], deltas))
    return out


def _reduce_day(scenario: Scenario, day: int, with_takedown: bool, need: _Need) -> list:
    """Synthesize ``day`` once, then :func:`_reduce_traffic` it."""
    registry = metrics()
    before = _counters_snapshot(registry)
    traffic = scenario.day_traffic(day, with_takedown=with_takedown)
    return _reduce_traffic(scenario, traffic, need, _counters_delta(registry, before))


def _day_task(item: tuple[DaySpec, _Need]) -> list:
    """Pool task: one day of the engine, in a worker."""
    spec, need = item
    return _reduce_day(_materialize(spec), spec.day, spec.with_takedown, need)


def _ingest_chunk_task(chunk: tuple[tuple[DaySpec, ...], Any]) -> Any:
    specs, analyzer = chunk
    for spec in specs:
        scenario = _materialize(spec)
        traffic = scenario.day_traffic(spec.day, with_takedown=spec.with_takedown)
        analyzer.ingest_day(spec.day, scenario.observe_day(spec.vantage, traffic))
    return analyzer


def _day_shard_task(spec: DayShardSpec):
    scenario = _materialize(spec)
    return scenario.day_traffic_shard(
        spec.day, spec.shard, spec.n_shards, with_takedown=spec.with_takedown
    )


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


def _resolve_executor(executor: str | None) -> str:
    return executor if executor is not None else execution_policy().executor


def _use_pool(mode: str, n_jobs: int, n_items: int) -> bool:
    """Whether this fan goes to the warm pool or runs inline.

    Single items stay inline even with ``jobs > 1`` — a warm dispatch
    is cheap, but the serial path skips pickling entirely and single
    one-shot lookups should not spawn a pool at all.
    """
    return mode != "inline" and n_jobs > 1 and n_items > 1


def _effective_shards(scenario: Scenario, n_jobs: int, mode: str) -> int:
    """Intra-day fan-out for expensive days (1 = sharding off).

    Sharding needs the per-event seeding mode (the legacy sequential
    stream cannot be split bit-identically) and a pool to fan over; the
    shard count comes from the execution policy, defaulting to the
    worker count.
    """
    if mode == "inline" or n_jobs <= 1 or not scenario.config.per_event_seeds:
        return 1
    policy_shards = execution_policy().day_shards
    return policy_shards if policy_shards > 0 else n_jobs


def _sharded_day_traffic(
    scenario: Scenario,
    pool: WorkerPool,
    day: int,
    with_takedown: bool,
    takedown: TakedownScenario,
    n_shards: int,
) -> DayTraffic:
    """Generate one expensive day by fanning its event range over the pool.

    Shard tasks return partial tables (no ``scenario.*`` counters); the
    parent reassembles them via ``Scenario.combine_day_shards``, which
    records the day's work counters exactly once — so digests match the
    unsharded per-event-seeded generation bit for bit, for any shard
    count.
    """
    specs = [
        DayShardSpec(scenario.config, day, with_takedown, takedown, shard, n_shards)
        for shard in range(n_shards)
    ]
    metrics().inc("pool.shard_tasks", n_shards)
    parts = [part for part, _ in pool.map_with_deltas(_day_shard_task, specs, batch=1)]
    return scenario.combine_day_shards(parts)


# -- the day-result cache ------------------------------------------------------

# The replayed counter family (``scenario.*``) is defined in
# :mod:`repro.core.workerpool` (imported above as ``_REPLAY_PREFIX``):
# logical work counters describe the dataset an experiment processed, not
# the physical generations the strategy happened to run, so serving a day
# from the cache must count the same as regenerating it. That is what
# keeps them identical across ``jobs``/``cache``/executor strategies.


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
    ``asyncio.to_thread`` workers while thread-pool day tasks and pool
    result callbacks insert concurrently, so every mutation of the LRU
    (and the paired size/counter bookkeeping) happens under one re-entrant
    lock. OrderedDict mutation is *not* atomic under concurrent
    ``move_to_end``/``popitem`` — unlocked, a race corrupts the linked
    list or loses ``resident_bytes`` accounting.
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
    with_takedown: bool,
    extra: Any = None,
) -> tuple:
    return (kind, config_hash, takedown, vantage, int(day), bool(with_takedown), extra)


# -- the day-reduction engine ---------------------------------------------------


def _reduce_days(
    scenario: Scenario,
    days: Iterable[int],
    requests: Mapping[str | None, Sequence[Reduction]],
    with_takedown: bool,
    jobs: int,
    cache: bool,
    executor: str | None,
    batch_days: int | None,
) -> dict[tuple[str | None, Reduction], list[Any]]:
    """The engine behind :func:`day_reductions` and its wrappers.

    Per day: every requested (vantage, reduction) is looked up; a
    vantage with misses is reduced from its cached observed table when
    there is one; a day that still needs some vantage becomes one task.
    """
    days = [int(d) for d in days]
    requests = {vantage: tuple(reductions) for vantage, reductions in requests.items() if reductions}
    config_hash, takedown = _context(scenario)
    registry = metrics()

    def key(vantage: str | None, day: int, reduction: Reduction) -> tuple:
        return _key("day", config_hash, takedown, vantage, day, with_takedown, reduction.key)

    found: dict[tuple[str | None, Reduction], dict[int, Any]] = {
        (vantage, reduction): {} for vantage, reductions in requests.items() for reduction in reductions
    }
    todo: list[tuple[int, _Need]] = []
    n_values = sum(len(reductions) for reductions in requests.values())
    for day in dict.fromkeys(days):
        need = []
        truth = None
        satisfied = []
        looked_up = iter(
            _DAY_CACHE.get_many([key(v, day, r) for v, rs in requests.items() for r in rs])
            if cache
            else [None] * n_values
        )
        for vantage, reductions in requests.items():
            entries = {r: next(looked_up) for r in reductions}
            missing = tuple(r for r in reductions if entries[r] is None)
            if missing and cache and vantage is not None and OBSERVED not in reductions:
                table = _DAY_CACHE.get(key(vantage, day, OBSERVED))
                if table is not None:
                    for r in missing:
                        entries[r] = (r(day, table[0]), table[1])
                        _DAY_CACHE.put(key(vantage, day, r), entries[r])
                    missing = ()
            for r, entry in entries.items():
                if entry is not None:
                    found[vantage, r][day] = entry[0]
            if missing:
                need.append((vantage, missing))
                continue
            deltas = entries[reductions[0]][1]
            if deltas is not None:
                truth = deltas["truth"]
                satisfied.append(deltas["vantage"])
        # A day served from the cache counts like a computed one: each
        # vantage's observation once, and the ground truth once unless
        # the day is synthesized again below (which counts it live).
        for part in satisfied:
            _replay(part)
        if need:
            todo.append((day, tuple(need)))
        else:
            _replay(truth)

    def store(day: int, need: _Need, result: list) -> None:
        for (vantage, reductions), (values, deltas) in zip(need, result):
            for reduction, value in zip(reductions, values):
                if cache:
                    _DAY_CACHE.put(key(vantage, day, reduction), (value, deltas))
                if (vantage, reduction) in found:
                    found[vantage, reduction][day] = value

    if todo:
        registry.inc("parallel.days_dispatched", len(todo))
        n_jobs = resolve_jobs(jobs)
        mode = _resolve_executor(executor)
        n_shards = _effective_shards(scenario, n_jobs, mode)
        sharded = n_shards > 1 and len(todo) < n_jobs
        if not sharded and _use_pool(mode, n_jobs, len(todo)):
            if batch_days is None:
                batch_days = execution_policy().batch_days
            items = [(DaySpec(scenario.config, day, None, with_takedown, scenario.takedown), need) for day, need in todo]
            pairs = get_pool(scenario, n_jobs, mode).map_with_deltas(
                _day_task, items, batch=batch_days or None
            )
            for (day, need), (result, deltas) in zip(todo, pairs):
                if deltas is None:  # unmetered workers: nothing to replay later
                    result = [(values, None) for values, _ in result]
                store(day, need, result)
        else:
            start = time.perf_counter()
            pool = get_pool(scenario, n_jobs, mode) if sharded else None
            for day, need in todo:
                if pool is None:
                    result = _reduce_day(scenario, day, with_takedown, need)
                else:
                    before = _counters_snapshot(registry)
                    traffic = _sharded_day_traffic(scenario, pool, day, with_takedown, scenario.takedown, n_shards)
                    result = _reduce_traffic(scenario, traffic, need, _counters_delta(registry, before))
                store(day, need, result)
            if pool is None:
                record_inline_pool(registry, len(todo), time.perf_counter() - start)
    return {request: [values[day] for day in days] for request, values in found.items()}


def day_reductions(
    scenario: Scenario,
    days: Iterable[int],
    requests: Mapping[str | None, Sequence[Reduction]],
    with_takedown: bool = True,
    jobs: int = 1,
    cache: bool = False,
    executor: str | None = None,
    batch_days: int | None = None,
) -> dict[tuple[str | None, Reduction], list[Any]]:
    """Apply every requested reduction to every day, synthesizing each day once.

    ``requests`` maps a vantage point (``'ixp'`` | ``'tier1'`` |
    ``'tier2'``, or ``None`` for ground-truth reductions) to the
    :class:`Reduction` values wanted there. Returns, per
    ``(vantage, reduction)``, one value per day in ``days`` order.

    With ``cache``, each value is cached per (reduction, day) and only
    the requested values are kept. A (day, vantage) whose observed table
    is already cached is reduced from that table in this process. Each
    remaining day is one task — inline, or on the warm pool (``jobs``,
    ``executor``, ``batch_days`` per dispatch), or with its event range
    sharded over the pool for per-event-seeded scenarios — that
    synthesizes the ground truth once and observes it once per vantage
    still needed. Results and the ``scenario.*`` counters are the same
    for every strategy and cache state: per day, the ground truth counts
    once and each requested vantage's observation once.
    """
    with metrics().span("parallel.day_reductions"):
        return _reduce_days(scenario, days, requests, with_takedown, jobs, cache, executor, batch_days)


# -- wrappers ---------------------------------------------------------------------


def observed_days(
    scenario: Scenario,
    vantage: str,
    days: Iterable[int],
    with_takedown: bool = True,
    jobs: int = 1,
    cache: bool = False,
    executor: str | None = None,
    batch_days: int | None = None,
) -> list[FlowTable]:
    """One observed flow table per day, in ``days`` order.

    The :data:`OBSERVED` reduction of :func:`day_reductions`: cached days
    are returned immediately, the rest fan out over the warm worker pool
    or run inline, with the whole tables cached.
    """
    with metrics().span("parallel.observed_days"):
        return _reduce_days(
            scenario, days, {vantage: (OBSERVED,)}, with_takedown, jobs, cache, executor, batch_days
        )[vantage, OBSERVED]


def daily_port_counts(
    scenario: Scenario,
    vantage: str,
    selectors: Sequence[Any],
    days: Iterable[int],
    with_takedown: bool = True,
    jobs: int = 1,
    cache: bool = False,
    executor: str | None = None,
    batch_days: int | None = None,
) -> dict[int, dict[str, int]]:
    """Per-day packet counts per selector, keyed by day.

    The :func:`port_counts` reduction of :func:`day_reductions`: only the
    counts are cached, and process workers ship back only the counts
    (never flow tables).
    """
    with metrics().span("parallel.daily_port_counts"):
        days = [int(d) for d in days]
        reduction = port_counts(selectors)
        counts = _reduce_days(
            scenario, days, {vantage: (reduction,)}, with_takedown, jobs, cache, executor, batch_days
        )[vantage, reduction]
        return dict(zip(days, counts))


def streaming_ingest(
    scenario: Scenario,
    vantage: str,
    analyzer: Any,
    days: Iterable[int],
    with_takedown: bool = True,
    jobs: int = 1,
    cache: bool = False,
    executor: str | None = None,
    batch_days: int | None = None,
) -> Any:
    """Feed ``days`` through ``analyzer``, optionally over the pool.

    Serially, each day's observed table is the engine's :data:`OBSERVED`
    value (cached under the engine's key), one day at a time. With ``jobs > 1``
    the analyzer must implement the merge protocol (``clone_empty()`` +
    ``merge(other)``): cached observed days are ingested in the parent,
    and the rest are pre-chunked to ``batch_days`` per clone (auto-sized
    by default), one pool task per chunk, whose clones fold back
    order-independently.
    """
    with metrics().span("parallel.streaming_ingest"):
        days = [int(d) for d in days]
        n_jobs = resolve_jobs(jobs)
        mode = _resolve_executor(executor)
        if not _use_pool(mode, n_jobs, len(days)):
            for day in days:
                observed = _reduce_days(
                    scenario, [day], {vantage: (OBSERVED,)}, with_takedown, 1, cache, mode, batch_days
                )[vantage, OBSERVED][0]
                analyzer.ingest_day(day, observed)
            return analyzer
        if not (hasattr(analyzer, "clone_empty") and hasattr(analyzer, "merge")):
            raise TypeError(
                "parallel collect_streaming needs an analyzer with the merge "
                "protocol (clone_empty() and merge()); got "
                f"{type(analyzer).__name__}"
            )
        config_hash, takedown = _context(scenario)
        pending: list[int] = []
        for day in days:
            if cache:
                hit = _cache_get(_key("day", config_hash, takedown, vantage, day, with_takedown, OBSERVED.key))
                if hit is not None:
                    analyzer.ingest_day(day, hit[0])
                    continue
            pending.append(day)
        if not pending:
            return analyzer
        metrics().inc("parallel.days_dispatched", len(pending))
        pool = get_pool(scenario, n_jobs, mode)
        if batch_days is None:
            batch_days = execution_policy().batch_days
        chunk_size = pool.resolve_batch(len(pending), batch_days or None)
        tasks = [
            (
                tuple(
                    DaySpec(scenario.config, d, vantage, with_takedown, scenario.takedown)
                    for d in pending[i : i + chunk_size]
                ),
                analyzer.clone_empty(),
            )
            for i in range(0, len(pending), chunk_size)
        ]
        # Each task is already a chunk of days sharing one analyzer
        # clone, so the pool maps them unbatched (batch=1).
        for part, _ in pool.map_with_deltas(_ingest_chunk_task, tasks, batch=1):
            analyzer.merge(part)
        return analyzer


def day_events(
    scenario: Scenario,
    day: int,
    with_takedown: bool = True,
    cache: bool = False,
) -> list:
    """Ground-truth attack events for ``day`` (cached; no flow synthesis).

    Event lists are not flow values, so they keep their own ``"events"``
    key family instead of the engine's.
    """
    config_hash, takedown = _context(scenario)
    key = _key("events", config_hash, takedown, None, day, with_takedown)
    if cache:
        hit = _cache_get(key)
        if hit is not None:
            return hit[0]
    registry = metrics()
    before = _counters_snapshot(registry)
    events = scenario.day_events(day, with_takedown=with_takedown)
    if cache:
        truth = _counters_delta(registry, before)
        _DAY_CACHE.put(key, (events, None if truth is None else {"truth": truth, "vantage": {}}))
    return events


def day_attack_tables(
    scenario: Scenario,
    days: Iterable[int],
    with_takedown: bool = True,
    jobs: int = 1,
    cache: bool = False,
    executor: str | None = None,
    batch_days: int | None = None,
) -> list[FlowTable]:
    """Ground-truth attack flow tables per day, in ``days`` order.

    The :data:`ATTACK_TABLE` reduction of :func:`day_reductions`.
    """
    with metrics().span("parallel.day_attack_tables"):
        return _reduce_days(
            scenario, days, {None: (ATTACK_TABLE,)}, with_takedown, jobs, cache, executor, batch_days
        )[None, ATTACK_TABLE]
