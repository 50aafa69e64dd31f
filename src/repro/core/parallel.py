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
* :func:`repro.core.workerpool.run_tasks` runs the tasks inline
  (``jobs=1``, or a single task) or one per pool task on the
  **persistent warm process pool** (spawned once per (jobs, config) and
  reused across call sites), so ``jobs=1`` and ``jobs=N`` are
  **bit-identical**.

A day task returns each vantage's values with the day's :data:`Counts`
(attack events drawn, flows synthesized, flows the vantage exported),
and every cache entry keeps them beside its value. The read paths —
:func:`day_reductions` and the wrappers over it — count the
``scenario.*`` work counters from them in the calling process, so a
value computed now, served by either cache tier or computed in a
worker counts the same, whether or not metrics were on when it was
computed.

:func:`prefetch` joins several :data:`Ask` values (what one
:func:`day_reductions` call takes) per day and computes what the cache
misses with one task per distinct day, counting nothing. The runner
prefetches the asks its experiments declare
(:data:`repro.experiments.registry.ASKS`), so a day several of them read
is synthesized once per run.

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

import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.core.classify import ClassifierThresholds
from repro.core.victims import attacks_per_hour
from repro.core.workerpool import run_tasks
from repro.flows.records import FlowTable, SCHEMA
from repro.obs import metrics
from repro.scenario.scenario import KINDS, DayTraffic, Scenario

__all__ = [
    "ATTACK_TABLE",
    "Ask",
    "Counts",
    "DayResultCache",
    "OBSERVED",
    "Reduction",
    "day_cache",
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


# -- the day task ---------------------------------------------------------------

#: What one day task computes: per vantage (``None`` = ground truth), the
#: reductions to apply.
_Need = tuple[tuple[str | None, tuple[Reduction, ...]], ...]

#: A day's logical work as one vantage's values carry it: the attack
#: events drawn, the flows synthesized (both the day's, so the same at
#: every vantage), and the flows the vantage exported (``None`` at
#: vantage ``None``).
Counts = tuple[int, int, int | None]


def _reduce_day(scenario: Scenario, task: tuple[int, _Need]) -> list[tuple[list[Any], Counts]]:
    """Synthesize the task's day once, then observe it once per vantage it needs.

    Returns one ``(values, counts)`` pair per vantage, aligned with the
    need; the :data:`Counts` are read off the tables themselves.
    """
    day, need = task
    traffic = scenario.day_traffic(day)
    attacks = len(traffic.events)
    flows = sum(len(getattr(traffic, kind)) for kind in KINDS)
    out = []
    for vantage, reductions in need:
        if vantage is None:
            data, exported = traffic, None
        else:
            data = scenario.observe_day(vantage, traffic)
            exported = len(data)
        out.append(([reduction(day, data) for reduction in reductions], (attacks, flows, exported)))
    return out


# -- the day-result cache ------------------------------------------------------


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

    The engine's entries are ``(value, counts)`` pairs: a day's
    :class:`Reduction` value (a row table, port counts, hourly counts)
    with the day's :data:`Counts`, from which a read counts its
    ``scenario.*`` work. Ground-truth event lists are stored as
    ``(events, None)``. Keys embed the scenario config's
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
) -> tuple[list[dict[tuple[str | None, Reduction], list[Any]]], dict[tuple[str | None, int], Counts]]:
    """The engine: ``asks`` joined per day, one task per day with a miss.

    Returns, per ask, what :func:`day_reductions` returns for it, and the
    :data:`Counts` of every (vantage, day) read. It counts nothing itself.
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

    def key(vantage: str | None, day: int, reduction: Reduction) -> tuple:
        return _key("day", config_hash, takedown, vantage, day, reduction.key)

    found: dict[tuple[str | None, Reduction], dict[int, Any]] = {
        pair: {} for _, pairs in asks for pair in pairs
    }
    counts: dict[tuple[str | None, int], Counts] = {}
    todo: list[tuple[int, _Need]] = []
    for day, pairs in joined.items():
        entries = (
            _DAY_CACHE.get_many([key(v, day, r) for v, r in pairs]) if cache else [None] * len(pairs)
        )
        missing: dict[str | None, list[Reduction]] = {}
        for (vantage, r), entry in zip(pairs, entries):
            if entry is None:
                missing.setdefault(vantage, []).append(r)
            else:
                found[vantage, r][day] = entry[0]
                counts[vantage, day] = entry[1]
        if missing:
            todo.append((day, tuple((v, tuple(rs)) for v, rs in missing.items())))

    if todo:
        metrics().inc("parallel.days_dispatched", len(todo))
        for (day, need), result in zip(todo, run_tasks(scenario, _reduce_day, todo, jobs)):
            for (vantage, reductions), (values, day_counts) in zip(need, result):
                counts[vantage, day] = day_counts
                for reduction, value in zip(reductions, values):
                    if cache:
                        _DAY_CACHE.put(key(vantage, day, reduction), (value, day_counts))
                    found[vantage, reduction][day] = value
    values = [{pair: list(map(found[pair].__getitem__, days)) for pair in pairs} for days, pairs in asks]
    return values, counts


def _read(
    scenario: Scenario,
    days: Iterable[int],
    requests: Mapping[str | None, Sequence[Reduction]],
    jobs: int,
    cache: bool,
) -> dict[tuple[str | None, Reduction], list[Any]]:
    """One ask's values, with its work counted into ``scenario.*``.

    Per day the ground truth counts once (``days_generated``,
    ``attacks_generated``, ``flows_synthesized``) and each vantage read
    there once (``days_observed``, ``flows_observed``), from the counts
    that travel with the values: a value computed now, one served by
    either cache tier and one the prefetch left behind count alike.
    """
    (values,), counts = _reduce_days(scenario, [(days, requests)], jobs, cache)
    registry = metrics()
    if registry.enabled and counts:
        # One pass, summed locally: a warm serve request pays this per read.
        truth_days: set[int] = set()
        attacks = flows = observed = exported = 0
        for (vantage, day), (n_attacks, n_flows, n_exported) in counts.items():
            if day not in truth_days:
                truth_days.add(day)
                attacks += n_attacks
                flows += n_flows
            if vantage is not None:
                observed += 1
                exported += n_exported
        registry.inc("scenario.days_generated", len(truth_days))
        registry.inc("scenario.attacks_generated", attacks)
        registry.inc("scenario.flows_synthesized", flows)
        if observed:
            registry.inc("scenario.days_observed", observed)
            registry.inc("scenario.flows_observed", exported)
    return values


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

    With ``cache``, each value is cached per (reduction, day) with the
    day's :data:`Counts`, and only the requested values are kept. Each
    day with a value missing is one task — inline, or on the warm pool
    with ``jobs > 1`` — that synthesizes the ground truth once and
    observes it once per vantage still needed. Results and the
    ``scenario.*`` counters are the same for every ``jobs`` and cache
    state: per day, the ground truth counts once and each requested
    vantage's observation once.
    """
    with metrics().span("parallel.day_reductions"):
        return _read(scenario, days, requests, jobs, cache)


def prefetch(scenario: Scenario, asks: Sequence[Ask], jobs: int = 1) -> None:
    """Compute and cache every value of ``asks``, one task per distinct day.

    It counts no ``scenario.*`` work: each later :func:`day_reductions`
    read of an ask counts its days from the cached counts, as an
    uncached read would, so counter digests ignore the prefetch.
    """
    with metrics().span("parallel.prefetch"):
        _reduce_days(scenario, asks, jobs, cache=True)


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
        return _read(scenario, days, {vantage: (OBSERVED,)}, jobs, cache)[vantage, OBSERVED]


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
        counts = _read(scenario, days, {vantage: (reduction,)}, jobs, cache)[vantage, reduction]
        return dict(zip(days, counts))


def streaming_ingest(
    scenario: Scenario,
    vantage: str,
    analyzer: Any,
    days: Iterable[int],
    jobs: int = 1,
    cache: bool = False,
) -> Any:
    """Feed each day's :data:`OBSERVED` table through ``analyzer``, in ``days`` order.

    The tables come from one engine read (over the pool with
    ``jobs > 1``) and are ingested here, so the analyzer needs only
    ``ingest_day``; the read holds every day's table until it returns.
    """
    with metrics().span("parallel.streaming_ingest"):
        days = [int(d) for d in days]
        tables = _read(scenario, days, {vantage: (OBSERVED,)}, jobs, cache)[vantage, OBSERVED]
        for day, table in zip(days, tables):
            analyzer.ingest_day(day, table)
        return analyzer


def day_events(
    scenario: Scenario,
    day: int,
    cache: bool = False,
) -> list:
    """Ground-truth attack events for ``day`` (cached; no flow synthesis).

    Event lists are not flow values, so they keep their own ``"events"``
    key family instead of the engine's, and count no ``scenario.*`` work.
    """
    config_hash, takedown = _context(scenario)
    key = _key("events", config_hash, takedown, None, day)
    if cache:
        hit = _DAY_CACHE.get(key)
        if hit is not None:
            return hit[0]
    events = scenario.day_events(day)
    if cache:
        _DAY_CACHE.put(key, (events, None))
    return events


def day_attack_tables(
    scenario: Scenario,
    days: Iterable[int],
    jobs: int = 1,
    cache: bool = False,
) -> list[FlowTable]:
    """The :data:`ATTACK_TABLE` of each day, in ``days`` order."""
    with metrics().span("parallel.day_attack_tables"):
        return _read(scenario, days, {None: (ATTACK_TABLE,)}, jobs, cache)[None, ATTACK_TABLE]
