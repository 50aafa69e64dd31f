"""Persistent warm worker pools for the day-parallel executor.

:mod:`repro.core.parallel` used to build a fresh ``ProcessPoolExecutor``
inside every ``observed_days`` / ``daily_port_counts`` /
``streaming_ingest`` / ``day_attack_tables`` call, so each call paid
pool spin-up, fork, and (under ``spawn``) scenario re-materialization
again. This module owns the executor instead:

* :class:`WorkerPool` spawns its workers **once** with an initializer
  that preloads the process's memoized world (:func:`scenario_for`;
  under the Linux-default ``fork`` start method the built world is
  inherited for free), warms
  its :class:`~repro.vantage.matrix.VisibilityMatrix` tables, and
  installs the shm transport threshold. :func:`get_pool` hands the same
  live pool back to every subsequent call site with a matching
  ``(executor, jobs, config hash)`` key — reuse is the common case and
  is counted (``pool.spawns`` / ``pool.reuses``).
* **Day batching**: :meth:`WorkerPool.map_with_deltas` packs several
  cheap items into one task (dynamic chunksize, or an explicit
  ``batch`` request) so per-task dispatch and pickle overhead amortize.
  Batching is a pure transport detail: every item still runs under its
  own fresh worker registry, so results and their ``scenario.*`` replay
  deltas come back at per-item granularity and cache keys are
  unchanged.
* **Executor modes**: ``process`` (the default), ``thread`` (exploits
  the NumPy-released-GIL columnar fast paths with no pickling and no
  shm traffic at all), and ``inline`` (forces the serial path while
  still recording the ``pool.*`` counter family, workers=1).

Registering a scenario with a *different* config content hash shuts the
active pool down cleanly before the next one spawns, so stale workers
never serve a new world.
"""

from __future__ import annotations

import atexit
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, Sequence

from repro.flows.shm import set_transport_threshold, transport_threshold, unwrap_table, wrap_table
from repro.obs import MetricsRegistry, TraceRecorder, metrics, set_metrics, set_thread_metrics
from repro.obs.trace import current_request_id, request_scope
from repro.scenario.config import ScenarioConfig
from repro.scenario.scenario import Scenario

__all__ = [
    "EXECUTORS",
    "ExecutionPolicy",
    "execution_policy",
    "set_execution_policy",
    "register_scenario",
    "WorkerPool",
    "get_pool",
    "shutdown_pool",
    "worker_init_count",
]

#: Valid values of the ``--executor`` flag / ``ExecutionPolicy.executor``.
EXECUTORS = ("process", "thread", "inline")

#: Counter family replayed on day-cache hits (mirrored by
#: :mod:`repro.core.parallel`). The ``scenario.*`` counters are *logical*
#: work counters, so serving a day from cache — or from any executor
#: mode — must count the same as regenerating it serially.
REPLAY_PREFIX = "scenario."

#: Auto-batching oversubscription: aim for about this many batches per
#: worker so stragglers still balance while dispatch overhead amortizes.
_OVERSUBSCRIBE = 4


@dataclass(frozen=True)
class ExecutionPolicy:
    """Process-wide execution strategy defaults for the day pipeline.

    ``executor`` picks the pool flavor (one of :data:`EXECUTORS`);
    ``batch_days`` is the per-task day batch size (``0`` = automatic,
    sized from the item count and worker count); ``day_shards`` is the
    intra-day event-range fan-out used for expensive days (``0`` =
    automatic, i.e. the worker count; effective only when the scenario
    was built with ``per_event_seeds=True``). All three are pure
    execution-strategy knobs: they never change day results.
    """

    executor: str = "process"
    batch_days: int = 0
    day_shards: int = 0

    def __post_init__(self) -> None:
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {self.executor!r} (choose from {'/'.join(EXECUTORS)})"
            )
        if self.batch_days < 0:
            raise ValueError(f"batch_days must be >= 0 (0 = auto), got {self.batch_days}")
        if self.day_shards < 0:
            raise ValueError(f"day_shards must be >= 0 (0 = auto), got {self.day_shards}")


_POLICY = ExecutionPolicy()


def execution_policy() -> ExecutionPolicy:
    """The active process-wide :class:`ExecutionPolicy`."""
    return _POLICY


def set_execution_policy(policy: ExecutionPolicy | None = None, **changes: Any) -> ExecutionPolicy:
    """Install a new policy (or tweak fields of the current one).

    Returns the previous policy so callers can restore it — the runner
    wraps each invocation in install/restore exactly like the shm
    transport threshold.
    """
    global _POLICY
    previous = _POLICY
    _POLICY = replace(policy if policy is not None else previous, **changes)
    return previous


# -- per-process scenario memo -------------------------------------------------

#: The process's world, keyed by config content hash: a single slot, so a
#: process holds one world however many configs it meets in turn. Under
#: the (Linux-default) fork start method, memoizing the world before the
#: pool spawns lets every worker inherit it built (and its reflector lists
#: walked) instead of re-running topology/pool/market construction.
_WORKER_SCENARIOS: dict[str, Scenario] = {}

#: How many times the process-pool initializer ran in *this* process.
#: In the parent this stays 0; each worker increments its own copy, so a
#: probe task can verify the initializer ran exactly once per worker.
_WORKER_INITS = 0


def register_scenario(scenario: Scenario) -> str:
    """Make a built scenario the process's world, replacing the memoized one.

    Returns the config content hash used as the memo key. Pools spawned
    afterwards for that config fork from it; under spawn, workers rebuild
    from the config. Registering a scenario whose config hash differs
    from the active pool's shuts that pool down first (its workers hold
    the old world).
    """
    key = scenario.config.content_hash()
    if _ACTIVE_POOL is not None and _ACTIVE_POOL.config_hash != key:
        shutdown_pool()
    _WORKER_SCENARIOS.clear()
    _WORKER_SCENARIOS[key] = scenario
    return key


def scenario_for(config: ScenarioConfig) -> Scenario:
    """The memoized scenario for ``config``, building it on first use.

    The memo keeps one world: building one for another config replaces it.
    """
    key = config.content_hash()
    scenario = _WORKER_SCENARIOS.get(key)
    if scenario is None:
        _WORKER_SCENARIOS.clear()
        scenario = _WORKER_SCENARIOS[key] = Scenario(config)
    return scenario


def worker_init_count() -> int:
    """How many times the pool initializer ran in the calling process."""
    return _WORKER_INITS


def _warm_scenario(scenario: Scenario) -> None:
    """Build the lazy visibility-matrix tables ahead of the first task.

    Workers would otherwise each pay the build on their first
    observation; warming in the initializer (and, for the thread pool,
    once in the parent) front-loads it and keeps worker threads from
    racing to build the same tables.
    """
    scenario.visibility.warm(
        isp_views=tuple(
            (vp.asn, vp.ingress_only) for vp in (scenario.tier1, scenario.tier2)
        )
    )


def _process_worker_init(config: ScenarioConfig, shm_threshold: int) -> None:
    """Runs once per worker process: preload world + transport settings."""
    global _WORKER_INITS
    _WORKER_INITS += 1
    set_transport_threshold(shm_threshold)
    _warm_scenario(scenario_for(config))


def _probe_task(_item: Any) -> dict[str, Any]:
    """Diagnostic task: report the worker's identity and warm state."""
    return {
        "pid": os.getpid(),
        "worker_inits": _WORKER_INITS,
        "scenarios": sorted(_WORKER_SCENARIOS),
    }


# -- worker-side task wrappers (module-level: must pickle) ---------------------


def _metered_item(
    fn: Callable[[Any], Any],
    item: Any,
    trace: bool,
    shm_threshold: int,
    request_id: str | None = None,
) -> tuple[Any, MetricsRegistry]:
    """Run one item under a fresh worker registry and ship both back.

    The fresh registry shadows whatever the worker inherited (under
    fork, the parent's already-populated registry), so nothing is double
    counted; the parent folds the returned registry in. With ``trace``
    the worker also buffers span events (pid-stamped, and stamped with
    ``request_id`` when the dispatch originated from a serve request, so
    worker spans stitch under their HTTP request in the Perfetto
    export). Large flow-table results detour through shared memory when
    ``shm_threshold`` allows (negative disables the lane).
    """
    registry = MetricsRegistry(enabled=True, trace=TraceRecorder() if trace else None)
    previous = set_metrics(registry)
    start = time.perf_counter()
    try:
        with request_scope(request_id):
            result = wrap_table(fn(item), shm_threshold)
    finally:
        registry.inc("pool.busy_s", time.perf_counter() - start)
        set_metrics(previous)
    return result, registry


def _process_batch_task(
    fn: Callable[[Any], Any],
    metered: bool,
    trace: bool,
    shm_threshold: int,
    request_id: str | None,
    batch: Sequence[Any],
) -> list[tuple[Any, MetricsRegistry | None]]:
    """One pool task covering a whole batch of items, one result each.

    Every item still runs under its own registry so the parent can
    attribute ``scenario.*`` deltas per day — batching only changes how
    many items share a dispatch, never the result granularity.
    ``request_id`` is the originating serve request, forwarded explicitly
    because context variables do not cross the process boundary.
    """
    if not metered:
        return [(wrap_table(fn(item), shm_threshold), None) for item in batch]
    return [_metered_item(fn, item, trace, shm_threshold, request_id) for item in batch]


def _thread_batch_task(
    fn: Callable[[Any], Any],
    metered: bool,
    trace: bool,
    request_id: str | None,
    batch: Sequence[Any],
) -> list[tuple[Any, MetricsRegistry | None]]:
    """The thread-pool flavor: no pickling, no shm, thread-local metering.

    Worker threads share the parent's scenario objects and return
    results by reference. Each item's registry is installed via the
    thread-local override (:func:`repro.obs.set_thread_metrics`) so
    concurrent tasks never interleave their counters; ``request_id`` is
    bound per item because executor threads run in their own context.
    """
    if not metered:
        return [(fn(item), None) for item in batch]
    out: list[tuple[Any, MetricsRegistry | None]] = []
    for item in batch:
        registry = MetricsRegistry(enabled=True, trace=TraceRecorder() if trace else None)
        previous = set_thread_metrics(registry)
        start = time.perf_counter()
        try:
            with request_scope(request_id):
                result = fn(item)
        finally:
            registry.inc("pool.busy_s", time.perf_counter() - start)
            set_thread_metrics(previous)
        out.append((result, registry))
    return out


# -- the pool ------------------------------------------------------------------


class WorkerPool:
    """A persistent executor bound to one scenario config.

    Spawned once (``pool.spawns``), reused across call sites
    (``pool.reuses``), shut down when the run ends or a different
    scenario is registered. ``mode`` is ``"process"`` or ``"thread"``
    (the ``"inline"`` policy value never constructs a pool).
    """

    def __init__(self, mode: str, workers: int, config: ScenarioConfig) -> None:
        if mode not in ("process", "thread"):
            raise ValueError(f"WorkerPool mode must be process/thread, got {mode!r}")
        if workers < 1:
            raise ValueError(f"WorkerPool needs >= 1 worker, got {workers}")
        self.mode = mode
        self.workers = workers
        self.config_hash = config.content_hash()
        self.closed = False
        self.reuses = 0
        self._config = config
        self._executor = self._spawn()

    def _spawn(self):
        if self.mode == "process":
            return ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_process_worker_init,
                initargs=(self._config, transport_threshold()),
            )
        # Thread workers share this process: warm the scenario once here
        # instead of racing the first wave of tasks.
        _warm_scenario(scenario_for(self._config))
        return ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-day"
        )

    @property
    def key(self) -> tuple[str, int, str]:
        return (self.mode, self.workers, self.config_hash)

    def resolve_batch(self, n_items: int, batch: int | None) -> int:
        """The per-task batch size for ``n_items`` (explicit or auto).

        Auto (``None``/``0``) targets :data:`_OVERSUBSCRIBE` batches per
        worker, so cheap day fans amortize dispatch while stragglers can
        still rebalance.
        """
        if batch is None or batch <= 0:
            batch = math.ceil(n_items / (self.workers * _OVERSUBSCRIBE))
        return max(1, min(batch, max(n_items, 1)))

    def map_with_deltas(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        batch: int | None = None,
    ) -> list[tuple[Any, dict[str, float] | None]]:
        """Map ``fn`` over ``items``; pair each result with its deltas.

        Results come back in submission order. When the active registry
        is enabled every item runs metered and its worker registry folds
        into the parent, with the item's ``scenario.*`` counter deltas
        returned alongside the result (``None`` when the registry is
        off) — exactly what the day cache stores for replay.
        """
        if self.closed:
            raise RuntimeError("WorkerPool is shut down")
        registry = metrics()
        items = list(items)
        if not items:
            return []
        batch_size = self.resolve_batch(len(items), batch)
        batches = [items[i : i + batch_size] for i in range(0, len(items), batch_size)]
        metered = registry.enabled
        trace = metered and registry.trace is not None
        # Captured here, in the dispatching context, and forwarded into
        # the workers: contextvars do not propagate across executor
        # boundaries, and the id is what stitches worker spans to their
        # originating serve request.
        request_id = current_request_id() if trace else None
        if self.mode == "process":
            task = partial(
                _process_batch_task, fn, metered, trace, transport_threshold(), request_id
            )
        else:
            task = partial(_thread_batch_task, fn, metered, trace, request_id)
        start = time.perf_counter()
        try:
            raw = list(self._executor.map(task, batches))
        except BrokenProcessPool:
            # A worker died (OOM kill, hard crash). Respawn once and
            # retry the whole map — tasks are pure day recipes, so a
            # replay is safe and bit-identical.
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = self._spawn()
            registry.inc("pool.respawns")
            raw = list(self._executor.map(task, batches))
        wall = time.perf_counter() - start
        if metered:
            registry.inc("pool.tasks", len(items))
            registry.inc("pool.batches", len(batches))
            registry.inc("pool.wall_s", wall)
            registry.inc("pool.capacity_s", self.workers * wall)
            registry.gauge("pool.workers", self.workers)
            registry.gauge("pool.batch_size", batch_size)
        results: list[tuple[Any, dict[str, float] | None]] = []
        unwrap = self.mode == "process"
        for pairs in raw:
            for wrapped, worker_registry in pairs:
                deltas = None
                if worker_registry is not None:
                    registry.merge(worker_registry)
                    deltas = {
                        name: value
                        for name, value in worker_registry.counters.items()
                        if name.startswith(REPLAY_PREFIX) and value
                    }
                # Thread results never crossed a pipe or shm block, so
                # they skip unwrap_table (which credits pool.pipe_bytes).
                results.append((unwrap_table(wrapped) if unwrap else wrapped, deltas))
        return results

    def probe(self) -> list[dict[str, Any]]:
        """One :func:`_probe_task` report per dispatched probe (tests)."""
        return [r for r, _ in self.map_with_deltas(_probe_task, list(range(self.workers * 2)), batch=1)]

    def shutdown(self) -> None:
        """Stop the workers; the pool cannot be used afterwards."""
        if not self.closed:
            self.closed = True
            self._executor.shutdown(wait=True, cancel_futures=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else "live"
        return (
            f"WorkerPool(mode={self.mode!r}, workers={self.workers}, "
            f"config={self.config_hash[:12]}..., {state}, reuses={self.reuses})"
        )


_ACTIVE_POOL: WorkerPool | None = None


def get_pool(scenario: Scenario, jobs: int, mode: str | None = None) -> WorkerPool:
    """The warm pool for ``(mode, jobs, scenario)``, spawning if needed.

    The active pool is a process-wide singleton: when its key matches it
    is handed straight back (``pool.reuses``); otherwise the old pool
    shuts down and a fresh one spawns (``pool.spawns``) after the world
    for ``scenario``'s config is memoized, so fork children inherit it
    built. That is the shared world of :func:`scenario_for`, never the
    caller's object: a caller's own scenario may carry a custom
    takedown, which day tasks carry themselves.
    """
    global _ACTIVE_POOL
    if mode is None:
        mode = execution_policy().executor
    if mode == "inline":
        raise ValueError("the inline executor never uses a pool")
    key = (mode, jobs, scenario.config.content_hash())
    pool = _ACTIVE_POOL
    if pool is not None and not pool.closed and pool.key == key:
        pool.reuses += 1
        metrics().inc("pool.reuses")
        return pool
    if pool is not None:
        pool.shutdown()
    scenario_for(scenario.config)
    pool = _ACTIVE_POOL = WorkerPool(mode, jobs, scenario.config)
    metrics().inc("pool.spawns")
    return pool


def shutdown_pool() -> None:
    """Shut down and forget the active pool (idempotent)."""
    global _ACTIVE_POOL
    if _ACTIVE_POOL is not None:
        _ACTIVE_POOL.shutdown()
        _ACTIVE_POOL = None


atexit.register(shutdown_pool)


def record_inline_pool(registry: MetricsRegistry, n_tasks: int, wall_s: float) -> None:
    """Record the ``pool.*`` counter family for an inline (serial) run.

    Profiles from ``--jobs 1`` / ``--executor inline`` runs are then
    comparable with pooled runs: one worker, busy the whole wall time.
    """
    if not registry.enabled or n_tasks <= 0:
        return
    registry.inc("pool.tasks", n_tasks)
    registry.inc("pool.wall_s", wall_s)
    registry.inc("pool.capacity_s", wall_s)
    registry.inc("pool.busy_s", wall_s)
    registry.gauge("pool.workers", 1)
