"""The persistent warm worker pool that runs day tasks in parallel.

:mod:`repro.core.parallel` hands its day tasks here: the engine
(:func:`~repro.core.parallel.day_reductions`,
:func:`~repro.core.parallel.prefetch` and the wrappers over them). A
fresh ``ProcessPoolExecutor`` per call would pay pool spin-up, fork, and
(under ``spawn``) scenario re-materialization on every call, so this
module owns one executor instead:

* :class:`WorkerPool` spawns its worker processes **once** with an
  initializer that preloads the process's memoized world
  (:func:`scenario_for`; under the Linux-default ``fork`` start method
  the built world is inherited for free) and warms its
  :class:`~repro.vantage.matrix.VisibilityMatrix` tables.
  :func:`get_pool` hands the same live pool back to every subsequent
  call site with a matching ``(jobs, config hash)`` key — reuse is the
  common case and is counted (``pool.spawns`` / ``pool.reuses``).
* **Day batching**: :meth:`WorkerPool.map_with_deltas` packs several
  cheap items into one task (about :data:`_OVERSUBSCRIBE` batches per
  worker) so per-task dispatch and pickle overhead amortize. Batching
  is a pure transport detail: results come back one per item, in
  order, and a day task's results carry the day's work counts
  themselves. Results, flow tables included, travel back over the
  pool's result pipe as pickles. When the parent records metrics, each
  batch runs under a fresh worker registry that folds into the
  parent's: spans, trace events and ``pool.busy_s``.

A pool is the only parallel path: with ``jobs=1`` (or a single item)
callers run their tasks inline and record the same ``pool.*`` counter
family through :func:`record_inline_pool`. Asking for a pool with a
*different* config content hash shuts the active pool down cleanly
before the next one spawns, so stale workers never serve a new world.
"""

from __future__ import annotations

import atexit
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from typing import Any, Callable, Sequence

from repro.obs import MetricsRegistry, TraceRecorder, metrics, set_metrics
from repro.obs.trace import current_request_id, request_scope
from repro.scenario.config import ScenarioConfig
from repro.scenario.scenario import Scenario

__all__ = [
    "WorkerPool",
    "get_pool",
    "shutdown_pool",
    "worker_init_count",
]

#: Auto-batching oversubscription: aim for about this many batches per
#: worker so stragglers still balance while dispatch overhead amortizes.
_OVERSUBSCRIBE = 4


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
    observation; warming in the initializer front-loads it.
    """
    scenario.visibility.warm(
        isp_views=tuple(
            (vp.asn, vp.ingress_only) for vp in (scenario.tier1, scenario.tier2)
        )
    )


def _process_worker_init(config: ScenarioConfig) -> None:
    """Runs once per worker process: preload and warm the world."""
    global _WORKER_INITS
    _WORKER_INITS += 1
    _warm_scenario(scenario_for(config))


def _probe_task(_item: Any) -> dict[str, Any]:
    """Diagnostic task: report the worker's identity and warm state."""
    return {
        "pid": os.getpid(),
        "worker_inits": _WORKER_INITS,
        "scenarios": sorted(_WORKER_SCENARIOS),
    }


# -- worker-side task wrappers (module-level: must pickle) ---------------------


def _batch_task(
    fn: Callable[[Any], Any],
    metered: bool,
    trace: bool,
    request_id: str | None,
    batch: Sequence[Any],
) -> tuple[list[Any], MetricsRegistry | None]:
    """One pool task covering a whole batch of items, one result each.

    ``metered`` runs the batch under a fresh worker registry and ships
    it back with the results. The fresh registry shadows whatever the
    worker inherited (under fork, the parent's already-populated
    registry), so nothing is double counted; the parent folds it in.
    With ``trace`` the worker also buffers span events (pid-stamped,
    and stamped with ``request_id`` when the dispatch originated from a
    serve request, so worker spans stitch under their HTTP request in
    the Perfetto export). ``request_id`` is forwarded explicitly
    because context variables do not cross the process boundary.
    """
    if not metered:
        return [fn(item) for item in batch], None
    registry = MetricsRegistry(enabled=True, trace=TraceRecorder() if trace else None)
    previous = set_metrics(registry)
    start = time.perf_counter()
    try:
        with request_scope(request_id):
            results = [fn(item) for item in batch]
    finally:
        registry.inc("pool.busy_s", time.perf_counter() - start)
        set_metrics(previous)
    return results, registry


# -- the pool ------------------------------------------------------------------


class WorkerPool:
    """A persistent process pool bound to one scenario config.

    Spawned once (``pool.spawns``), reused across call sites
    (``pool.reuses``), shut down when the run ends or a pool for another
    config is requested.
    """

    def __init__(self, workers: int, config: ScenarioConfig) -> None:
        if workers < 1:
            raise ValueError(f"WorkerPool needs >= 1 worker, got {workers}")
        self.workers = workers
        self.config_hash = config.content_hash()
        self.closed = False
        self.reuses = 0
        self._config = config
        self._executor = self._spawn()

    def _spawn(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_process_worker_init,
            initargs=(self._config,),
        )

    @property
    def key(self) -> tuple[int, str]:
        return (self.workers, self.config_hash)

    def resolve_batch(self, n_items: int) -> int:
        """The per-task batch size for ``n_items``.

        Targets :data:`_OVERSUBSCRIBE` batches per worker, so cheap day
        fans amortize dispatch while stragglers can still rebalance.
        """
        return max(1, math.ceil(n_items / (self.workers * _OVERSUBSCRIBE)))

    def map_with_deltas(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
    ) -> list[Any]:
        """Map ``fn`` over ``items``: one result per item, in submission order.

        Items travel in :meth:`resolve_batch`-sized batches, one task
        each. When the active registry is enabled every batch runs
        metered and its worker registry folds into the parent.
        """
        if self.closed:
            raise RuntimeError("WorkerPool is shut down")
        registry = metrics()
        items = list(items)
        if not items:
            return []
        batch_size = self.resolve_batch(len(items))
        batches = [items[i : i + batch_size] for i in range(0, len(items), batch_size)]
        metered = registry.enabled
        trace = metered and registry.trace is not None
        # Captured here, in the dispatching context, and forwarded into
        # the workers: contextvars do not propagate across the process
        # boundary, and the id is what stitches worker spans to their
        # originating serve request.
        request_id = current_request_id() if trace else None
        task = partial(_batch_task, fn, metered, trace, request_id)
        start = time.perf_counter()
        try:
            raw = list(self._executor.map(task, batches))
        except BrokenProcessPool:
            # A worker died (OOM kill, hard crash). Respawn once and
            # retry the whole map — tasks are pure day recipes, so a
            # rerun is safe and bit-identical.
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
        results: list[Any] = []
        for batch_results, worker_registry in raw:
            if worker_registry is not None:
                registry.merge(worker_registry)
            results.extend(batch_results)
        return results

    def probe(self) -> list[dict[str, Any]]:
        """One :func:`_probe_task` report per dispatched probe (tests)."""
        return self.map_with_deltas(_probe_task, list(range(self.workers * 2)))

    def shutdown(self) -> None:
        """Stop the workers; the pool cannot be used afterwards."""
        if not self.closed:
            self.closed = True
            self._executor.shutdown(wait=True, cancel_futures=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else "live"
        return (
            f"WorkerPool(workers={self.workers}, "
            f"config={self.config_hash[:12]}..., {state}, reuses={self.reuses})"
        )


_ACTIVE_POOL: WorkerPool | None = None


def get_pool(scenario: Scenario, jobs: int) -> WorkerPool:
    """The warm pool for ``(jobs, scenario)``, spawning if needed.

    The active pool is a process-wide singleton: when its key matches it
    is handed straight back (``pool.reuses``); otherwise the old pool
    shuts down and a fresh one spawns (``pool.spawns``) after the world
    for ``scenario``'s config is memoized, so fork children inherit it
    built. That is the shared world of :func:`scenario_for`, never the
    caller's object: a caller's own scenario may carry a custom
    takedown, which day tasks carry themselves.
    """
    global _ACTIVE_POOL
    key = (jobs, scenario.config.content_hash())
    pool = _ACTIVE_POOL
    if pool is not None and not pool.closed and pool.key == key:
        pool.reuses += 1
        metrics().inc("pool.reuses")
        return pool
    if pool is not None:
        pool.shutdown()
    scenario_for(scenario.config)
    pool = _ACTIVE_POOL = WorkerPool(jobs, scenario.config)
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

    Profiles from ``--jobs 1`` runs are then comparable with pooled
    runs: one worker, busy the whole wall time.
    """
    if not registry.enabled or n_tasks <= 0:
        return
    registry.inc("pool.tasks", n_tasks)
    registry.inc("pool.wall_s", wall_s)
    registry.inc("pool.capacity_s", wall_s)
    registry.inc("pool.busy_s", wall_s)
    registry.gauge("pool.workers", 1)
