"""The one fan-out: :func:`run_tasks`, inline or on a warm worker pool.

Two kinds of work fan out: the day engine's days
(:mod:`repro.core.parallel`) and the market study's ledger replicas
(:mod:`repro.economics.replicas`). Both hand :func:`run_tasks` a
function of ``(world, item)`` and their items, and it alone decides
where they run:

* with one job or one item, inline on the caller's scenario, recording
  the same ``pool.*`` counter family a pool records (one worker, busy
  the whole wall time), so ``--jobs 1`` profiles compare with pooled
  ones;
* otherwise one pool task per item on the worker's memoized world,
  viewed under the caller's takedown.

A fresh ``ProcessPoolExecutor`` per call would pay pool spin-up, fork,
and (under ``spawn``) scenario re-materialization on every call, so
this module owns one executor instead. :class:`WorkerPool` spawns its
worker processes **once** with an initializer that records the pool's
config and preloads its world (:func:`scenario_for`; under the
Linux-default ``fork`` start method the built world is inherited for
free) and warms its :class:`~repro.vantage.matrix.VisibilityMatrix`
tables. :func:`get_pool` hands the same live pool back to every
subsequent call with a matching ``(jobs, config hash)`` key — reuse is
the common case and is counted (``pool.spawns`` / ``pool.reuses``).
Asking for a pool with a *different* config content hash shuts the
active pool down cleanly before the next one spawns, so stale workers
never serve a new world.

Each item is its own task, so a worker sends each result back as soon
as it has it and holds one at a time. Results travel back over the
pool's result pipe as pickles, in item order. When the parent records
metrics, each task runs under a fresh worker registry that folds into
the parent's: spans, trace events and ``pool.busy_s``.
"""

from __future__ import annotations

import atexit
import copy
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from typing import Any, Callable, Sequence

from repro.booter.takedown import TakedownScenario
from repro.obs import MetricsRegistry, TraceRecorder, metrics, set_metrics
from repro.obs.trace import current_request_id, request_scope
from repro.scenario.config import ScenarioConfig
from repro.scenario.scenario import Scenario

__all__ = [
    "WorkerPool",
    "get_pool",
    "resolve_jobs",
    "run_tasks",
    "shutdown_pool",
    "worker_init_count",
]


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

#: The config of the pool this process works for (set by the pool
#: initializer; ``None`` in the parent): a task finds its world here.
_POOL_CONFIG: ScenarioConfig | None = None


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
    """Runs once per worker process: record the config, preload and warm the world."""
    global _WORKER_INITS, _POOL_CONFIG
    _WORKER_INITS += 1
    _POOL_CONFIG = config
    _warm_scenario(scenario_for(config))


def _probe_task(_item: Any) -> dict[str, Any]:
    """Diagnostic task: report the worker's identity and warm state."""
    return {
        "pid": os.getpid(),
        "worker_inits": _WORKER_INITS,
        "scenarios": sorted(_WORKER_SCENARIOS),
    }


# -- worker-side task wrappers (module-level: must pickle) ---------------------


def _world_task(
    fn: Callable[[Scenario, Any], Any], takedown: TakedownScenario, item: Any
) -> Any:
    """Pool task of :func:`run_tasks`: ``fn`` on the worker's world.

    The memoized world is shared by every task of the run, so a custom
    takedown never lands on it: the task gets a shallow copy that
    carries it instead.
    """
    world = scenario_for(_POOL_CONFIG)
    if world.takedown != takedown:
        world = copy.copy(world)
        world.takedown = takedown
    return fn(world, item)


def _metered_task(
    fn: Callable[[Any], Any],
    metered: bool,
    trace: bool,
    request_id: str | None,
    item: Any,
) -> tuple[Any, MetricsRegistry | None]:
    """One pool task: ``fn(item)``, with the worker's registry if ``metered``.

    ``metered`` runs the task under a fresh worker registry and ships
    it back with the result. The fresh registry shadows whatever the
    worker inherited (under fork, the parent's already-populated
    registry), so nothing is double counted; the parent folds it in.
    With ``trace`` the worker also buffers span events (pid-stamped,
    and stamped with ``request_id`` when the dispatch originated from a
    serve request, so worker spans stitch under their HTTP request in
    the Perfetto export). ``request_id`` is forwarded explicitly
    because context variables do not cross the process boundary.
    """
    if not metered:
        return fn(item), None
    registry = MetricsRegistry(enabled=True, trace=TraceRecorder() if trace else None)
    previous = set_metrics(registry)
    start = time.perf_counter()
    try:
        with request_scope(request_id):
            result = fn(item)
    finally:
        registry.inc("pool.busy_s", time.perf_counter() - start)
        set_metrics(previous)
    return result, registry


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

    def map_with_deltas(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
    ) -> list[Any]:
        """Map ``fn`` over ``items``: one task and one result per item, in order.

        When the active registry is enabled every task runs metered and
        its worker registry folds into the parent.
        """
        if self.closed:
            raise RuntimeError("WorkerPool is shut down")
        registry = metrics()
        items = list(items)
        if not items:
            return []
        metered = registry.enabled
        trace = metered and registry.trace is not None
        # Captured here, in the dispatching context, and forwarded into
        # the workers: contextvars do not propagate across the process
        # boundary, and the id is what stitches worker spans to their
        # originating serve request.
        request_id = current_request_id() if trace else None
        task = partial(_metered_task, fn, metered, trace, request_id)
        start = time.perf_counter()
        try:
            raw = list(self._executor.map(task, items))
        except BrokenProcessPool:
            # A worker died (OOM kill, hard crash). Respawn once and
            # retry the whole map — tasks are pure recipes, so a rerun
            # is safe and bit-identical.
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = self._spawn()
            registry.inc("pool.respawns")
            raw = list(self._executor.map(task, items))
        wall = time.perf_counter() - start
        if metered:
            registry.inc("pool.tasks", len(items))
            registry.inc("pool.wall_s", wall)
            registry.inc("pool.capacity_s", self.workers * wall)
            registry.gauge("pool.workers", self.workers)
        results: list[Any] = []
        for result, worker_registry in raw:
            if worker_registry is not None:
                registry.merge(worker_registry)
            results.append(result)
        return results

    def probe(self) -> list[dict[str, Any]]:
        """One :func:`_probe_task` report from each of two tasks per worker.

        Dispatching them makes every worker process exist, whose
        initializer has then run.
        """
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
    takedown, which :func:`run_tasks` sends with each task.
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


# -- the fan-out ---------------------------------------------------------------


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


def run_tasks(
    scenario: Scenario,
    fn: Callable[[Scenario, Any], Any],
    items: Sequence[Any],
    jobs: int | None,
) -> list[Any]:
    """``fn(world, item)`` for every item, results in ``items`` order.

    With one job or one item, ``world`` is ``scenario`` itself and the
    items run here; a warm dispatch is cheap, but a single one-shot item
    should not spawn a pool at all. Otherwise each item is one task on
    the warm pool for ``(jobs, scenario.config)``, whose ``world`` is the
    worker's memoized world under ``scenario.takedown``. ``fn`` must be
    module-level, so the pool can pickle it.
    """
    n_jobs = resolve_jobs(jobs)
    items = list(items)
    if n_jobs > 1 and len(items) > 1:
        task = partial(_world_task, fn, scenario.takedown)
        return get_pool(scenario, n_jobs).map_with_deltas(task, items)
    registry = metrics()
    start = time.perf_counter()
    results = [fn(scenario, item) for item in items]
    if items:
        wall = time.perf_counter() - start
        registry.inc("pool.tasks", len(items))
        registry.inc("pool.wall_s", wall)
        registry.inc("pool.capacity_s", wall)
        registry.inc("pool.busy_s", wall)
        registry.gauge("pool.workers", 1)
    return results
