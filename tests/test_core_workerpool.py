"""Warm worker pool: reuse semantics, jobs parity, one task per item, worker death."""

import os
import signal
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.booter.market import MarketConfig
from repro.core.parallel import daily_port_counts, day_attack_tables, day_cache, observed_days
from repro.core.pipeline import TrafficSelector
from repro.core.workerpool import (
    WorkerPool,
    get_pool,
    run_tasks,
    scenario_for,
    shutdown_pool,
    worker_init_count,
)
from repro.netmodel.topology import TopologyConfig
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.obs.runledger import counter_digest
from repro.scenario import Scenario, ScenarioConfig

SELECTORS = [
    TrafficSelector("ntp_to", 123, "to_reflectors"),
    TrafficSelector("ntp_from", 123, "from_reflectors"),
]


def _config(**overrides) -> ScenarioConfig:
    params = dict(
        scale=0.05,
        topology=TopologyConfig(n_tier1=3, n_tier2=8, n_stub=40),
        market=MarketConfig(daily_attacks=40.0, n_victims=200),
        pool_sizes=(
            ("ntp", 800),
            ("dns", 500),
            ("cldap", 200),
            ("memcached", 100),
            ("ssdp", 120),
        ),
    )
    params.update(overrides)
    return ScenarioConfig(**params)


@pytest.fixture(scope="module")
def scenario():
    # The memoized world: pools fork from it instead of building another.
    return scenario_for(_config())


@pytest.fixture(autouse=True)
def _clean_pool():
    """Every test starts and ends without a live pool."""
    shutdown_pool()
    yield
    shutdown_pool()


def _tables_equal(a, b) -> bool:
    return np.array_equal(a.to_structured(), b.to_structured())


def _recorded(fn):
    """Run ``fn()`` under a fresh enabled registry; return both."""
    registry = MetricsRegistry(enabled=True)
    previous = set_metrics(registry)
    try:
        return fn(), registry
    finally:
        set_metrics(previous)


def _square(item: int) -> int:
    return item * item


def _world_square(world: Scenario, item: int) -> int:
    return item * item


class _InlineExecutor:
    """Stands in for the process pool: runs each task here, keeps its argument."""

    def __init__(self) -> None:
        self.items: list[int] = []

    def map(self, task, items):
        items = list(items)
        self.items.extend(items)
        return [task(item) for item in items]

    def shutdown(self, wait=True, cancel_futures=False) -> None:
        pass


def _kill_first_call(item: tuple[str, int]) -> int:
    """SIGKILL the calling worker the first time any worker runs this.

    The marker file is created atomically (``O_EXCL``), so exactly one
    call — in whichever worker gets there first — kills its process.
    """
    marker_dir, value = item
    try:
        os.close(os.open(Path(marker_dir) / "killed", os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return value * value
    os.kill(os.getpid(), signal.SIGKILL)
    raise AssertionError("unreachable: the worker was killed")


def _kill_every_call(item: int) -> int:
    os.kill(os.getpid(), signal.SIGKILL)
    raise AssertionError("unreachable: the worker was killed")


class TestWarmPoolReuse:
    def test_pool_survives_consecutive_fans(self, scenario):
        def fans():
            observed_days(scenario, "ixp", [40, 41], jobs=2)
            observed_days(scenario, "ixp", [42, 43], jobs=2)
            daily_port_counts(scenario, "ixp", SELECTORS, [44, 45], jobs=2)

        _, registry = _recorded(fans)
        assert registry.counter("pool.spawns") == 1
        assert registry.counter("pool.reuses") >= 2

    def test_initializer_runs_once_per_worker(self, scenario):
        pool = get_pool(scenario, 2)
        reports = pool.probe()
        # The parent never runs the initializer itself.
        assert worker_init_count() == 0
        by_pid = {r["pid"]: r for r in reports}
        assert len(by_pid) >= 1  # every probe came from a live worker
        for report in by_pid.values():
            assert report["worker_inits"] == 1
            assert scenario.config.content_hash() in report["scenarios"]

    def test_reregistration_shuts_down_stale_pool(self, scenario):
        pool = get_pool(scenario, 2)
        assert not pool.closed
        other = scenario_for(_config(seed=7))
        fresh = get_pool(other, 2)
        assert pool.closed
        assert fresh is not pool
        assert fresh.key == (2, other.config.content_hash())

    def test_same_key_returns_same_pool(self, scenario):
        a = get_pool(scenario, 2)
        b = get_pool(scenario, 2)
        assert a is b
        assert b.reuses == 1
        c = get_pool(scenario, 3)
        assert c is not a
        assert a.closed  # differing key replaced the singleton

    def test_closed_pool_refuses_work(self, scenario):
        pool = get_pool(scenario, 2)
        pool.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            pool.map_with_deltas(len, [[1]])

    def test_inline_mode_never_builds_a_pool(self, scenario):
        """jobs=1, or a single day at any jobs, runs inline: no pool."""

        def inline():
            observed_days(scenario, "ixp", [40, 41], jobs=1)
            observed_days(scenario, "ixp", [42], jobs=2)

        _, registry = _recorded(inline)
        assert registry.counter("pool.spawns") == 0
        assert registry.counter("pool.tasks") == 3
        with pytest.raises(ValueError, match="worker"):
            WorkerPool(0, scenario.config)


class TestExecutorParity:
    def test_results_and_digest_identical_across_modes(self, scenario):
        """Serial and pooled runs return the same tables (which cross the
        result pipe as pickles) and the same deterministic counters."""
        days = [40, 41, 42, 43]
        tables = {}
        digests = {}
        for jobs in (1, 2, 3):
            tables[jobs], registry = _recorded(
                lambda: observed_days(scenario, "ixp", days, jobs=jobs)
            )
            shutdown_pool()
            digests[jobs] = counter_digest(registry.counters)
        assert len(set(digests.values())) == 1, digests
        for jobs in (2, 3):
            for a, b in zip(tables[1], tables[jobs]):
                assert _tables_equal(a, b), jobs

    def test_digest_identical_across_batch_sizes(self, scenario):
        """12 days, one task each, over 1, 2 and 3 workers."""
        days = list(range(34, 46))
        counts = {}
        digests = {}
        for jobs in (1, 2, 3):
            counts[jobs], registry = _recorded(
                lambda: daily_port_counts(scenario, "ixp", SELECTORS, days, jobs=jobs)
            )
            shutdown_pool()
            digests[jobs] = counter_digest(registry.counters)
        assert counts[1] == counts[2] == counts[3]
        assert len(set(digests.values())) == 1, digests

    def test_inline_records_pool_counter_family(self, scenario):
        _, registry = _recorded(lambda: observed_days(scenario, "ixp", [40, 41], jobs=1))
        assert registry.counter("pool.tasks") == 2
        assert registry.counter("pool.wall_s") > 0
        assert registry.counter("pool.capacity_s") == registry.counter("pool.wall_s")
        assert registry.counter("pool.busy_s") > 0
        assert registry.gauges["pool.workers"] == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_run_tasks_records_nothing_when_disabled(self, scenario, jobs):
        registry = MetricsRegistry(enabled=False)
        previous = set_metrics(registry)
        try:
            assert run_tasks(scenario, _world_square, [2, 3], jobs) == [4, 9]
        finally:
            set_metrics(previous)
        assert not registry.counters and not registry.gauges and not registry.spans


class TestDayBatching:
    """A fan's transport: every item is one task, whatever the worker count."""

    @settings(max_examples=60, deadline=None)
    @given(workers=st.integers(1, 4), n_items=st.integers(1, 500))
    def test_auto_batches_cover_items_in_order(self, scenario, workers, n_items):
        executor = _InlineExecutor()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(WorkerPool, "_spawn", lambda self: executor)
            pool = WorkerPool(workers, scenario.config)
        items = list(range(n_items))
        assert pool.map_with_deltas(_square, items) == [i * i for i in items]
        # Each task is handed the item itself, never a batch of them.
        assert executor.items == items

    def test_batching_collapses_dispatches(self, scenario):
        pool = get_pool(scenario, 2)
        results, registry = _recorded(lambda: pool.map_with_deltas(_square, range(16)))
        assert results == [i * i for i in range(16)]
        assert registry.counter("pool.tasks") == 16

    def test_per_day_deltas_survive_batching(self, scenario):
        days = list(range(34, 46))
        generated = {}
        for jobs in (2, 3):
            _, registry = _recorded(lambda: day_attack_tables(scenario, days, jobs=jobs, cache=True))
            shutdown_pool()
            generated[jobs] = registry.counter("scenario.days_generated")
            day_cache().clear()
        # The logical work counters are worker-count invariant.
        assert generated[2] == generated[3] == len(days)


class TestTransportInvariance:
    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_jobs_never_change_results(self, jobs):
        """The worker count is invisible in results and in the
        scenario.* work counters."""
        config = _config(n_days=46, takedown_day=43)
        days = list(range(26, 46))
        reference = Scenario(config)
        expected = [reference.observe_day("ixp", reference.day_traffic(day)) for day in days]

        tables, registry = _recorded(
            lambda: observed_days(scenario_for(config), "ixp", days, jobs=jobs)
        )
        for a, b in zip(tables, expected):
            assert _tables_equal(a, b)
        assert registry.counter("scenario.days_generated") == len(days)
        assert registry.counter("scenario.flows_synthesized") >= 1.0


class TestWorkerDeath:
    def test_killed_worker_is_respawned_once(self, scenario, tmp_path):
        pool = get_pool(scenario, 2)
        items = [(str(tmp_path), value) for value in range(8)]
        results, registry = _recorded(lambda: pool.map_with_deltas(_kill_first_call, items))
        assert (tmp_path / "killed").exists()
        assert results == [_square(value) for _, value in items]
        assert registry.counter("pool.respawns") == 1
        assert registry.counter("pool.tasks") == len(items)

    def test_worker_that_always_dies_fails_after_one_respawn(self, scenario):
        pool = get_pool(scenario, 2)
        registry = MetricsRegistry(enabled=True)
        previous = set_metrics(registry)
        try:
            with pytest.raises(BrokenProcessPool):
                pool.map_with_deltas(_kill_every_call, [0, 1])
        finally:
            set_metrics(previous)
        assert registry.counter("pool.respawns") == 1
