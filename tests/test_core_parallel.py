"""Parallel day executor, merge protocol, content hash, and day cache."""

import pickle

import numpy as np
import pytest

from repro.booter.market import MarketConfig
from repro.core.parallel import (
    DayResultCache,
    DaySpec,
    day_attack_tables,
    day_cache,
    day_events,
    day_reductions,
    hourly_attacks,
    observed_days,
    port_counts,
    prefetch,
    resolve_jobs,
    streaming_ingest,
)
from repro.core.pipeline import TrafficSelector, collect_daily_port_series
from repro.core.streaming import StreamingAnalyzer
from repro.flows.sketch import PerKeyCardinality
from repro.netmodel.topology import TopologyConfig
from repro.scenario import Scenario, ScenarioConfig

SELECTORS = [
    TrafficSelector("ntp_to", 123, "to_reflectors"),
    TrafficSelector("ntp_from", 123, "from_reflectors"),
]
PORTS = port_counts(SELECTORS)
HOURLY = hourly_attacks(10_000.0)
#: A fused request: port counts at both vantages plus Figure 5's hourly counts.
FUSED = {"ixp": (PORTS, HOURLY), "tier2": (PORTS,)}
FUSED_DAYS = range(40, 44)


def _span_calls(registry, stage: str) -> int:
    return sum(stats.calls for path, stats in registry.spans.items() if path[-1] == stage)


def _fused_pair(scenario, **kwargs):
    """The fused call, then an hourly-only call; both calls' values."""
    fused = day_reductions(scenario, FUSED_DAYS, FUSED, **kwargs)
    hourly = day_reductions(scenario, FUSED_DAYS, {"ixp": (HOURLY,)}, **kwargs)
    return fused, hourly


def _config(**overrides) -> ScenarioConfig:
    params = dict(
        scale=0.1,
        topology=TopologyConfig(n_tier1=3, n_tier2=10, n_stub=60),
        market=MarketConfig(daily_attacks=60.0, n_victims=300),
        pool_sizes=(
            ("ntp", 1500),
            ("dns", 1000),
            ("cldap", 400),
            ("memcached", 200),
            ("ssdp", 250),
        ),
    )
    params.update(overrides)
    return ScenarioConfig(**params)


@pytest.fixture(scope="module")
def scenario():
    return Scenario(_config())


class TestParallelDeterminism:
    def test_port_series_jobs4_bit_identical(self, scenario):
        serial = collect_daily_port_series(scenario, "ixp", SELECTORS, day_range=(40, 45))
        parallel = collect_daily_port_series(
            scenario, "ixp", SELECTORS, day_range=(40, 45), jobs=4
        )
        np.testing.assert_array_equal(serial.days, parallel.days)
        for name in ("ntp_to", "ntp_from"):
            np.testing.assert_array_equal(serial.get(name), parallel.get(name))

    def test_streaming_jobs3_bit_identical(self, scenario):
        def run(jobs):
            analyzer = StreamingAnalyzer(
                SELECTORS, n_days=scenario.config.n_days, sampling_factor=10_000.0
            )
            return streaming_ingest(
                scenario, "ixp", analyzer, range(40, 45), jobs=jobs
            )

        serial, parallel = run(1), run(3)
        for name in ("ntp_to", "ntp_from"):
            np.testing.assert_array_equal(
                serial.daily_series(name), parallel.daily_series(name)
            )
        np.testing.assert_array_equal(serial.hourly_attacks, parallel.hourly_attacks)
        a, b = serial.victim_stats(), parallel.victim_stats()
        np.testing.assert_array_equal(a.destinations, b.destinations)
        np.testing.assert_array_equal(a.peak_bps, b.peak_bps)
        np.testing.assert_array_equal(
            a.unique_sources_estimate, b.unique_sources_estimate
        )
        np.testing.assert_array_equal(a.total_packets, b.total_packets)

    def test_parallel_streaming_needs_merge_protocol(self, scenario):
        class Bare:
            def ingest_day(self, day, table):
                pass

        with pytest.raises(TypeError, match="merge"):
            streaming_ingest(scenario, "ixp", Bare(), range(40, 44), jobs=2)

    def test_day_spec_pickles(self, scenario):
        spec = DaySpec(config=scenario.config, day=40, vantage="ixp", takedown=scenario.takedown)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec

    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(None) >= 1
        with pytest.raises(ValueError):
            resolve_jobs(-1)


class TestMergeProtocol:
    def test_merge_of_halves_equals_one_pass(self, scenario):
        tables = {
            day: scenario.observe_day("ixp", scenario.day_traffic(day))
            for day in range(40, 44)
        }

        def fresh():
            return StreamingAnalyzer(
                SELECTORS, n_days=scenario.config.n_days, sampling_factor=10_000.0
            )

        one_pass = fresh()
        for day, table in tables.items():
            one_pass.ingest_day(day, table)

        left, right = fresh(), fresh()
        for day in (40, 41):
            left.ingest_day(day, tables[day])
        for day in (42, 43):
            right.ingest_day(day, tables[day])
        merged = left.merge(right)
        assert merged is left

        for name in ("ntp_to", "ntp_from"):
            np.testing.assert_array_equal(
                one_pass.daily_series(name), merged.daily_series(name)
            )
        np.testing.assert_array_equal(one_pass.hourly_attacks, merged.hourly_attacks)
        a, b = one_pass.victim_stats(), merged.victim_stats()
        np.testing.assert_array_equal(a.destinations, b.destinations)
        np.testing.assert_array_equal(a.peak_bps, b.peak_bps)
        np.testing.assert_array_equal(
            a.unique_sources_estimate, b.unique_sources_estimate
        )
        np.testing.assert_array_equal(a.total_packets, b.total_packets)

    def test_merge_rejects_overlap_and_mismatch(self):
        a = StreamingAnalyzer(SELECTORS, n_days=10)
        b = StreamingAnalyzer(SELECTORS, n_days=10)
        from repro.flows.records import FlowTable

        a.ingest_day(1, FlowTable.empty())
        b.ingest_day(1, FlowTable.empty())
        with pytest.raises(ValueError, match="both sides"):
            a.merge(b)
        with pytest.raises(ValueError, match="n_days"):
            a.merge(StreamingAnalyzer(SELECTORS, n_days=5))
        with pytest.raises(ValueError, match="selectors"):
            a.merge(StreamingAnalyzer(SELECTORS[:1], n_days=10))
        with pytest.raises(ValueError, match="sampling"):
            a.merge(StreamingAnalyzer(SELECTORS, n_days=10, sampling_factor=2.0))

    def test_clone_empty_matches_parameters(self):
        a = StreamingAnalyzer(SELECTORS, n_days=7, sampling_factor=3.0, sketch_precision=9)
        clone = a.clone_empty()
        assert clone.n_days == 7
        assert clone.sampling_factor == 3.0
        assert clone._sources.precision == 9
        assert not clone._days_seen

    def test_per_key_cardinality_merge_of_halves(self):
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 8, size=4000)
        items = rng.integers(0, 50_000, size=4000)

        one_pass = PerKeyCardinality(precision=10)
        one_pass.update(keys, items)

        left, right = PerKeyCardinality(precision=10), PerKeyCardinality(precision=10)
        left.update(keys[:2000], items[:2000])
        right.update(keys[2000:], items[2000:])
        merged = left.merge(right)

        assert merged.keys() == one_pass.keys()
        for key in one_pass.keys():
            assert merged.estimate(key) == one_pass.estimate(key)

    def test_per_key_cardinality_copy_is_deep(self):
        counter = PerKeyCardinality(precision=8)
        counter.update(np.array([1, 1, 2]), np.array([10, 11, 12]))
        clone = counter.copy()
        clone.update(np.array([1]), np.array([99]))
        assert clone.estimate(1) >= counter.estimate(1)
        assert counter.estimate(2) == clone.estimate(2)


class TestContentHash:
    def test_stable_and_deterministic(self):
        a, b = _config(), _config()
        assert a.content_hash() == b.content_hash()
        assert len(a.content_hash()) == 64

    def test_seed_changes_hash(self):
        assert _config(seed=1).content_hash() != _config(seed=2).content_hash()

    def test_any_field_changes_hash(self):
        assert _config().content_hash() != _config(scale=0.2).content_hash()


class TestDayResultCache:
    def test_lru_eviction_and_stats(self):
        cache = DayResultCache(max_entries=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        assert cache.get(("a",)) == 1  # refresh 'a'
        cache.put(("c",), 3)  # evicts 'b'
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == 1
        assert cache.get(("c",)) == 3
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["hits"] == 3 and stats["misses"] == 1

    def test_pipeline_reuses_cached_days(self, scenario):
        cache = day_cache()
        cache.clear()
        first = collect_daily_port_series(
            scenario, "tier2", SELECTORS, day_range=(40, 43), cache=True
        )
        hits_before = cache.stats()["hits"]
        second = collect_daily_port_series(
            scenario, "tier2", SELECTORS, day_range=(40, 43), cache=True
        )
        assert cache.stats()["hits"] > hits_before
        for name in ("ntp_to", "ntp_from"):
            np.testing.assert_array_equal(first.get(name), second.get(name))

    def test_streaming_uses_cached_observed_days(self, scenario):
        cache = day_cache()
        cache.clear()
        observed_days(scenario, "tier2", [40, 41, 42], cache=True)
        analyzer = StreamingAnalyzer(
            SELECTORS, n_days=scenario.config.n_days, sampling_factor=1_000.0
        )
        hits_before = cache.stats()["hits"]
        streaming_ingest(scenario, "tier2", analyzer, range(40, 43), cache=True)
        assert cache.stats()["hits"] >= hits_before + 3
        fresh = StreamingAnalyzer(
            SELECTORS, n_days=scenario.config.n_days, sampling_factor=1_000.0
        )
        streaming_ingest(scenario, "tier2", fresh, range(40, 43))
        for name in ("ntp_to", "ntp_from"):
            np.testing.assert_array_equal(
                analyzer.daily_series(name), fresh.daily_series(name)
            )

    def test_day_events_cached_and_identical(self, scenario):
        cache = day_cache()
        cache.clear()
        events = day_events(scenario, 40, cache=True)
        truth = scenario.day_traffic(40).events
        assert len(events) == len(truth)
        assert [e.victim_ip for e in events] == [e.victim_ip for e in truth]
        again = day_events(scenario, 40, cache=True)
        assert again is events
        assert cache.stats()["hits"] == 1

    def test_day_attack_tables_match_day_traffic(self, scenario):
        tables = day_attack_tables(scenario, [40], cache=True, jobs=2)
        truth = scenario.day_traffic(40).attack
        np.testing.assert_array_equal(tables[0]["packets"], truth["packets"])
        np.testing.assert_array_equal(tables[0]["dst_ip"], truth["dst_ip"])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fused_pass_synthesizes_each_day_once(self, scenario, jobs):
        from repro.core.workerpool import shutdown_pool
        from repro.obs import MetricsRegistry, use_metrics

        cache = day_cache()
        cache.clear()
        try:
            fused_registry = MetricsRegistry()
            with use_metrics(fused_registry):
                fused = day_reductions(scenario, FUSED_DAYS, FUSED, jobs=jobs, cache=True)
            # One synthesis per day, one observation per (day, vantage),
            # counted over the parent and the merged worker spans.
            assert _span_calls(fused_registry, "scenario.day_traffic") == 4
            assert _span_calls(fused_registry, "scenario.observe_day") == 8

            hourly_registry = MetricsRegistry()
            with use_metrics(hourly_registry):
                hourly = day_reductions(
                    scenario, FUSED_DAYS, {"ixp": (HOURLY,)}, jobs=jobs, cache=True
                )
            assert _span_calls(hourly_registry, "scenario.day_traffic") == 0
            assert hourly_registry.counter("cache.hits") == 4
            assert hourly["ixp", HOURLY] == fused["ixp", HOURLY]
        finally:
            cache.clear()
            shutdown_pool()
        # The values are the reductions of the plain per-vantage pipeline.
        for i, day in enumerate(FUSED_DAYS):
            traffic = scenario.day_traffic(day)
            for vantage in ("ixp", "tier2"):
                observed = scenario.observe_day(vantage, traffic)
                assert fused[vantage, PORTS][i] == {s.name: s.packets(observed) for s in SELECTORS}
            ixp = scenario.observe_day("ixp", traffic)
            assert fused["ixp", HOURLY][i] == HOURLY(day, ixp)
            assert len(fused["ixp", HOURLY][i]) == 24


class TestPrefetch:
    #: Two overlapping asks: days 40-43 at the IXP, 41-43 at tier-2 too.
    ASKS = [
        (range(40, 43), {"ixp": (PORTS,)}),
        (range(41, 44), {"ixp": (HOURLY,), "tier2": (PORTS,)}),
    ]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_task_per_distinct_day_then_reads_replay(self, scenario, jobs):
        from repro.core.workerpool import shutdown_pool
        from repro.obs import MetricsRegistry, use_metrics

        def read(cache):
            registry = MetricsRegistry()
            with use_metrics(registry):
                values = [
                    day_reductions(scenario, days, requests, jobs=jobs, cache=cache)
                    for days, requests in self.ASKS
                ]
            return values, registry

        cache = day_cache()
        cache.clear()
        try:
            cold, cold_registry = read(cache=False)
            registry = MetricsRegistry()
            registry.inc("scenario.days_generated", 5)
            with use_metrics(registry):
                prefetch(scenario, self.ASKS, jobs=jobs)
            # Each of days 40-43 synthesized once; the IXP observed on
            # four days and tier-2 on three, whichever ask wanted them.
            assert _span_calls(registry, "scenario.day_traffic") == 4
            assert _span_calls(registry, "scenario.observe_day") == 7
            # The counters it added are restored; the ones it found stay.
            scenario_counters = {k: v for k, v in registry.counters.items() if k.startswith("scenario.")}
            assert scenario_counters == {"scenario.days_generated": 5}

            warm, warm_registry = read(cache=True)
        finally:
            cache.clear()
            shutdown_pool()
        assert warm == cold
        assert warm_registry.counter("cache.misses") == 0
        assert _span_calls(warm_registry, "scenario.day_traffic") == 0
        replayed = {k: v for k, v in warm_registry.counters.items() if k.startswith("scenario.")}
        computed = {k: v for k, v in cold_registry.counters.items() if k.startswith("scenario.")}
        assert replayed == computed
        assert computed["scenario.days_generated"] == 6


class TestDayResultCacheEdgeCases:
    def test_eviction_exactly_at_max_entries_boundary(self):
        cache = DayResultCache(max_entries=3)
        for i in range(3):
            cache.put((i,), i)
        # Exactly full: no eviction yet.
        assert len(cache) == 3
        assert cache.evictions == 0
        cache.put((3,), 3)  # one past the boundary evicts exactly one (the LRU)
        assert len(cache) == 3
        assert cache.evictions == 1
        assert cache.get((0,)) is None
        assert cache.get((3,)) == 3

    def test_refreshing_existing_key_never_evicts(self):
        cache = DayResultCache(max_entries=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        cache.put(("a",), 10)  # overwrite, still 2 entries
        assert len(cache) == 2
        assert cache.evictions == 0
        assert cache.get(("a",)) == 10

    def test_resident_bytes_tracks_puts_and_evictions(self):
        cache = DayResultCache(max_entries=2)
        one_kb = np.zeros(1024, dtype=np.uint8)
        cache.put(("a",), one_kb)
        cache.put(("b",), one_kb)
        assert cache.resident_bytes == 2048
        cache.put(("c",), one_kb)  # evicts 'a'
        assert cache.resident_bytes == 2048
        cache.put(("b",), np.zeros(512, dtype=np.uint8))  # overwrite shrinks
        assert cache.resident_bytes == 1536
        assert cache.stats()["resident_bytes"] == 1536
        cache.clear()
        assert cache.resident_bytes == 0

    def test_clear_mid_run_is_correct_just_slower(self, scenario):
        cache = day_cache()
        cache.clear()
        first = collect_daily_port_series(
            scenario, "tier2", SELECTORS, day_range=(40, 43), cache=True
        )
        cache.clear()  # mid-run invalidation: everything regenerates
        assert len(cache) == 0 and cache.stats()["hits"] == 0
        second = collect_daily_port_series(
            scenario, "tier2", SELECTORS, day_range=(40, 43), cache=True
        )
        for name in ("ntp_to", "ntp_from"):
            np.testing.assert_array_equal(first.get(name), second.get(name))
        cache.clear()

    def test_cache_disabled_vs_enabled_bit_identity(self, scenario):
        day_cache().clear()
        plain = collect_daily_port_series(
            scenario, "tier2", SELECTORS, day_range=(40, 44), cache=False
        )
        warm = collect_daily_port_series(
            scenario, "tier2", SELECTORS, day_range=(40, 44), cache=True
        )
        served = collect_daily_port_series(
            scenario, "tier2", SELECTORS, day_range=(40, 44), cache=True
        )
        for name in ("ntp_to", "ntp_from"):
            np.testing.assert_array_equal(plain.get(name), warm.get(name))
            np.testing.assert_array_equal(plain.get(name), served.get(name))
        day_cache().clear()

    def test_max_entries_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            DayResultCache(max_entries=0)

    def test_resident_bytes_consistent_after_fill_past_capacity(self):
        """Accounting regression: filling far past max_entries, with
        overwrites mixed in, must keep resident_bytes exactly equal to
        the sum of _approx_nbytes over live entries — and never negative."""
        from repro.core.parallel import _approx_nbytes

        cache = DayResultCache(max_entries=4)
        rng = np.random.default_rng(0)
        for i in range(25):
            value = np.zeros(int(rng.integers(1, 2000)), dtype=np.uint8)
            cache.put((i % 7,), value)  # i%7 > max_entries forces evictions
            assert cache.resident_bytes >= 0
            expected = sum(_approx_nbytes(v) for v in cache._data.values())
            assert cache.resident_bytes == expected
            assert cache.stats()["resident_bytes"] == expected
        assert cache.evictions > 0
        assert len(cache) == 4


class TestJobsValidation:
    def test_negative_jobs_rejected_with_clear_error(self):
        with pytest.raises(ValueError, match=r"got -3.*negative worker count"):
            resolve_jobs(-3)

    def test_negative_jobs_never_reach_the_pool(self, scenario):
        # The ValueError comes from resolve_jobs, not from
        # ProcessPoolExecutor's own max_workers check.
        with pytest.raises(ValueError, match="worker count"):
            observed_days(scenario, "ixp", [40, 41], jobs=-2)
        with pytest.raises(ValueError, match="worker count"):
            collect_daily_port_series(
                scenario, "ixp", SELECTORS, day_range=(40, 42), jobs=-2
            )

    def test_experiment_config_rejects_negative_jobs(self):
        from repro.experiments.base import ExperimentConfig

        with pytest.raises(ValueError, match="jobs"):
            ExperimentConfig(jobs=-1)


class TestDiskTierIntegration:
    def test_disk_warm_run_bit_identical_with_equal_counters(self, scenario, tmp_path):
        from repro.core.diskcache import DiskDayCache
        from repro.flows.records import SCHEMA
        from repro.obs import MetricsRegistry, use_metrics
        from repro.obs.runledger import counter_digest

        cache = day_cache()
        cache.clear()
        disk = DiskDayCache(tmp_path / "day_cache")
        cache.attach_disk(disk)
        try:
            cold_registry = MetricsRegistry(enabled=True)
            with use_metrics(cold_registry):
                cold = observed_days(scenario, "tier2", [40, 41, 42], cache=True)
            assert disk.puts == 3

            # Simulate a fresh process: memory gone, disk survives.
            cache.clear()
            cache.attach_disk(disk)
            warm_registry = MetricsRegistry(enabled=True)
            with use_metrics(warm_registry):
                warm = observed_days(scenario, "tier2", [40, 41, 42], cache=True)
            assert disk.hits == 3

            for a, b in zip(cold, warm):
                for name in SCHEMA:
                    np.testing.assert_array_equal(a[name], b[name], err_msg=name)
            assert counter_digest(cold_registry.counters) == counter_digest(
                warm_registry.counters
            )
        finally:
            cache.attach_disk(None)
            cache.clear()

    def test_disk_warm_fused_pair_bit_identical_with_equal_counters(self, scenario, tmp_path):
        from repro.core.diskcache import DiskDayCache
        from repro.obs import MetricsRegistry, use_metrics
        from repro.obs.runledger import counter_digest

        def run(**kwargs):
            registry = MetricsRegistry(enabled=True)
            with use_metrics(registry):
                values = _fused_pair(scenario, **kwargs)
            return values, counter_digest(registry.counters)

        cache = day_cache()
        cache.clear()
        disk = DiskDayCache(tmp_path / "day_cache")
        cache.attach_disk(disk)
        try:
            cold, cold_digest = run(cache=True)
            # Four days x three JSON-exact values; no whole table is kept.
            assert disk.puts == 12
            warm, warm_digest = run(cache=True)
            cache.clear()
            cache.attach_disk(disk)
            disk_warm, disk_warm_digest = run(cache=True)
            assert disk.hits == 12
        finally:
            cache.attach_disk(None)
            cache.clear()
        uncached, uncached_digest = run(cache=False)
        assert cold == warm == disk_warm == uncached
        assert cold_digest == warm_digest == disk_warm_digest == uncached_digest

    def test_ports_reduction_persists_via_json_lane(self, scenario, tmp_path):
        from repro.core.diskcache import DiskDayCache
        from repro.core.parallel import daily_port_counts

        cache = day_cache()
        cache.clear()
        disk = DiskDayCache(tmp_path / "day_cache")
        cache.attach_disk(disk)
        try:
            cold = daily_port_counts(
                scenario, "tier2", SELECTORS, [40, 41], jobs=2, cache=True
            )
            assert disk.puts >= 2
            cache.clear()
            cache.attach_disk(disk)
            warm = daily_port_counts(
                scenario, "tier2", SELECTORS, [40, 41], jobs=2, cache=True
            )
            assert disk.hits >= 2
            assert warm == cold
        finally:
            cache.attach_disk(None)
            cache.clear()


class TestCacheThreadSafety:
    """The caches are mutated from server worker threads concurrently.

    The serving plane resolves requests in ``asyncio.to_thread`` workers
    while pool callbacks insert results; before the cache grew its lock,
    concurrent ``move_to_end``/``popitem`` could corrupt the LRU's
    linked list or desynchronize ``resident_bytes`` from the entries.
    """

    N_THREADS = 8
    OPS_PER_THREAD = 400

    def test_concurrent_put_get_keeps_lru_invariants(self):
        import threading

        cache = DayResultCache(max_entries=32)
        errors = []

        def worker(worker_id: int) -> None:
            rng = np.random.default_rng(worker_id)
            try:
                for op in range(self.OPS_PER_THREAD):
                    key = ("k", int(rng.integers(0, 64)))
                    if op % 3 == 0:
                        cache.put(key, np.ones(int(rng.integers(1, 128))))
                    else:
                        cache.get(key)
                    if op % 50 == 0:
                        cache.stats()
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(self.N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        # Bounded, and the byte tally matches the surviving entries
        # exactly — a lost update would leave it drifted.
        assert len(cache) <= 32
        assert cache.resident_bytes == sum(cache._sizes.values())
        assert set(cache._data) == set(cache._sizes)
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == pytest.approx(
            self.N_THREADS * self.OPS_PER_THREAD * 2 / 3, rel=0.02
        )

    def test_concurrent_disk_tier_put_get(self, tmp_path):
        import threading

        from repro.core.diskcache import DiskDayCache

        cache = DayResultCache(max_entries=16)
        cache.attach_disk(DiskDayCache(tmp_path, max_bytes=1 << 20))
        errors = []

        def worker(worker_id: int) -> None:
            rng = np.random.default_rng(100 + worker_id)
            try:
                for _ in range(100):
                    key = ("d", int(rng.integers(0, 24)))
                    # JSON-lane values so the disk tier accepts them.
                    cache.put(key, ({"count": int(rng.integers(0, 10))}, None))
                    cache.get(key)
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        disk = cache.disk
        assert disk.resident_bytes == sum(disk._index.values())
        assert len(disk) <= 24
        cache.attach_disk(None)
