"""Observability layer: registry, spans, merge, profile, runner wiring."""

import json
import pickle

import numpy as np
import pytest

from repro.booter.market import MarketConfig
from repro.core.parallel import day_cache, observed_days, streaming_ingest
from repro.core.pipeline import TrafficSelector, collect_daily_port_series
from repro.core.streaming import StreamingAnalyzer
from repro.netmodel.topology import TopologyConfig
from repro.obs import (
    Histogram,
    MetricsRegistry,
    cache_hit_rate,
    export_metrics,
    metrics,
    pool_utilization,
    render_profile,
    set_metrics,
    use_metrics,
)
from repro.scenario import Scenario, ScenarioConfig

SELECTORS = [
    TrafficSelector("ntp_to", 123, "to_reflectors"),
    TrafficSelector("ntp_from", 123, "from_reflectors"),
]


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


def _deterministic(registry: MetricsRegistry) -> dict[str, float]:
    """The counter families that must not depend on jobs/cache strategy."""
    return {
        k: v
        for k, v in registry.counters.items()
        if k.startswith(("scenario.", "streaming.", "pipeline."))
    }


class TestRegistryBasics:
    def test_counters_accumulate(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.inc("a", 4)
        registry.inc("b", 2.5)
        assert registry.counter("a") == 5
        assert registry.counter("b") == 2.5
        assert registry.counter("missing") == 0

    def test_gauges_overwrite(self):
        registry = MetricsRegistry()
        registry.gauge("g", 3)
        registry.gauge("g", 1)
        assert registry.gauges["g"] == 1.0

    def test_histogram_buckets(self):
        registry = MetricsRegistry()
        for value in (0.0005, 0.003, 0.3, 99.0):
            registry.observe("h", value)
        histogram = registry.histograms["h"]
        assert histogram.count == 4
        assert histogram.total == pytest.approx(99.3035)
        assert sum(histogram.counts) == 4
        # The huge value lands in the final (inf) bucket.
        assert histogram.counts[-1] == 1

    def test_histogram_validation(self):
        with pytest.raises(ValueError, match="sorted"):
            Histogram(buckets=(1.0, 0.5))
        with pytest.raises(ValueError, match="bucket"):
            Histogram(buckets=())

    def test_span_tree_nesting(self):
        registry = MetricsRegistry()
        with registry.span("outer"):
            with registry.span("inner"):
                pass
            with registry.span("inner"):
                pass
        assert registry.spans[("outer",)].calls == 1
        assert registry.spans[("outer", "inner")].calls == 2
        assert registry.spans[("outer",)].total_s >= registry.spans[("outer", "inner")].total_s

    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry(enabled=False)
        registry.inc("a")
        registry.gauge("g", 1)
        registry.observe("h", 1.0)
        with registry.span("s"):
            pass
        assert not registry.counters and not registry.gauges
        assert not registry.histograms and not registry.spans

    def test_disabled_span_is_shared_noop(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.span("a") is registry.span("b")

    def test_clear(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.gauge("g", 1)
        registry.observe("h", 1.0)
        with registry.span("s"):
            pass
        registry.clear()
        assert registry.to_dict()["counters"] == {}
        assert registry.to_dict()["spans"] == []

    def test_pickle_roundtrip_drops_open_stack(self):
        registry = MetricsRegistry()
        registry.inc("a", 3)
        with registry.span("open"):
            clone = pickle.loads(pickle.dumps(registry))
        assert clone.counter("a") == 3
        assert clone._span_stack == []

    def test_to_dict_is_json_stable(self):
        registry = MetricsRegistry()
        registry.inc("b")
        registry.inc("a")
        registry.observe("h", 0.5)
        with registry.span("s"):
            pass
        payload = registry.to_dict()
        assert payload["schema"] == "repro.obs.metrics/1"
        assert list(payload["counters"]) == ["a", "b"]
        # inf bucket bound must survive JSON round-tripping.
        again = json.loads(json.dumps(payload))
        assert again["histograms"]["h"]["buckets"][-1] == "inf"


class TestRegistryMerge:
    def test_merge_semantics(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("c", 2)
        b.inc("c", 3)
        a.gauge("g", 5)
        b.gauge("g", 7)
        a.observe("h", 0.2)
        b.observe("h", 0.4)
        with a.span("s"):
            pass
        with b.span("s"):
            pass
        a.merge(b)
        assert a.counter("c") == 5
        assert a.gauges["g"] == 7
        assert a.histograms["h"].count == 2
        assert a.spans[("s",)].calls == 2

    def test_merge_into_empty_copies(self):
        b = MetricsRegistry()
        b.inc("c", 3)
        b.observe("h", 0.4)
        with b.span("s"):
            pass
        a = MetricsRegistry()
        a.merge(b)
        assert a.to_dict()["counters"] == b.to_dict()["counters"]
        # Deep copy: mutating the merged side must not leak back.
        a.histograms["h"].observe(0.1)
        a.spans[("s",)].calls += 1
        assert b.histograms["h"].count == 1
        assert b.spans[("s",)].calls == 1

    def test_merge_rejects_mismatched_buckets(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.observe("h", 0.1, buckets=(1.0, float("inf")))
        b.observe("h", 0.1, buckets=(2.0, float("inf")))
        with pytest.raises(ValueError, match="buckets"):
            a.merge(b)


class TestActiveRegistry:
    def test_default_is_disabled(self):
        assert metrics().enabled is False

    def test_use_metrics_scopes_and_restores(self):
        registry = MetricsRegistry()
        before = metrics()
        with use_metrics(registry) as active:
            assert metrics() is registry is active
            metrics().inc("x")
        assert metrics() is before
        assert registry.counter("x") == 1

    def test_set_metrics_returns_previous(self):
        registry = MetricsRegistry()
        previous = set_metrics(registry)
        try:
            assert metrics() is registry
        finally:
            set_metrics(previous)


class TestInstrumentedPipeline:
    def test_deterministic_counters_jobs1_equals_jobs2(self, scenario):
        def run(jobs):
            day_cache().clear()
            registry = MetricsRegistry()
            with use_metrics(registry):
                series = collect_daily_port_series(
                    scenario, "ixp", SELECTORS, day_range=(40, 44), jobs=jobs
                )
                analyzer = StreamingAnalyzer(
                    SELECTORS, n_days=scenario.config.n_days, sampling_factor=10_000.0
                )
                streaming_ingest(
                    scenario, "ixp", analyzer, range(40, 44), jobs=jobs
                )
            return registry, series

        serial_registry, serial_series = run(1)
        parallel_registry, parallel_series = run(2)
        assert _deterministic(serial_registry) == _deterministic(parallel_registry)
        assert serial_registry.counter("scenario.days_generated") == 8
        assert serial_registry.counter("streaming.days_ingested") == 4
        np.testing.assert_array_equal(
            serial_series.get("ntp_to"), parallel_series.get("ntp_to")
        )

    def test_pool_counters_and_utilization(self, scenario):
        day_cache().clear()
        registry = MetricsRegistry()
        with use_metrics(registry):
            collect_daily_port_series(
                scenario, "ixp", SELECTORS, day_range=(40, 44), jobs=2
            )
        assert registry.counter("pool.tasks") == 4
        assert registry.gauges["pool.workers"] == 2
        assert registry.counter("pool.busy_s") > 0
        utilization = pool_utilization(registry)
        assert utilization is not None and 0 < utilization <= 1.0

    def test_cache_counters_recorded(self, scenario):
        day_cache().clear()
        registry = MetricsRegistry()
        with use_metrics(registry):
            collect_daily_port_series(
                scenario, "tier2", SELECTORS, day_range=(40, 42), cache=True
            )
            collect_daily_port_series(
                scenario, "tier2", SELECTORS, day_range=(40, 42), cache=True
            )
        assert registry.counter("cache.hits") >= 2
        assert registry.counter("cache.bytes_stored") > 0
        assert cache_hit_rate(registry) is not None
        assert registry.gauges["cache.resident_bytes"] > 0
        day_cache().clear()

    def test_cache_hits_replay_scenario_counters(self, scenario):
        """scenario.* counters are logical work: a cache-served day must
        count exactly like a regenerated one, so exports do not depend on
        what an earlier experiment happened to leave in the cache."""
        day_cache().clear()
        cold = MetricsRegistry()
        with use_metrics(cold):
            collect_daily_port_series(
                scenario, "tier2", SELECTORS, day_range=(40, 43), cache=True
            )
        warm = MetricsRegistry()
        with use_metrics(warm):
            collect_daily_port_series(
                scenario, "tier2", SELECTORS, day_range=(40, 43), cache=True
            )
        assert warm.counter("cache.hits") > 0
        # no physical generation ran (no day_traffic span), yet the logical
        # counters were counted from the cached entries' work counts
        assert not any(p[-1] == "scenario.day_traffic" for p in warm.spans)
        assert _deterministic(warm) == _deterministic(cold)
        day_cache().clear()

    def test_streaming_counters_match_after_foreign_cache_warmup(self, scenario):
        """One call warms the observed-table cache serially, the next
        streams the same days — its counters must equal a cold-cache
        streaming run of identical days."""

        def stream(cache):
            registry = MetricsRegistry()
            with use_metrics(registry):
                analyzer = StreamingAnalyzer(
                    SELECTORS, n_days=scenario.config.n_days, sampling_factor=10_000.0
                )
                streaming_ingest(
                    scenario, "tier2", analyzer, range(40, 43), cache=cache
                )
            return registry

        day_cache().clear()
        cold = stream(cache=False)
        warmup = MetricsRegistry()
        with use_metrics(warmup):
            # observed_days is the call that caches whole observed tables.
            observed_days(scenario, "tier2", range(40, 43), cache=True)
        warm = stream(cache=True)
        assert warm.counter("cache.hits") >= 3  # served, not regenerated
        assert _deterministic(warm) == _deterministic(cold)

        # The same through the engine: a fused call (port counts at both
        # vantages plus the hourly counts) warms the cache; the
        # hourly-only call is then served from it and must count exactly
        # like a cold hourly-only call.
        from repro.core.parallel import day_reductions, hourly_attacks, port_counts

        ports, hourly = port_counts(SELECTORS), hourly_attacks(10_000.0)

        def hourly_only(cache):
            registry = MetricsRegistry()
            with use_metrics(registry):
                day_reductions(scenario, range(40, 43), {"ixp": (hourly,)}, cache=cache)
            return registry

        day_cache().clear()
        cold_hourly = hourly_only(cache=False)
        with use_metrics(MetricsRegistry()):
            day_reductions(
                scenario, range(40, 43), {"ixp": (ports, hourly), "tier2": (ports,)}, cache=True
            )
        warm_hourly = hourly_only(cache=True)
        assert warm_hourly.counter("cache.hits") == 3
        assert not any(p[-1] == "scenario.day_traffic" for p in warm_hourly.spans)
        assert _deterministic(warm_hourly) == _deterministic(cold_hourly)
        day_cache().clear()

    def test_span_tree_covers_hot_path(self, scenario):
        registry = MetricsRegistry()
        with use_metrics(registry):
            collect_daily_port_series(
                scenario, "ixp", SELECTORS, day_range=(40, 42)
            )
        paths = {"/".join(p) for p in registry.spans}
        assert "pipeline.collect_daily_port_series" in paths
        assert any(p.endswith("scenario.day_traffic") for p in paths)
        assert any(p.endswith("scenario.synthesize_flows") for p in paths)

    def test_cache_hit_rate_none_without_cache_traffic(self):
        assert cache_hit_rate(MetricsRegistry()) is None
        assert pool_utilization(MetricsRegistry()) is None


class TestSummaryEdgeCases:
    """pool_utilization / cache_hit_rate outside the happy full-run path."""

    def test_empty_registry_yields_none(self):
        registry = MetricsRegistry()
        assert cache_hit_rate(registry) is None
        assert pool_utilization(registry) is None

    def test_disabled_registry_yields_none_even_after_traffic(self, scenario):
        registry = MetricsRegistry(enabled=False)
        with use_metrics(registry):
            collect_daily_port_series(scenario, "ixp", SELECTORS, day_range=(40, 41))
        assert cache_hit_rate(registry) is None
        assert pool_utilization(registry) is None

    def test_zero_task_pool_run_yields_none_not_zero_division(self):
        # A jobs>1 call whose items all came from the cache never starts
        # the pool: tasks/capacity stay zero and utilization must be None.
        registry = MetricsRegistry()
        registry.inc("pool.tasks", 0)
        registry.inc("pool.capacity_s", 0)
        registry.gauge("pool.workers", 4)
        assert pool_utilization(registry) is None

    def test_all_hits_and_all_misses_rates(self):
        hits_only = MetricsRegistry()
        hits_only.inc("cache.hits", 5)
        assert cache_hit_rate(hits_only) == 1.0
        misses_only = MetricsRegistry()
        misses_only.inc("cache.misses", 5)
        assert cache_hit_rate(misses_only) == 0.0

    def test_render_profile_handles_empty_disabled_registry(self):
        text = render_profile(MetricsRegistry(enabled=False))
        assert "(no spans recorded)" in text
        assert "hit rate" not in text and "utilization" not in text

    def test_single_day_serial_run_records_inline_pool(self, scenario):
        # jobs=2 with one item runs inline: real traffic, no workers
        # spawned — but the same pool.* counter family is recorded (with
        # one logical worker) so profiles stay comparable across modes.
        registry = MetricsRegistry()
        with use_metrics(registry):
            collect_daily_port_series(scenario, "ixp", SELECTORS, day_range=(40, 41), jobs=2)
        assert registry.counter("pipeline.days_processed") == 1
        assert registry.gauges.get("pool.workers") == 1
        assert registry.counter("pool.tasks") == 1
        assert registry.counter("pool.spawns") == 0
        assert pool_utilization(registry) == 1.0


class TestProfileAndExport:
    def _recorded(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        with registry.span("stage_a"):
            with registry.span("stage_b"):
                pass
        registry.inc("cache.hits", 3)
        registry.inc("cache.misses", 1)
        registry.inc("pool.busy_s", 1.0)
        registry.inc("pool.capacity_s", 2.0)
        registry.inc("pool.tasks", 8)
        registry.gauge("pool.workers", 2)
        return registry

    def test_render_profile_table(self):
        text = render_profile(self._recorded(), title="profile")
        assert "profile" in text
        assert "stage_a" in text and "  stage_b" in text
        assert "calls" in text and "total ms" in text
        assert "day-cache hit rate: 75.0%" in text
        assert "pool utilization: 50.0%" in text

    def test_render_profile_empty(self):
        assert "(no spans recorded)" in render_profile(MetricsRegistry())

    def test_export_metrics_schema(self, tmp_path):
        registry = self._recorded()
        out = export_metrics(
            {"fig4": registry},
            registry,
            tmp_path / "metrics.json",
            run_info={"jobs": 2},
        )
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro.obs.export/1"
        assert payload["run"]["jobs"] == 2
        assert "fig4" in payload["experiments"]
        assert payload["total"]["counters"]["cache.hits"] == 3


class TestRunnerWiring:
    def test_metrics_out_writes_valid_json(self, tmp_path, capsys):
        from repro.experiments.runner import main

        out = tmp_path / "metrics.json"
        assert main(["fig2a", "--metrics-out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "fig2a profile" in captured
        assert "run profile (all experiments)" in captured
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro.obs.export/1"
        assert payload["run"]["experiments"] == ["fig2a"]
        counters = payload["experiments"]["fig2a"]["counters"]
        assert counters["scenario.days_generated"] >= 1
        # The runner restores the disabled default registry afterwards.
        assert metrics().enabled is False

    def test_profile_flag_prints_table_without_export(self, capsys):
        from repro.experiments.runner import main

        assert main(["table1", "--profile", "--no-cache"]) == 0
        captured = capsys.readouterr().out
        assert "table1 profile" in captured
        assert "metrics written" not in captured

    def test_default_run_has_no_profile_output(self, capsys):
        from repro.experiments.runner import main

        assert main(["table1", "--no-cache"]) == 0
        captured = capsys.readouterr().out
        assert "profile" not in captured
