"""Tests for the one-pass streaming analyzer (vs the batch pipeline)."""

import numpy as np
import pytest

from repro.booter.market import MarketConfig
from repro.core.classify import OptimisticClassifier
from repro.core.parallel import streaming_ingest
from repro.core.pipeline import TrafficSelector, collect_daily_port_series
from repro.core.streaming import StreamingAnalyzer
from repro.core.victims import attacks_per_hour
from repro.flows.records import FlowTable
from repro.flows.timeseries import per_destination_stats
from repro.netmodel.topology import TopologyConfig
from repro.scenario import Scenario, ScenarioConfig


@pytest.fixture(scope="module")
def scenario():
    return Scenario(
        ScenarioConfig(
            scale=0.1,
            topology=TopologyConfig(n_tier1=3, n_tier2=10, n_stub=60),
            market=MarketConfig(daily_attacks=60.0, n_victims=300),
            pool_sizes=(("ntp", 1500), ("dns", 1000), ("cldap", 400), ("memcached", 200), ("ssdp", 250)),
        )
    )


@pytest.fixture(scope="module")
def observed_days(scenario):
    days = list(range(40, 44))
    return {
        day: scenario.observe_day("ixp", scenario.day_traffic(day)) for day in days
    }


SELECTORS = [
    TrafficSelector("ntp_to", 123, "to_reflectors"),
    TrafficSelector("ntp_from", 123, "from_reflectors"),
]


@pytest.fixture(scope="module")
def analyzer(scenario, observed_days):
    analyzer = StreamingAnalyzer(
        SELECTORS, n_days=scenario.config.n_days, sampling_factor=10_000.0
    )
    for day, table in observed_days.items():
        analyzer.ingest_day(day, table)
    return analyzer


class TestDailySeriesTrack:
    def test_matches_batch_pipeline(self, scenario, analyzer):
        batch = collect_daily_port_series(scenario, "ixp", SELECTORS, day_range=(40, 44))
        for name in ("ntp_to", "ntp_from"):
            np.testing.assert_allclose(
                analyzer.daily_series(name)[40:44], batch.get(name)
            )

    def test_unknown_selector(self, analyzer):
        with pytest.raises(KeyError):
            analyzer.daily_series("nope")


class TestVictimTrack:
    def test_matches_exact_aggregation(self, analyzer, observed_days):
        batch_table = FlowTable.concat(list(observed_days.values()))
        amplified = OptimisticClassifier().amplification_flows(batch_table)
        exact = per_destination_stats(amplified, bin_seconds=60.0)
        stream = analyzer.victim_stats()

        np.testing.assert_array_equal(
            np.sort(stream.destinations), np.sort(exact.destinations)
        )
        exact_by_dst = dict(zip(exact.destinations.tolist(), exact.peak_bps.tolist()))
        for dst, peak in zip(stream.destinations.tolist(), stream.peak_bps.tolist()):
            assert peak == pytest.approx(exact_by_dst[dst], rel=1e-9)

        exact_sources = dict(
            zip(exact.destinations.tolist(), exact.unique_sources.tolist())
        )
        for dst, estimate in zip(
            stream.destinations.tolist(), stream.unique_sources_estimate.tolist()
        ):
            true = exact_sources[dst]
            assert estimate == pytest.approx(true, rel=0.25, abs=2.0)

    def test_total_packets_partition(self, analyzer, observed_days):
        batch_table = FlowTable.concat(list(observed_days.values()))
        amplified = OptimisticClassifier().amplification_flows(batch_table)
        assert analyzer.victim_stats().total_packets.sum() == amplified.total_packets


class TestHourlyTrack:
    def test_matches_batch_attacks_per_hour(self, analyzer, observed_days):
        for day, table in observed_days.items():
            expected = attacks_per_hour(
                table, day * 86400.0, (day + 1) * 86400.0, sampling_factor=10_000.0
            )
            np.testing.assert_array_equal(
                analyzer.hourly_attacks[day * 24 : (day + 1) * 24], expected
            )

    def test_daily_counts_shape(self, analyzer, scenario):
        counts = analyzer.daily_attack_counts()
        assert counts.shape == (scenario.config.n_days,)
        assert counts[40:44].sum() == analyzer.hourly_attacks.sum()


class TestValidation:
    def test_double_ingest_rejected(self, scenario):
        a = StreamingAnalyzer(SELECTORS, n_days=10)
        a.ingest_day(1, FlowTable.empty())
        with pytest.raises(ValueError):
            a.ingest_day(1, FlowTable.empty())

    def test_out_of_range_day(self):
        a = StreamingAnalyzer(SELECTORS, n_days=10)
        with pytest.raises(ValueError):
            a.ingest_day(10, FlowTable.empty())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StreamingAnalyzer(SELECTORS, n_days=0)
        with pytest.raises(ValueError):
            StreamingAnalyzer(SELECTORS, n_days=5, sampling_factor=0)
        with pytest.raises(ValueError):
            StreamingAnalyzer(SELECTORS + SELECTORS, n_days=5)

    def test_empty_day_ok(self):
        a = StreamingAnalyzer(SELECTORS, n_days=5)
        a.ingest_day(0, FlowTable.empty())
        assert len(a.victim_stats()) == 0
        assert a.daily_attack_counts().sum() == 0


class TestCollectStreaming:
    def test_convenience_loop_matches_manual(self, scenario, observed_days, analyzer):
        fresh = StreamingAnalyzer(
            SELECTORS, n_days=scenario.config.n_days, sampling_factor=10_000.0
        )
        returned = streaming_ingest(scenario, "ixp", fresh, range(40, 44))
        assert returned is fresh
        for name in ("ntp_to", "ntp_from"):
            np.testing.assert_allclose(
                fresh.daily_series(name), analyzer.daily_series(name)
            )
