"""Tests for the scenario pipeline and self-attack summarization."""

import numpy as np
import pytest

from repro.booter.market import MarketConfig
from repro.core.pipeline import TrafficSelector, collect_daily_port_series
from repro.core.selfattack import fig1a_points, summarize_measurements
from repro.netmodel.topology import TopologyConfig
from repro.scenario import Scenario, ScenarioConfig
from repro.stats.rng import SeedSequenceTree
from repro.vantage.observatory import SelfAttackMeasurement


@pytest.fixture(scope="module")
def scenario():
    return Scenario(
        ScenarioConfig(
            scale=0.15,
            topology=TopologyConfig(n_tier1=3, n_tier2=10, n_stub=60),
            market=MarketConfig(daily_attacks=25.0, n_victims=250),
            pool_sizes=(("ntp", 1500), ("dns", 1200), ("cldap", 500), ("memcached", 250), ("ssdp", 300)),
        )
    )


class TestTrafficSelector:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrafficSelector("x", 123, "sideways")
        with pytest.raises(ValueError):
            TrafficSelector("x", 0, "to_reflectors")

    def test_direction_selection(self, scenario):
        traffic = scenario.day_traffic(30)
        table = traffic.all_flows()
        to_ntp = TrafficSelector("to", 123, "to_reflectors").packets(table)
        from_ntp = TrafficSelector("from", 123, "from_reflectors").packets(table)
        assert to_ntp > 0
        assert from_ntp > 0
        # Victim-side amplified traffic and reflector-bound traffic are
        # the same order of magnitude (scans dominate the latter).
        assert 0.05 < from_ntp / to_ntp < 20.0


class TestCollectDailySeries:
    def test_series_collection(self, scenario):
        selectors = [
            TrafficSelector("ntp_to", 123, "to_reflectors"),
            TrafficSelector("ntp_from", 123, "from_reflectors"),
        ]
        result = collect_daily_port_series(
            scenario, "tier2", selectors, day_range=(40, 44)
        )
        assert result.days.tolist() == [40, 41, 42, 43]
        assert result.get("ntp_to").shape == (4,)
        assert result.get("ntp_to").sum() > 0

    def test_out_of_window_days_zero(self, scenario):
        selectors = [TrafficSelector("ntp_to", 123, "to_reflectors")]
        result = collect_daily_port_series(scenario, "tier1", selectors, day_range=(10, 12))
        np.testing.assert_allclose(result.get("ntp_to"), 0.0)

    def test_unknown_series(self, scenario):
        selectors = [TrafficSelector("a", 123, "to_reflectors")]
        result = collect_daily_port_series(scenario, "tier2", selectors, day_range=(40, 41))
        with pytest.raises(KeyError):
            result.get("b")

    def test_duplicate_names_rejected(self, scenario):
        selectors = [
            TrafficSelector("a", 123, "to_reflectors"),
            TrafficSelector("a", 53, "to_reflectors"),
        ]
        with pytest.raises(ValueError):
            collect_daily_port_series(scenario, "tier2", selectors, day_range=(40, 41))

    def test_empty_range_rejected(self, scenario):
        with pytest.raises(ValueError):
            collect_daily_port_series(scenario, "tier2", [], day_range=(40, 40))


def fake_measurement(mean_gbps=1.5, n_secs=60, n_reflectors=300, n_peers=25, seed=0):
    rng = np.random.default_rng(seed)
    bps = rng.normal(mean_gbps * 1e9, 0.05e9, n_secs).clip(min=0)
    transit = bps * 0.8
    peering = bps * 0.2
    return SelfAttackMeasurement(
        booter="B",
        vector="ntp",
        plan="non-vip",
        transit_enabled=True,
        seconds=np.arange(n_secs),
        delivered_bps=bps,
        offered_bps=bps,
        transit_bps=transit,
        peering_bps=peering,
        transit_up=np.ones(n_secs, dtype=bool),
        reflectors_per_second=np.full(n_secs, n_reflectors),
        peers_per_second=np.full(n_secs, n_peers),
        reflector_ips=rng.choice(10_000, n_reflectors, replace=False).astype(np.uint32),
        peer_asns=np.arange(n_peers, dtype=np.int64),
        peer_byte_share={},
    )


class TestSelfAttackSummary:
    def test_summary(self):
        ms = [fake_measurement(1.0, seed=1), fake_measurement(2.0, seed=2)]
        summary = summarize_measurements(ms)
        assert summary.n_measurements == 2
        assert summary.mean_mbps == pytest.approx(1500.0, rel=0.05)
        assert summary.peak_mbps > 1900
        assert summary.mean_reflectors == 300
        assert summary.mean_transit_share == pytest.approx(0.8, abs=0.01)

    def test_unique_reflectors_deduplicated(self):
        a = fake_measurement(seed=3)
        b = SelfAttackMeasurement(**{**a.__dict__})  # same reflector set
        summary = summarize_measurements([a, b])
        assert summary.total_unique_reflectors == a.n_reflectors

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_measurements([])

    def test_fig1a_points(self):
        m = fake_measurement()
        reflectors, peers, mbps = fig1a_points(m)
        assert reflectors.size == peers.size == mbps.size
        assert (mbps > 0).all()
