"""Failure injection and degenerate-input robustness.

Measurement pipelines meet ugly data: empty days, dead markets, boundary
takedowns, single-reflector attacks, all-benign traffic. Every path must
degrade gracefully (empty results, not exceptions) or fail loudly with a
clear error — never return silently-wrong numbers.
"""

import numpy as np
import pytest

from repro.booter.market import MarketConfig
from repro.booter.takedown import TakedownScenario
from repro.core.classify import ConservativeClassifier, OptimisticClassifier
from repro.core.takedown_analysis import analyze_takedown
from repro.core.victims import attacks_per_hour, victim_report
from repro.flows.records import FlowTable
from repro.flows.sampling import PacketSampler
from repro.flows.timeseries import per_destination_stats
from repro.netmodel.topology import TopologyConfig, build_topology
from repro.scenario import Scenario, ScenarioConfig
from repro.stats.rng import SeedSequenceTree


def tcp_only_table(n=10):
    rng = np.random.default_rng(0)
    return FlowTable(
        {
            "time": np.zeros(n),
            "src_ip": rng.integers(0, 2**32, n, dtype=np.uint32),
            "dst_ip": rng.integers(0, 2**32, n, dtype=np.uint32),
            "proto": np.full(n, 6, dtype=np.uint8),  # TCP
            "src_port": np.full(n, 123, dtype=np.uint16),
            "dst_port": np.full(n, 50000, dtype=np.uint16),
            "packets": np.full(n, 1000, dtype=np.int64),
            "bytes": np.full(n, 487_000, dtype=np.int64),
        }
    )


class TestClassifierRobustness:
    def test_empty_table(self):
        empty = FlowTable.empty()
        assert len(OptimisticClassifier().amplification_flows(empty)) == 0
        amplified = OptimisticClassifier().amplification_flows(empty)
        stats = ConservativeClassifier().classify(per_destination_stats(amplified))
        assert len(stats) == 0

    def test_tcp_on_port_123_ignored(self):
        """The classifiers are UDP-only: TCP/123 must never classify."""
        clf = OptimisticClassifier()
        assert len(clf.amplification_flows(tcp_only_table())) == 0

    def test_all_benign_no_victims(self):
        rng = np.random.default_rng(1)
        n = 100
        benign = FlowTable(
            {
                "time": np.zeros(n),
                "src_ip": rng.integers(0, 2**32, n, dtype=np.uint32),
                "dst_ip": rng.integers(0, 2**32, n, dtype=np.uint32),
                "proto": np.full(n, 17, dtype=np.uint8),
                "src_port": np.full(n, 123, dtype=np.uint16),
                "dst_port": np.full(n, 50000, dtype=np.uint16),
                "packets": np.full(n, 100, dtype=np.int64),
                "bytes": np.full(n, 9000, dtype=np.int64),  # 90 B packets
            }
        )
        report = victim_report(benign)
        assert report.n_destinations == 0
        assert report.max_victim_gbps() == 0.0

    def test_attacks_per_hour_empty_window(self):
        counts = attacks_per_hour(FlowTable.empty(), 0.0, 24 * 3600.0)
        assert counts.shape == (24,)
        assert counts.sum() == 0


class TestSamplerRobustness:
    def test_everything_sampled_away(self):
        n = 50
        tiny = FlowTable(
            {
                "time": np.zeros(n),
                "src_ip": np.arange(n, dtype=np.uint32),
                "dst_ip": np.arange(n, dtype=np.uint32),
                "proto": np.full(n, 17, dtype=np.uint8),
                "src_port": np.full(n, 123, dtype=np.uint16),
                "dst_port": np.full(n, 5000, dtype=np.uint16),
                "packets": np.ones(n, dtype=np.int64),
                "bytes": np.full(n, 487, dtype=np.int64),
            }
        )
        sampled = PacketSampler(10**6).apply(tiny, np.random.default_rng(0))
        assert len(sampled) == 0
        # Downstream still works on the empty result.
        assert len(per_destination_stats(sampled)) == 0


class TestTakedownAnalysisRobustness:
    def test_constant_series_no_significance(self):
        report = analyze_takedown(np.full(122, 1000.0), 80, windows=(30, 40))
        assert not report.window(30).significant
        assert report.window(30).reduction_ratio == pytest.approx(1.0)

    def test_all_zero_series(self):
        report = analyze_takedown(np.zeros(122), 80, windows=(30,))
        assert not report.window(30).significant
        assert np.isnan(report.window(30).reduction_ratio)

    def test_takedown_at_exact_window_boundary(self):
        series = np.concatenate([np.full(30, 100.0), [50.0], np.full(30, 20.0)])
        series += np.random.default_rng(0).normal(0, 1, series.size)
        report = analyze_takedown(series, 30, windows=(30,))
        assert report.window(30).significant
        with pytest.raises(ValueError):
            analyze_takedown(series, 30, windows=(31,))


class TestScenarioRobustness:
    @pytest.fixture(scope="class")
    def dead_market_scenario(self):
        """A market whose entire demand comes from seized booters."""
        return Scenario(
            ScenarioConfig(
                scale=0.05,
                topology=TopologyConfig(n_tier1=2, n_tier2=6, n_stub=30),
                market=MarketConfig(
                    daily_attacks=20.0,
                    n_victims=100,
                    n_synthetic_booters=0,
                    seized_synthetic=0,
                ),
                pool_sizes=(("ntp", 500), ("dns", 400), ("cldap", 200), ("memcached", 100), ("ssdp", 100)),
            )
        )

    def test_total_seizure_stops_new_attacks(self, dead_market_scenario):
        """With only A-D in the market (A, B seized; C, D surviving) the
        day after the takedown still produces *some* attacks (C/D + the
        migrating demand), and the pipeline handles the shrunken day."""
        s = dead_market_scenario
        day = s.config.takedown_day + 1
        traffic = s.day_traffic(day)
        observed = s.observe_day("tier2", traffic)
        # No exceptions, and tables remain schema-consistent.
        assert observed.total_packets >= 0

    def test_observation_of_empty_day_kinds(self, dead_market_scenario):
        s = dead_market_scenario
        traffic = s.day_traffic(5)
        only_scan = s.observe_day("ixp", traffic, kinds=("scan",))
        assert only_scan.total_packets >= 0

    def test_takedown_full_revival(self, dead_market_scenario):
        """Every seized booter revives -> demand fully recovers."""
        s = dead_market_scenario
        scenario_takedown = TakedownScenario(
            takedown_day=s.config.takedown_day,
            revived_booters={"A": 1, "B": 1},
            revival_popularity_fraction=1.0,
            permanent_demand_loss=0.0,
        )
        late = s.config.takedown_day + 30
        assert scenario_takedown.demand_scale(s.market, late) == pytest.approx(1.0, abs=0.01)


class TestSingleReflectorAttack:
    def test_minimal_attack_flows(self):
        from repro.booter.attack import AttackEvent, synthesize_attack_flows

        event = AttackEvent(
            booter="X",
            vector="ntp",
            plan="non-vip",
            victim_ip=1,
            victim_asn=1,
            start_time=0.0,
            duration_s=1.0,
            total_pps=100.0,
            reflector_ips=np.array([42], dtype=np.uint32),
            reflector_asns=np.array([7], dtype=np.int64),
            reflector_weights=np.array([1.0]),
        )
        flows = synthesize_attack_flows(event, np.random.default_rng(0), bin_seconds=1.0)
        assert len(flows) == 1
        assert flows["src_ip"][0] == 42
