"""Tests for the optimistic and conservative NTP DDoS classifiers."""

import numpy as np
import pytest

from repro.core.classify import (
    ClassifierThresholds,
    ConservativeClassifier,
    OptimisticClassifier,
)
from repro.flows.records import FlowTable
from repro.flows.timeseries import per_destination_stats


def ntp_flows(n, src_port=123, size=487, packets=1000, dst=None, src=None, time=None):
    dst = np.full(n, 1, dtype=np.uint32) if dst is None else np.asarray(dst, dtype=np.uint32)
    src = np.arange(n, dtype=np.uint32) if src is None else np.asarray(src, dtype=np.uint32)
    time = np.zeros(n) if time is None else np.asarray(time, dtype=float)
    return FlowTable(
        {
            "time": time,
            "src_ip": src,
            "dst_ip": dst,
            "proto": np.full(n, 17, dtype=np.uint8),
            "src_port": np.full(n, src_port, dtype=np.uint16),
            "dst_port": np.full(n, 50000, dtype=np.uint16),
            "packets": np.full(n, packets, dtype=np.int64),
            "bytes": np.full(n, packets * size, dtype=np.int64),
        }
    )


class TestThresholds:
    def test_defaults_match_paper(self):
        t = ClassifierThresholds()
        assert t.port == 123
        assert t.min_mean_packet_size == 200.0
        assert t.min_peak_gbps == 1.0
        assert t.min_sources == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            ClassifierThresholds(port=0)
        with pytest.raises(ValueError):
            ClassifierThresholds(min_mean_packet_size=-1)
        with pytest.raises(ValueError):
            ClassifierThresholds(min_peak_gbps=-1)
        with pytest.raises(ValueError):
            ClassifierThresholds(min_sources=-1)


class TestOptimisticClassifier:
    def test_separates_by_size(self):
        clf = OptimisticClassifier()
        big = ntp_flows(5, size=487)
        small = ntp_flows(5, size=90)
        both = FlowTable.concat([big, small])
        assert len(clf.amplification_flows(both)) == 5

    def test_threshold_exclusive(self):
        clf = OptimisticClassifier()
        exactly_200 = ntp_flows(1, size=200)
        assert len(clf.amplification_flows(exactly_200)) == 0

    def test_ignores_other_ports(self):
        clf = OptimisticClassifier()
        dns = ntp_flows(3, src_port=53, size=487)
        assert len(clf.amplification_flows(dns)) == 0


class TestConservativeClassifier:
    def big_attack(self):
        """300 sources, ~2 Gbps in one minute to dst 1."""
        n = 300
        per_flow_bytes = int(2e9 / 8 * 60 / n)
        packets = per_flow_bytes // 487
        return ntp_flows(n, packets=packets, dst=np.ones(n))

    def small_attack(self):
        """5 sources, low rate to dst 2."""
        return ntp_flows(5, packets=100, dst=np.full(5, 2), src=np.arange(5))

    def test_classify_keeps_only_real_attacks(self):
        clf = ConservativeClassifier()
        both = FlowTable.concat([self.big_attack(), self.small_attack()])
        stats = clf.classify_flows(both)
        assert len(stats) == 1
        assert stats.destinations[0] == 1

    def test_sampling_renormalization(self):
        """A sampled trace needs renormalization to cross the Gbps bar."""
        clf = ConservativeClassifier()
        attack = self.big_attack()
        # Thin counters by 100x: raw rate is now ~20 Mbps.
        thinned = attack.scale_counts(0.01)
        stats = per_destination_stats(thinned)
        assert not clf.destination_mask(stats, sampling_factor=1.0).any()
        assert clf.destination_mask(stats, sampling_factor=100.0).all()

    def test_source_counts_not_renormalized(self):
        clf = ConservativeClassifier()
        few_sources = ntp_flows(3, packets=10_000_000, dst=np.ones(3))
        stats = per_destination_stats(few_sources)
        # Plenty of traffic but only 3 sources: never classified.
        assert not clf.destination_mask(stats, sampling_factor=100.0).any()

    def test_rule_reductions(self):
        clf = ConservativeClassifier()
        both = FlowTable.concat([self.big_attack(), self.small_attack()])
        stats = per_destination_stats(
            OptimisticClassifier().amplification_flows(both)
        )
        red = clf.rule_reductions(stats)
        assert red["both"] == pytest.approx(0.5)
        assert 0.0 <= red["rule_a_only"] <= red["both"]
        assert 0.0 <= red["rule_b_only"] <= red["both"]

    def test_rule_reductions_empty(self):
        clf = ConservativeClassifier()
        stats = per_destination_stats(FlowTable.empty())
        assert clf.rule_reductions(stats)["both"] == 0.0

    def test_invalid_sampling_factor(self):
        clf = ConservativeClassifier()
        stats = per_destination_stats(self.big_attack())
        with pytest.raises(ValueError):
            clf.destination_mask(stats, sampling_factor=0)
        with pytest.raises(ValueError):
            clf.rule_reductions(stats, sampling_factor=0)
