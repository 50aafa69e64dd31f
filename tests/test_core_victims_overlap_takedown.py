"""Tests for victim reports, attacks-per-hour, overlap, takedown analysis."""

import numpy as np
import pytest

from repro.core.overlap import reflector_overlap_matrix
from repro.core.takedown_analysis import analyze_takedown
from repro.core.victims import attacks_per_hour, victim_report
from repro.flows.records import FlowTable


def attack_table(dst, n_src, gbps, t0=0.0, duration=60.0, size=487):
    """One attack: n_src sources sending `gbps` total for `duration`."""
    total_bytes = gbps * 1e9 / 8 * duration
    per_flow_packets = max(1, int(total_bytes / size / n_src))
    n = n_src
    return FlowTable(
        {
            "time": np.full(n, t0),
            "src_ip": np.arange(n, dtype=np.uint32) + int(dst) * 100_000,
            "dst_ip": np.full(n, dst, dtype=np.uint32),
            "proto": np.full(n, 17, dtype=np.uint8),
            "src_port": np.full(n, 123, dtype=np.uint16),
            "dst_port": np.full(n, 50000, dtype=np.uint16),
            "packets": np.full(n, per_flow_packets, dtype=np.int64),
            "bytes": np.full(n, per_flow_packets * size, dtype=np.int64),
        }
    )


class TestVictimReport:
    def test_basic_metrics(self):
        t = FlowTable.concat(
            [attack_table(1, n_src=300, gbps=5.0), attack_table(2, n_src=20, gbps=0.2)]
        )
        report = victim_report(t)
        assert report.n_destinations == 2
        assert report.max_victim_gbps() == pytest.approx(5.0, rel=0.05)
        assert report.victims_above_gbps(1.0) == 1

    def test_sampling_factor_scales_rates(self):
        t = attack_table(1, n_src=100, gbps=2.0).scale_counts(1e-4)
        report = victim_report(t, sampling_factor=1e4)
        assert report.max_victim_gbps() == pytest.approx(2.0, rel=0.05)

    def test_benign_excluded(self):
        benign = attack_table(3, n_src=50, gbps=0.5, size=90)  # small packets
        report = victim_report(benign)
        assert report.n_destinations == 0

    def test_invalid_sampling(self):
        with pytest.raises(ValueError):
            victim_report(FlowTable.empty(), sampling_factor=0)


class TestAttacksPerHour:
    def test_counts_attacks_in_right_hours(self):
        hour = 3600.0
        t = FlowTable.concat(
            [
                attack_table(1, n_src=300, gbps=5.0, t0=0.0),
                attack_table(2, n_src=300, gbps=5.0, t0=2.5 * hour),
                attack_table(3, n_src=5, gbps=5.0, t0=2.5 * hour),  # too few srcs
                attack_table(4, n_src=300, gbps=0.2, t0=2.5 * hour),  # too slow
            ]
        )
        counts = attacks_per_hour(t, 0.0, 4 * hour)
        np.testing.assert_array_equal(counts, [1, 0, 1, 0])

    def test_empty(self):
        counts = attacks_per_hour(FlowTable.empty(), 0.0, 7200.0)
        np.testing.assert_array_equal(counts, [0, 0])

    def test_validation(self):
        with pytest.raises(ValueError):
            attacks_per_hour(FlowTable.empty(), 100.0, 0.0)


class TestOverlapMatrix:
    def test_matrix_properties(self):
        sets = [np.array([1, 2, 3]), np.array([2, 3, 4]), np.array([10, 11])]
        labels = [("A", "d1"), ("A", "d2"), ("B", "d1")]
        om = reflector_overlap_matrix(sets, labels)
        assert om.matrix.shape == (3, 3)
        np.testing.assert_allclose(np.diag(om.matrix), 1.0)
        np.testing.assert_allclose(om.matrix, om.matrix.T)
        assert om.overlap(0, 1) == pytest.approx(0.5)
        assert om.overlap(0, 2) == 0.0

    def test_pair_helpers(self):
        sets = [np.array([1]), np.array([1]), np.array([2])]
        labels = [("A", "d1"), ("A", "d1"), ("B", "d2")]
        om = reflector_overlap_matrix(sets, labels)
        assert om.pairs_of_booter("A") == [(0, 1)]
        assert om.cross_booter_pairs() == [(0, 2), (1, 2)]
        assert om.same_label_date_pairs("A", "d1") == [(0, 1)]
        assert om.mean_overlap([(0, 1)]) == 1.0
        assert np.isnan(om.mean_overlap([]))

    def test_validation(self):
        with pytest.raises(ValueError):
            reflector_overlap_matrix([], [])
        with pytest.raises(ValueError):
            reflector_overlap_matrix([np.array([1])], [])


class TestAnalyzeTakedown:
    def make_series(self, before_level, after_level, n=122, takedown=80, noise=0.05, seed=0):
        rng = np.random.default_rng(seed)
        series = np.empty(n)
        series[:takedown] = before_level * rng.lognormal(0, noise, takedown)
        series[takedown:] = after_level * rng.lognormal(0, noise, n - takedown)
        return series

    def test_detects_reduction(self):
        series = self.make_series(1000.0, 250.0)
        report = analyze_takedown(series, 80, series_name="test")
        for w in (30, 40):
            assert report.window(w).significant
            assert report.window(w).reduction_ratio == pytest.approx(0.25, abs=0.05)

    def test_null_when_unchanged(self):
        series = self.make_series(1000.0, 1000.0, noise=0.2)
        report = analyze_takedown(series, 80)
        assert not report.window(30).significant
        assert not report.window(40).significant

    def test_takedown_day_excluded(self):
        series = self.make_series(100.0, 100.0, noise=0.0)
        series[80] = 1e9  # an outlier on the seizure day must not matter
        report = analyze_takedown(series, 80)
        assert report.window(30).welch.mean_before == pytest.approx(100.0)
        assert report.window(30).welch.mean_after == pytest.approx(100.0)

    def test_window_bounds_checked(self):
        series = np.ones(50)
        with pytest.raises(ValueError):
            analyze_takedown(series, 25, windows=(30,))
        with pytest.raises(ValueError):
            analyze_takedown(series, 99)
        with pytest.raises(ValueError):
            analyze_takedown(series, 25, windows=(1,))
        with pytest.raises(ValueError):
            analyze_takedown(np.ones((2, 2)), 0)

    def test_window_below_min_samples_rejected(self):
        """A gap-free window narrower than ``min_window_samples`` names the minimum."""
        series = self.make_series(100.0, 100.0)
        with pytest.raises(ValueError, match="10-day minimum"):
            analyze_takedown(series, 80, windows=(5,))
        report = analyze_takedown(series, 80, windows=(5,), min_window_samples=5)
        assert report.window(5).welch.mean_before == pytest.approx(100.0, rel=0.1)

    def test_unknown_window_lookup(self):
        report = analyze_takedown(self.make_series(10, 5), 80)
        with pytest.raises(KeyError):
            report.window(99)

    def test_summary_line(self):
        report = analyze_takedown(self.make_series(1000.0, 250.0), 80, series_name="memcached@ixp")
        line = report.summary_line()
        assert "memcached@ixp" in line
        assert "wt30=True" in line
        assert "red30=" in line

    def test_collection_gaps_excluded(self):
        """NaN days (export outages) must not count as zero traffic."""
        series = self.make_series(100.0, 100.0, noise=0.01)
        series[60:70] = np.nan  # a 10-day outage before the takedown
        report = analyze_takedown(series, 80, windows=(30,))
        w = report.window(30)
        assert not w.significant  # a gap is not a reduction
        assert w.welch.mean_before == pytest.approx(100.0, rel=0.02)

    def test_too_many_gaps_rejected(self):
        series = self.make_series(100.0, 100.0)
        series[50:80] = np.nan  # the whole before-window gone
        with pytest.raises(ValueError, match="gaps"):
            analyze_takedown(series, 80, windows=(30,))

    def test_min_samples_validation(self):
        with pytest.raises(ValueError):
            analyze_takedown(self.make_series(1, 1), 80, min_window_samples=1)
