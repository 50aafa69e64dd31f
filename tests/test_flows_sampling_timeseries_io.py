"""Tests for packet sampling, time binning, per-destination stats, and IO."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flows.records import SCHEMA, FlowTable
from repro.flows.sampling import PacketSampler
from repro.flows.timeseries import bin_timeseries, per_destination_stats
from repro.flows.io import read_flows_csv, write_flows_csv


def table(time, src, dst, packets, bytes_, dst_port=123):
    n = len(time)
    return FlowTable(
        {
            "time": np.asarray(time, dtype=float),
            "src_ip": np.asarray(src, dtype=np.uint32),
            "dst_ip": np.asarray(dst, dtype=np.uint32),
            "proto": np.full(n, 17, dtype=np.uint8),
            "src_port": np.full(n, 123, dtype=np.uint16),
            "dst_port": np.full(n, dst_port, dtype=np.uint16),
            "packets": np.asarray(packets, dtype=np.int64),
            "bytes": np.asarray(bytes_, dtype=np.int64),
        }
    )


class TestPacketSampler:
    def test_passthrough_rate_one(self):
        t = table([0], [1], [2], [100], [48600])
        sampler = PacketSampler(1)
        assert sampler.apply(t, np.random.default_rng(0)) is t

    def test_unbiased_estimator(self):
        """Thinning then renormalizing preserves totals in expectation."""
        n = 2000
        t = table(np.zeros(n), np.arange(n), np.arange(n), np.full(n, 500), np.full(n, 500 * 486))
        sampler = PacketSampler(100)
        sampled = sampler.apply(t, np.random.default_rng(1))
        estimate = sampler.renormalize(sampled)
        assert estimate.total_packets == pytest.approx(t.total_packets, rel=0.05)
        assert estimate.total_bytes == pytest.approx(t.total_bytes, rel=0.05)

    def test_small_flows_vanish(self):
        n = 1000
        t = table(np.zeros(n), np.arange(n), np.arange(n), np.ones(n), np.full(n, 486))
        sampled = PacketSampler(10_000).apply(t, np.random.default_rng(2))
        assert len(sampled) < n * 0.01  # nearly all single-packet flows disappear

    def test_byte_thinning_proportional(self):
        t = table([0], [1], [2], [10_000], [10_000 * 486])
        sampled = PacketSampler(10).apply(t, np.random.default_rng(3))
        assert len(sampled) == 1
        assert sampled["bytes"][0] == pytest.approx(sampled["packets"][0] * 486, abs=1)

    def test_survival_probability(self):
        s = PacketSampler(100)
        assert s.expected_flow_survival(0) == 0.0
        assert s.expected_flow_survival(1) == pytest.approx(0.01)
        assert s.expected_flow_survival(10_000) == pytest.approx(1.0, abs=1e-4)
        with pytest.raises(ValueError):
            s.expected_flow_survival(-1)

    def test_empty_table(self):
        out = PacketSampler(10).apply(FlowTable.empty(), np.random.default_rng(0))
        assert len(out) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            PacketSampler(0)


class TestBinTimeseries:
    def test_basic_binning(self):
        t = table([0, 1, 2, 10], [1] * 4, [2] * 4, [5, 5, 5, 7], [100] * 4)
        out = bin_timeseries(t, 0, 12, 4)
        np.testing.assert_allclose(out, [15, 0, 7])

    def test_bytes_weighting(self):
        t = table([0], [1], [2], [5], [999])
        out = bin_timeseries(t, 0, 1, 1, value="bytes")
        assert out[0] == 999

    def test_out_of_window_ignored(self):
        t = table([-1, 5, 100], [1] * 3, [2] * 3, [1] * 3, [1] * 3)
        out = bin_timeseries(t, 0, 10, 10)
        assert out[0] == 1

    def test_empty_table(self):
        np.testing.assert_allclose(bin_timeseries(FlowTable.empty(), 0, 10, 5), [0, 0])

    def test_validation(self):
        t = table([0], [1], [2], [1], [1])
        with pytest.raises(ValueError):
            bin_timeseries(t, 10, 0, 1)
        with pytest.raises(ValueError):
            bin_timeseries(t, 0, 10, 0)
        with pytest.raises(ValueError):
            bin_timeseries(t, 0, 10, 1, value="flows")


class TestPerDestinationStats:
    def test_unique_sources(self):
        t = table(
            [0, 0, 0, 0],
            src=[10, 10, 11, 12],
            dst=[1, 1, 1, 2],
            packets=[1] * 4,
            bytes_=[100] * 4,
        )
        stats = per_destination_stats(t)
        assert len(stats) == 2
        by_dst = dict(zip(stats.destinations.tolist(), stats.unique_sources.tolist()))
        assert by_dst == {1: 2, 2: 1}

    def test_peak_bps_uses_minute_bins(self):
        # dst 1: 60 MB in bin 0 and 6 MB in bin 1 -> peak = 60MB*8/60s = 8 Mbps.
        t = table(
            [0, 30, 70],
            src=[10, 11, 10],
            dst=[1, 1, 1],
            packets=[1, 1, 1],
            bytes_=[30_000_000, 30_000_000, 6_000_000],
        )
        stats = per_destination_stats(t, bin_seconds=60)
        assert stats.peak_bps[0] == pytest.approx(60_000_000 * 8 / 60)

    def test_max_sources_per_bin(self):
        # Three sources total but never more than two in the same minute.
        t = table(
            [0, 1, 70],
            src=[10, 11, 12],
            dst=[1, 1, 1],
            packets=[1] * 3,
            bytes_=[100] * 3,
        )
        stats = per_destination_stats(t, bin_seconds=60)
        assert stats.unique_sources[0] == 3
        assert stats.max_sources_per_bin[0] == 2

    def test_duplicate_src_in_bin_counted_once(self):
        t = table([0, 1], src=[10, 10], dst=[1, 1], packets=[1, 1], bytes_=[1, 1])
        stats = per_destination_stats(t, bin_seconds=60)
        assert stats.max_sources_per_bin[0] == 1

    def test_totals(self):
        t = table([0, 0], src=[10, 11], dst=[1, 1], packets=[5, 7], bytes_=[50, 70])
        stats = per_destination_stats(t)
        assert stats.total_packets[0] == 12
        assert stats.total_bytes[0] == 120

    def test_empty(self):
        stats = per_destination_stats(FlowTable.empty())
        assert len(stats) == 0

    def test_filter(self):
        t = table([0, 0], src=[10, 11], dst=[1, 2], packets=[1, 1], bytes_=[1, 1])
        stats = per_destination_stats(t)
        big = stats.filter(stats.destinations == 1)
        assert len(big) == 1
        with pytest.raises(ValueError):
            stats.filter(np.array([True]))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 100), st.integers(1, 20), st.integers(1, 20))
    def test_invariants(self, n, n_src, n_dst):
        rng = np.random.default_rng(n * 1000 + n_src * 10 + n_dst)
        t = table(
            rng.uniform(0, 600, n),
            rng.integers(0, n_src, n),
            rng.integers(0, n_dst, n),
            rng.integers(1, 100, n),
            rng.integers(100, 10_000, n),
        )
        stats = per_destination_stats(t, bin_seconds=60)
        assert stats.total_packets.sum() == t.total_packets
        assert stats.total_bytes.sum() == t.total_bytes
        assert (stats.max_sources_per_bin <= stats.unique_sources).all()
        assert (stats.max_sources_per_bin >= 1).all()
        assert (stats.peak_bps > 0).all()


class TestCsvIO:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        n = 50
        t = table(
            rng.uniform(0, 100, n),
            rng.integers(0, 2**32, n),
            rng.integers(0, 2**32, n),
            rng.integers(1, 1000, n),
            rng.integers(100, 100_000, n),
        ).with_columns(src_asn=rng.integers(-1, 100, n), peer_asn=rng.integers(-1, 100, n))
        path = tmp_path / "flows.csv"
        assert write_flows_csv(t, path) == n
        t2 = read_flows_csv(path)
        for name in SCHEMA:
            np.testing.assert_array_equal(t[name], t2[name], err_msg=name)

    def test_empty_roundtrip(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_flows_csv(FlowTable.empty(), path)
        assert len(read_flows_csv(path)) == 0

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_flows_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "nothing.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_flows_csv(path)
