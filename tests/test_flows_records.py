"""Tests for the columnar FlowTable."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flows.records import RECORD_DTYPE, SCHEMA, FlowTable


def make_table(n=5, **overrides):
    rng = np.random.default_rng(0)
    cols = {
        "time": np.arange(n, dtype=float),
        "src_ip": rng.integers(0, 2**32, n, dtype=np.uint32),
        "dst_ip": rng.integers(0, 2**32, n, dtype=np.uint32),
        "proto": np.full(n, 17, dtype=np.uint8),
        "src_port": np.full(n, 123, dtype=np.uint16),
        "dst_port": np.full(n, 50000, dtype=np.uint16),
        "packets": np.full(n, 10, dtype=np.int64),
        "bytes": np.full(n, 4860, dtype=np.int64),
    }
    cols.update(overrides)
    return FlowTable(cols)


class TestConstruction:
    def test_basic(self):
        t = make_table(3)
        assert len(t) == 3
        assert t.total_packets == 30
        assert t["bytes"].sum() == 3 * 4860

    def test_optional_asn_columns_defaulted(self):
        t = make_table(2)
        np.testing.assert_array_equal(t["src_asn"], [-1, -1])
        np.testing.assert_array_equal(t["peer_asn"], [-1, -1])

    def test_missing_required_column_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            FlowTable({"time": np.zeros(1)})

    def test_unknown_column_rejected(self):
        cols = {name: np.zeros(1, dtype=dt) for name, dt in SCHEMA.items()}
        cols["color"] = np.zeros(1)
        with pytest.raises(ValueError, match="unknown"):
            FlowTable(cols)

    def test_misaligned_columns_rejected(self):
        cols = {name: np.zeros(3, dtype=dt) for name, dt in SCHEMA.items()}
        cols["packets"] = np.zeros(4, dtype=np.int64)
        with pytest.raises(ValueError, match="rows"):
            FlowTable(cols)

    def test_2d_column_rejected(self):
        cols = {name: np.zeros(2, dtype=dt) for name, dt in SCHEMA.items()}
        cols["time"] = np.zeros((2, 1))
        with pytest.raises(ValueError, match="1-D"):
            FlowTable(cols)

    def test_dtype_coercion(self):
        t = make_table(2, packets=np.array([1.0, 2.0]))
        assert t["packets"].dtype == np.int64

    def test_empty(self):
        t = FlowTable.empty()
        assert len(t) == 0
        assert t.total_packets == 0

    def test_unknown_column_lookup(self):
        with pytest.raises(KeyError):
            make_table(1)["nope"]


class TestTransformations:
    def test_filter(self):
        t = make_table(5)
        sub = t.filter(np.array([True, False, True, False, False]))
        assert len(sub) == 2
        np.testing.assert_array_equal(sub["time"], [0.0, 2.0])

    def test_filter_bad_mask(self):
        t = make_table(3)
        with pytest.raises(ValueError):
            t.filter(np.array([1, 0, 1]))
        with pytest.raises(ValueError):
            t.filter(np.array([True]))

    def test_select_port_and_time(self):
        t = make_table(5, dst_port=np.array([123, 123, 53, 123, 53], dtype=np.uint16))
        sub = t.select(dst_port=123, time_range=(1.0, 4.0))
        np.testing.assert_array_equal(sub["time"], [1.0, 3.0])

    def test_select_packet_size_threshold_exclusive(self):
        """The paper's '> 200 bytes' rule is an exclusive bound."""
        t = make_table(
            3,
            packets=np.array([1, 1, 1], dtype=np.int64),
            bytes=np.array([200, 201, 486], dtype=np.int64),
        )
        sub = t.select(min_packet_size=200)
        np.testing.assert_array_equal(sub["bytes"], [201, 486])

    def test_select_invalid_time_range(self):
        with pytest.raises(ValueError):
            make_table(1).select(time_range=(5.0, 1.0))

    def test_concat(self):
        t = FlowTable.concat([make_table(2), make_table(3), FlowTable.empty()])
        assert len(t) == 5

    def test_concat_empty_list(self):
        assert len(FlowTable.concat([])) == 0

    def test_sort_by_time(self):
        t = make_table(3, time=np.array([3.0, 1.0, 2.0]))
        assert list(t.sort_by_time()["time"]) == [1.0, 2.0, 3.0]

    def test_scale_counts(self):
        t = make_table(2).scale_counts(10_000)
        assert t.total_packets == 2 * 10 * 10_000

    def test_scale_counts_invalid(self):
        with pytest.raises(ValueError):
            make_table(1).scale_counts(0)

    def test_with_columns(self):
        t = make_table(2)
        t2 = t.with_columns(dst_asn=np.array([5, 6]))
        np.testing.assert_array_equal(t2["dst_asn"], [5, 6])
        with pytest.raises(KeyError):
            t.with_columns(bogus=np.zeros(2))

    def test_mean_packet_sizes_zero_packets(self):
        t = make_table(
            2, packets=np.array([0, 10], dtype=np.int64), bytes=np.array([0, 100], dtype=np.int64)
        )
        np.testing.assert_allclose(t.mean_packet_sizes(), [0.0, 10.0])


def random_table(n, seed=0, asn_high=1 << 30):
    rng = np.random.default_rng(seed)
    return FlowTable(
        {
            "time": rng.uniform(0, 1e9, n),
            "src_ip": rng.integers(0, 2**32, n, dtype=np.uint32),
            "dst_ip": rng.integers(0, 2**32, n, dtype=np.uint32),
            "proto": rng.integers(0, 256, n).astype(np.uint8),
            "src_port": rng.integers(0, 65536, n).astype(np.uint16),
            "dst_port": rng.integers(0, 65536, n).astype(np.uint16),
            "packets": rng.integers(-(2**62), 2**62, n),
            "bytes": rng.integers(-(2**62), 2**62, n),
            "src_asn": rng.integers(-1, asn_high, n),
            "dst_asn": rng.integers(-1, asn_high, n),
            "peer_asn": rng.integers(-1, asn_high, n),
        }
    )


class TestStructuredArray:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 300), st.integers(0, 1000))
    def test_roundtrip_bit_identical(self, n, seed):
        t = random_table(n, seed)
        back = FlowTable.from_structured(t.to_structured())
        for name in SCHEMA:
            np.testing.assert_array_equal(t[name], back[name], err_msg=name)
            assert back[name].dtype == t[name].dtype, name

    def test_views_share_memory_with_records(self):
        t = random_table(10)
        records = t.to_structured()
        back = FlowTable.from_structured(records)
        for name in ("time", "src_ip", "packets", "bytes", "proto"):
            assert np.shares_memory(back[name], records), name

    def test_copy_detaches_from_records(self):
        t = random_table(10)
        records = t.to_structured()
        back = FlowTable.from_structured(records, copy=True)
        for name in SCHEMA:
            assert not np.shares_memory(back[name], records), name
            assert back[name].flags["C_CONTIGUOUS"], name

    def test_nan_time_survives(self):
        t = make_table(2, time=np.array([np.nan, 1.5]))
        back = FlowTable.from_structured(t.to_structured())
        assert np.isnan(back["time"][0]) and back["time"][1] == 1.5

    def test_extreme_counters_exact(self):
        t = make_table(
            2,
            packets=np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max]),
            bytes=np.array([-1, 2**62]),
        )
        back = FlowTable.from_structured(t.to_structured())
        np.testing.assert_array_equal(back["packets"], t["packets"])
        np.testing.assert_array_equal(back["bytes"], t["bytes"])

    def test_out_of_range_asn_raises(self):
        t = make_table(1, src_asn=np.array([2**31]))
        with pytest.raises(ValueError, match="src_asn"):
            t.to_structured()
        t_low = make_table(1, peer_asn=np.array([-(2**31) - 1]))
        with pytest.raises(ValueError, match="peer_asn"):
            t_low.to_structured()

    def test_boundary_asn_exact(self):
        t = make_table(2, src_asn=np.array([-(2**31), 2**31 - 1]))
        back = FlowTable.from_structured(t.to_structured())
        np.testing.assert_array_equal(back["src_asn"], [-(2**31), 2**31 - 1])

    def test_clamp_asn_flag(self):
        t = make_table(2, dst_asn=np.array([2**40, -(2**40)]))
        records = t.to_structured(clamp_asn=True)
        np.testing.assert_array_equal(records["dst_asn"], [2**31 - 1, -(2**31)])

    def test_wrong_dtype_rejected(self):
        with pytest.raises(ValueError, match="RECORD_DTYPE"):
            FlowTable.from_structured(np.zeros(3, dtype=np.float64))

    def test_2d_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            FlowTable.from_structured(np.zeros((2, 2), dtype=RECORD_DTYPE))

    def test_empty_roundtrip(self):
        back = FlowTable.from_structured(FlowTable.empty().to_structured())
        assert len(back) == 0


class TestPickleFastPath:
    """Pool results pickle a table as its column dict (default pickling)."""

    def test_pickle_roundtrip_bit_identical(self):
        t = random_table(50, seed=3)
        back = pickle.loads(pickle.dumps(t))
        for name in SCHEMA:
            np.testing.assert_array_equal(t[name], back[name], err_msg=name)
            assert back[name].dtype == t[name].dtype, name

    def test_pickle_collapses_to_one_buffer(self):
        # The column bytes dominate: within 5% of the schema's 61 bytes
        # per row, with no per-row framing.
        t = random_table(2000, seed=4)
        row_bytes = sum(dt.itemsize for dt in SCHEMA.values())
        assert len(pickle.dumps(t)) < 1.05 * len(t) * row_bytes

    def test_pickle_exact_for_wide_asns(self):
        # Full-width columns: no i32 narrowing as in the record layout.
        t = make_table(3, src_asn=np.array([2**40, -1, 7]))
        back = pickle.loads(pickle.dumps(t))
        np.testing.assert_array_equal(back["src_asn"], [2**40, -1, 7])
        for name in SCHEMA:
            np.testing.assert_array_equal(t[name], back[name], err_msg=name)

    def test_pickle_empty(self):
        assert len(pickle.loads(pickle.dumps(FlowTable.empty()))) == 0

    def test_pickle_strided_columns(self):
        # from_structured tables hold strided views into the records.
        t = random_table(64, seed=8)
        strided = FlowTable.from_structured(t.to_structured())
        assert not strided["time"].flags.c_contiguous
        back = pickle.loads(pickle.dumps(strided))
        for name in SCHEMA:
            np.testing.assert_array_equal(t[name], back[name], err_msg=name)
            assert back[name].dtype == t[name].dtype, name


class TestAggregates:
    @settings(max_examples=20)
    @given(st.integers(1, 50))
    def test_filter_concat_identity(self, n):
        t = make_table(n)
        mask = np.arange(n) % 2 == 0
        rejoined = FlowTable.concat([t.filter(mask), t.filter(~mask)])
        assert len(rejoined) == n
        assert rejoined["bytes"].sum() == t["bytes"].sum()
