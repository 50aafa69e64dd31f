"""Tests for the persistent on-disk day cache."""

import json

import numpy as np
import pytest

from repro.core.diskcache import SIDECAR_SCHEMA, DiskDayCache, key_digest
from repro.core.parallel import DayResultCache
from repro.flows.binio import HEADER
from repro.flows.records import SCHEMA, FlowTable
from repro.obs import MetricsRegistry, use_metrics


def make_table(n, seed=0):
    rng = np.random.default_rng(seed)
    return FlowTable(
        {
            "time": rng.uniform(0, 86400, n),
            "src_ip": rng.integers(0, 2**32, n, dtype=np.uint32),
            "dst_ip": rng.integers(0, 2**32, n, dtype=np.uint32),
            "proto": np.full(n, 17, dtype=np.uint8),
            "src_port": np.full(n, 123, dtype=np.uint16),
            "dst_port": rng.integers(1024, 65536, n).astype(np.uint16),
            "packets": rng.integers(1, 10**6, n),
            "bytes": rng.integers(64, 10**9, n),
            "src_asn": rng.integers(-1, 1 << 30, n),
            "dst_asn": rng.integers(-1, 1 << 30, n),
            "peer_asn": rng.integers(-1, 1 << 30, n),
        }
    )


KEY = ("observed", "cfg-hash", "takedown-repr", "ixp", 3, True, None)
DELTAS = {"scenario.days_generated": 1, "scenario.flows_generated": 1234.0}


class TestRoundtrip:
    def test_table_roundtrip_bit_identical(self, tmp_path):
        cache = DiskDayCache(tmp_path)
        table = make_table(200, seed=1)
        assert cache.put(KEY, (table, DELTAS))
        value, deltas = cache.get(KEY)
        for name in SCHEMA:
            np.testing.assert_array_equal(table[name], value[name], err_msg=name)
            assert value[name].dtype == table[name].dtype, name
        assert deltas == DELTAS
        # ints stay ints, floats stay floats: the counter digest
        # distinguishes 1 from 1.0, so replay must preserve types.
        assert isinstance(deltas["scenario.days_generated"], int)
        assert isinstance(deltas["scenario.flows_generated"], float)

    def test_persists_across_instances(self, tmp_path):
        DiskDayCache(tmp_path).put(KEY, (make_table(50), None))
        reopened = DiskDayCache(tmp_path)
        assert len(reopened) == 1
        value, deltas = reopened.get(KEY)
        assert len(value) == 50 and deltas is None

    def test_empty_table(self, tmp_path):
        cache = DiskDayCache(tmp_path)
        assert cache.put(KEY, (FlowTable.empty(), None))
        value, _ = cache.get(KEY)
        assert isinstance(value, FlowTable) and len(value) == 0

    def test_json_value_roundtrip(self, tmp_path):
        cache = DiskDayCache(tmp_path)
        counts = {"ntp_to": 123456, "dns_from": 0}
        assert cache.put(KEY, (counts, DELTAS))
        value, deltas = cache.get(KEY)
        assert value == counts
        assert all(isinstance(v, int) for v in value.values())
        assert deltas == DELTAS

    def test_miss_returns_none(self, tmp_path):
        cache = DiskDayCache(tmp_path)
        assert cache.get(KEY) is None
        assert cache.stats()["misses"] == 1


class TestDeclinedValues:
    def test_non_tuple_declined(self, tmp_path):
        assert not DiskDayCache(tmp_path).put(KEY, make_table(5))

    def test_json_distorting_values_declined(self, tmp_path):
        cache = DiskDayCache(tmp_path)
        assert not cache.put(KEY, (object(), None))
        assert not cache.put(KEY, ({"a": (1, 2)}, None))  # tuple -> list
        assert not cache.put(KEY, ({"a": np.int64(3)}, None))  # numpy scalar
        assert len(cache) == 0

    def test_wide_asn_table_declined(self, tmp_path):
        cache = DiskDayCache(tmp_path)
        table = make_table(5).with_columns(src_asn=np.full(5, 2**40))
        assert not cache.put(KEY, (table, None))
        assert len(cache) == 0


class TestCorruption:
    def _store(self, tmp_path, n=40):
        cache = DiskDayCache(tmp_path)
        cache.put(KEY, (make_table(n, seed=2), DELTAS))
        digest = key_digest(KEY)
        return cache, tmp_path / f"{digest}.rfl", tmp_path / f"{digest}.json"

    def _assert_corrupt_miss(self, cache, data_path, sidecar_path):
        registry = MetricsRegistry(enabled=True)
        with use_metrics(registry):
            assert cache.get(KEY) is None
        assert cache.corrupt == 1
        assert registry.counter("cache.disk_corrupt") == 1
        assert registry.counter("cache.disk_misses") == 1
        assert not data_path.exists() and not sidecar_path.exists()

    def test_flipped_magic(self, tmp_path):
        cache, data, sidecar = self._store(tmp_path)
        raw = bytearray(data.read_bytes())
        raw[0] ^= 0xFF
        data.write_bytes(bytes(raw))
        self._assert_corrupt_miss(cache, data, sidecar)

    def test_truncated_payload(self, tmp_path):
        cache, data, sidecar = self._store(tmp_path)
        data.write_bytes(data.read_bytes()[:-13])
        self._assert_corrupt_miss(cache, data, sidecar)

    def test_sha_mismatch(self, tmp_path):
        cache, data, sidecar = self._store(tmp_path)
        raw = bytearray(data.read_bytes())
        raw[-1] ^= 0x01
        data.write_bytes(bytes(raw))
        self._assert_corrupt_miss(cache, data, sidecar)

    def test_mangled_sidecar_json(self, tmp_path):
        cache, data, sidecar = self._store(tmp_path)
        sidecar.write_text("{not json")
        self._assert_corrupt_miss(cache, data, sidecar)

    def test_schema_version_mismatch(self, tmp_path):
        cache, data, sidecar = self._store(tmp_path)
        payload = json.loads(sidecar.read_text())
        payload["schema"] = "repro.diskcache/0"
        sidecar.write_text(json.dumps(payload))
        self._assert_corrupt_miss(cache, data, sidecar)

    def test_key_repr_mismatch(self, tmp_path):
        cache, data, sidecar = self._store(tmp_path)
        payload = json.loads(sidecar.read_text())
        payload["key"] = repr(("other", "key"))
        sidecar.write_text(json.dumps(payload))
        self._assert_corrupt_miss(cache, data, sidecar)

    def test_missing_sidecar(self, tmp_path):
        cache, data, sidecar = self._store(tmp_path)
        sidecar.unlink()
        self._assert_corrupt_miss(cache, data, sidecar)

    def test_orphan_record_file_deleted_on_reopen(self, tmp_path):
        """A put() interrupted between its renames leaves a bare record file."""
        cache, data, sidecar = self._store(tmp_path)
        cache.put(("day", "cfg", "td", "ixp", 1, True, ("ports",)), ({"ntp_to": 7}, None))
        sidecar.unlink()
        reopened = DiskDayCache(tmp_path)
        assert not data.exists()
        assert len(reopened) == 1
        assert reopened.resident_bytes == sum(p.stat().st_size for p in tmp_path.iterdir())

    def test_corruption_never_raises_from_get(self, tmp_path):
        cache, data, _ = self._store(tmp_path)
        data.write_bytes(b"garbage")
        assert cache.get(KEY) is None  # no exception


class TestEviction:
    def _key(self, i):
        return ("observed", "cfg", "td", "ixp", i, True, None)

    def _entry_size(self, tmp_path):
        """Bytes one 100-record entry owns: its record file and its sidecar."""
        probe = DiskDayCache(tmp_path / "probe")
        probe.put(self._key(0), (make_table(100), None))
        digest = key_digest(self._key(0))
        size = sum(
            (tmp_path / "probe" / f"{digest}{suffix}").stat().st_size
            for suffix in (".rfl", ".json")
        )
        assert (tmp_path / "probe" / f"{digest}.rfl").stat().st_size == HEADER.size + 100 * 50
        return size

    def test_evicts_lru_by_bytes(self, tmp_path):
        entry_size = self._entry_size(tmp_path)
        cache = DiskDayCache(tmp_path / "cache", max_bytes=3 * entry_size)
        for i in range(5):
            assert cache.put(self._key(i), (make_table(100, seed=i), None))
        assert cache.evictions == 2
        assert len(cache) == 3
        assert cache.resident_bytes <= 3 * entry_size
        assert cache.get(self._key(0)) is None  # oldest, evicted
        assert cache.get(self._key(4)) is not None  # newest, kept

    def test_newest_entry_always_survives(self, tmp_path):
        cache = DiskDayCache(tmp_path, max_bytes=1)  # below any entry size
        assert cache.put(self._key(0), (make_table(10), None))
        assert len(cache) == 1
        assert cache.get(self._key(0)) is not None

    def test_hit_refreshes_lru_position(self, tmp_path):
        entry_size = self._entry_size(tmp_path)
        cache = DiskDayCache(tmp_path / "cache", max_bytes=3 * entry_size)
        for i in range(3):
            cache.put(self._key(i), (make_table(100, seed=i), None))
        assert cache.get(self._key(0)) is not None  # touch oldest
        cache.put(self._key(3), (make_table(100, seed=3), None))
        assert cache.get(self._key(1)) is None  # evicted instead of 0
        assert cache.get(self._key(0)) is not None

    def test_clear(self, tmp_path):
        cache = DiskDayCache(tmp_path)
        cache.put(self._key(0), (make_table(10), None))
        cache.clear()
        assert len(cache) == 0
        assert cache.resident_bytes == 0
        assert not list(tmp_path.glob("*.rfl"))

    def test_bad_max_bytes(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            DiskDayCache(tmp_path, max_bytes=0)


class TestJsonLane:
    def _key(self, i):
        return ("day", "cfg", "td", "ixp", i, True, ("ports",))

    def test_one_file_per_json_entry(self, tmp_path):
        cache = DiskDayCache(tmp_path)
        assert cache.put(KEY, ({"ntp_to": 7}, DELTAS))
        assert sorted(p.name for p in tmp_path.iterdir()) == [f"{key_digest(KEY)}.json"]
        assert DiskDayCache(tmp_path).get(KEY) == ({"ntp_to": 7}, DELTAS)

    def test_resident_bytes_is_every_file_byte(self, tmp_path):
        cache = DiskDayCache(tmp_path)
        cache.put(self._key(0), ({"ntp_to": 123456}, DELTAS))
        cache.put(self._key(1), (list(range(500)), None))
        cache.put(KEY, (make_table(30), DELTAS))
        on_disk = sum(p.stat().st_size for p in tmp_path.iterdir())
        assert cache.resident_bytes == on_disk
        assert DiskDayCache(tmp_path).resident_bytes == on_disk  # the re-scan agrees

    def test_large_json_entry_evicted_by_its_sidecar_size(self, tmp_path):
        cache = DiskDayCache(tmp_path, max_bytes=20_000)
        big = list(range(10_000))  # a ~50 KB sidecar
        assert cache.put(self._key(0), (big, None))
        assert cache.resident_bytes > cache.max_bytes  # the newest entry survives
        assert cache.put(self._key(1), ({"ntp_to": 1}, None))
        assert cache.evictions == 1
        assert cache.get(self._key(0)) is None
        assert cache.get(self._key(1)) == ({"ntp_to": 1}, None)
        assert cache.resident_bytes <= cache.max_bytes

    @pytest.mark.parametrize("damage", ["truncated", "old_schema"])
    def test_bad_sidecar_is_a_counted_miss(self, tmp_path, damage):
        cache = DiskDayCache(tmp_path)
        cache.put(KEY, ({"ntp_to": 7}, DELTAS))
        sidecar = tmp_path / f"{key_digest(KEY)}.json"
        if damage == "truncated":
            sidecar.write_text(sidecar.read_text()[:-9])
        else:
            payload = json.loads(sidecar.read_text())
            payload["schema"] = "repro.diskcache/2"
            sidecar.write_text(json.dumps(payload))
        registry = MetricsRegistry(enabled=True)
        with use_metrics(registry):
            assert cache.get(KEY) is None
        assert cache.corrupt == 1 and cache.misses == 1
        assert registry.counter("cache.disk_corrupt") == 1
        assert not sidecar.exists()
        assert cache.resident_bytes == 0 and len(cache) == 0


class TestDayResultCacheIntegration:
    def test_memory_miss_promotes_from_disk(self, tmp_path):
        disk = DiskDayCache(tmp_path)
        first = DayResultCache()
        first.attach_disk(disk)
        table = make_table(80, seed=7)
        first.put(KEY, (table, DELTAS))

        second = DayResultCache()
        second.attach_disk(disk)
        entry = second.get(KEY)
        assert entry is not None
        value, deltas = entry
        for name in SCHEMA:
            np.testing.assert_array_equal(table[name], value[name], err_msg=name)
        assert deltas == DELTAS
        assert disk.hits == 1
        # Promoted: the next lookup is served from memory.
        assert second.get(KEY) is entry or second.get(KEY) == entry
        assert disk.hits == 1

    def test_detach(self, tmp_path):
        cache = DayResultCache()
        cache.attach_disk(DiskDayCache(tmp_path))
        cache.attach_disk(None)
        assert cache.get(KEY) is None
        assert "disk" not in cache.stats()

    def test_stats_nest_disk_tier(self, tmp_path):
        cache = DayResultCache()
        cache.attach_disk(DiskDayCache(tmp_path))
        stats = cache.stats()
        assert stats["disk"]["entries"] == 0
        assert stats["disk"]["corrupt"] == 0
