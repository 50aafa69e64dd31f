"""Persistent on-disk tier for the day-result cache.

The in-memory :class:`~repro.core.parallel.DayResultCache` dies with the
process; re-running a 122-day campaign regenerates every day from
scratch. This module adds the durable tier: each cached flow table is
written as one file in the :mod:`repro.flows.binio` fixed-record format
(header + contiguous :data:`~repro.flows.records.RECORD_DTYPE` records)
next to a small JSON sidecar carrying the schema version, the full
cache key, the ``scenario.*`` counter deltas to replay on a hit (kept
as the day's ground-truth part and the entry's vantage part), and a
sha256 of the record bytes. Reads go through ``np.memmap`` and the
zero-copy :meth:`FlowTable.from_structured` path, so a disk hit costs
one page-cache-backed mapping plus a checksum pass — no parse, no
object churn.

Entries are content-addressed: the filename is the sha256 of the cache
key's ``repr``, and the key embeds ``ScenarioConfig.content_hash()``
(seed included) plus the takedown fingerprint. Change anything about
the world and the key digest changes with it — invalidation is
automatic, stale entries are merely unreferenced files that age out of
the byte-bounded LRU (mtime order, refreshed on hit).

Corruption is expected, not exceptional: a bad magic, a truncated
payload, a sha mismatch, or a mangled sidecar makes the entry a counted
miss (``cache.disk_corrupt``) and deletes the files — it never fails
the run. Writes are crash-safe via tmp-file + ``os.replace``, data file
before sidecar, so an interrupted write can only leave an orphan record
file, which reads as corrupt and which the next directory scan deletes.

Two value lanes share the store. Flow tables (the expensive values —
observed and attack day tables) go through the record format above.
Small derived reductions whose values are JSON-exact (per-port count
dicts with string keys and int values, hourly attack-count lists of
ints, the serving plane's per-day totals and victim rankings) ride
entirely in the sidecar, which is then the entry's only file. They are
guarded by a round-trip equality check so anything JSON would distort —
tuples, numpy scalars, event objects — is simply declined and stays
memory-only. The byte budget counts every byte an entry owns: its
sidecar, plus its record file for a table.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any

import numpy as np

from repro.flows.binio import HEADER, MAGIC
from repro.flows.records import RECORD_DTYPE, FlowTable
from repro.obs.metrics import metrics

__all__ = ["DiskDayCache", "SIDECAR_SCHEMA", "DEFAULT_MAX_BYTES"]

#: Sidecar schema identifier; bump on any layout change so old caches
#: read as misses instead of misparsing. Version 2: the deltas split
#: into ``truth`` and ``vantage`` parts. Version 3: a JSON-lane entry is
#: its sidecar alone, with no record file.
SIDECAR_SCHEMA = "repro.diskcache/3"

#: Default eviction budget for all entry files (2 GiB ~= 40M records).
DEFAULT_MAX_BYTES = 2 << 30


def key_digest(key: tuple) -> str:
    """Stable filename digest for a day-cache key (sha256 of its repr)."""
    return hashlib.sha256(repr(key).encode()).hexdigest()


class DiskDayCache:
    """Byte-bounded, content-addressed on-disk store of per-day values.

    Values move through the same ``(value, deltas)`` tuples the in-memory
    cache stores: :meth:`put` accepts a flow table or a JSON-exact value
    with its deltas (or ``None``) and silently declines anything else;
    :meth:`get` returns that tuple or ``None``. Attach one to the
    in-memory cache with :meth:`DayResultCache.attach_disk` and the
    tiers compose — memory miss consults disk, disk hit promotes back
    into memory.

    All index mutations and file writes happen under one re-entrant
    lock: the serving plane reads from ``asyncio.to_thread`` workers
    while pipeline write-throughs land from other threads, and the LRU
    index (OrderedDict plus the ``resident_bytes`` tally) is not safe
    under concurrent mutation.
    """

    def __init__(self, root: str | Path, max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.root = Path(root)
        self.max_bytes = int(max_bytes)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0
        self.corrupt = 0
        #: digest -> bytes the entry owns on disk, in LRU order (oldest
        #: sidecar mtime first).
        self._index: OrderedDict[str, int] = OrderedDict()
        self.resident_bytes = 0
        self._scan()

    # -- index maintenance ----------------------------------------------------

    def _data_path(self, digest: str) -> Path:
        return self.root / f"{digest}.rfl"

    def _sidecar_path(self, digest: str) -> Path:
        return self.root / f"{digest}.json"

    def _scan(self) -> None:
        """Rebuild the LRU index from the directory (sidecar mtime order).

        Every entry has a sidecar; a table entry also owns a record file,
        whose bytes count towards the entry's size. A record file without
        a sidecar is what a put() interrupted between its two renames
        leaves: nothing can read it, so it is deleted here rather than
        left outside the byte budget.
        """
        for data in self.root.glob("*.rfl"):
            if not self._sidecar_path(data.stem).exists():
                data.unlink(missing_ok=True)
        entries = []
        for sidecar in self.root.glob("*.json"):
            try:
                stat = sidecar.stat()
            except OSError:
                continue
            size = stat.st_size
            try:
                size += self._data_path(sidecar.stem).stat().st_size
            except OSError:
                pass
            entries.append((stat.st_mtime, sidecar.stem, size))
        entries.sort()
        self._index = OrderedDict((digest, size) for _, digest, size in entries)
        self.resident_bytes = sum(self._index.values())

    def _drop(self, digest: str) -> None:
        self.resident_bytes -= self._index.pop(digest, 0)
        for path in (self._data_path(digest), self._sidecar_path(digest)):
            try:
                path.unlink()
            except OSError:
                pass

    # -- the cache protocol ---------------------------------------------------

    def get(self, key: tuple) -> tuple[Any, dict[str, float] | None] | None:
        """The stored ``(value, deltas)`` for ``key``, or ``None``.

        Any validation failure — schema drift, key collision, bad magic,
        truncation, checksum mismatch, a record file without its sidecar
        — deletes the entry and counts as a corrupt miss rather than
        raising.
        """
        with self._lock:
            digest = key_digest(key)
            sidecar_path = self._sidecar_path(digest)
            if not sidecar_path.exists() and not self._data_path(digest).exists():
                self.misses += 1
                metrics().inc("cache.disk_misses")
                return None
            try:
                entry = self._load(key, digest)
            except Exception:
                self._drop(digest)
                self.corrupt += 1
                self.misses += 1
                registry = metrics()
                registry.inc("cache.disk_corrupt")
                registry.inc("cache.disk_misses")
                return None
            self.hits += 1
            metrics().inc("cache.disk_hits")
            if digest in self._index:
                self._index.move_to_end(digest)
            try:
                # Refresh mtime so a directory re-scan preserves LRU order.
                os.utime(sidecar_path)
            except OSError:
                pass
            return entry

    def _load(self, key: tuple, digest: str) -> tuple[Any, dict[str, float] | None]:
        sidecar = json.loads(self._sidecar_path(digest).read_text())
        if sidecar.get("schema") != SIDECAR_SCHEMA:
            raise ValueError(f"sidecar schema {sidecar.get('schema')!r}")
        if sidecar.get("key") != repr(key):
            raise ValueError("key repr mismatch (digest collision or tamper)")
        deltas = sidecar.get("deltas")
        if deltas is not None:
            # Keep JSON-native numeric types: counters incremented with
            # ints must replay as ints, or the canonical counter digest
            # (which distinguishes 162 from 162.0) would drift.
            deltas = {str(name): value for name, value in deltas.items()}
        kind = sidecar.get("kind")
        if kind == "json":
            return sidecar["value"], deltas
        if kind != "table":
            raise ValueError(f"unknown entry kind {kind!r}")
        data_path = self._data_path(digest)
        n_records = int(sidecar["n_records"])
        size = data_path.stat().st_size
        if size != HEADER.size + n_records * RECORD_DTYPE.itemsize:
            raise ValueError(f"data file is {size} bytes, expected header + {n_records} records")
        with data_path.open("rb") as fh:
            magic, count = HEADER.unpack(fh.read(HEADER.size))
        if magic != MAGIC:
            raise ValueError(f"bad magic {magic!r}")
        if count != n_records:
            raise ValueError(f"header declares {count} records, sidecar {n_records}")
        if n_records == 0:
            records = np.empty(0, dtype=RECORD_DTYPE)
        else:
            records = np.memmap(data_path, dtype=RECORD_DTYPE, mode="r", offset=HEADER.size)
        if hashlib.sha256(records).hexdigest() != sidecar["sha256"]:
            raise ValueError("record checksum mismatch")
        return FlowTable.from_structured(records), deltas

    def put(self, key: tuple, value: Any) -> bool:
        """Persist a ``(value, deltas)`` entry; returns True if stored.

        Flow tables use the record lane; JSON-exact values (checked by a
        dump/load round-trip equality) live in the sidecar alone. Everything
        else — event-object lists, numpy-scalar dicts, tables whose AS
        numbers do not fit the packed i32 fields — is declined and stays
        memory-only.
        """
        if not (isinstance(value, tuple) and len(value) == 2):
            return False
        payload, deltas = value
        if deltas is not None and not isinstance(deltas, dict):
            return False
        sidecar: dict[str, Any] = {"schema": SIDECAR_SCHEMA, "key": repr(key), "deltas": deltas}
        records = None
        if isinstance(payload, FlowTable):
            try:
                records = payload.to_structured()
            except ValueError:
                return False
            sidecar.update(kind="table", n_records=len(records), sha256=hashlib.sha256(records).hexdigest())
        else:
            try:
                if json.loads(json.dumps(payload)) != payload:
                    return False
            except (TypeError, ValueError):
                return False
            sidecar.update(kind="json", value=payload)
        encoded = json.dumps(sidecar).encode("utf-8")
        digest = key_digest(key)
        data_path = self._data_path(digest)
        sidecar_path = self._sidecar_path(digest)
        with self._lock:
            tmp_data = data_path.with_suffix(".rfl.tmp")
            tmp_sidecar = sidecar_path.with_suffix(".json.tmp")
            try:
                if records is not None:
                    with tmp_data.open("wb") as fh:
                        fh.write(HEADER.pack(MAGIC, len(records)))
                        fh.write(records.tobytes())
                tmp_sidecar.write_bytes(encoded)
                # Data before sidecar: a crash in between leaves an orphan
                # .rfl that the next get() or directory scan deletes.
                if records is not None:
                    os.replace(tmp_data, data_path)
                else:
                    data_path.unlink(missing_ok=True)
                os.replace(tmp_sidecar, sidecar_path)
            except OSError:
                for tmp in (tmp_data, tmp_sidecar):
                    try:
                        tmp.unlink()
                    except OSError:
                        pass
                return False
            size = len(encoded) + (HEADER.size + records.nbytes if records is not None else 0)
            if digest in self._index:
                self.resident_bytes -= self._index.pop(digest)
            self._index[digest] = size
            self.resident_bytes += size
            self.puts += 1
            registry = metrics()
            registry.inc("cache.disk_puts")
            registry.inc("cache.disk_bytes_stored", size)
            while self.resident_bytes > self.max_bytes and len(self._index) > 1:
                oldest = next(iter(self._index))
                self._drop(oldest)
                self.evictions += 1
                registry.inc("cache.disk_evictions")
            registry.gauge("cache.disk_resident_bytes", self.resident_bytes)
            return True

    # -- maintenance ----------------------------------------------------------

    def clear(self) -> None:
        """Delete every entry and reset the session counters."""
        with self._lock:
            for digest in list(self._index):
                self._drop(digest)
            self.hits = 0
            self.misses = 0
            self.puts = 0
            self.evictions = 0
            self.corrupt = 0
            self.resident_bytes = 0

    def stats(self) -> dict[str, int]:
        """Counters for reporting: entries, hits, misses, puts, corrupt, bytes."""
        with self._lock:
            return {
                "entries": len(self._index),
                "hits": self.hits,
                "misses": self.misses,
                "puts": self.puts,
                "evictions": self.evictions,
                "corrupt": self.corrupt,
                "resident_bytes": self.resident_bytes,
            }

    def __len__(self) -> int:
        return len(self._index)
