"""Columnar flow records.

A :class:`FlowTable` holds one column per flow attribute as a numpy array,
which keeps multi-million-flow traces workable in pure Python. The schema
mirrors what the paper's vantage points actually export:

======== =========== ====================================================
column    dtype       meaning
======== =========== ====================================================
time      float64     flow start, seconds since epoch
src_ip    uint32      source address (possibly anonymized)
dst_ip    uint32      destination address (possibly anonymized)
proto     uint8       IP protocol (17 = UDP)
src_port  uint16      transport source port
dst_port  uint16      transport destination port
packets   int64       packet count (post-sampling if sampled)
bytes     int64       byte count (post-sampling if sampled)
src_asn   int64       origin AS of src_ip (-1 unknown)
dst_asn   int64       origin AS of dst_ip (-1 unknown)
peer_asn  int64       AS handing the flow to the observer (-1 unknown)
======== =========== ====================================================

``peer_asn`` models NetFlow's ingress-interface metadata at AS granularity
— it is how the paper counts "peers handing over attack traffic".

Besides the columnar dict, a table has one single-buffer serialization:
a contiguous structured array of :data:`RECORD_DTYPE`, the same 50-byte
packed record the binary file format (:mod:`repro.flows.binio`) writes
to disk; the persistent day cache (:mod:`repro.core.diskcache`) moves
tables in this interchange layout. Between processes a table pickles as
its column dict.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

__all__ = ["FlowTable", "RECORD_DTYPE", "SCHEMA"]

SCHEMA: dict[str, np.dtype] = {
    "time": np.dtype(np.float64),
    "src_ip": np.dtype(np.uint32),
    "dst_ip": np.dtype(np.uint32),
    "proto": np.dtype(np.uint8),
    "src_port": np.dtype(np.uint16),
    "dst_port": np.dtype(np.uint16),
    "packets": np.dtype(np.int64),
    "bytes": np.dtype(np.int64),
    "src_asn": np.dtype(np.int64),
    "dst_asn": np.dtype(np.int64),
    "peer_asn": np.dtype(np.int64),
}

_DEFAULTS = {"src_asn": -1, "dst_asn": -1, "peer_asn": -1}

#: One packed flow record, little-endian, 50 bytes: the layout of the
#: on-disk binary format and of the disk cache's table entries. Counters are stored as u64 (two's-complement reinterpretation
#: of the schema's i64 — exact for every value); AS numbers are stored as
#: i32, which covers 4-byte ASNs and the -1 "unknown" sentinel but NOT the
#: full i64 schema range, so the exact serializers validate the range and
#: only :func:`repro.flows.binio.write_flows_binary` clamps.
RECORD_DTYPE = np.dtype(
    [
        ("time", "<f8"),
        ("src_ip", "<u4"),
        ("dst_ip", "<u4"),
        ("packets", "<u8"),
        ("bytes", "<u8"),
        ("src_port", "<u2"),
        ("dst_port", "<u2"),
        ("proto", "u1"),
        ("_pad", "u1"),
        ("src_asn", "<i4"),
        ("dst_asn", "<i4"),
        ("peer_asn", "<i4"),
    ]
)

_ASN_FIELDS = ("src_asn", "dst_asn", "peer_asn")
_ASN_MIN = -(2**31)
_ASN_MAX = 2**31 - 1

class FlowTable:
    """Immutable-by-convention columnar flow trace.

    Construction validates dtypes and column alignment. All transformation
    methods return new tables; columns are never mutated in place after
    construction (callers hold references).
    """

    __slots__ = ("_columns",)

    def __init__(self, columns: Mapping[str, np.ndarray]) -> None:
        cols: dict[str, np.ndarray] = {}
        missing = [name for name in SCHEMA if name not in columns and name not in _DEFAULTS]
        if missing:
            raise ValueError(f"missing columns: {missing}")
        unknown = [name for name in columns if name not in SCHEMA]
        if unknown:
            raise ValueError(f"unknown columns: {unknown}")
        length: int | None = None
        for name, dtype in SCHEMA.items():
            if name in columns:
                arr = np.asarray(columns[name])
                if arr.ndim != 1:
                    raise ValueError(f"column {name!r} must be 1-D")
                arr = arr.astype(dtype, copy=False)
            else:
                arr = None  # filled after length is known
            if arr is not None:
                if length is None:
                    length = arr.size
                elif arr.size != length:
                    raise ValueError(
                        f"column {name!r} has {arr.size} rows, expected {length}"
                    )
            cols[name] = arr
        if length is None:
            length = 0
        for name, default in _DEFAULTS.items():
            if cols[name] is None:
                cols[name] = np.full(length, default, dtype=SCHEMA[name])
        self._columns = cols

    # -- constructors -------------------------------------------------------

    @classmethod
    def _from_validated(cls, columns: dict[str, np.ndarray]) -> "FlowTable":
        """Trusted constructor: skip per-column casting and default filling.

        Only for call sites that guarantee schema-exact columns
        (``concat``, ``filter``, ...). Misuse is still rejected —
        the guards below are O(#columns) identity checks, not copies.
        """
        length = -1
        for name, dtype in SCHEMA.items():
            arr = columns.get(name)
            if not isinstance(arr, np.ndarray) or arr.dtype != dtype or arr.ndim != 1:
                raise ValueError(
                    f"_from_validated: column {name!r} must be a 1-D ndarray "
                    f"of dtype {dtype}"
                )
            if length < 0:
                length = arr.size
            elif arr.size != length:
                raise ValueError(
                    f"_from_validated: column {name!r} has {arr.size} rows, "
                    f"expected {length}"
                )
        if len(columns) != len(SCHEMA):
            unknown = sorted(set(columns) - set(SCHEMA))
            raise ValueError(f"_from_validated: unknown columns: {unknown}")
        table = cls.__new__(cls)
        table._columns = dict(columns)
        return table

    @staticmethod
    def empty() -> "FlowTable":
        return FlowTable._from_validated(
            {name: np.empty(0, dtype=dt) for name, dt in SCHEMA.items()}
        )

    # -- structured-array serialization ----------------------------------------

    def to_structured(self, clamp_asn: bool = False) -> np.ndarray:
        """This table as one contiguous :data:`RECORD_DTYPE` structured array.

        The single-buffer form of the binary file format and the disk
        cache. Counters reinterpret to u64 (exact for all i64 values); AS
        numbers narrow to i32, which by default raises :class:`ValueError`
        if any value is outside ``[-2^31, 2^31 - 1]`` so the conversion is
        always bit-exact.
        ``clamp_asn=True`` clamps instead — the lossy behaviour of real
        NetFlow exports, used by the on-disk writer.
        """
        cols = self._columns
        records = np.empty(len(self), dtype=RECORD_DTYPE)
        records["time"] = cols["time"]
        records["src_ip"] = cols["src_ip"]
        records["dst_ip"] = cols["dst_ip"]
        records["packets"] = cols["packets"].view(np.uint64)
        records["bytes"] = cols["bytes"].view(np.uint64)
        records["src_port"] = cols["src_port"]
        records["dst_port"] = cols["dst_port"]
        records["proto"] = cols["proto"]
        records["_pad"] = 0
        for name in _ASN_FIELDS:
            col = cols[name]
            if clamp_asn:
                records[name] = np.clip(col, _ASN_MIN, _ASN_MAX).astype(np.int32)
            else:
                if col.size and (int(col.min()) < _ASN_MIN or int(col.max()) > _ASN_MAX):
                    raise ValueError(
                        f"column {name!r} has AS numbers outside the packed "
                        f"int32 range [{_ASN_MIN}, {_ASN_MAX}]; pass "
                        f"clamp_asn=True to truncate like a NetFlow export"
                    )
                records[name] = col.astype(np.int32)
        return records

    @classmethod
    def from_structured(cls, records: np.ndarray, copy: bool = False) -> "FlowTable":
        """Rebuild a table from a :data:`RECORD_DTYPE` structured array.

        Zero-copy where the layouts agree: time/IP/port/proto columns are
        strided views into ``records``, and the u64 counters reinterpret
        in place as i64; only the three i32 AS columns widen (a copy).
        The views keep ``records`` (and whatever backs it, such as an
        ``np.memmap`` of a cache file) alive. ``copy=True`` materializes
        independent contiguous columns instead.
        """
        records = np.asarray(records)
        if records.dtype != RECORD_DTYPE:
            raise ValueError(
                f"expected records of dtype RECORD_DTYPE "
                f"({RECORD_DTYPE.itemsize} bytes/record), got {records.dtype}"
            )
        if records.ndim != 1:
            raise ValueError("records must be a 1-D structured array")
        cols = {
            "time": records["time"],
            "src_ip": records["src_ip"],
            "dst_ip": records["dst_ip"],
            "proto": records["proto"],
            "src_port": records["src_port"],
            "dst_port": records["dst_port"],
            "packets": records["packets"].view(np.int64),
            "bytes": records["bytes"].view(np.int64),
            "src_asn": records["src_asn"].astype(np.int64),
            "dst_asn": records["dst_asn"].astype(np.int64),
            "peer_asn": records["peer_asn"].astype(np.int64),
        }
        if copy:
            cols = {name: np.ascontiguousarray(arr) for name, arr in cols.items()}
        return cls._from_validated(cols)

    @staticmethod
    def concat(tables) -> "FlowTable":
        """Concatenate tables (row-wise); accepts any iterable of tables.

        Output columns are preallocated once at the total length and
        filled by slice assignment, so concatenating many small tables
        (or tables that are themselves concat results) copies each row
        exactly once instead of re-running validation and
        ``np.concatenate`` per column per level.
        """
        tables = [t for t in tables if len(t)]
        if not tables:
            return FlowTable.empty()
        if len(tables) == 1:
            return tables[0]
        total = sum(len(t) for t in tables)
        cols: dict[str, np.ndarray] = {}
        for name, dtype in SCHEMA.items():
            out = np.empty(total, dtype=dtype)
            pos = 0
            for t in tables:
                n = len(t)
                out[pos : pos + n] = t._columns[name]
                pos += n
            cols[name] = out
        return FlowTable._from_validated(cols)

    # -- basic protocol -------------------------------------------------------

    def __len__(self) -> int:
        return int(self._columns["time"].size)

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(f"no column {name!r}") from None

    def __repr__(self) -> str:
        return f"FlowTable({len(self)} flows)"

    # -- aggregate properties ---------------------------------------------------

    @property
    def total_packets(self) -> int:
        return int(self._columns["packets"].sum())

    def mean_packet_sizes(self) -> np.ndarray:
        """Per-flow mean packet size in bytes (0 for empty flows)."""
        packets = self._columns["packets"]
        with np.errstate(divide="ignore", invalid="ignore"):
            sizes = np.where(packets > 0, self._columns["bytes"] / np.maximum(packets, 1), 0.0)
        return sizes

    # -- transformations -------------------------------------------------------

    def filter(self, mask: np.ndarray) -> "FlowTable":
        """Rows where ``mask`` is True."""
        mask = np.asarray(mask)
        if mask.dtype != np.bool_ or mask.shape != (len(self),):
            raise ValueError("mask must be a boolean array of table length")
        if mask.all():
            # Tables are immutable by convention (as in concat's
            # single-table passthrough), so an all-True filter can skip
            # re-copying every column.
            return self
        return FlowTable._from_validated(
            {name: col[mask] for name, col in self._columns.items()}
        )

    def select(
        self,
        proto: int | None = None,
        src_port: int | None = None,
        dst_port: int | None = None,
        dst_ip: int | None = None,
        src_asn: int | None = None,
        time_range: tuple[float, float] | None = None,
        min_packet_size: float | None = None,
        max_packet_size: float | None = None,
    ) -> "FlowTable":
        """Convenience conjunctive filter over common criteria.

        ``time_range`` is half-open ``[t0, t1)``; packet-size bounds apply
        to per-flow mean packet sizes (``min`` inclusive via ``>`` as in the
        paper's "> 200 bytes" rule — exclusive lower bound).
        """
        mask = np.ones(len(self), dtype=bool)
        cols = self._columns
        if proto is not None:
            mask &= cols["proto"] == proto
        if src_port is not None:
            mask &= cols["src_port"] == src_port
        if dst_port is not None:
            mask &= cols["dst_port"] == dst_port
        if dst_ip is not None:
            mask &= cols["dst_ip"] == np.uint32(dst_ip)
        if src_asn is not None:
            mask &= cols["src_asn"] == src_asn
        if time_range is not None:
            t0, t1 = time_range
            if t1 < t0:
                raise ValueError("time_range must be ordered")
            mask &= (cols["time"] >= t0) & (cols["time"] < t1)
        if min_packet_size is not None or max_packet_size is not None:
            sizes = self.mean_packet_sizes()
            if min_packet_size is not None:
                mask &= sizes > min_packet_size
            if max_packet_size is not None:
                mask &= sizes <= max_packet_size
        return self.filter(mask)

    def sort_by_time(self) -> "FlowTable":
        order = np.argsort(self._columns["time"], kind="stable")
        return FlowTable._from_validated(
            {name: col[order] for name, col in self._columns.items()}
        )

    def scale_counts(self, factor: float) -> "FlowTable":
        """Multiply packet/byte counters by ``factor`` (sampling renormalization)."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        cols = dict(self._columns)
        cols["packets"] = np.round(self._columns["packets"] * factor).astype(np.int64)
        cols["bytes"] = np.round(self._columns["bytes"] * factor).astype(np.int64)
        return FlowTable._from_validated(cols)

    def with_columns(self, **overrides: np.ndarray) -> "FlowTable":
        """Replace whole columns (e.g. anonymized addresses)."""
        cols = dict(self._columns)
        for name, arr in overrides.items():
            if name not in SCHEMA:
                raise KeyError(f"no column {name!r}")
            cols[name] = arr
        return FlowTable(cols)
