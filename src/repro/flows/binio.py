"""Binary flow-record IO (NetFlow-v5-style fixed records).

CSV is convenient but bulky; real collectors store fixed-size binary
records. This module defines a compact little-endian on-disk format in
the spirit of NetFlow v5 export packets:

* a 16-byte header: magic ``b"RFL1"``, record count (u32), and a
  reserved area;
* one 50-byte record per flow — the shared :data:`RECORD_DTYPE` layout
  from :mod:`repro.flows.records`: time (f64), src/dst IP (u32),
  packets and bytes (u64 reinterpretations of the schema's i64), ports
  (u16), proto (u8) plus one pad byte, and the AS annotations (i32,
  clamped — NetFlow's AS fields are 16/32-bit too).

Reading validates the magic, the declared record count, and truncation.
Round-trips are exact for all values within field ranges (the FlowTable
schema guarantees IPs/ports/proto fit; AS numbers are stored as i32).
The same header + records framing backs the on-disk day cache
(:mod:`repro.core.diskcache`), so a flow file is literally a dump of a
cached day table.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from repro.flows.records import RECORD_DTYPE, FlowTable

__all__ = ["write_flows_binary", "read_flows_binary", "MAGIC", "HEADER", "RECORD_DTYPE"]

MAGIC = b"RFL1"

#: File/segment header: magic, record count (u32), 8 reserved bytes.
HEADER = struct.Struct("<4sI8x")


def write_flows_binary(table: FlowTable, path: str | Path) -> int:
    """Write ``table`` to ``path`` in the binary format; returns row count.

    AS numbers outside the signed-32-bit range are clamped (real exports
    truncate them the same way).
    """
    path = Path(path)
    records = table.to_structured(clamp_asn=True)
    with path.open("wb") as fh:
        fh.write(HEADER.pack(MAGIC, len(records)))
        fh.write(records.tobytes())
    return len(records)


def read_flows_binary(path: str | Path) -> FlowTable:
    """Read a binary flow file written by :func:`write_flows_binary`."""
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < HEADER.size:
        raise ValueError(f"{path} is too short to be a flow file")
    magic, count = HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise ValueError(f"{path} has bad magic {magic!r} (expected {MAGIC!r})")
    body = raw[HEADER.size :]
    expected = count * RECORD_DTYPE.itemsize
    if len(body) != expected:
        raise ValueError(
            f"{path} is truncated or padded: header declares {count} records "
            f"({expected} bytes), found {len(body)} bytes"
        )
    records = np.frombuffer(body, dtype=RECORD_DTYPE)
    return FlowTable.from_structured(records)
