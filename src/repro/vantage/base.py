"""Vantage-point base machinery: capture windows and the observe pipeline."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.flows.records import SCHEMA, FlowTable
from repro.flows.sampling import PacketSampler
from repro.netmodel.addressing import PrefixAnonymizer
from repro.vantage.matrix import PeerLookup

__all__ = ["CaptureWindow", "VantagePoint"]

SECONDS_PER_DAY = 86_400.0

#: Columns :meth:`VantagePoint.observe` copies from the input unchanged;
#: the counters come from the sampler and ``peer_asn`` from the verdicts.
_GATHERED = tuple(name for name in SCHEMA if name not in ("packets", "bytes", "peer_asn"))


def _gather(tables: list[FlowTable], rows: list[np.ndarray], name: str) -> np.ndarray:
    """Column ``name`` at ``rows[k]`` of each ``tables[k]``, concatenated in order."""
    out = np.empty(sum(r.size for r in rows), dtype=SCHEMA[name])
    pos = 0
    for table, r in zip(tables, rows):
        # Rows come from the table's own masks, so "clip" never clips; it
        # lets take write straight into ``out`` without a bounds buffer.
        np.take(table[name], r, out=out[pos : pos + r.size], mode="clip")
        pos += r.size
    return out


@dataclass(frozen=True)
class CaptureWindow:
    """Day range (inclusive start, exclusive end) a vantage point recorded.

    The paper's traces cover different windows: the IXP 2018-10-27 to
    2019-01-31, the tier-1 ISP only 2018-12-12 to 2018-12-30, the tier-2
    ISP 2018-09-27 to 2019-02-02. Day indices are scenario days.
    """

    start_day: int
    end_day: int

    def __post_init__(self) -> None:
        if self.end_day <= self.start_day:
            raise ValueError("capture window must be non-empty")

    def contains_day(self, day: int) -> bool:
        return self.start_day <= day < self.end_day

    @property
    def n_days(self) -> int:
        return self.end_day - self.start_day

    def contains_times(self, times: np.ndarray) -> np.ndarray:
        """Mask of flow start ``times`` inside the window (half-open)."""
        t0 = self.start_day * SECONDS_PER_DAY
        t1 = self.end_day * SECONDS_PER_DAY
        return (times >= t0) & (times < t1)

    def clip_table(self, table: FlowTable) -> FlowTable:
        """Drop flows outside the window."""
        if len(table) == 0:
            return table
        return table.filter(self.contains_times(table["time"]))


class VantagePoint(ABC):
    """A network whose flow export we analyze.

    The observation pipeline is: visibility (which flows cross this
    network and from which neighbor) -> capture-window clip -> packet
    sampling -> address anonymization. Subclasses implement the
    visibility step.
    """

    def __init__(
        self,
        name: str,
        window: CaptureWindow,
        sampler: PacketSampler,
        anonymizer: PrefixAnonymizer | None,
    ) -> None:
        if not name:
            raise ValueError("vantage point needs a name")
        self.name = name
        self.window = window
        self.sampler = sampler
        self.anonymizer = anonymizer

    @property
    def sampling_factor(self) -> float:
        """What renormalizes this vantage point's sampled rates: N of its
        1-in-N packet sampling."""
        return float(self.sampler.rate_denominator)

    @abstractmethod
    def visibility_filter(
        self, tables: Sequence[FlowTable], indices: Sequence[np.ndarray] | None = None
    ) -> tuple[list[np.ndarray], PeerLookup]:
        """Visibility verdicts for the flows of ``tables``: ``(masks, peers)``.

        ``masks[k]`` marks the flows of ``tables[k]`` this vantage point's
        export would contain; ``peers(rows)`` resolves the handover
        neighbor AS (the export's ``peer_asn``, -1 unknown) of just the
        flows at ``rows[k]`` of each table, concatenated in order.
        ``indices`` optionally carries each table's precomputed
        visibility-matrix pair index (shared across vantage points).
        """

    def observe(
        self,
        tables: Sequence[FlowTable],
        rng: np.random.Generator,
        indices: Sequence[np.ndarray] | None = None,
    ) -> FlowTable:
        """Full observation pipeline: visibility, clip, sample, anonymize.

        Exports what the row-wise concatenation of ``tables`` would
        export, without building it: each table's visible rows are
        clipped to the capture window, one sampler draw covers the
        selected rows of every table in order, and each exported column
        (``peer_asn`` included) is gathered only for the surviving rows.
        A lone table is a one-element sequence; ``indices`` is as in
        :meth:`visibility_filter`.
        """
        if isinstance(tables, FlowTable):
            raise TypeError("observe takes a sequence of tables; pass a lone table as [table]")
        tables = list(tables)
        if indices is not None:
            indices = list(indices)
            if len(indices) != len(tables) or any(
                index.shape != (len(table),) for index, table in zip(indices, tables)
            ):
                raise ValueError("pair indices do not match the tables")
        masks, peers = self.visibility_filter(tables, indices)
        rows = []
        for table, mask in zip(tables, masks):
            visible = np.flatnonzero(mask)
            rows.append(visible[self.window.contains_times(table["time"][visible])])
        packets = _gather(tables, rows, "packets")
        nbytes = _gather(tables, rows, "bytes")
        if self.sampler.rate_denominator != 1 and packets.size:
            survivors, packets, nbytes = self.sampler.thin(packets, nbytes, rng)
            bounds = np.cumsum([r.size for r in rows])[:-1]
            rows = [r[kept] for r, kept in zip(rows, np.split(survivors, bounds))]
        columns = {name: _gather(tables, rows, name) for name in _GATHERED}
        columns.update(packets=packets, bytes=nbytes, peer_asn=peers(rows))
        if self.anonymizer is not None and packets.size:
            columns["src_ip"] = self.anonymizer.anonymize_array(columns["src_ip"])
            columns["dst_ip"] = self.anonymizer.anonymize_array(columns["dst_ip"])
        return FlowTable(columns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r}, days [{self.window.start_day}, {self.window.end_day}))"
