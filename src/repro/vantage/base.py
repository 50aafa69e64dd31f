"""Vantage-point base machinery: capture windows and the observe pipeline."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.flows.records import SCHEMA, FlowTable
from repro.flows.sampling import PacketSampler
from repro.netmodel.addressing import PrefixAnonymizer

__all__ = ["CaptureWindow", "VantagePoint"]

SECONDS_PER_DAY = 86_400.0

#: Columns :meth:`VantagePoint.observe` copies from the input unchanged;
#: the counters come from the sampler and ``peer_asn`` from the verdicts.
_GATHERED = tuple(name for name in SCHEMA if name not in ("packets", "bytes", "peer_asn"))


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

    @abstractmethod
    def visibility_filter(
        self, table: FlowTable, pair_index=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Visibility verdicts for ``table``'s flows: ``(mask, peers)``.

        ``mask`` marks the flows this vantage point's export would
        contain; ``peers`` holds each flow's handover neighbor AS (the
        export's ``peer_asn``, -1 unknown). ``pair_index`` optionally
        carries precomputed visibility-matrix indices for ``table``'s ASN
        columns (shared across vantage points).
        """

    def observe(
        self, table: FlowTable, rng: np.random.Generator, pair_index=None
    ) -> FlowTable:
        """Full observation pipeline: visibility, clip, sample, anonymize.

        The exported rows are resolved first (visible, inside the capture
        window, keeping a sampled packet); each exported column is then
        gathered from ``table`` once.
        """
        if len(table) == 0:
            return table
        visible, peers = self.visibility_filter(table, pair_index=pair_index)
        rows = np.flatnonzero(visible)
        rows = rows[self.window.contains_times(table["time"][rows])]
        packets = table["packets"][rows]
        nbytes = table["bytes"][rows]
        if self.sampler.rate_denominator != 1 and rows.size:
            survivors, packets, nbytes = self.sampler.thin(packets, nbytes, rng)
            rows = rows[survivors]
        columns = {name: table[name][rows] for name in _GATHERED}
        columns.update(packets=packets, bytes=nbytes, peer_asn=peers[rows])
        if self.anonymizer is not None and rows.size:
            columns["src_ip"] = self.anonymizer.anonymize_array(columns["src_ip"])
            columns["dst_ip"] = self.anonymizer.anonymize_array(columns["dst_ip"])
        return FlowTable(columns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r}, days [{self.window.start_day}, {self.window.end_day}))"
