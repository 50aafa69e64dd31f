"""Time binning and per-destination aggregation of flow tables.

These are the workhorse aggregations behind the paper's figures:

* fixed-bin packet or byte sums of a trace,
* per-destination unique-source counts and peak traffic rates within
  one-minute bins (Figures 2b/2c and the conservative classifier),
* per-hour counts of systems under attack (Figure 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.flows.records import FlowTable

__all__ = [
    "bin_timeseries",
    "DestinationStats",
    "per_destination_stats",
    "SourcePeaks",
    "source_peaks",
]


def bin_timeseries(
    table: FlowTable,
    t0: float,
    t1: float,
    bin_seconds: float,
    value: str = "packets",
) -> np.ndarray:
    """Sum ``value`` ('packets' or 'bytes') into fixed bins over ``[t0, t1)``.

    Flows outside the window are ignored. Returns an array of
    ``ceil((t1 - t0) / bin_seconds)`` sums.
    """
    if t1 <= t0:
        raise ValueError("t1 must be after t0")
    if bin_seconds <= 0:
        raise ValueError("bin_seconds must be positive")
    if value not in ("packets", "bytes"):
        raise ValueError(f"value must be 'packets' or 'bytes', got {value!r}")
    n_bins = int(np.ceil((t1 - t0) / bin_seconds))
    out = np.zeros(n_bins, dtype=np.float64)
    if len(table) == 0:
        return out
    times = table["time"]
    inside = (times >= t0) & (times < t1)
    idx = ((times[inside] - t0) / bin_seconds).astype(np.int64)
    np.add.at(out, idx, table[value][inside].astype(np.float64))
    return out


@dataclass(frozen=True)
class DestinationStats:
    """Per-destination aggregates over a trace.

    Arrays are aligned: element ``i`` of every array describes
    ``destinations[i]``.

    Attributes:
        destinations: unique destination addresses.
        unique_sources: number of distinct source addresses seen per dst.
        max_sources_per_bin: max distinct sources within any single time bin.
        peak_bps: max traffic rate (bits/second) over any single time bin.
        total_packets: packet sum per destination.
        total_bytes: byte sum per destination.
    """

    destinations: np.ndarray
    unique_sources: np.ndarray
    max_sources_per_bin: np.ndarray
    peak_bps: np.ndarray
    total_packets: np.ndarray
    total_bytes: np.ndarray

    def __len__(self) -> int:
        return int(self.destinations.size)

    def filter(self, mask: np.ndarray) -> "DestinationStats":
        mask = np.asarray(mask)
        if mask.dtype != np.bool_ or mask.shape != (len(self),):
            raise ValueError("mask must be boolean of matching length")
        return DestinationStats(
            destinations=self.destinations[mask],
            unique_sources=self.unique_sources[mask],
            max_sources_per_bin=self.max_sources_per_bin[mask],
            peak_bps=self.peak_bps[mask],
            total_packets=self.total_packets[mask],
            total_bytes=self.total_bytes[mask],
        )


class SourcePeaks(NamedTuple):
    """Distinct sources and peak rate per flow group: what the
    conservative rules read (see :func:`source_peaks`)."""

    unique_sources: np.ndarray
    peak_bps: np.ndarray


def source_peaks(
    group: np.ndarray,
    n_groups: int,
    srcs: np.ndarray,
    bin_idx: np.ndarray,
    nbytes: np.ndarray,
    bin_seconds: float,
) -> SourcePeaks:
    """Distinct sources and peak ``bin_seconds`` rate of each flow group.

    ``group`` assigns every flow to one of ``n_groups`` groups (a
    destination, or an (hour, destination) pair), ``bin_idx`` to its
    time bin. Bytes are summed per (group, bin) in row order; a group's
    peak is its largest bin, in bits per second.
    """
    pair_keys = group.astype(np.uint64) << np.uint64(32) | srcs.astype(np.uint64)
    pair_group = (np.unique(pair_keys) >> np.uint64(32)).astype(np.int64)
    unique_sources = np.bincount(pair_group, minlength=n_groups).astype(np.int64)

    n_bins = int(bin_idx.max()) + 1
    gb_keys = group.astype(np.int64) * n_bins + bin_idx
    uniq_gb, gb_inverse = np.unique(gb_keys, return_inverse=True)
    bytes_per_gb = np.zeros(uniq_gb.size)
    np.add.at(bytes_per_gb, gb_inverse, nbytes)
    peak_bytes = np.zeros(n_groups)
    np.maximum.at(peak_bytes, uniq_gb // n_bins, bytes_per_gb)
    return SourcePeaks(unique_sources, peak_bytes * 8.0 / bin_seconds)


def per_destination_stats(table: FlowTable, bin_seconds: float = 60.0) -> DestinationStats:
    """Aggregate a trace per destination IP with ``bin_seconds`` time bins.

    The paper uses one-minute bins for both the per-destination peak
    traffic level ("max traffic level in Gbps over one minute") and the
    per-bin amplifier counts ("max number of amplifiers per attack target
    within one minute bins").
    """
    if bin_seconds <= 0:
        raise ValueError("bin_seconds must be positive")
    if len(table) == 0:
        empty_u = np.empty(0, dtype=np.uint32)
        empty_i = np.empty(0, dtype=np.int64)
        empty_f = np.empty(0, dtype=np.float64)
        return DestinationStats(empty_u, empty_i, empty_i, empty_f, empty_i.copy(), empty_i.copy())

    dsts = table["dst_ip"]
    srcs = table["src_ip"]
    times = table["time"]
    packets = table["packets"].astype(np.float64)
    nbytes = table["bytes"].astype(np.float64)

    destinations, dst_idx = np.unique(dsts, return_inverse=True)
    n_dst = destinations.size

    total_packets = np.zeros(n_dst)
    total_bytes = np.zeros(n_dst)
    np.add.at(total_packets, dst_idx, packets)
    np.add.at(total_bytes, dst_idx, nbytes)

    # Time-binned aggregates: bins aligned to absolute bin_seconds
    # boundaries, so results don't depend on the first flow's timestamp
    # and per-day passes compose with whole-trace passes.
    t0 = np.floor(float(times.min()) / bin_seconds) * bin_seconds
    bin_idx = ((times - t0) / bin_seconds).astype(np.int64)
    peaks = source_peaks(dst_idx, n_dst, srcs, bin_idx, nbytes, bin_seconds)

    # Max distinct sources within one bin: unique (dst, bin, src) triples,
    # counted per (dst, bin), then max over bins.
    n_bins = int(bin_idx.max()) + 1
    db_keys = dst_idx.astype(np.int64) * n_bins + bin_idx
    triple_keys = (db_keys.astype(np.uint64) << np.uint64(32)) | srcs.astype(np.uint64)
    uniq_triples = np.unique(triple_keys)
    triple_db = (uniq_triples >> np.uint64(32)).astype(np.int64)
    uniq_db_sorted, counts = np.unique(triple_db, return_counts=True)
    max_sources = np.zeros(n_dst, dtype=np.int64)
    np.maximum.at(max_sources, uniq_db_sorted // n_bins, counts)

    return DestinationStats(
        destinations=destinations,
        unique_sources=peaks.unique_sources,
        max_sources_per_bin=max_sources,
        peak_bps=peaks.peak_bps,
        total_packets=total_packets.astype(np.int64),
        total_bytes=total_bytes.astype(np.int64),
    )
