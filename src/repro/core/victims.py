"""Victim characterization (Figures 2b/2c) and attacks-per-hour (Figure 5)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.classify import ClassifierThresholds, ConservativeClassifier, OptimisticClassifier
from repro.flows.records import FlowTable
from repro.flows.timeseries import DestinationStats, per_destination_stats, source_peaks
from repro.netmodel.asn import ASRegistry

__all__ = ["VictimReport", "victim_report", "attacks_per_hour", "victim_asn_breakdown"]

SECONDS_PER_HOUR = 3600.0


@dataclass(frozen=True)
class VictimReport:
    """Per-destination victim characterization of one trace.

    All rates are renormalized by ``sampling_factor``.

    Attributes:
        stats: per-destination aggregates of the amplification traffic.
        sampling_factor: renormalization applied to byte/packet rates.
        n_destinations: victims receiving any amplification traffic.
    """

    stats: DestinationStats
    sampling_factor: float

    @property
    def n_destinations(self) -> int:
        return len(self.stats)

    @property
    def peak_gbps(self) -> np.ndarray:
        """Per-victim peak one-minute rate in Gbps (renormalized)."""
        return self.stats.peak_bps * self.sampling_factor / 1e9

    @property
    def unique_sources(self) -> np.ndarray:
        return self.stats.unique_sources

    @property
    def max_sources_per_bin(self) -> np.ndarray:
        return self.stats.max_sources_per_bin

    def max_victim_gbps(self) -> float:
        return float(self.peak_gbps.max()) if self.n_destinations else 0.0

    def victims_above_gbps(self, gbps: float) -> int:
        return int((self.peak_gbps > gbps).sum())


def victim_report(
    table: FlowTable,
    thresholds: ClassifierThresholds = ClassifierThresholds(),
    bin_seconds: float = 60.0,
    sampling_factor: float = 1.0,
) -> VictimReport:
    """Characterize victims of amplification traffic in ``table``.

    Applies the optimistic classifier (this is Figure 2b's population:
    everyone receiving NTP reflection traffic), then aggregates per
    destination with one-minute bins.
    """
    if sampling_factor <= 0:
        raise ValueError("sampling_factor must be positive")
    amplified = OptimisticClassifier(thresholds).amplification_flows(table)
    stats = per_destination_stats(amplified, bin_seconds=bin_seconds)
    return VictimReport(stats=stats, sampling_factor=sampling_factor)


def victim_asn_breakdown(
    report: VictimReport, registry: ASRegistry
) -> dict[str, dict[str, float]]:
    """Victimization per AS role (in the spirit of Noroozian et al. 2016).

    Resolves the report's destinations against the registry and groups by
    the owning AS's role ("stub", "tier2", ..., "unknown" for anonymized
    or unregistered space). Returns, per role: victim count, share of all
    victims, and the summed peak Gbps absorbed.
    """
    if report.n_destinations == 0:
        return {}
    asns = registry.resolve_addresses(report.stats.destinations)
    roles = np.array(
        [registry.get(int(a)).role.value if a >= 0 else "unknown" for a in asns]
    )
    out: dict[str, dict[str, float]] = {}
    total = report.n_destinations
    for role in np.unique(roles):
        mask = roles == role
        out[str(role)] = {
            "victims": float(mask.sum()),
            "share": float(mask.sum() / total),
            "peak_gbps_sum": float(report.peak_gbps[mask].sum()),
        }
    return out


def attacks_per_hour(
    table: FlowTable,
    t0: float,
    t1: float,
    thresholds: ClassifierThresholds = ClassifierThresholds(),
    sampling_factor: float = 1.0,
    bin_seconds: float = 60.0,
) -> np.ndarray:
    """Systems under NTP DDoS attack per hour (Figure 5).

    For each hour in ``[t0, t1)``, counts destinations that — within that
    hour — receive optimistically-classified traffic passing both
    conservative rules (>10 sources, >1 Gbps one-minute peak,
    renormalized).
    """
    if t1 <= t0:
        raise ValueError("t1 must be after t0")
    if bin_seconds <= 0:
        raise ValueError("bin_seconds must be positive")
    n_hours = int(np.ceil((t1 - t0) / SECONDS_PER_HOUR))
    counts = np.zeros(n_hours, dtype=np.int64)
    # The four columns this pass reads, under the amplification mask,
    # without copying the table's other columns.
    times = table["time"]
    rows = OptimisticClassifier(thresholds).amplification_mask(table)
    rows &= (times >= t0) & (times < t1)
    if not rows.any():
        return counts
    times = times[rows]
    dsts = table["dst_ip"][rows]
    hours = ((times - t0) / SECONDS_PER_HOUR).astype(np.int64)
    # Each hour's bins start at its earliest flow, floored to a bin
    # boundary: per_destination_stats over that hour's flows alone bins
    # them so, and anchoring alike keeps the float bin indices identical.
    first = np.full(n_hours, np.inf)
    np.minimum.at(first, hours, times)
    anchors = np.floor(first / bin_seconds) * bin_seconds
    bins = ((times - anchors[hours]) / bin_seconds).astype(np.int64)
    keys = hours.astype(np.uint64) << np.uint64(32) | dsts.astype(np.uint64)
    groups, group_idx = np.unique(keys, return_inverse=True)
    peaks = source_peaks(
        group_idx,
        groups.size,
        table["src_ip"][rows],
        bins,
        table["bytes"][rows].astype(np.float64),
        bin_seconds,
    )
    attacked = ConservativeClassifier(thresholds).destination_mask(peaks, sampling_factor)
    np.add.at(counts, (groups[attacked] >> np.uint64(32)).astype(np.int64), 1)
    return counts
