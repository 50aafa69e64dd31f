"""One-pass streaming aggregation for trace-scale analysis.

The batch pipeline (:mod:`repro.core.pipeline`) keeps per-day flow tables
long enough to reduce them; at the paper's real scale (834B flows) even
that is generous. :class:`StreamingAnalyzer` consumes observed tables in
a single pass and maintains every aggregate the takedown study needs:

* daily packet sums per (port, direction) selector — Figure 4's input;
* per-destination peak rates (exact) and unique amplification sources
  (HyperLogLog) for the optimistically-classified traffic — Figure 2's
  input, with bounded memory;
* hourly conservative attack counts — Figure 5's input.

The test suite verifies the streaming results against the batch pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.classify import ClassifierThresholds, OptimisticClassifier
from repro.core.pipeline import TrafficSelector
from repro.core.victims import attacks_per_hour
from repro.flows.records import FlowTable
from repro.flows.sketch import PerKeyCardinality
from repro.obs import metrics

__all__ = ["StreamingAnalyzer", "StreamingVictimStats"]

SECONDS_PER_DAY = 86_400.0


@dataclass(frozen=True)
class StreamingVictimStats:
    """Per-destination aggregates accumulated over the stream."""

    destinations: np.ndarray
    unique_sources_estimate: np.ndarray
    peak_bps: np.ndarray
    total_packets: np.ndarray

    def __len__(self) -> int:
        return int(self.destinations.size)


class StreamingAnalyzer:
    """Single-pass accumulator over per-day observed flow tables.

    Args:
        selectors: daily packet-count slices to maintain (Figure 4).
        n_days: scenario length (day index range).
        thresholds: classifier thresholds for the victim/hourly tracks.
        sampling_factor: renormalization for rates (sampled exports).
        sketch_precision: HyperLogLog precision for source counting.
    """

    def __init__(
        self,
        selectors: list[TrafficSelector],
        n_days: int,
        thresholds: ClassifierThresholds = ClassifierThresholds(),
        sampling_factor: float = 1.0,
        sketch_precision: int = 12,
    ) -> None:
        if n_days <= 0:
            raise ValueError("n_days must be positive")
        if sampling_factor <= 0:
            raise ValueError("sampling_factor must be positive")
        names = [s.name for s in selectors]
        if len(set(names)) != len(names):
            raise ValueError("selector names must be unique")
        self.selectors = list(selectors)
        self.n_days = n_days
        self.thresholds = thresholds
        self.sampling_factor = sampling_factor
        self._optimistic = OptimisticClassifier(thresholds)
        self.daily = {s.name: np.zeros(n_days) for s in selectors}
        self.hourly_attacks = np.zeros(n_days * 24, dtype=np.int64)
        self._sources = PerKeyCardinality(precision=sketch_precision)
        self._peak_bytes_per_min: dict[int, float] = {}
        self._total_packets: dict[int, int] = {}
        self._days_seen: set[int] = set()

    def ingest_day(self, day: int, observed: FlowTable) -> None:
        """Consume one day's observed table (each day exactly once)."""
        if not 0 <= day < self.n_days:
            raise ValueError(f"day {day} outside [0, {self.n_days})")
        if day in self._days_seen:
            raise ValueError(f"day {day} ingested twice")
        self._days_seen.add(day)
        registry = metrics()
        if registry.enabled:
            registry.inc("streaming.days_ingested")
            registry.inc("streaming.flows_ingested", len(observed))

        with registry.span("streaming.ingest_day"):
            # Track 1: daily per-selector packet sums.
            for selector in self.selectors:
                self.daily[selector.name][day] = selector.packets(observed)

            # Track 2: per-destination aggregates over amplification traffic.
            amplified = self._optimistic.amplification_flows(observed)
            if len(amplified):
                self._sources.update(amplified["dst_ip"], amplified["src_ip"])
                minute = (amplified["time"] // 60.0).astype(np.int64)
                keys = amplified["dst_ip"].astype(np.int64) * (1 << 32) + minute
                uniq, inverse = np.unique(keys, return_inverse=True)
                per_min = np.zeros(uniq.size)
                np.add.at(per_min, inverse, amplified["bytes"].astype(np.float64))
                dsts = (uniq >> 32).astype(np.uint32)
                # Reduce to one peak / one packet sum per destination before
                # touching the dicts: float max and int64 sum are exact and
                # commutative, so the merged values are bit-identical to the
                # per-event loop this replaces.
                peak_dsts, peak_inverse = np.unique(dsts, return_inverse=True)
                day_peak = np.zeros(peak_dsts.size)
                np.maximum.at(day_peak, peak_inverse, per_min)
                for dst, value in zip(peak_dsts.tolist(), day_peak.tolist()):
                    if value > self._peak_bytes_per_min.get(dst, 0.0):
                        self._peak_bytes_per_min[dst] = value
                pkt_dsts, pkt_inverse = np.unique(
                    amplified["dst_ip"], return_inverse=True
                )
                pkt_sum = np.zeros(pkt_dsts.size, dtype=np.int64)
                np.add.at(pkt_sum, pkt_inverse, amplified["packets"])
                for dst, pkts in zip(pkt_dsts.tolist(), pkt_sum.tolist()):
                    self._total_packets[dst] = self._total_packets.get(dst, 0) + pkts

            # Track 3: hourly conservative attack counts.
            hourly = attacks_per_hour(
                observed,
                day * SECONDS_PER_DAY,
                (day + 1) * SECONDS_PER_DAY,
                thresholds=self.thresholds,
                sampling_factor=self.sampling_factor,
            )
            self.hourly_attacks[day * 24 : (day + 1) * 24] = hourly

    # -- merge protocol -----------------------------------------------------------

    def clone_empty(self) -> "StreamingAnalyzer":
        """A fresh analyzer with identical parameters and no ingested days.

        A clone can ingest a chunk of days on its own and fold back with
        :meth:`merge`.
        """
        return StreamingAnalyzer(
            self.selectors,
            self.n_days,
            thresholds=self.thresholds,
            sampling_factor=self.sampling_factor,
            sketch_precision=self._sources.precision,
        )

    def merge(self, other: "StreamingAnalyzer") -> "StreamingAnalyzer":
        """Fold another analyzer over *disjoint* days into this one.

        Merging the per-chunk analyzers of any partition of a day range,
        in any order, is bit-identical to ingesting the whole range one
        day at a time: selector series and hourly counts occupy disjoint
        day slots, HyperLogLog register merge is a commutative max, and
        the per-destination reductions are max (peaks) and integer sum
        (packets).
        """
        if [s.name for s in other.selectors] != [s.name for s in self.selectors]:
            raise ValueError("cannot merge analyzers with different selectors")
        if other.n_days != self.n_days:
            raise ValueError("cannot merge analyzers with different n_days")
        if other.thresholds != self.thresholds:
            raise ValueError("cannot merge analyzers with different thresholds")
        if other.sampling_factor != self.sampling_factor:
            raise ValueError("cannot merge analyzers with different sampling factors")
        overlap = self._days_seen & other._days_seen
        if overlap:
            raise ValueError(f"cannot merge: days ingested on both sides: {sorted(overlap)}")
        for name in self.daily:
            self.daily[name] += other.daily[name]
        self.hourly_attacks += other.hourly_attacks
        self._sources.merge(other._sources)
        for dst, value in other._peak_bytes_per_min.items():
            if value > self._peak_bytes_per_min.get(dst, 0.0):
                self._peak_bytes_per_min[dst] = value
        for dst, pkts in other._total_packets.items():
            self._total_packets[dst] = self._total_packets.get(dst, 0) + pkts
        self._days_seen |= other._days_seen
        return self

    # -- results -----------------------------------------------------------------

    def daily_series(self, name: str) -> np.ndarray:
        try:
            return self.daily[name]
        except KeyError:
            raise KeyError(f"no selector {name!r} (have {sorted(self.daily)})") from None

    def victim_stats(self) -> StreamingVictimStats:
        """Accumulated per-destination aggregates (sources are estimates)."""
        destinations = np.array(sorted(self._peak_bytes_per_min), dtype=np.uint32)
        peaks = np.array(
            [self._peak_bytes_per_min[int(d)] for d in destinations]
        )
        sources = np.array([self._sources.estimate(int(d)) for d in destinations])
        packets = np.array(
            [self._total_packets[int(d)] for d in destinations], dtype=np.int64
        )
        return StreamingVictimStats(
            destinations=destinations,
            unique_sources_estimate=sources,
            peak_bps=peaks * 8.0 / 60.0,
            total_packets=packets,
        )

    def daily_attack_counts(self) -> np.ndarray:
        """Per-day sums of the hourly conservative counts (Figure 5)."""
        return self.hourly_attacks.reshape(self.n_days, 24).sum(axis=1)
