"""NTP DDoS classification: the optimistic and conservative filters.

Section 4 of the paper derives two classifiers from the self-attacks:

* **Optimistic** — amplified NTP (monlist) packets are 486/490 bytes while
  benign NTP is under ~200 bytes; any flow on the NTP port whose mean
  packet size exceeds 200 bytes counts as amplification traffic. Cheap,
  per-flow, but scanning/monitoring of monlists and odd applications on
  port 123 contaminate it.
* **Conservative** — per *destination*: peak traffic above 1 Gbps AND
  more than 10 distinct amplifiers. High precision at the cost of
  missing small attacks; the paper uses it for the Figure 5 null result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.flows.records import FlowTable
from repro.flows.timeseries import DestinationStats, SourcePeaks
from repro.protocols.amplification import UDP

__all__ = ["ClassifierThresholds", "OptimisticClassifier", "ConservativeClassifier"]


@dataclass(frozen=True)
class ClassifierThresholds:
    """Tunable thresholds shared by the classifiers.

    Attributes:
        port: reflector-side UDP port (123 for NTP).
        min_mean_packet_size: optimistic rule — flows whose mean packet
            size exceeds this are amplification candidates (exclusive
            bound, the paper's "> 200 bytes").
        min_peak_gbps: conservative rule (a) — peak one-minute traffic to
            the destination must exceed this.
        min_sources: conservative rule (b) — number of distinct amplifiers
            must exceed this (strictly more than 10 in the paper).
    """

    port: int = 123
    min_mean_packet_size: float = 200.0
    min_peak_gbps: float = 1.0
    min_sources: int = 10

    def __post_init__(self) -> None:
        if not 0 < self.port < 65536:
            raise ValueError(f"port out of range: {self.port}")
        if self.min_mean_packet_size < 0:
            raise ValueError("min_mean_packet_size cannot be negative")
        if self.min_peak_gbps < 0:
            raise ValueError("min_peak_gbps cannot be negative")
        if self.min_sources < 0:
            raise ValueError("min_sources cannot be negative")


class OptimisticClassifier:
    """Per-flow amplification filter (port + packet-size threshold)."""

    def __init__(self, thresholds: ClassifierThresholds = ClassifierThresholds()) -> None:
        self.thresholds = thresholds

    def amplification_mask(self, table: FlowTable) -> np.ndarray:
        """Rows of ``table`` that :meth:`amplification_flows` keeps."""
        return (
            (table["proto"] == UDP)
            & (table["src_port"] == self.thresholds.port)
            & (table.mean_packet_sizes() > self.thresholds.min_mean_packet_size)
        )

    def amplification_flows(self, table: FlowTable) -> FlowTable:
        """Flows from reflectors to victims that look amplified."""
        return table.filter(self.amplification_mask(table))


class ConservativeClassifier:
    """Per-destination filter: >1 Gbps peak AND >10 amplifiers.

    Operates on :class:`~repro.flows.timeseries.DestinationStats` computed
    from optimistically-filtered flows. ``sampling_factor`` renormalizes
    sampled traffic rates (the IXP trace is 1-in-10k sampled) before the
    Gbps threshold is applied; source counts are *not* renormalized — a
    sampled trace can only undercount sources, exactly as in the paper.
    """

    def __init__(self, thresholds: ClassifierThresholds = ClassifierThresholds()) -> None:
        self.thresholds = thresholds

    def destination_mask(
        self, stats: DestinationStats | SourcePeaks, sampling_factor: float = 1.0
    ) -> np.ndarray:
        """Destinations (or (hour, destination) groups) passing both rules."""
        if sampling_factor <= 0:
            raise ValueError("sampling_factor must be positive")
        peak_gbps = stats.peak_bps * sampling_factor / 1e9
        rule_a = peak_gbps > self.thresholds.min_peak_gbps
        rule_b = stats.unique_sources > self.thresholds.min_sources
        return rule_a & rule_b

    def classify(
        self, stats: DestinationStats, sampling_factor: float = 1.0
    ) -> DestinationStats:
        """Destinations passing both conservative rules."""
        return stats.filter(self.destination_mask(stats, sampling_factor))

    def rule_reductions(
        self, stats: DestinationStats, sampling_factor: float = 1.0
    ) -> dict[str, float]:
        """Fractional destination reduction per rule combination.

        The paper reports: both rules cut destinations by 78%, rule (a)
        alone by 74%, rule (b) alone by 59%.
        """
        if len(stats) == 0:
            return {"rule_a_only": 0.0, "rule_b_only": 0.0, "both": 0.0}
        if sampling_factor <= 0:
            raise ValueError("sampling_factor must be positive")
        peak_gbps = stats.peak_bps * sampling_factor / 1e9
        rule_a = peak_gbps > self.thresholds.min_peak_gbps
        rule_b = stats.unique_sources > self.thresholds.min_sources
        n = len(stats)
        return {
            "rule_a_only": 1.0 - rule_a.sum() / n,
            "rule_b_only": 1.0 - rule_b.sum() / n,
            "both": 1.0 - (rule_a & rule_b).sum() / n,
        }
