"""Packet sampling of flow traces.

IXPs export *sampled* IPFIX (the paper's IXP samples packets at a fixed
rate and notes that attack volumes must be scaled up accordingly).
:class:`PacketSampler` applies random packet sampling to a
:class:`~repro.flows.records.FlowTable`: each packet of each flow survives
independently with probability ``1/rate_denominator``, so a flow's sampled
packet count is binomial. Flows that lose every packet disappear from the
export — exactly the visibility loss real sampled traces suffer for small
flows (and why the paper's small-attack tails are undercounted).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.flows.records import FlowTable

__all__ = ["PacketSampler"]


@dataclass(frozen=True)
class PacketSampler:
    """1-in-N random packet sampling.

    Attributes:
        rate_denominator: N; every packet is exported with probability 1/N.
            N = 1 is pass-through.
    """

    rate_denominator: int

    def __post_init__(self) -> None:
        if self.rate_denominator < 1:
            raise ValueError(f"rate denominator must be >= 1, got {self.rate_denominator}")

    @property
    def probability(self) -> float:
        return 1.0 / self.rate_denominator

    def thin(
        self, packets: np.ndarray, nbytes: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sample flows given by their counters: the one thinning rule.

        Draws every flow's sampled packet count with one
        ``rng.binomial(packets, 1/N)`` call, in the order given, and
        returns ``(survivors, packets, bytes)``: the mask of flows that
        keep at least one packet and those flows' thinned counters. Bytes
        are thinned proportionally to the per-flow mean packet size,
        ``round(sampled * (bytes / packets))``, which is exact for flows
        of uniform packet size (our synthesized flows) and a standard
        estimator otherwise.
        """
        sampled = rng.binomial(packets, self.probability)
        survivors = sampled > 0
        kept = sampled[survivors].astype(np.int64, copy=False)
        mean_size = nbytes[survivors] / packets[survivors]
        return survivors, kept, np.round(kept * mean_size).astype(np.int64)

    def apply(self, table: FlowTable, rng: np.random.Generator) -> FlowTable:
        """Sample ``table``; returns surviving flows with thinned counters
        (see :meth:`thin`)."""
        if self.rate_denominator == 1 or len(table) == 0:
            return table
        survivors, packets, nbytes = self.thin(table["packets"], table["bytes"], rng)
        if not survivors.any():
            return FlowTable.empty()
        return table.filter(survivors).with_columns(packets=packets, bytes=nbytes)

    def renormalize(self, table: FlowTable) -> FlowTable:
        """Scale sampled counters back to population estimates (xN)."""
        return table.scale_counts(float(self.rate_denominator))

    def expected_flow_survival(self, packets: int) -> float:
        """Probability that a flow of ``packets`` packets appears at all."""
        if packets < 0:
            raise ValueError("packets must be non-negative")
        return 1.0 - (1.0 - self.probability) ** packets
