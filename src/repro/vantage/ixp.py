"""The IXP vantage point: sampled IPFIX of the peering fabric."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.flows.records import FlowTable
from repro.flows.sampling import PacketSampler
from repro.netmodel.addressing import PrefixAnonymizer
from repro.vantage.base import CaptureWindow, VantagePoint
from repro.vantage.matrix import PeerLookup, VisibilityMatrix

__all__ = ["IXPVantagePoint"]


class IXPVantagePoint(VantagePoint):
    """A major IXP's flow export.

    Sees exactly the traffic crossing its peering LAN: flows whose AS path
    traverses a route-server (or bilateral) peering edge established at
    this IXP. Crucially it does *not* see traffic the same members
    exchange over transit or private links — which is why the paper warns
    that IXP-observed attack volumes underestimate true volumes.
    """

    def __init__(
        self,
        visibility: VisibilityMatrix,
        window: CaptureWindow,
        sampling_denominator: int = 10_000,
        anonymizer: PrefixAnonymizer | None = None,
        name: str = "large IXP",
    ) -> None:
        super().__init__(
            name=name,
            window=window,
            sampler=PacketSampler(sampling_denominator),
            anonymizer=anonymizer,
        )
        self.visibility = visibility

    def visibility_filter(
        self, tables: Sequence[FlowTable], indices: Sequence[np.ndarray] | None = None
    ) -> tuple[list[np.ndarray], PeerLookup]:
        if indices is None:
            indices = [self.visibility.pair_index(t["src_asn"], t["dst_asn"]) for t in tables]
        return self.visibility.ixp_verdicts(indices)
