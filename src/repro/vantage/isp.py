"""ISP vantage points: NetFlow at border routers."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.flows.records import FlowTable
from repro.flows.sampling import PacketSampler
from repro.netmodel.addressing import PrefixAnonymizer
from repro.vantage.base import CaptureWindow, VantagePoint
from repro.vantage.matrix import PeerLookup, VisibilityMatrix

__all__ = ["ISPVantagePoint"]


class ISPVantagePoint(VantagePoint):
    """An ISP's border-router NetFlow export.

    With ``ingress_only=True`` this reproduces the paper's tier-1 trace:
    only traffic entering the network from outside, with traffic sourced
    by the ISP's own end-users and customers excluded. With
    ``ingress_only=False`` it reproduces the tier-2 trace, which contains
    both directions including customer-sourced traffic.
    """

    def __init__(
        self,
        asn: int,
        visibility: VisibilityMatrix,
        window: CaptureWindow,
        ingress_only: bool,
        sampling_denominator: int = 1000,
        anonymizer: PrefixAnonymizer | None = None,
        name: str | None = None,
    ) -> None:
        if asn <= 0:
            raise ValueError(f"ASN must be positive, got {asn}")
        default_name = f"{'tier-1' if ingress_only else 'tier-2'} ISP (AS{asn})"
        super().__init__(
            name=name or default_name,
            window=window,
            sampler=PacketSampler(sampling_denominator),
            anonymizer=anonymizer,
        )
        self.asn = asn
        self.ingress_only = ingress_only
        self.visibility = visibility

    def visibility_filter(
        self, tables: Sequence[FlowTable], indices: Sequence[np.ndarray] | None = None
    ) -> tuple[list[np.ndarray], PeerLookup]:
        if indices is None:
            indices = [self.visibility.pair_index(t["src_asn"], t["dst_asn"]) for t in tables]
        return self.visibility.isp_verdicts(self.asn, self.ingress_only, indices)
