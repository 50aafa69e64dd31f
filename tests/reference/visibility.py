"""Per-pair visibility oracle: the reference for ``VisibilityMatrix`` verdicts.

Decides, for one (src ASN, dst ASN) pair at a time, whether a flow is
seen by a given observer and which neighbor AS hands it over, by walking
the AS path of the reference dict BFS (:mod:`tests.reference.routes`).
It shares no code with the production route engine or the matrix's
column builder, so the parity suites' "matrix == oracle" checks are an
independent authority. A pair whose src or dst lies outside the topology
is invisible, as in production.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.netmodel.topology import ASTopology
from tests.reference.routes import _routes_to_legacy, customer_cone, legacy_path

__all__ = ["Visibility", "VisibilityOracle"]


@dataclass(frozen=True)
class Visibility:
    """Observation verdict for one (src ASN, dst ASN) pair.

    Attributes:
        visible: whether the observer sees the flow at all.
        peer_asn: the neighbor AS handing the flow to the observer
            (-1 when invisible or the observer originates the flow).
    """

    visible: bool
    peer_asn: int = -1


class VisibilityOracle:
    """Memoized per-pair verdicts for one topology.

    ``ixp_mask`` / ``isp_mask`` give the verdicts of aligned ASN arrays.
    ``pair_index`` / ``ixp_verdicts`` / ``isp_verdicts`` mirror the
    :class:`~repro.vantage.matrix.VisibilityMatrix` signatures (an
    oracle's pair index is the ASN pair arrays themselves), so an oracle
    can stand in for the matrix inside a vantage point.
    """

    def __init__(self, topology: ASTopology) -> None:
        self.topology = topology
        self._trees: dict[int, dict] = {}
        self._ixp_cached = lru_cache(maxsize=1 << 18)(self._ixp_visibility)
        self._isp_cached = lru_cache(maxsize=1 << 18)(self._isp_visibility)

    def _path(self, src_asn: int, dst_asn: int) -> list[int] | None:
        """AS path over the reference BFS. A destination outside the
        topology graph is unreachable; the BFS never runs for it, so a
        lookup cannot add a node to the topology."""
        if dst_asn not in self.topology._providers:
            return None
        routes = self._trees.get(dst_asn)
        if routes is None:
            routes = self._trees[dst_asn] = _routes_to_legacy(self.topology, dst_asn)
        return legacy_path(routes, src_asn, dst_asn)

    # -- IXP ------------------------------------------------------------------

    def _ixp_visibility(self, src_asn: int, dst_asn: int) -> Visibility:
        """A flow crosses the IXP iff its AS path uses an IXP peering edge.

        The handover peer is the src-side member of that edge (the member
        whose router forwards the packets onto the fabric).
        """
        if src_asn == dst_asn or src_asn < 0 or dst_asn < 0:
            return Visibility(False)
        path = self._path(src_asn, dst_asn)
        if path is None:
            return Visibility(False)
        for a, b in zip(path, path[1:]):
            if self.topology.is_ixp_peering(a, b):
                return Visibility(True, peer_asn=a)
        return Visibility(False)

    def at_ixp(self, src_asn: int, dst_asn: int) -> Visibility:
        return self._ixp_cached(int(src_asn), int(dst_asn))

    # -- ISP ------------------------------------------------------------------

    def _isp_visibility(
        self, observer_asn: int, src_asn: int, dst_asn: int, ingress_only: bool
    ) -> Visibility:
        """Whether an ISP's border routers see the flow.

        The flow is visible when ``observer_asn`` lies on the AS path. With
        ``ingress_only`` (tier-1 trace), flows sourced inside the
        observer's own network or its customer cone are excluded — the
        paper's tier-1 trace contains no end-user/customer-sourced
        traffic. The handover peer is the AS immediately before the
        observer on the path (or after, for egress-side observation).
        """
        if src_asn < 0 or dst_asn < 0:
            return Visibility(False)
        if src_asn == dst_asn:
            return Visibility(False)
        path = self._path(src_asn, dst_asn)
        if path is None or observer_asn not in path:
            return Visibility(False)
        if ingress_only and src_asn in customer_cone(self.topology, observer_asn):
            return Visibility(False)
        idx = path.index(observer_asn)
        if idx > 0:
            return Visibility(True, peer_asn=path[idx - 1])
        # Observer originates the flow (egress only; tier-2 both-directions).
        if ingress_only:
            return Visibility(False)
        peer = path[idx + 1] if len(path) > 1 else -1
        return Visibility(True, peer_asn=peer)

    def at_isp(
        self, observer_asn: int, src_asn: int, dst_asn: int, ingress_only: bool
    ) -> Visibility:
        return self._isp_cached(int(observer_asn), int(src_asn), int(dst_asn), bool(ingress_only))

    # -- vectorized helpers ---------------------------------------------------

    def ixp_mask(self, src_asns, dst_asns) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`at_ixp` -> (visible mask, peer ASN array)."""
        return self._mask(src_asns, dst_asns, self.at_ixp)

    def isp_mask(
        self, observer_asn, src_asns, dst_asns, ingress_only
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`at_isp` -> (visible mask, peer ASN array)."""

        def check(src: int, dst: int) -> Visibility:
            return self.at_isp(observer_asn, src, dst, ingress_only)

        return self._mask(src_asns, dst_asns, check)

    @staticmethod
    def _mask(src_asns, dst_asns, check) -> tuple[np.ndarray, np.ndarray]:
        src_asns = np.asarray(src_asns, dtype=np.int64)
        dst_asns = np.asarray(dst_asns, dtype=np.int64)
        if src_asns.shape != dst_asns.shape:
            raise ValueError("src and dst ASN arrays must align")
        pairs = src_asns.astype(np.int64) << np.int64(32) | (dst_asns & np.int64(0xFFFFFFFF))
        unique_pairs, inverse = np.unique(pairs, return_inverse=True)
        vis = np.empty(unique_pairs.size, dtype=bool)
        peers = np.empty(unique_pairs.size, dtype=np.int64)
        for i, key in enumerate(unique_pairs):
            src = int(key >> np.int64(32))
            dst = int(np.int64(key) & np.int64(0xFFFFFFFF))
            # Recover sign of dst (ASNs can be -1 for unknown).
            if dst >= 1 << 31:
                dst -= 1 << 32
            verdict = check(src, dst)
            vis[i] = verdict.visible
            peers[i] = verdict.peer_asn
        return vis[inverse], peers[inverse]

    # -- matrix stand-in ------------------------------------------------------

    def pair_index(self, src_asns, dst_asns) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(src_asns), np.asarray(dst_asns)

    def ixp_verdicts(self, indices):
        return self._verdicts([self.ixp_mask(src, dst) for src, dst in indices])

    def isp_verdicts(self, observer_asn, ingress_only, indices):
        return self._verdicts(
            [self.isp_mask(observer_asn, src, dst, ingress_only) for src, dst in indices]
        )

    @staticmethod
    def _verdicts(results):
        """``(masks, peers)`` as the matrix returns them, from full-row verdicts."""

        def peers(rows) -> np.ndarray:
            picked = [peer[r] for (_, peer), r in zip(results, rows)]
            return np.concatenate(picked) if picked else np.empty(0, dtype=np.int64)

        return [mask for mask, _ in results], peers
