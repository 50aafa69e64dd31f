"""Visibility verdicts over registry AS pairs, dense or blocked.

:class:`VisibilityMatrix` decides, for a (src ASN, dst ASN) pair, whether
an observer sees the flow and which neighbor AS hands it over. Verdicts
are pure functions of the topology's valley-free routing and are
materialized for whole pair sets, so a day's flow table resolves with
fancy indexing instead of a Python loop over pairs. Two storage modes,
picked by registry size:

* **dense** — full ``(n_asn x n_asn)`` ``visible``/``peer_asn`` tables per
  observation view, resolved by fancy indexing. Used up to
  ``dense_max_asns`` ASes (every default-scale world): ``bool + int32``
  per view means ~5 bytes * n^2, ~0.5 GB per view at 10k ASes.
* **blocked** — tables are built per destination-column *block* on demand
  (``block_columns`` columns at a time), stored ``bool``/int32 in a
  byte-budget LRU. Lookups group query pairs by block, so a day's flow
  table touches only the destination columns it actually contains.
  ``matrix.blocks_built`` / ``matrix.evictions`` counters and the
  ``matrix.resident_bytes`` gauge expose the cache behavior.

Both modes share one vectorized column builder: a source's verdict towards
a destination is either decided by its first hop (the hop crosses the IXP
fabric / reaches the observer) or inherited from its next hop's verdict,
so each destination column fills level by level over the route tree's
length groups — no per-pair Python. The test suite asserts both modes
bit-identical to a per-pair path-walk oracle over all pairs.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.netmodel.topology import ASTopology
from repro.obs import metrics

__all__ = ["VisibilityMatrix"]

_IXP_VIEW = ("ixp",)


class VisibilityMatrix:
    """Precomputed ``visible``/``peer_asn`` verdicts over registry ASNs.

    Tables are built lazily per observation view (IXP fabric, or one
    ``(observer ASN, ingress_only)`` ISP view) and invalidated when the
    topology gains edges after construction. A flow whose src or dst ASN
    lies outside the topology (e.g. ``-1`` for unresolved addresses) is
    invisible with peer ``-1``, and so is every flow for an ISP observer
    outside the topology.
    """

    #: Largest ASN value for which a dense ASN -> index lookup table is
    #: materialized (int32, so 4 MiB at the cap); beyond it ``index_of``
    #: degrades to binary search.
    _LUT_MAX_ASN = 1 << 20

    def __init__(
        self,
        topology: ASTopology,
        *,
        dense_max_asns: int = 4096,
        block_columns: int = 512,
        budget_bytes: int = 256 << 20,
    ) -> None:
        if block_columns < 1:
            raise ValueError("block_columns must be >= 1")
        self.topology = topology
        self.dense_max_asns = int(dense_max_asns)
        self.block_columns = int(block_columns)
        self.budget_bytes = int(budget_bytes)
        self._generation = topology.version
        self._asns = np.asarray(topology.asns, dtype=np.int64)
        self._lut = self._build_lut(self._asns)
        self._ixp: tuple[np.ndarray, np.ndarray] | None = None
        self._isp: dict[tuple[int, bool], tuple[np.ndarray, np.ndarray]] = {}
        # Blocked store: (view key, block id) -> (visT (C, n), peerT (C, n)).
        self._blocks: OrderedDict[tuple, tuple[np.ndarray, np.ndarray]] = OrderedDict()
        self._resident_bytes = 0
        self.blocks_built = 0
        self.evictions = 0

    @staticmethod
    def _build_lut(asns: np.ndarray) -> np.ndarray | None:
        if asns.size == 0 or int(asns[-1]) > VisibilityMatrix._LUT_MAX_ASN:
            return None
        lut = np.full(int(asns[-1]) + 1, -1, dtype=np.int32)
        lut[asns] = np.arange(asns.size, dtype=np.int32)
        return lut

    # -- ASN index ----------------------------------------------------------

    @property
    def generation(self) -> int:
        """Topology edge-mutation counter the cached tables correspond to."""
        self._refresh()
        return self._generation

    def _refresh(self) -> None:
        if self.topology.version != self._generation:
            self._generation = self.topology.version
            self._asns = np.asarray(self.topology.asns, dtype=np.int64)
            self._lut = self._build_lut(self._asns)
            self._ixp = None
            self._isp.clear()
            self._blocks.clear()
            self._resident_bytes = 0

    @property
    def asns(self) -> np.ndarray:
        """Sorted registry ASNs; row/column ``i`` of every table is ``asns[i]``."""
        self._refresh()
        return self._asns

    @property
    def blocked(self) -> bool:
        """Whether lookups resolve through column blocks instead of dense
        tables: true above ``dense_max_asns`` ASes."""
        self._refresh()
        return self._asns.size > self.dense_max_asns

    @property
    def resident_bytes(self) -> int:
        """Bytes currently held by the blocked-mode LRU."""
        return self._resident_bytes

    def index_of(self, asn_values: np.ndarray) -> np.ndarray:
        """Map ASN values to table indices (``-1`` for out-of-registry ASNs)."""
        asns = self.asns
        values = np.asarray(asn_values, dtype=np.int64)
        if self._lut is not None:
            # Direct gather: one clip + one take beats a binary search per
            # value on the multi-100k-row day tables.
            in_range = (values >= 0) & (values < self._lut.size)
            idx = self._lut[np.where(in_range, values, 0)].astype(np.int64)
            idx[~in_range] = -1
            return idx
        idx = np.searchsorted(asns, values)
        idx[idx == asns.size] = 0
        return np.where(asns[idx] == values, idx, -1)

    def pair_index(self, src_asns: np.ndarray, dst_asns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(src indices, dst indices) for aligned ASN arrays, ``-1`` = unknown."""
        src_asns = np.asarray(src_asns)
        dst_asns = np.asarray(dst_asns)
        if src_asns.shape != dst_asns.shape:
            raise ValueError("src and dst ASN arrays must align")
        return self.index_of(src_asns), self.index_of(dst_asns)

    def knows_observer(self, observer_asn: int) -> bool:
        """Whether ISP views for this observer can be resolved here."""
        asns = self.asns
        i = np.searchsorted(asns, int(observer_asn))
        return i < asns.size and int(asns[i]) == int(observer_asn)

    # -- column construction --------------------------------------------------

    def _build_columns(
        self, view: tuple, cols: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Verdict columns ``cols`` of ``view``, transposed ``(C, n)``.

        The recurrence runs per column in ascending route-length levels:
        every source's verdict is either decided directly by its first hop
        or inherited from the hop's (already final) verdict — the same
        fixed point a per-pair path walk reaches, as ~path-diameter numpy
        ops per column.
        """
        topo = self.topology
        plane = topo.route_plane()
        n = plane.n
        asns32 = plane.asns.astype(np.int32)
        C = cols.size
        if view[0] == "ixp":
            obs_idx = -1
            ingress_only = False
        else:
            _, observer_asn, ingress_only = view
            obs_idx = int(np.searchsorted(plane.asns, int(observer_asn)))
            if obs_idx >= n or int(plane.asns[obs_idx]) != int(observer_asn):
                raise KeyError(f"observer ASN {observer_asn} not in registry")
        # Bound transient route arrays (9 bytes x C x n) when a dense build
        # asks for every column at once: recurse in column slices.
        max_cols = max(1, (1 << 22) // max(n, 1))
        if C > max_cols:
            visT = np.empty((C, n), dtype=bool)
            peerT = np.empty((C, n), dtype=np.int32)
            for i in range(0, C, max_cols):
                part = self._build_columns(view, cols[i : i + max_cols])
                visT[i : i + max_cols] = part[0]
                peerT[i : i + max_cols] = part[1]
            return visT, peerT
        kind, length, hop = topo.routes_to_many(plane.asns[cols])
        # Flat composite cells ``row * n + src`` so one pass of numpy ops
        # fills every column of the block at once. Levels group by route
        # length *globally*: inheritance only ever reads the hop's cell,
        # which sits one length lower in the same row, so ascending global
        # levels replay each column's own ascending-level recurrence.
        kindf, lengthf, hopf = kind.ravel(), length.ravel(), hop.ravel()
        visf = np.zeros(C * n, dtype=bool)
        peerf = np.full(C * n, -1, dtype=np.int32)
        if view[0] != "ixp":
            # Observer-sourced flows: the handover "peer" is the next AS
            # on the observer's own path (egress-side observation).
            obs_cells = np.arange(C, dtype=np.int64) * n + obs_idx
            ok = (kind[:, obs_idx] >= 0) & (cols != obs_idx)
            visf[obs_cells[ok]] = True
            peerf[obs_cells[ok]] = asns32[hop[:, obs_idx][ok]]
        reach = np.flatnonzero(kindf >= 0)
        # Sort cells by route length with one fused value sort: pack
        # ``length << cell_bits | cell`` (both bounded) and unpack after.
        cell_bits = max(1, int(C * n - 1).bit_length())
        key = (lengthf[reach].astype(np.int64) << np.int64(cell_bits)) | reach
        key.sort()
        reach = key & np.int64((1 << cell_bits) - 1)
        lens = key >> np.int64(cell_bits)
        levels, starts = np.unique(lens, return_index=True)
        stops = np.append(starts[1:], lens.size)
        for lvl, a, b in zip(levels.tolist(), starts.tolist(), stops.tolist()):
            if lvl == 0:
                continue
            p = reach[a:b]
            src = p % n
            if view[0] != "ixp":
                keep = src != obs_idx
                p, src = p[keep], src[keep]
                if p.size == 0:
                    continue
            h = hopf[p].astype(np.int64)
            hcell = p - src + h
            if view[0] == "ixp":
                # Only peer routes can cross the fabric: a transit pair is
                # never also an IXP peering (add_peering rejects the
                # conflict), so the membership probe skips kind 0/2 cells.
                direct = np.zeros(p.size, dtype=bool)
                peer_cells = np.flatnonzero(kindf[p] == 1)
                if peer_cells.size:
                    direct[peer_cells] = plane.is_ixp_edge(
                        src[peer_cells], h[peer_cells]
                    )
            else:
                direct = h == obs_idx
            visf[p] = np.where(direct, True, visf[hcell])
            peerf[p] = np.where(direct, asns32[src], peerf[hcell])
        visT = visf.reshape(C, n)
        peerT = peerf.reshape(C, n)
        if ingress_only:
            # Tier-1 trace rule: flows sourced inside the observer's
            # customer cone (the observer included) are not exported.
            cone = topo.customer_cone_mask(int(view[1]))
            visT &= ~cone[None, :]
        np.copyto(peerT, -1, where=~visT)
        return visT, peerT

    # -- dense tables ---------------------------------------------------------

    def ixp_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense IXP verdicts: ``(visible[src, dst], peer_asn[src, dst])``."""
        self._refresh()
        if self._ixp is None:
            visT, peerT = self._build_columns(
                _IXP_VIEW, np.arange(self._asns.size, dtype=np.int64)
            )
            self._ixp = (
                np.ascontiguousarray(visT.T),
                np.ascontiguousarray(peerT.T),
            )
        return self._ixp

    def isp_tables(self, observer_asn: int, ingress_only: bool) -> tuple[np.ndarray, np.ndarray]:
        """Dense ISP verdicts for one ``(observer, ingress_only)`` view."""
        self._refresh()
        key = (int(observer_asn), bool(ingress_only))
        cached = self._isp.get(key)
        if cached is not None:
            return cached
        visT, peerT = self._build_columns(
            ("isp", *key), np.arange(self._asns.size, dtype=np.int64)
        )
        self._isp[key] = (np.ascontiguousarray(visT.T), np.ascontiguousarray(peerT.T))
        return self._isp[key]

    # -- blocked lookups ------------------------------------------------------

    def _block(self, view: tuple, block_id: int) -> tuple[np.ndarray, np.ndarray]:
        key = (view, block_id)
        cached = self._blocks.get(key)
        if cached is not None:
            self._blocks.move_to_end(key)
            return cached
        n = self._asns.size
        lo = block_id * self.block_columns
        cols = np.arange(lo, min(lo + self.block_columns, n), dtype=np.int64)
        block = self._build_columns(view, cols)
        self._blocks[key] = block
        self._resident_bytes += block[0].nbytes + block[1].nbytes
        self.blocks_built += 1
        evicted = 0
        while self._resident_bytes > self.budget_bytes and len(self._blocks) > 1:
            _, old = self._blocks.popitem(last=False)
            self._resident_bytes -= old[0].nbytes + old[1].nbytes
            evicted += 1
        self.evictions += evicted
        registry = metrics()
        if registry.enabled:
            registry.inc("matrix.blocks_built")
            if evicted:
                registry.inc("matrix.evictions", evicted)
            registry.gauge("matrix.resident_bytes", self._resident_bytes)
        return block

    def _lookup(
        self, view: tuple, src_idx: np.ndarray, dst_idx: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Verdicts for pair index arrays (all indices must be >= 0)."""
        self._refresh()
        if not self.blocked:
            if view[0] == "ixp":
                visible, peer = self.ixp_tables()
            else:
                visible, peer = self.isp_tables(view[1], view[2])
            return visible[src_idx, dst_idx], peer[src_idx, dst_idx].astype(np.int64)
        if view[0] != "ixp" and not self.knows_observer(view[1]):
            raise KeyError(f"observer ASN {view[1]} not in registry")
        vis_out = np.zeros(src_idx.shape, dtype=bool)
        peer_out = np.full(src_idx.shape, -1, dtype=np.int64)
        block_ids = dst_idx // self.block_columns
        order = np.argsort(block_ids, kind="stable")
        sorted_ids = block_ids[order]
        uniq, starts = np.unique(sorted_ids, return_index=True)
        stops = np.append(starts[1:], sorted_ids.size)
        for bid, a, b in zip(uniq.tolist(), starts.tolist(), stops.tolist()):
            sel = order[a:b]
            visT, peerT = self._block(view, int(bid))
            local = dst_idx[sel] - int(bid) * self.block_columns
            vis_out[sel] = visT[local, src_idx[sel]]
            peer_out[sel] = peerT[local, src_idx[sel]]
        return vis_out, peer_out

    def lookup_ixp(
        self, src_idx: np.ndarray, dst_idx: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """IXP verdicts for pair index arrays (``(visible, peer_asn)``)."""
        return self._lookup(_IXP_VIEW, src_idx, dst_idx)

    def lookup_isp(
        self,
        observer_asn: int,
        ingress_only: bool,
        src_idx: np.ndarray,
        dst_idx: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """ISP-view verdicts for pair index arrays (``(visible, peer_asn)``)."""
        return self._lookup(
            ("isp", int(observer_asn), bool(ingress_only)), src_idx, dst_idx
        )

    # -- flow-table masks -----------------------------------------------------

    def ixp_mask(
        self,
        src_asns: np.ndarray,
        dst_asns: np.ndarray,
        pair_index: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """IXP verdicts for aligned ASN arrays -> (visible mask, peer ASN array).

        ``pair_index`` optionally carries precomputed indices for the same
        ASN arrays (from :meth:`pair_index`), so repeated observations of
        one day table share the resolution work.
        """
        return self._mask(_IXP_VIEW, src_asns, dst_asns, pair_index)

    def isp_mask(
        self,
        observer_asn: int,
        src_asns: np.ndarray,
        dst_asns: np.ndarray,
        ingress_only: bool,
        pair_index: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """ISP-view verdicts for aligned ASN arrays -> (visible mask, peer ASN array)."""
        view = ("isp", int(observer_asn), bool(ingress_only))
        return self._mask(view, src_asns, dst_asns, pair_index)

    def _mask(
        self,
        view: tuple,
        src_asns: np.ndarray,
        dst_asns: np.ndarray,
        pair_index: tuple[np.ndarray, np.ndarray] | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Resolve pairs inside the topology; every other pair is invisible."""
        src_asns = np.asarray(src_asns, dtype=np.int64)
        dst_asns = np.asarray(dst_asns, dtype=np.int64)
        if src_asns.shape != dst_asns.shape:
            raise ValueError("src and dst ASN arrays must align")
        if pair_index is None:
            src_idx, dst_idx = self.pair_index(src_asns, dst_asns)
        else:
            src_idx, dst_idx = pair_index
            if src_idx.shape != src_asns.shape or dst_idx.shape != dst_asns.shape:
                raise ValueError("pair_index does not match the ASN arrays")
        if view[0] != "ixp" and not self.knows_observer(view[1]):
            # An ISP observer outside the topology sees nothing.
            known = np.zeros(src_asns.shape, dtype=bool)
        else:
            known = (src_idx >= 0) & (dst_idx >= 0)
            if known.all():
                return self._lookup(view, src_idx, dst_idx)
        vis = np.zeros(src_asns.shape, dtype=bool)
        peers = np.full(src_asns.shape, -1, dtype=np.int64)
        if known.any():
            vis[known], peers[known] = self._lookup(view, src_idx[known], dst_idx[known])
        return vis, peers

    def warm(self, isp_views: tuple[tuple[int, bool], ...] = ()) -> None:
        """Pre-build what lookups will need (worker-pool initializer hook).

        Dense mode materializes the IXP table plus the given
        ``(observer_asn, ingress_only)`` ISP views; blocked mode only
        prepares the CSR route plane and ASN index — blocks stay
        demand-built so warming never blows the byte budget.
        """
        self._refresh()
        self.topology.route_plane()
        if self.blocked:
            return
        self.ixp_tables()
        for observer_asn, ingress_only in isp_views:
            self.isp_tables(observer_asn, ingress_only)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        built = ["ixp"] if self._ixp is not None else []
        built += [f"isp{k}" for k in self._isp]
        built += [f"{len(self._blocks)} blocks"] if self._blocks else []
        return f"VisibilityMatrix({self._asns.size} ASNs, built={built or 'none'})"
