"""Visibility verdicts over registry AS pairs, dense or blocked.

:class:`VisibilityMatrix` decides, for a (src ASN, dst ASN) pair, whether
an observer sees the flow and which neighbor AS hands it over. Verdicts
are pure functions of the topology's valley-free routing and are
materialized for whole pair sets, so a day's flow table resolves with
fancy indexing instead of a Python loop over pairs. A flow's pair is one
flat *cell* of the verdict tables (:meth:`VisibilityMatrix.pair_index`);
ASNs outside the registry share one extra index whose row and column are
invisible with peer ``-1``. Two storage modes, picked by registry size:

* **dense** — full ``(n_asn + 1) x (n_asn + 1)`` ``visible``/``peer_asn``
  tables per observation view, so a verdict is one flat ``take`` per
  cell array. Used up to ``dense_max_asns`` ASes (every default-scale
  world): ``bool + int32`` per view means ~5 bytes * n^2, ~0.5 GB per
  view at 10k ASes.
* **blocked** — tables are built per destination-column *block* on demand
  (``block_columns`` columns at a time), stored ``bool``/int32 in a
  byte-budget LRU. Lookups group query cells by block, so a day's flows
  touch only the destination columns they actually contain.
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
from typing import Callable, Sequence

import numpy as np

from repro.netmodel.topology import ASTopology
from repro.obs import metrics

__all__ = ["PeerLookup", "VisibilityMatrix"]

_IXP_VIEW = ("ixp",)

#: ``peers(rows)``: the handover neighbor ASNs (``-1`` unknown) of the
#: flows at ``rows[k]`` of each verdict array ``k``, concatenated in order
#: and widened to int64 for those rows only.
PeerLookup = Callable[[Sequence[np.ndarray]], np.ndarray]


def _concat(parts: list[np.ndarray]) -> np.ndarray:
    """``parts`` widened to one int64 array."""
    out = np.empty(sum(p.size for p in parts), dtype=np.int64)
    pos = 0
    for part in parts:
        out[pos : pos + part.size] = part
        pos += part.size
    return out


def _no_peers(rows: Sequence[np.ndarray]) -> np.ndarray:
    return np.full(sum(r.size for r in rows), -1, dtype=np.int64)


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
        # Blocked store: (view key, block id) -> (visT (C, n + 1), peerT (C, n + 1)).
        self._blocks: OrderedDict[tuple, tuple[np.ndarray, np.ndarray]] = OrderedDict()
        self._resident_bytes = 0
        self.blocks_built = 0
        self.evictions = 0

    @staticmethod
    def _build_lut(asns: np.ndarray) -> np.ndarray | None:
        """ASN value -> table index, ``n`` (the unknown index) for every
        other value up to one past the largest ASN."""
        if asns.size == 0 or int(asns[-1]) > VisibilityMatrix._LUT_MAX_ASN:
            return None
        lut = np.full(int(asns[-1]) + 2, asns.size, dtype=np.int32)
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

    def _index(self, asn_values: np.ndarray) -> np.ndarray:
        """Table index of each ASN value; ``n`` outside the registry."""
        asns = self.asns
        values = np.asarray(asn_values, dtype=np.int64)
        if self._lut is not None:
            # Negative values wrap to huge unsigned ones, so one clip sends
            # every value outside the LUT to its trailing unknown entry.
            clipped = np.minimum(values.view(np.uint64), self._lut.size - 1)
            return self._lut.take(clipped.view(np.int64))
        idx = np.searchsorted(asns, values)
        idx[idx == asns.size] = 0
        return np.where(asns[idx] == values, idx, asns.size)

    def index_of(self, asn_values: np.ndarray) -> np.ndarray:
        """Map ASN values to table indices (``-1`` for out-of-registry ASNs)."""
        idx = self._index(asn_values).astype(np.int64)
        idx[idx == self._asns.size] = -1
        return idx

    def pair_index(self, src_asns: np.ndarray, dst_asns: np.ndarray) -> np.ndarray:
        """Flat verdict cells ``src * (n + 1) + dst`` of aligned ASN arrays.

        ``n`` is the registry size; an ASN outside the registry takes
        index ``n``, whose table row and column are invisible with peer
        ``-1``. Cells are int64, which ``take`` indexes without a cast.
        """
        src_asns = np.asarray(src_asns)
        dst_asns = np.asarray(dst_asns)
        if src_asns.shape != dst_asns.shape:
            raise ValueError("src and dst ASN arrays must align")
        cells = np.multiply(self._index(src_asns), self._asns.size + 1, dtype=np.int64)
        cells += self._index(dst_asns)
        return cells

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

    def _dense(self, view: tuple) -> tuple[np.ndarray, np.ndarray]:
        n = self._asns.size
        visT, peerT = self._build_columns(view, np.arange(n, dtype=np.int64))
        visible = np.zeros((n + 1, n + 1), dtype=bool)
        peer = np.full((n + 1, n + 1), -1, dtype=np.int32)
        visible[:n, :n] = visT.T
        peer[:n, :n] = peerT.T
        return visible, peer

    def ixp_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense IXP verdicts: ``(visible[src, dst], peer_asn[src, dst])``.

        Both tables are ``(n + 1) x (n + 1)``: the last row and column
        belong to the unknown index, invisible with peer ``-1``.
        """
        self._refresh()
        if self._ixp is None:
            self._ixp = self._dense(_IXP_VIEW)
        return self._ixp

    def isp_tables(self, observer_asn: int, ingress_only: bool) -> tuple[np.ndarray, np.ndarray]:
        """Dense ISP verdicts for one ``(observer, ingress_only)`` view,
        laid out as :meth:`ixp_tables`."""
        self._refresh()
        key = (int(observer_asn), bool(ingress_only))
        cached = self._isp.get(key)
        if cached is None:
            cached = self._isp[key] = self._dense(("isp", *key))
        return cached

    # -- blocked tables -------------------------------------------------------

    def _block(self, view: tuple, block_id: int) -> tuple[np.ndarray, np.ndarray]:
        key = (view, block_id)
        cached = self._blocks.get(key)
        if cached is not None:
            self._blocks.move_to_end(key)
            return cached
        n = self._asns.size
        lo = block_id * self.block_columns
        # Column n, the unknown index, closes the last block (or opens
        # one of its own); like row n it stays invisible with peer -1.
        hi = min(lo + self.block_columns, n + 1)
        visT = np.zeros((hi - lo, n + 1), dtype=bool)
        peerT = np.full((hi - lo, n + 1), -1, dtype=np.int32)
        real = min(hi, n) - lo
        if real > 0:
            cols = np.arange(lo, lo + real, dtype=np.int64)
            visT[:real, :n], peerT[:real, :n] = self._build_columns(view, cols)
        block = (visT, peerT)
        self._blocks[key] = block
        self._resident_bytes += visT.nbytes + peerT.nbytes
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

    def _blocked_verdicts(
        self, view: tuple, cells: list[np.ndarray]
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Block-grouped verdicts of each cell array: ``(masks, peers)``.

        Each block is visited once for all the arrays, and the visit also
        reads the peers of the visible cells (``-1`` elsewhere): the LRU
        need not hold a view's every block, so a separate peer pass over
        the exported cells would rebuild the blocks this pass evicted.
        """
        m = self._asns.size + 1
        groups: dict[int, list[tuple[int, np.ndarray]]] = {}
        pairs, masks, peers = [], [], []
        for k, c in enumerate(cells):
            src, dst = np.divmod(c, m)
            block_ids = dst // self.block_columns
            order = np.argsort(block_ids, kind="stable")
            sorted_ids = block_ids[order]
            uniq, starts = np.unique(sorted_ids, return_index=True)
            stops = np.append(starts[1:], sorted_ids.size)
            for bid, a, b in zip(uniq.tolist(), starts.tolist(), stops.tolist()):
                groups.setdefault(bid, []).append((k, order[a:b]))
            pairs.append((src, dst))
            masks.append(np.empty(c.shape, dtype=bool))
            peers.append(np.full(c.shape, -1, dtype=np.int32))
        for bid in sorted(groups):
            visT, peerT = self._block(view, bid)
            lo = bid * self.block_columns
            for k, sel in groups[bid]:
                src, dst = pairs[k][0][sel], pairs[k][1][sel] - lo
                seen = visT[dst, src]
                masks[k][sel] = seen
                peers[k][sel[seen]] = peerT[dst[seen], src[seen]]
        return masks, peers

    # -- verdicts -------------------------------------------------------------

    def ixp_verdicts(
        self, cells: Sequence[np.ndarray]
    ) -> tuple[list[np.ndarray], PeerLookup]:
        """IXP verdicts for arrays of flat pair cells (:meth:`pair_index`).

        Returns ``(visible, peers)``: one visibility mask per cell array,
        and the lookup that resolves handover peers for chosen rows only.
        """
        return self._verdicts(_IXP_VIEW, list(cells))

    def isp_verdicts(
        self, observer_asn: int, ingress_only: bool, cells: Sequence[np.ndarray]
    ) -> tuple[list[np.ndarray], PeerLookup]:
        """ISP-view verdicts, as :meth:`ixp_verdicts`. An observer outside
        the topology sees nothing."""
        cells = list(cells)
        if not self.knows_observer(observer_asn):
            return [np.zeros(c.shape, dtype=bool) for c in cells], _no_peers
        return self._verdicts(("isp", int(observer_asn), bool(ingress_only)), cells)

    def _verdicts(
        self, view: tuple, cells: list[np.ndarray]
    ) -> tuple[list[np.ndarray], PeerLookup]:
        if self.blocked:
            masks, peer_parts = self._blocked_verdicts(view, cells)

            def blocked_peers(rows: Sequence[np.ndarray]) -> np.ndarray:
                return _concat([p[r] for p, r in zip(peer_parts, rows)])

            return masks, blocked_peers
        if view[0] == "ixp":
            visible, peer = self.ixp_tables()
        else:
            visible, peer = self.isp_tables(view[1], view[2])
        visible, peer = visible.ravel(), peer.ravel()

        def dense_peers(rows: Sequence[np.ndarray]) -> np.ndarray:
            return _concat([peer.take(c.take(r)) for c, r in zip(cells, rows)])

        return [visible.take(c) for c in cells], dense_peers

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
