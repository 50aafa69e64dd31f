"""AS-level topology with valley-free routing, vectorized for 10k+ ASes.

The topology generator produces a three-layer hierarchy: a clique of
tier-1 providers, tier-2 providers multihomed to tier-1s (many of them
members of the IXP), and stub/content ASes homed to tier-2s (some also IXP
members). Peer edges between IXP members are marked ``via_ixp`` so vantage
points can tell which flows cross the IXP fabric.

Routing follows the standard Gao-Rexford model: every AS prefers
customer-learned routes over peer-learned over provider-learned, paths are
valley-free, and ties break on path length then lowest next-hop ASN.

One route engine, :meth:`ASTopology.routes_to_many`, computes the routes:
a CSR adjacency snapshot (:class:`RoutePlane`, rebuilt once per topology
version) feeds three frontier-vectorized phases that fill per-node
``(kind, length, next_hop)`` arrays for a whole batch of destinations
with no per-pair Python. The test suite keeps the original per-destination
dict BFS as the parity reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from repro.netmodel.addressing import Prefix
from repro.netmodel.asn import ASRegistry, ASRole, AutonomousSystem
from repro.stats.rng import SeedSequenceTree

__all__ = [
    "Relationship",
    "TopologyConfig",
    "RoutePlane",
    "ASTopology",
    "build_topology",
]

class Relationship(str, Enum):
    """Business relationship of a directed AS link."""

    CUSTOMER_TO_PROVIDER = "c2p"
    PEER_TO_PEER = "p2p"


@dataclass(frozen=True)
class TopologyConfig:
    """Size and shape knobs of the generated topology."""

    n_tier1: int = 6
    n_tier2: int = 30
    n_stub: int = 200
    tier2_ixp_member_fraction: float = 0.6
    stub_ixp_member_fraction: float = 0.15
    tier2_providers_min: int = 1
    tier2_providers_max: int = 3
    stub_providers_min: int = 1
    stub_providers_max: int = 2
    tier2_peering_prob: float = 0.15
    first_asn: int = 100
    prefix_space_start: str = "11.0.0.0"

    def __post_init__(self) -> None:
        if self.n_tier1 < 2:
            raise ValueError("need at least 2 tier-1 ASes")
        if self.n_tier2 < 1 or self.n_stub < 1:
            raise ValueError("need at least one tier-2 and one stub AS")
        for frac in (self.tier2_ixp_member_fraction, self.stub_ixp_member_fraction):
            if not 0.0 <= frac <= 1.0:
                raise ValueError(f"fraction out of [0, 1]: {frac}")

    @property
    def n_asns(self) -> int:
        return self.n_tier1 + self.n_tier2 + self.n_stub

    @staticmethod
    def internet_scale(n_asns: int) -> "TopologyConfig":
        """A realistic internet-core shape for ``n_asns`` total ASes.

        Tier-1 clique of 8-20, a transit cone of tier-2s (~12% of the
        model), the rest stubs, and IXP membership fractions chosen so
        the fabric has on the order of ``n_asns / 12`` members (capped
        at 800 — the size range of the large European IXPs the paper's
        vantage point resembles). These worlds have no pinned digests.
        """
        if n_asns < 300:
            raise ValueError("internet_scale targets models of >= 300 ASes")
        n_tier1 = max(8, min(20, n_asns // 600))
        n_tier2 = max(30, n_asns // 8)
        n_stub = n_asns - n_tier1 - n_tier2
        target_members = min(800, max(40, n_asns // 12))
        tier2_frac = 0.6
        from_tier2 = tier2_frac * n_tier2
        stub_frac = min(0.3, max(0.005, (target_members - from_tier2) / n_stub))
        return TopologyConfig(
            n_tier1=n_tier1,
            n_tier2=n_tier2,
            n_stub=n_stub,
            tier2_ixp_member_fraction=tier2_frac,
            stub_ixp_member_fraction=stub_frac,
            tier2_providers_min=1,
            tier2_providers_max=3,
            stub_providers_min=1,
            stub_providers_max=2,
            # Bilateral (off-IXP) tier-2 peering is per-pair; at transit-cone
            # scale the probability must shrink so peer degree stays bounded.
            tier2_peering_prob=min(0.15, 30.0 / max(n_tier2, 1)),
        )


@dataclass(frozen=True)
class RoutePlane:
    """CSR adjacency snapshot of one topology version.

    Nodes are row indices into ``asns`` (sorted ascending, so index
    order is ASN order — the tie-break the route engine relies on).
    Neighbor lists are concatenated into ``*_indices`` with ``*_indptr``
    offsets, all int32. ``ixp_edge_keys`` holds every IXP peer edge as
    ``min_idx << 32 | max_idx`` sorted for vectorized membership tests.
    """

    version: int
    asns: np.ndarray
    index: dict[int, int]
    prov_indptr: np.ndarray
    prov_indices: np.ndarray
    cust_indptr: np.ndarray
    cust_indices: np.ndarray
    peer_indptr: np.ndarray
    peer_indices: np.ndarray
    ixp_edge_keys: np.ndarray

    @property
    def n(self) -> int:
        return int(self.asns.size)

    def nbytes(self) -> int:
        return sum(
            arr.nbytes
            for arr in (
                self.asns,
                self.prov_indptr,
                self.prov_indices,
                self.cust_indptr,
                self.cust_indices,
                self.peer_indptr,
                self.peer_indices,
                self.ixp_edge_keys,
            )
        )

    def is_ixp_edge(self, a_idx: np.ndarray, b_idx: np.ndarray) -> np.ndarray:
        """Vectorized membership test for undirected (a, b) index pairs."""
        lo = np.minimum(a_idx, b_idx).astype(np.int64)
        hi = np.maximum(a_idx, b_idx).astype(np.int64)
        keys = (lo << np.int64(32)) | hi
        if self.ixp_edge_keys.size == 0:
            return np.zeros(keys.shape, dtype=bool)
        pos = np.searchsorted(self.ixp_edge_keys, keys)
        pos[pos == self.ixp_edge_keys.size] = 0
        return self.ixp_edge_keys[pos] == keys


def _csr_from_dict(
    adj: dict[int, set[int]], nodes: Sequence[int], index: dict[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted-neighbor CSR arrays for ``adj`` over ``nodes``."""
    counts = np.fromiter(
        (len(adj.get(node, ())) for node in nodes), dtype=np.int64, count=len(nodes)
    )
    indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=np.int32)
    for i, node in enumerate(nodes):
        neigh = adj.get(node)
        if neigh:
            indices[indptr[i] : indptr[i + 1]] = sorted(index[v] for v in neigh)
    return indptr, indices


def _expand_neighbors(
    indptr: np.ndarray, indices: np.ndarray, nodes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """All (target, source) adjacency pairs of ``nodes``, concatenated."""
    counts = indptr[nodes + 1] - indptr[nodes]
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    sources = np.repeat(nodes, counts)
    offsets = np.arange(total, dtype=np.int64)
    offsets -= np.repeat(np.cumsum(counts) - counts, counts)
    targets = indices[np.repeat(indptr[nodes], counts) + offsets].astype(np.int64)
    return targets, sources


def _expand_neighbors_multi(
    indptr: np.ndarray, indices: np.ndarray, comp: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_expand_neighbors` over composite ``row * n + node`` ids.

    The batched route engine runs one frontier holding nodes of *many*
    destination rows at once; targets stay inside their source's row, so
    the row base is added back onto the CSR targets. Returns
    ``(targets, sources, src_nodes)`` — composite targets/sources plus
    each edge's real source node index (the tie-break rank), computed
    here because the per-node repeat is cheaper than a full-size modulo
    at every call site.
    """
    nodes = comp % n
    counts = indptr[nodes + 1] - indptr[nodes]
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    sources = np.repeat(comp, counts)
    src_nodes = np.repeat(nodes, counts)
    # Each edge's slot inside its source's CSR row, then the row base of
    # the composite source moves the target into the same row.
    offsets = np.arange(total, dtype=np.int64)
    offsets -= np.repeat(np.cumsum(counts) - counts - indptr[nodes], counts)
    targets = indices[offsets].astype(np.int64)
    targets += sources
    targets -= src_nodes
    return targets, sources, src_nodes


def _min_rank_per_target(
    targets: np.ndarray, rank: np.ndarray, shift: int
) -> tuple[np.ndarray, np.ndarray]:
    """(unique targets, minimal rank per target) via one in-place value sort.

    Packs ``(target << shift) | rank`` into one int64 key and sorts the
    *values* — no argsort indirection, no second stable pass — then peels
    the minimal rank per target off the first occurrence. Requires
    ``rank < 2**shift`` and ``targets << shift`` to stay in int64; the
    batch route engine bounds both (composite ids are chunk-limited).
    """
    key = (targets << np.int64(shift)) | rank
    key.sort()
    t = key >> np.int64(shift)
    keep = np.ones(t.size, dtype=bool)
    keep[1:] = t[1:] != t[:-1]
    return t[keep], key[keep] & np.int64((1 << shift) - 1)


class ASTopology:
    """An AS graph with relationship-annotated edges and route computation."""

    def __init__(self, registry: ASRegistry) -> None:
        self.registry = registry
        self._providers: dict[int, set[int]] = {}
        self._customers: dict[int, set[int]] = {}
        self._peers: dict[int, set[int]] = {}
        #: IXP peer edges as ``min_asn << 32 | max_asn`` integer keys (a
        #: set of frozensets at 10k-AS scale costs hundreds of MB).
        self._ixp_peer_edges: set[int] = set()
        self._plane: RoutePlane | None = None
        self._cone_mask_cache: dict[int, np.ndarray] = {}
        self._version = 0

    # -- construction -----------------------------------------------------

    def _ensure(self, asn: int) -> None:
        if asn not in self.registry:
            raise KeyError(f"ASN {asn} not in registry")
        if asn not in self._providers:
            self._providers[asn] = set()
            self._customers[asn] = set()
            self._peers[asn] = set()
            self._invalidate()

    def _invalidate(self) -> None:
        self._plane = None
        self._cone_mask_cache.clear()
        self._version += 1

    @staticmethod
    def _edge_key(a: int, b: int) -> int:
        return (min(a, b) << 32) | max(a, b)

    def add_customer_provider(self, customer: int, provider: int) -> None:
        """Add a customer -> provider link."""
        if customer == provider:
            raise ValueError("an AS cannot be its own provider")
        self._ensure(customer)
        self._ensure(provider)
        if (
            provider in self._customers[customer]
            or customer in self._providers[provider]
            or provider in self._peers[customer]
        ):
            raise ValueError(f"conflicting relationship between {customer} and {provider}")
        self._providers[customer].add(provider)
        self._customers[provider].add(customer)
        self._invalidate()

    def add_customer_provider_edges(self, edges: Iterable[tuple[int, int]]) -> None:
        """Bulk :meth:`add_customer_provider`: one validation pass, one
        cache invalidation — the builder's transit cones use this so a
        10k-AS build does not pay 10k cache invalidations."""
        edges = list(edges)
        for customer, provider in edges:
            if customer == provider:
                raise ValueError("an AS cannot be its own provider")
            self._ensure(customer)
            self._ensure(provider)
        for customer, provider in edges:
            if (
                provider in self._customers[customer]
                or customer in self._providers[provider]
                or provider in self._peers[customer]
            ):
                raise ValueError(
                    f"conflicting relationship between {customer} and {provider}"
                )
            self._providers[customer].add(provider)
            self._customers[provider].add(customer)
        if edges:
            self._invalidate()

    def add_peering(self, a: int, b: int, via_ixp: bool = False) -> None:
        """Add a settlement-free peer edge, optionally over the IXP fabric."""
        if a == b:
            raise ValueError("an AS cannot peer with itself")
        self._ensure(a)
        self._ensure(b)
        if b in self._providers[a] or b in self._customers[a]:
            raise ValueError(f"conflicting relationship between {a} and {b}")
        self._peers[a].add(b)
        self._peers[b].add(a)
        if via_ixp:
            self._ixp_peer_edges.add(self._edge_key(a, b))
        self._invalidate()

    def add_peering_edges(
        self, edges: Iterable[tuple[int, int]], via_ixp: bool = False
    ) -> None:
        """Bulk :meth:`add_peering` with one validation + invalidation pass."""
        edges = list(edges)
        for a, b in edges:
            if a == b:
                raise ValueError("an AS cannot peer with itself")
            self._ensure(a)
            self._ensure(b)
        for a, b in edges:
            if b in self._providers[a] or b in self._customers[a]:
                raise ValueError(f"conflicting relationship between {a} and {b}")
            self._peers[a].add(b)
            self._peers[b].add(a)
            if via_ixp:
                self._ixp_peer_edges.add(self._edge_key(a, b))
        if edges:
            self._invalidate()

    def add_multilateral_peering(self, members: Sequence[int]) -> int:
        """Route-server style full mesh: peer every member pair over the IXP.

        Pairs that already hold a transit relationship are skipped (they
        exchange those routes privately), matching what the per-pair loop
        in the builder used to do — but with set-bulk updates and a single
        invalidation instead of O(members^2) ``add_peering`` calls.
        Returns the number of new peer edges.
        """
        members = sorted(set(members))
        for m in members:
            self._ensure(m)
        added = 0
        for i, a in enumerate(members):
            conflicts = self._providers[a] | self._customers[a]
            peers_a = self._peers[a]
            fresh = [
                b for b in members[i + 1 :] if b not in conflicts and b not in peers_a
            ]
            if not fresh:
                continue
            peers_a.update(fresh)
            key_base = a << 32
            for b in fresh:
                self._peers[b].add(a)
                self._ixp_peer_edges.add(key_base | b)
            added += len(fresh)
        if added:
            self._invalidate()
        return added

    # -- simple accessors ---------------------------------------------------

    def providers(self, asn: int) -> set[int]:
        return set(self._providers.get(asn, ()))

    def customers(self, asn: int) -> set[int]:
        return set(self._customers.get(asn, ()))

    def peers(self, asn: int) -> set[int]:
        return set(self._peers.get(asn, ()))

    def is_ixp_peering(self, a: int, b: int) -> bool:
        return self._edge_key(int(a), int(b)) in self._ixp_peer_edges

    @property
    def asns(self) -> list[int]:
        return sorted(self._providers)

    @property
    def version(self) -> int:
        """Edge-mutation counter; lets derived caches detect staleness."""
        return self._version

    def customer_cone(self, asn: int) -> set[int]:
        """Set view of :meth:`customer_cone_mask`: ``asn`` and its cone's ASNs."""
        mask = self.customer_cone_mask(asn)
        return set(self.route_plane().asns[mask].tolist())

    def customer_cone_mask(self, asn: int) -> np.ndarray:
        """Per-node-index mask of ``asn`` plus every AS reachable by
        repeatedly descending to customers.

        Computed by frontier BFS over the CSR customer arrays (no
        per-member Python) and memoized per topology version; treat the
        returned array as read-only.
        """
        cached = self._cone_mask_cache.get(asn)
        if cached is not None:
            return cached
        self._ensure(int(asn))
        plane = self.route_plane()
        start = plane.index[int(asn)]
        mask = np.zeros(plane.n, dtype=bool)
        mask[start] = True
        frontier = np.array([start], dtype=np.int64)
        while frontier.size:
            targets, _ = _expand_neighbors(plane.cust_indptr, plane.cust_indices, frontier)
            targets = np.unique(targets[~mask[targets]])
            mask[targets] = True
            frontier = targets
        self._cone_mask_cache[asn] = mask
        return mask

    # -- routing: CSR plane + batch engine -----------------------------------

    def route_plane(self) -> RoutePlane:
        """The CSR adjacency snapshot of the current version (built once)."""
        plane = self._plane
        if plane is not None and plane.version == self._version:
            return plane
        nodes = sorted(self._providers)
        asns = np.asarray(nodes, dtype=np.int64)
        index = {asn: i for i, asn in enumerate(nodes)}
        prov_indptr, prov_indices = _csr_from_dict(self._providers, nodes, index)
        cust_indptr, cust_indices = _csr_from_dict(self._customers, nodes, index)
        peer_indptr, peer_indices = _csr_from_dict(self._peers, nodes, index)
        if self._ixp_peer_edges:
            raw = np.fromiter(
                self._ixp_peer_edges, dtype=np.int64, count=len(self._ixp_peer_edges)
            )
            lo = index_array((raw >> np.int64(32)), index)
            hi = index_array((raw & np.int64(0xFFFFFFFF)), index)
            keys = np.sort(
                (np.minimum(lo, hi).astype(np.int64) << np.int64(32))
                | np.maximum(lo, hi).astype(np.int64)
            )
        else:
            keys = np.empty(0, dtype=np.int64)
        plane = RoutePlane(
            version=self._version,
            asns=asns,
            index=index,
            prov_indptr=prov_indptr,
            prov_indices=prov_indices,
            cust_indptr=cust_indptr,
            cust_indices=cust_indices,
            peer_indptr=peer_indptr,
            peer_indices=peer_indices,
            ixp_edge_keys=keys,
        )
        self._plane = plane
        return plane

    def _compute_route_arrays_batch(
        self, plane: RoutePlane, d_idx: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Best route of every node towards each destination node ``d_idx``.

        The three Gao-Rexford phases run over flat composite ids
        ``row * n + node`` so every numpy call amortizes across the whole
        destination batch instead of paying fixed overhead per tree — the
        difference between ~4x and >10x over the dict BFS at 2k ASes.
        Rows are independent (targets never cross a row base). Each phase
        resolves ties like the reference BFS — kind preference, then
        length, then lowest next-hop ASN, which in index space is the
        lowest source index — because the rank fed to the lexmin is the
        *real* node index; the parity suite pins every row to that
        reference. Returns ``(m, n)`` arrays.
        """
        n = plane.n
        m = int(d_idx.size)
        size = m * n
        node_bits = max(1, int(n - 1).bit_length())
        kind = np.full(size, -1, dtype=np.int8)
        length = np.zeros(size, dtype=np.int32)
        next_hop = np.full(size, -1, dtype=np.int32)
        start = np.arange(m, dtype=np.int64) * n + d_idx
        kind[start] = 0

        # Phase 1: provider-link BFS, level-synchronized across all rows
        # (a BFS level IS the route length, so rows cannot interfere).
        frontier = start
        level = 0
        while frontier.size:
            level += 1
            targets, _, src_nodes = _expand_neighbors_multi(
                plane.prov_indptr, plane.prov_indices, frontier, n
            )
            fresh = kind[targets] == -1
            targets, src_nodes = targets[fresh], src_nodes[fresh]
            if targets.size == 0:
                break
            t, s = _min_rank_per_target(targets, src_nodes, node_bits)
            kind[t] = 0
            length[t] = level
            next_hop[t] = s
            frontier = t

        # Phase 2: one lateral peer step from every down-route holder.
        holders = np.flatnonzero(kind == 0)
        targets, sources, src_nodes = _expand_neighbors_multi(
            plane.peer_indptr, plane.peer_indices, holders, n
        )
        fresh = kind[targets] == -1
        targets, sources, src_nodes = targets[fresh], sources[fresh], src_nodes[fresh]
        if targets.size:
            rank = (
                (length[sources].astype(np.int64) + 1) << np.int64(node_bits)
            ) | src_nodes
            t, r = _min_rank_per_target(targets, rank, 2 * node_bits + 1)
            kind[t] = 1
            length[t] = r >> np.int64(node_bits)
            next_hop[t] = r & np.int64((1 << node_bits) - 1)

        # Phase 3: customer-link multi-source BFS in ascending distance.
        # Within one distance bucket the lexmin on source index reproduces
        # the reference BFS's fixed point: min length first (earlier
        # buckets win), then lowest next-hop ASN (= lowest index).
        # Distance buckets are global across rows — processing order only
        # matters within a row, and within a row it is exactly a
        # single-destination BFS's order.
        holders = np.flatnonzero(kind >= 0)
        hd = length[holders].astype(np.int64)
        order = np.argsort(hd, kind="stable")
        holders, hd = holders[order], hd[order]
        uniq, starts = np.unique(hd, return_index=True)
        stops = np.append(starts[1:], hd.size)
        pending: dict[int, list[np.ndarray]] = {
            int(u): [holders[a:b]] for u, a, b in zip(uniq, starts, stops)
        }
        dist = int(uniq[0])
        max_dist = int(uniq[-1])
        while dist <= max_dist:
            parts = pending.pop(dist, None)
            if parts is None:
                dist += 1
                continue
            frontier = parts[0] if len(parts) == 1 else np.concatenate(parts)
            targets, _, src_nodes = _expand_neighbors_multi(
                plane.cust_indptr, plane.cust_indices, frontier, n
            )
            fresh = kind[targets] == -1
            targets, src_nodes = targets[fresh], src_nodes[fresh]
            if targets.size:
                t, s = _min_rank_per_target(targets, src_nodes, node_bits)
                kind[t] = 2
                length[t] = dist + 1
                next_hop[t] = s
                pending.setdefault(dist + 1, []).append(t)
                max_dist = max(max_dist, dist + 1)
            dist += 1
        return (
            kind.reshape(m, n),
            length.reshape(m, n),
            next_hop.reshape(m, n),
        )

    def routes_to_many(
        self, dsts: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Route trees towards ``dsts`` (ASNs): ``(kind, length, next_hop)``
        of shape ``(len(dsts), n)``.

        Column ``i`` is node ``i`` of :meth:`route_plane`. ``kind`` is int8
        (-1 unreachable, 0 down, 1 peer, 2 up), ``length`` int32 hops, and
        ``next_hop`` the int32 node index of the next AS (-1 at the
        destination and where unreachable). All destinations share one
        CSR plane and run through the batch engine in memory-bounded
        chunks.
        """
        for dst in dsts:
            self._ensure(int(dst))
        plane = self.route_plane()
        d_idx = np.fromiter(
            (plane.index[int(dst)] for dst in dsts), dtype=np.int64, count=len(dsts)
        )
        m, n = d_idx.size, plane.n
        kind = np.empty((m, n), dtype=np.int8)
        length = np.empty((m, n), dtype=np.int32)
        next_hop = np.empty((m, n), dtype=np.int32)
        # ~256k flat cells per chunk: large enough to amortize per-call
        # overhead across rows, small enough that the working set stays
        # cache-resident (bigger chunks measured strictly slower).
        chunk = max(1, (1 << 18) // max(n, 1))
        for i in range(0, m, chunk):
            rows = slice(i, i + chunk)
            kind[rows], length[rows], next_hop[rows] = self._compute_route_arrays_batch(
                plane, d_idx[rows]
            )
        return kind, length, next_hop


def index_array(asns: np.ndarray, index: dict[int, int]) -> np.ndarray:
    """Map an ASN array through an index dict (all values must be present)."""
    return np.fromiter((index[int(a)] for a in asns), dtype=np.int64, count=asns.size)


def _allocate_prefixes(start: int, count: int, length: int) -> tuple[list[Prefix], int]:
    """Allocate ``count`` consecutive disjoint prefixes of ``length`` from ``start``."""
    step = 1 << (32 - length)
    prefixes = [Prefix(start + i * step, length) for i in range(count)]
    return prefixes, start + count * step


def build_topology(
    config: TopologyConfig, seeds: SeedSequenceTree
) -> tuple[ASRegistry, ASTopology]:
    """Generate a registry + topology per ``config``, deterministically.

    Tier-1 ASes form a full peering clique (non-IXP, private interconnects).
    Tier-2 ASes buy transit from 1-3 tier-1s, most join the IXP, and IXP
    members peer with each other multilaterally (route-server style: every
    member pair gets a p2p edge marked ``via_ixp``). Stubs buy transit from
    tier-2s; a fraction also join the IXP.

    Edge sets are assembled through the topology's bulk adders (one
    validation + invalidation pass instead of one per edge) and the IXP
    mesh through :meth:`ASTopology.add_multilateral_peering`; every RNG
    draw happens in the exact historical order, so the produced world is
    identical to the one the per-edge loops built.
    """
    rng = seeds.child("topology").rng()
    registry = ASRegistry()
    from repro.netmodel.addressing import parse_ip

    cursor = parse_ip(config.prefix_space_start)
    asn = config.first_asn

    tier1: list[int] = []
    for i in range(config.n_tier1):
        prefixes, cursor = _allocate_prefixes(cursor, 2, 14)
        registry.register(
            AutonomousSystem(asn, ASRole.TIER1, tuple(prefixes), name=f"T1-{i}")
        )
        tier1.append(asn)
        asn += 1

    # Membership draws: one vectorized call per tier. numpy Generator fills
    # arrays from the same stream as repeated scalar calls, so the values —
    # and every digest downstream — are unchanged from the per-AS loop.
    tier2_member = rng.random(config.n_tier2) < config.tier2_ixp_member_fraction
    tier2: list[int] = []
    for i in range(config.n_tier2):
        prefixes, cursor = _allocate_prefixes(cursor, 1, 16)
        registry.register(
            AutonomousSystem(
                asn,
                ASRole.TIER2,
                tuple(prefixes),
                ixp_member=bool(tier2_member[i]),
                name=f"T2-{i}",
            )
        )
        tier2.append(asn)
        asn += 1

    stub_member = rng.random(config.n_stub) < config.stub_ixp_member_fraction
    stubs: list[int] = []
    for i in range(config.n_stub):
        prefixes, cursor = _allocate_prefixes(cursor, 1, 20)
        registry.register(
            AutonomousSystem(
                asn,
                ASRole.STUB,
                tuple(prefixes),
                ixp_member=bool(stub_member[i]),
                name=f"ST-{i}",
            )
        )
        stubs.append(asn)
        asn += 1

    topo = ASTopology(registry)
    for node in tier1 + tier2 + stubs:
        topo._ensure(node)

    # Tier-1 clique (private peering, not via the IXP).
    clique = [(a, b) for i, a in enumerate(tier1) for b in tier1[i + 1 :]]
    topo.add_peering_edges(clique, via_ixp=False)

    # Transit uplinks: tier-2 -> tier-1 and stub -> tier-2 cones.
    uplinks: list[tuple[int, int]] = []
    for t2 in tier2:
        n_prov = int(
            rng.integers(config.tier2_providers_min, config.tier2_providers_max + 1)
        )
        for prov in rng.choice(tier1, size=min(n_prov, len(tier1)), replace=False):
            uplinks.append((t2, int(prov)))
    for stub in stubs:
        n_prov = int(
            rng.integers(config.stub_providers_min, config.stub_providers_max + 1)
        )
        for prov in rng.choice(tier2, size=min(n_prov, len(tier2)), replace=False):
            uplinks.append((stub, int(prov)))
    topo.add_customer_provider_edges(uplinks)

    # Multilateral peering via the IXP route server: all member pairs.
    members = sorted(a.asn for a in registry.ixp_members())
    member_set = set(members)
    topo.add_multilateral_peering(members)

    # Extra bilateral tier-2 peering off the IXP. Candidate pairs are
    # enumerated in the historical (i, j) order and their accept draws made
    # in one array call (same stream as per-pair rng.random() calls).
    candidates: list[tuple[int, int]] = []
    for i, a in enumerate(tier2):
        for b in tier2[i + 1 :]:
            if a in member_set and b in member_set:
                continue  # already peering via the route server
            candidates.append((a, b))
    if candidates:
        accept = rng.random(len(candidates)) < config.tier2_peering_prob
        bilateral = [
            (a, b)
            for (a, b), ok in zip(candidates, accept)
            if ok and b not in topo._providers[a] and b not in topo._customers[a]
        ]
        topo.add_peering_edges(bilateral, via_ixp=False)

    return registry, topo
