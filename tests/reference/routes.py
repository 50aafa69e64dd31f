"""Reference routing: the original dict BFS, plus path helpers over production rows.

:func:`_routes_to_legacy` is the per-destination three-state BFS over
dict-of-:class:`_RouteEntry` that the batched array engine replaced. It
is the correctness authority for ``ASTopology.routes_to_many`` (the
parity suite asserts bit-identical route trees) and the baseline the
topology scaling benchmark measures the array engine against.
:func:`legacy_path` walks one of its trees for the reference visibility
oracle, and :func:`customer_cone` is the matching dict-BFS customer cone.

:class:`RouteRows` answers per-pair questions (path, reachability, IXP
crossing, transit ASes) from the *production* route rows, computed once
per topology, for the hand-built topology tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.netmodel.topology import ASTopology

__all__ = ["RouteRows", "customer_cone", "legacy_path"]


@dataclass
class _RouteEntry:
    """Best route of one AS towards the current destination."""

    kind: str  # "down" | "peer" | "up"
    length: int
    next_hop: int  # -1 at the destination itself


_KIND_PREFERENCE = {"down": 0, "peer": 1, "up": 2}


def _routes_to_legacy(topo: ASTopology, dst: int) -> dict[int, _RouteEntry]:
    """The original per-destination dict BFS (reference implementation)."""
    topo._ensure(dst)
    routes: dict[int, _RouteEntry] = {dst: _RouteEntry("down", 0, -1)}

    # Phase 1: customer routes propagate up provider links (BFS by length).
    frontier = [dst]
    while frontier:
        nxt: list[int] = []
        for node in frontier:
            entry = routes[node]
            if entry.kind != "down":
                continue
            for prov in topo._providers.get(node, ()):
                cand = _RouteEntry("down", entry.length + 1, node)
                if _better(cand, routes.get(prov)):
                    routes[prov] = cand
                    nxt.append(prov)
        frontier = nxt

    # Phase 2: peer routes — one lateral step from any down-route holder.
    down_holders = [(asn, e) for asn, e in routes.items() if e.kind == "down"]
    for holder, entry in down_holders:
        for peer in topo._peers.get(holder, ()):
            cand = _RouteEntry("peer", entry.length + 1, holder)
            if _better(cand, routes.get(peer)):
                routes[peer] = cand

    # Phase 3: provider routes propagate down customer links from any
    # route holder, repeatedly (BFS over the remaining graph).
    frontier = sorted(routes)
    while frontier:
        nxt = []
        for node in frontier:
            entry = routes[node]
            for cust in topo._customers.get(node, ()):
                cand = _RouteEntry("up", entry.length + 1, node)
                if _better(cand, routes.get(cust)):
                    routes[cust] = cand
                    nxt.append(cust)
        frontier = nxt
    return routes


def _better(candidate: _RouteEntry, incumbent: _RouteEntry | None) -> bool:
    if incumbent is None:
        return True
    ck = _KIND_PREFERENCE[candidate.kind]
    ik = _KIND_PREFERENCE[incumbent.kind]
    if ck != ik:
        return ck < ik
    if candidate.length != incumbent.length:
        return candidate.length < incumbent.length
    return candidate.next_hop < incumbent.next_hop


def customer_cone(topo: ASTopology, asn: int) -> set[int]:
    """``asn`` plus every AS reachable by repeatedly descending to customers."""
    topo._ensure(asn)
    cone = {asn}
    frontier = [asn]
    while frontier:
        node = frontier.pop()
        for cust in topo._customers.get(node, ()):
            if cust not in cone:
                cone.add(cust)
                frontier.append(cust)
    return cone


def legacy_path(routes: dict[int, _RouteEntry], src: int, dst: int) -> list[int] | None:
    """AS path ``src`` -> ``dst`` (inclusive) over ``routes``, the
    :func:`_routes_to_legacy` tree towards ``dst``; ``None`` if unreachable."""
    if src not in routes:
        return None
    path = [src]
    while path[-1] != dst:
        path.append(routes[path[-1]].next_hop)
    return path


class RouteRows:
    """Per-pair route questions answered from one ``routes_to_many`` call.

    The rows cover every AS of ``topo`` as a destination, so build one
    instance per topology (and a new one after an edge mutation) and ask
    it as many pairs as needed.
    """

    def __init__(self, topo: ASTopology) -> None:
        self.topo = topo
        self.kind, self.length, self.next_hop = topo.routes_to_many(topo.asns)
        self.plane = topo.route_plane()

    def path(self, src: int, dst: int) -> list[int] | None:
        """AS path from ``src`` to ``dst`` (inclusive), or ``None`` if unreachable."""
        if src == dst:
            return [src]
        plane = self.plane
        node = plane.index.get(int(src))
        d = plane.index.get(int(dst))
        if node is None or d is None or self.kind[d, node] < 0:
            return None
        path = [int(src)]
        seen = {node}
        while node != d:
            node = int(self.next_hop[d, node])
            if node in seen:
                raise RuntimeError(f"routing loop towards {dst} at {int(plane.asns[node])}")
            seen.add(node)
            path.append(int(plane.asns[node]))
        return path

    def reachable(self, src: int, dst: int) -> bool:
        return self.path(src, dst) is not None

    def path_crosses_ixp(self, src: int, dst: int) -> bool:
        """True if the src->dst path traverses an IXP peering edge."""
        path = self.path(src, dst)
        if path is None:
            return False
        return any(self.topo.is_ixp_peering(a, b) for a, b in zip(path, path[1:]))

    def transit_asns_on_path(self, src: int, dst: int) -> list[int]:
        """Intermediate ASes (excluding endpoints) on the src->dst path."""
        path = self.path(src, dst)
        return path[1:-1] if path and len(path) > 2 else []
