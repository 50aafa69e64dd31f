"""Tests for the AS registry, topology builder, and valley-free routing."""

import numpy as np
import pytest

from repro.netmodel.addressing import Prefix, parse_ip
from repro.netmodel.asn import ASRegistry, ASRole, AutonomousSystem
from repro.netmodel.topology import ASTopology, TopologyConfig, build_topology
from repro.stats.rng import SeedSequenceTree
from tests.reference.routes import RouteRows


def make_as(asn, role=ASRole.STUB, prefix=None, member=False):
    prefixes = (Prefix.parse(prefix),) if prefix else ()
    return AutonomousSystem(asn, role, prefixes, ixp_member=member)


class TestASRegistry:
    def test_register_and_get(self):
        reg = ASRegistry()
        reg.register(make_as(10, prefix="10.0.0.0/16"))
        assert reg.get(10).asn == 10
        assert 10 in reg
        assert len(reg) == 1

    def test_duplicate_asn_rejected(self):
        reg = ASRegistry()
        reg.register(make_as(10))
        with pytest.raises(ValueError):
            reg.register(make_as(10))

    def test_unknown_asn(self):
        with pytest.raises(KeyError):
            ASRegistry().get(99)

    def test_overlapping_prefix_rejected(self):
        reg = ASRegistry()
        reg.register(make_as(10, prefix="10.0.0.0/16"))
        with pytest.raises(ValueError):
            reg.register(make_as(11, prefix="10.0.1.0/24"))

    def test_resolve_address(self):
        reg = ASRegistry()
        reg.register(make_as(10, prefix="10.0.0.0/16"))
        reg.register(make_as(11, prefix="10.1.0.0/16"))
        assert reg.resolve_address(parse_ip("10.0.5.5")) == 10
        assert reg.resolve_address(parse_ip("10.1.5.5")) == 11
        assert reg.resolve_address(parse_ip("99.0.0.1")) is None

    def test_resolve_addresses_vectorized(self):
        reg = ASRegistry()
        reg.register(make_as(10, prefix="10.0.0.0/16"))
        addrs = np.array(
            [parse_ip("10.0.0.1"), parse_ip("8.8.8.8"), parse_ip("10.0.255.255")],
            dtype=np.uint32,
        )
        np.testing.assert_array_equal(reg.resolve_addresses(addrs), [10, -1, 10])

    def test_resolve_empty_registry(self):
        out = ASRegistry().resolve_addresses(np.array([1, 2], dtype=np.uint32))
        np.testing.assert_array_equal(out, [-1, -1])

    def test_by_role_and_members(self):
        reg = ASRegistry()
        reg.register(make_as(1, role=ASRole.TIER1))
        reg.register(make_as(2, role=ASRole.STUB, member=True))
        assert [a.asn for a in reg.by_role(ASRole.TIER1)] == [1]
        assert [a.asn for a in reg.ixp_members()] == [2]

    def test_invalid_asn(self):
        with pytest.raises(ValueError):
            AutonomousSystem(0, ASRole.STUB)


class TestASTopologyRouting:
    """Hand-built topology:

        T1a --peer-- T1b
         |            |
        T2a          T2b      (customers of the tier-1s)
         |            |
        S1           S2       (stubs)

    plus an IXP peering edge T2a -- T2b.
    """

    @pytest.fixture
    def topo(self):
        reg = ASRegistry()
        for asn in (1, 2, 11, 12, 21, 22):
            reg.register(make_as(asn))
        t = ASTopology(reg)
        t.add_peering(1, 2)
        t.add_customer_provider(11, 1)
        t.add_customer_provider(12, 2)
        t.add_customer_provider(21, 11)
        t.add_customer_provider(22, 12)
        t.add_peering(11, 12, via_ixp=True)
        return t

    def test_customer_route_preferred(self, topo):
        # 1 -> 21 goes straight down its customer chain.
        assert RouteRows(topo).path(1, 21) == [1, 11, 21]

    def test_peer_route_used_across_ixp(self, topo):
        # 21 -> 22: up to 11, across the IXP peer edge to 12, down to 22.
        rows = RouteRows(topo)
        assert rows.path(21, 22) == [21, 11, 12, 22]
        assert rows.path_crosses_ixp(21, 22)

    def test_tier1_peering_not_ixp(self, topo):
        assert RouteRows(topo).path(11, 2) is not None
        assert not topo.is_ixp_peering(1, 2)

    def test_self_path(self, topo):
        assert RouteRows(topo).path(21, 21) == [21]

    def test_customer_cone(self, topo):
        assert topo.customer_cone(1) == {1, 11, 21}
        assert topo.customer_cone(21) == {21}

    def test_valley_free_no_peer_then_up(self):
        """A route must not go peer -> provider (that would be a valley)."""
        reg = ASRegistry()
        for asn in (1, 2, 3):
            reg.register(make_as(asn))
        t = ASTopology(reg)
        # 1 -peer- 2, and 3 is a provider of 2. 1 cannot reach 3 via 2.
        t.add_peering(1, 2)
        t.add_customer_provider(2, 3)
        assert topo_path_kinds_ok(RouteRows(t), 1, 3)

    def test_reachability(self, topo):
        rows = RouteRows(topo)
        assert rows.reachable(21, 22)
        assert rows.reachable(1, 22)

    def test_transit_asns_on_path(self, topo):
        rows = RouteRows(topo)
        assert rows.transit_asns_on_path(21, 22) == [11, 12]
        assert rows.transit_asns_on_path(21, 11) == []

    def test_relationship_conflicts_rejected(self, topo):
        with pytest.raises(ValueError):
            topo.add_peering(11, 1)  # already customer/provider
        with pytest.raises(ValueError):
            topo.add_customer_provider(1, 2)  # already peers
        with pytest.raises(ValueError):
            topo.add_peering(1, 1)
        with pytest.raises(ValueError):
            topo.add_customer_provider(1, 1)


def topo_path_kinds_ok(rows, src, dst):
    """Either unreachable, or the found path is valley-free."""
    t = rows.topo
    path = rows.path(src, dst)
    if path is None:
        return True
    # Classify each hop and verify no c2p appears after a p2p or p2c hop.
    descended = False
    for a, b in zip(path, path[1:]):
        if b in t.providers(a):
            if descended:
                return False
        elif b in t.peers(a):
            if descended:
                return False
            descended = True
        elif b in t.customers(a):
            descended = True
        else:
            return False
    return True


class TestBuildTopology:
    @pytest.fixture(scope="class")
    def built(self):
        config = TopologyConfig(n_tier1=4, n_tier2=10, n_stub=30)
        return build_topology(config, SeedSequenceTree(42))

    def test_counts(self, built):
        reg, _ = built
        assert len(reg.by_role(ASRole.TIER1)) == 4
        assert len(reg.by_role(ASRole.TIER2)) == 10
        assert len(reg.by_role(ASRole.STUB)) == 30

    def test_deterministic(self):
        config = TopologyConfig(n_tier1=3, n_tier2=5, n_stub=10)
        reg1, t1 = build_topology(config, SeedSequenceTree(7))
        reg2, t2 = build_topology(config, SeedSequenceTree(7))
        assert [a.asn for a in reg1.ixp_members()] == [a.asn for a in reg2.ixp_members()]
        for asn in reg1.asns:
            assert t1.providers(asn) == t2.providers(asn)

    def test_full_reachability(self, built):
        """Every AS can reach every other AS (valley-free)."""
        reg, topo = built
        asns = reg.asns
        rows = RouteRows(topo)
        rng = np.random.default_rng(0)
        for src in rng.choice(asns, 15, replace=False):
            for dst in rng.choice(asns, 15, replace=False):
                assert rows.reachable(int(src), int(dst)), f"{src} !-> {dst}"

    def test_all_paths_valley_free(self, built):
        reg, topo = built
        rng = np.random.default_rng(1)
        asns = reg.asns
        rows = RouteRows(topo)
        for _ in range(100):
            src, dst = rng.choice(asns, 2, replace=False)
            assert topo_path_kinds_ok(rows, int(src), int(dst))

    def test_disjoint_prefixes(self, built):
        reg, _ = built
        seen = []
        for asys in reg:
            for p in asys.prefixes:
                for q in seen:
                    assert not (p.contains(q.network) or q.contains(p.network))
                seen.append(p)

    def test_ixp_member_peering_marked(self, built):
        reg, topo = built
        members = [a.asn for a in reg.ixp_members()]
        assert len(members) >= 2
        a, b = members[0], members[1]
        if b in topo.peers(a):
            assert topo.is_ixp_peering(a, b)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TopologyConfig(n_tier1=1)
        with pytest.raises(ValueError):
            TopologyConfig(stub_ixp_member_fraction=1.5)
