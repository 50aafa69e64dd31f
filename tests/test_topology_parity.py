"""Parity of the vectorized topology/visibility planes with the reference engines.

The batched Gao-Rexford route engine and both visibility-matrix storage
modes must reproduce the reference dict BFS and the per-pair oracle in
``tests/reference`` bit for bit over any topology. These properties are
asserted over randomized small worlds (hypothesis) plus directed
regressions for the block LRU bounds and unknown-ASN handling.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.netmodel.topology import TopologyConfig, build_topology
from repro.obs import MetricsRegistry, use_metrics
from repro.stats.rng import SeedSequenceTree
from repro.vantage.matrix import VisibilityMatrix
from tests.reference.routes import RouteRows, _routes_to_legacy, customer_cone
from tests.reference.visibility import VisibilityOracle
from tests.verdicts import isp_verdicts, ixp_verdicts

slow_settings = settings(
    max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

topo_configs = st.builds(
    TopologyConfig,
    n_tier1=st.integers(2, 4),
    n_tier2=st.integers(2, 8),
    n_stub=st.integers(4, 24),
    tier2_ixp_member_fraction=st.sampled_from([0.0, 0.4, 0.8, 1.0]),
    stub_ixp_member_fraction=st.sampled_from([0.0, 0.2, 0.5]),
    tier2_peering_prob=st.sampled_from([0.0, 0.2, 0.6]),
)


def _world(config, seed):
    return build_topology(config, SeedSequenceTree(seed).child("w"))


def _entry_tuples(routes):
    return {asn: (e.kind, e.length, e.next_hop) for asn, e in routes.items()}


def _row_tuples(plane, kind, length, hop):
    """One ``routes_to_many`` row in the shape of :func:`_entry_tuples`."""
    kinds = ("down", "peer", "up")
    return {
        int(plane.asns[i]): (
            kinds[kind[i]],
            int(length[i]),
            -1 if hop[i] < 0 else int(plane.asns[hop[i]]),
        )
        for i in np.flatnonzero(kind >= 0).tolist()
    }


class TestRouteEngineParity:
    @slow_settings
    @given(config=topo_configs, seed=st.integers(0, 2**32 - 1))
    def test_array_engine_matches_legacy_bfs(self, config, seed):
        """Every destination's route tree is identical across engines."""
        _, topo = _world(config, seed)
        kind, length, hop = topo.routes_to_many(topo.asns)
        plane = topo.route_plane()
        for row, dst in enumerate(topo.asns):
            assert _row_tuples(plane, kind[row], length[row], hop[row]) == _entry_tuples(
                _routes_to_legacy(topo, dst)
            ), dst

    @slow_settings
    @given(config=topo_configs, seed=st.integers(0, 2**32 - 1))
    def test_routes_to_many_matches_single(self, config, seed):
        """Rows do not depend on chunking: a batch spanning several chunks
        yields, per destination, the row of a single one-chunk call over
        every AS (hypothesis worlds are far below one chunk)."""
        _, topo = _world(config, seed)
        asns = topo.asns
        n = len(asns)
        kind, length, hop = topo.routes_to_many(asns)
        dsts = list(asns)
        while len(dsts) <= (1 << 18) // n:
            dsts += asns[::-1] + asns
        ck, cl, ch = topo.routes_to_many(dsts)
        row_of = {dst: row for row, dst in enumerate(asns)}
        rows = [row_of[dst] for dst in dsts]
        np.testing.assert_array_equal(ck, kind[rows])
        np.testing.assert_array_equal(cl, length[rows])
        np.testing.assert_array_equal(ch, hop[rows])

    def test_path_uses_seen_set_and_matches_route_tree(self):
        _, topo = _world(TopologyConfig(n_tier1=3, n_tier2=6, n_stub=20), 11)
        rows = RouteRows(topo)
        for dst in topo.asns[:10]:
            routes = _routes_to_legacy(topo, dst)
            for src in topo.asns:
                path = rows.path(src, dst)
                if src == dst:
                    assert path == [src]
                elif src not in routes:
                    assert path is None
                else:
                    assert path is not None
                    assert path[0] == src and path[-1] == dst
                    assert len(path) == routes[src].length + 1
                    assert len(set(path)) == len(path)

    def test_customer_cone_memoized_per_version(self):
        _, topo = _world(TopologyConfig(n_tier1=2, n_tier2=4, n_stub=8), 3)
        t1 = sorted(topo.asns)[0]
        first = topo.customer_cone_mask(t1)
        assert topo.customer_cone_mask(t1) is first  # memo hit
        stubs = sorted(topo.asns)
        topo.add_customer_provider(stubs[-1], stubs[-2])
        assert topo.customer_cone_mask(t1) is not first  # version bump cleared it

    def test_cone_mask_matches_cone(self):
        _, topo = _world(TopologyConfig(n_tier1=3, n_tier2=5, n_stub=12), 5)
        plane = topo.route_plane()
        for asn in topo.asns:
            mask = topo.customer_cone_mask(asn)
            assert set(plane.asns[mask].tolist()) == customer_cone(topo, asn)
            assert topo.customer_cone(asn) == customer_cone(topo, asn)


class TestRouteCacheBounds:
    def test_cache_cleared_on_edge_mutation(self):
        """The CSR plane snapshot is rebuilt after an edge mutation and
        routes see the new edge."""
        _, topo = _world(TopologyConfig(n_tier1=2, n_tier2=4, n_stub=8), 13)
        first = topo.route_plane()
        assert topo.route_plane() is first
        asns = sorted(topo.asns)
        topo.add_peering(asns[-1], asns[-2], via_ixp=True)
        plane = topo.route_plane()
        assert plane is not first and plane.version == topo.version
        kind, length, hop = topo.routes_to_many([asns[-2]])
        assert _row_tuples(plane, kind[0], length[0], hop[0]) == _entry_tuples(
            _routes_to_legacy(topo, asns[-2])
        )


class TestMatrixModeParity:
    @slow_settings
    @given(
        config=topo_configs,
        seed=st.integers(0, 2**32 - 1),
        block_columns=st.sampled_from([1, 3, 8, 64]),
    )
    def test_blocked_matches_dense_and_oracle_all_views(
        self, config, seed, block_columns
    ):
        """All pairs plus out-of-registry ones, all observer views,
        dense == blocked == oracle."""
        _, topo = _world(config, seed)
        asns = np.asarray(sorted(topo.asns))
        n = asns.size
        dense = VisibilityMatrix(topo)
        blocked = VisibilityMatrix(topo, dense_max_asns=0, block_columns=block_columns)
        assert not dense.blocked and blocked.blocked
        oracle = VisibilityOracle(topo)
        ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        si, di = ii.ravel(), jj.ravel()
        unknown = np.array([-1, 999_999, int(asns[0]), -1, int(asns[-1])])
        src = np.concatenate([asns[si], unknown])
        dst = np.concatenate([asns[di], unknown[::-1]])

        views = [("ixp", None, None)]
        tier1 = int(asns[0])
        member = next(
            (int(a) for a in asns.tolist() if topo.registry.get(a).ixp_member), None
        )
        views.append(("isp", tier1, True))  # tier-1 ingress_only cone view
        views.append(("isp", tier1, False))
        if member is not None:
            views.append(("isp", member, False))
        for kind, obs, ingress in views:
            if kind == "ixp":
                dv, dp = ixp_verdicts(dense, src, dst)
                bv, bp = ixp_verdicts(blocked, src, dst)
                ov, op = oracle.ixp_mask(src, dst)
            else:
                dv, dp = isp_verdicts(dense, obs, src, dst, ingress)
                bv, bp = isp_verdicts(blocked, obs, src, dst, ingress)
                ov, op = oracle.isp_mask(obs, src, dst, ingress)
            view = f"{kind}/{obs}/{ingress}"
            np.testing.assert_array_equal(dv, bv, err_msg=view)
            np.testing.assert_array_equal(dp, bp, err_msg=view)
            np.testing.assert_array_equal(dv, ov, err_msg=view)
            np.testing.assert_array_equal(dp, op, err_msg=view)

    def test_block_lru_evicts_and_counts(self):
        _, topo = _world(TopologyConfig(n_tier1=3, n_tier2=6, n_stub=24), 21)
        n = len(topo.asns)
        dense = VisibilityMatrix(topo)
        # Budget ~2 single-column blocks: scanning all columns must evict.
        tiny = VisibilityMatrix(
            topo, dense_max_asns=0, block_columns=1, budget_bytes=2 * n * 5 + 1
        )
        asns = np.asarray(sorted(topo.asns))
        ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        src, dst = asns[ii.ravel()], asns[jj.ravel()]
        cells = tiny.pair_index(src, dst)
        with use_metrics(MetricsRegistry()) as registry:
            (tv,), peers = tiny.ixp_verdicts([cells])
        assert tiny.blocks_built == n
        assert tiny.evictions >= n - 3
        assert tiny.resident_bytes <= tiny.budget_bytes
        assert registry.counter("matrix.blocks_built") == n
        assert registry.counter("matrix.evictions") == tiny.evictions
        dv, dp = ixp_verdicts(dense, src, dst)
        np.testing.assert_array_equal(tv, dv)
        np.testing.assert_array_equal(peers([np.arange(cells.size)]), dp)

    def test_blocked_mode_day_observation_matches_dense(self):
        """A full observation day resolves identically in both modes."""
        from repro.scenario import Scenario, ScenarioConfig

        base = dict(seed=77, scale=0.05, n_days=82)
        topo_cfg = TopologyConfig(n_tier1=3, n_tier2=8, n_stub=30)
        dense_sc = Scenario(ScenarioConfig(**base, topology=topo_cfg))
        blocked_sc = Scenario(ScenarioConfig(**base, topology=topo_cfg))
        blocked_sc.visibility.dense_max_asns = 0
        blocked_sc.visibility.block_columns = 5
        assert dense_sc.visibility.blocked is False
        assert blocked_sc.visibility.blocked is True
        for day in (79, 80):
            dense_traffic = dense_sc.day_traffic(day)
            blocked_traffic = blocked_sc.day_traffic(day)
            for vantage in ("ixp", "tier1", "tier2"):
                w = dense_sc.observe_day(vantage, dense_traffic)
                g = blocked_sc.observe_day(vantage, blocked_traffic)
                assert len(w) == len(g), (day, vantage)
                for col in ("src_asn", "dst_asn", "peer_asn", "bytes"):
                    np.testing.assert_array_equal(
                        w[col], g[col], err_msg=f"{day}/{vantage}/{col}"
                    )

    def test_unknown_observer_raises_in_blocked_mode(self):
        _, topo = _world(TopologyConfig(n_tier1=2, n_tier2=4, n_stub=8), 31)
        blocked = VisibilityMatrix(topo, dense_max_asns=0)
        with pytest.raises(KeyError):
            blocked.isp_tables(999_999, False)
        asns = sorted(topo.asns)
        visible, peers = isp_verdicts(blocked, 999_999, asns, asns[::-1], False)
        assert not visible.any() and (peers == -1).all()
        assert blocked.blocks_built == 0
        assert not blocked.knows_observer(999_999)
        assert blocked.knows_observer(sorted(topo.asns)[0])


class TestIndexOfFallbacks:
    """``index_of`` must flag out-of-registry ASNs in both lookup modes."""

    def _matrix(self, monkeypatch, force_searchsorted):
        _, topo = _world(TopologyConfig(n_tier1=2, n_tier2=4, n_stub=8), 41)
        if force_searchsorted:
            monkeypatch.setattr(VisibilityMatrix, "_LUT_MAX_ASN", 1)
        return VisibilityMatrix(topo)

    @pytest.mark.parametrize("force_searchsorted", [False, True])
    def test_out_of_registry_values(self, monkeypatch, force_searchsorted):
        matrix = self._matrix(monkeypatch, force_searchsorted)
        if force_searchsorted:
            assert matrix._lut is None
        else:
            assert matrix._lut is not None
        asns = matrix.asns
        values = np.array(
            [-1, int(asns[0]), int(asns[0]) - 1, int(asns[-1]), int(asns[-1]) + 1, 999_999],
            dtype=np.int64,
        )
        idx = matrix.index_of(values)
        np.testing.assert_array_equal(idx, [-1, 0, -1, asns.size - 1, -1, -1])

    @pytest.mark.parametrize("force_searchsorted", [False, True])
    def test_mask_fallback_agrees_with_oracle(self, monkeypatch, force_searchsorted):
        _, topo = _world(TopologyConfig(n_tier1=2, n_tier2=4, n_stub=8), 41)
        if force_searchsorted:
            monkeypatch.setattr(VisibilityMatrix, "_LUT_MAX_ASN", 1)
        matrix = VisibilityMatrix(topo)
        oracle = VisibilityOracle(topo)
        asns = sorted(topo.asns)
        src = np.array([asns[0], -1, 999_999, asns[2], asns[1]], dtype=np.int64)
        dst = np.array([asns[3], asns[1], asns[0], -1, 999_999], dtype=np.int64)
        for got, want in (
            (ixp_verdicts(matrix, src, dst), oracle.ixp_mask(src, dst)),
            (isp_verdicts(matrix, asns[0], src, dst, True), oracle.isp_mask(asns[0], src, dst, True)),
        ):
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])


class TestBulkAdders:
    def test_bulk_edges_match_sequential(self):
        cfg = TopologyConfig(n_tier1=3, n_tier2=5, n_stub=10)
        reg_a, topo_a = _world(cfg, 51)
        version_before = topo_a.version

        reg_b, topo_b = _world(cfg, 51)
        asns = sorted(topo_a.asns)
        pairs = [(asns[-1], asns[-2]), (asns[-3], asns[-4])]
        topo_a.add_peering_edges(pairs, via_ixp=True)
        for a, b in pairs:
            topo_b.add_peering(a, b, via_ixp=True)
        assert topo_a.version > version_before
        for a in asns:
            assert topo_a.peers(a) == topo_b.peers(a)
        assert topo_a._ixp_peer_edges == topo_b._ixp_peer_edges

    def test_bulk_adder_rejects_conflicts(self):
        _, topo = _world(TopologyConfig(n_tier1=2, n_tier2=4, n_stub=8), 61)
        asns = sorted(topo.asns)
        provider = next(iter(topo.providers(asns[-1])))
        with pytest.raises(ValueError, match="conflicting"):
            topo.add_peering_edges([(asns[-1], provider)])
        with pytest.raises(ValueError, match="own provider"):
            topo.add_customer_provider_edges([(asns[0], asns[0])])

    def test_multilateral_mesh_matches_pairwise(self):
        cfg = TopologyConfig(n_tier1=3, n_tier2=6, n_stub=12)
        _, topo_a = _world(cfg, 71)
        _, topo_b = _world(cfg, 71)
        members = sorted(topo_a.asns)[:6]
        added = topo_a.add_multilateral_peering(members)
        count = 0
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                if b in topo_b.providers(a) or b in topo_b.customers(a):
                    continue
                if b in topo_b.peers(a):
                    continue
                topo_b.add_peering(a, b, via_ixp=True)
                count += 1
        assert added == count
        for a in members:
            assert topo_a.peers(a) == topo_b.peers(a)
        assert topo_a._ixp_peer_edges == topo_b._ixp_peer_edges


class TestScaleConfig:
    def test_internet_scale_shapes(self):
        cfg = TopologyConfig.internet_scale(10_000)
        assert cfg.n_asns == 10_000
        assert 8 <= cfg.n_tier1 <= 20
        with pytest.raises(ValueError):
            TopologyConfig.internet_scale(100)

    def test_uplink_sampler_builds_valid_world(self):
        cfg = TopologyConfig(n_tier1=3, n_tier2=10, n_stub=40)
        _, topo = _world(cfg, 81)
        assert len(topo.asns) == cfg.n_asns
        # Every non-tier-1 AS has at least one provider (connected transit).
        asns = sorted(topo.asns)
        for asn in asns[cfg.n_tier1 :]:
            assert topo.providers(asn), asn
        # Uplinks are distinct per AS (sampling without replacement).
        for asn in asns[cfg.n_tier1 :]:
            provs = topo.providers(asn)
            assert len(provs) == len(set(provs))
        # Deterministic: same seed, same world.
        _, topo2 = _world(cfg, 81)
        assert topo.asns == topo2.asns
        for a in topo.asns:
            assert topo.providers(a) == topo2.providers(a)
            assert topo.peers(a) == topo2.peers(a)
