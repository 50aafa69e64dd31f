"""VisibilityMatrix: parity with the reference oracle, indexing, invalidation."""

import numpy as np
import pytest

from repro.flows.records import FlowTable
from repro.netmodel.topology import TopologyConfig, build_topology
from repro.scenario import Scenario, ScenarioConfig
from repro.stats.rng import SeedSequenceTree
from repro.vantage.matrix import VisibilityMatrix
from tests.reference.visibility import VisibilityOracle
from tests.verdicts import isp_verdicts, ixp_verdicts


@pytest.fixture(scope="module")
def tiny_world():
    """A full Scenario world (topology + attached observatory AS)."""
    config = ScenarioConfig(
        seed=99,
        scale=0.05,
        topology=TopologyConfig(n_tier1=3, n_tier2=8, n_stub=30),
    )
    return Scenario(config)


class TestOracleParity:
    """The dense tables must be bit-identical to the reference per-pair oracle."""

    def test_ixp_all_pairs(self, tiny_world):
        topo = tiny_world.topology
        matrix = VisibilityMatrix(topo)
        oracle = VisibilityOracle(topo)
        visible, peer = matrix.ixp_tables()
        asns = matrix.asns.tolist()
        for i, src in enumerate(asns):
            for j, dst in enumerate(asns):
                verdict = oracle.at_ixp(src, dst)
                assert visible[i, j] == verdict.visible, (src, dst)
                assert peer[i, j] == verdict.peer_asn, (src, dst)

    @pytest.mark.parametrize("ingress_only", [True, False])
    def test_isp_all_pairs(self, tiny_world, ingress_only):
        topo = tiny_world.topology
        matrix = VisibilityMatrix(topo)
        oracle = VisibilityOracle(topo)
        observer = tiny_world.tier1.asn if ingress_only else tiny_world.tier2.asn
        visible, peer = matrix.isp_tables(observer, ingress_only)
        asns = matrix.asns.tolist()
        for i, src in enumerate(asns):
            for j, dst in enumerate(asns):
                verdict = oracle.at_isp(observer, src, dst, ingress_only)
                assert visible[i, j] == verdict.visible, (src, dst)
                assert peer[i, j] == verdict.peer_asn, (src, dst)

    def test_observatory_as_is_covered(self, tiny_world):
        """The measurement AS attached post-build must appear in the index."""
        observatory_asn = tiny_world.config.observatory_asn
        idx = tiny_world.visibility.index_of(np.array([observatory_asn]))
        assert idx[0] >= 0

    def test_unknown_observer_raises(self, tiny_world):
        matrix = VisibilityMatrix(tiny_world.topology)
        with pytest.raises(KeyError):
            matrix.isp_tables(999_999, True)


class TestMaskFallback:
    """Verdicts agree with the oracle's masks when ASNs fall outside the
    registry: such pairs are invisible with peer -1."""

    def _pairs_with_unknowns(self, topo):
        asns = sorted(topo.asns)
        src = np.array([asns[0], -1, asns[3], asns[5], -1, 999_999, asns[2]], dtype=np.int64)
        dst = np.array([asns[4], asns[2], -1, asns[1], -1, asns[0], 999_999], dtype=np.int64)
        return src, dst

    def test_ixp_mask_matches_oracle(self, tiny_world):
        topo = tiny_world.topology
        matrix = VisibilityMatrix(topo)
        oracle = VisibilityOracle(topo)
        src, dst = self._pairs_with_unknowns(topo)
        vis_m, peer_m = ixp_verdicts(matrix, src, dst)
        vis_o, peer_o = oracle.ixp_mask(src, dst)
        np.testing.assert_array_equal(vis_m, vis_o)
        np.testing.assert_array_equal(peer_m, peer_o)

    @pytest.mark.parametrize("ingress_only", [True, False])
    def test_isp_mask_matches_oracle(self, tiny_world, ingress_only):
        topo = tiny_world.topology
        matrix = VisibilityMatrix(topo)
        oracle = VisibilityOracle(topo)
        observer = tiny_world.tier1.asn
        src, dst = self._pairs_with_unknowns(topo)
        vis_m, peer_m = isp_verdicts(matrix, observer, src, dst, ingress_only)
        vis_o, peer_o = oracle.isp_mask(observer, src, dst, ingress_only)
        np.testing.assert_array_equal(vis_m, vis_o)
        np.testing.assert_array_equal(peer_m, peer_o)

    def test_out_of_registry_observer_uses_oracle(self, tiny_world):
        topo = tiny_world.topology
        matrix = VisibilityMatrix(topo)
        oracle = VisibilityOracle(topo)
        src, dst = self._pairs_with_unknowns(topo)
        vis_m, peer_m = isp_verdicts(matrix, 424242, src, dst, False)
        vis_o, peer_o = oracle.isp_mask(424242, src, dst, False)
        np.testing.assert_array_equal(vis_m, vis_o)
        np.testing.assert_array_equal(peer_m, peer_o)
        assert not vis_m.any()


class TestIndexing:
    def test_index_of_unknowns(self, tiny_world):
        matrix = VisibilityMatrix(tiny_world.topology)
        asns = matrix.asns
        values = np.array([-1, int(asns[0]), 999_999, int(asns[-1])], dtype=np.int64)
        idx = matrix.index_of(values)
        np.testing.assert_array_equal(idx, [-1, 0, -1, asns.size - 1])

    def test_pair_index_alignment_required(self, tiny_world):
        matrix = VisibilityMatrix(tiny_world.topology)
        with pytest.raises(ValueError, match="align"):
            matrix.pair_index(np.zeros(3, dtype=np.int64), np.zeros(2, dtype=np.int64))

    def test_stale_pair_index_rejected(self, tiny_world):
        asns = tiny_world.visibility.asns
        table = FlowTable(
            {
                "time": np.full(5, 30 * 86_400.0),
                "src_ip": np.arange(5, dtype=np.uint32),
                "dst_ip": np.arange(5, dtype=np.uint32),
                "proto": np.full(5, 17, dtype=np.uint8),
                "src_port": np.full(5, 123, dtype=np.uint16),
                "dst_port": np.full(5, 40000, dtype=np.uint16),
                "packets": np.full(5, 10, dtype=np.int64),
                "bytes": np.full(5, 4860, dtype=np.int64),
                "src_asn": np.full(5, asns[0], dtype=np.int64),
                "dst_asn": np.full(5, asns[1], dtype=np.int64),
            }
        )
        bad = tiny_world.visibility.pair_index(table["src_asn"][:3], table["dst_asn"][:3])
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="pair indices"):
            tiny_world.ixp.observe([table], rng, indices=[bad])
        with pytest.raises(ValueError, match="pair indices"):
            tiny_world.ixp.observe([table, table], rng, indices=[bad])


class TestInvalidation:
    def test_generation_tracks_topology_edits(self):
        _, topo = build_topology(
            TopologyConfig(n_tier1=2, n_tier2=4, n_stub=8), SeedSequenceTree(5).child("w")
        )
        matrix = VisibilityMatrix(topo)
        before = matrix.generation
        matrix.ixp_tables()
        asns = sorted(topo.asns)
        topo.add_peering(asns[-1], asns[-2], via_ixp=True)
        assert matrix.generation > before

    def test_tables_rebuilt_after_edit(self):
        _, topo = build_topology(
            TopologyConfig(n_tier1=2, n_tier2=4, n_stub=8), SeedSequenceTree(5).child("w")
        )
        matrix = VisibilityMatrix(topo)
        matrix.ixp_tables()
        asns = sorted(topo.asns)
        topo.add_peering(asns[-1], asns[-2], via_ixp=True)
        oracle = VisibilityOracle(topo)
        visible, peer = matrix.ixp_tables()
        for i, src in enumerate(matrix.asns.tolist()):
            for j, dst in enumerate(matrix.asns.tolist()):
                verdict = oracle.at_ixp(src, dst)
                assert visible[i, j] == verdict.visible, (src, dst)
                assert peer[i, j] == verdict.peer_asn, (src, dst)
