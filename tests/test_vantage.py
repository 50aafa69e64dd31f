"""Tests for vantage points: visibility, observation pipeline, observatory."""

import numpy as np
import pytest

from repro.booter.catalog import BOOTER_CATALOG
from repro.booter.reflectors import ReflectorChurnConfig, ReflectorPool, ReflectorSetProcess
from repro.booter.service import BooterService, ServicePlan
from repro.flows.records import FlowTable
from repro.netmodel.addressing import Prefix, PrefixAnonymizer
from repro.netmodel.asn import ASRegistry, ASRole, AutonomousSystem
from repro.netmodel.topology import ASTopology, TopologyConfig, build_topology
from repro.stats.rng import SeedSequenceTree
from repro.vantage.base import CaptureWindow
from repro.vantage.isp import ISPVantagePoint
from repro.vantage.ixp import IXPVantagePoint
from repro.vantage.matrix import VisibilityMatrix
from repro.vantage.observatory import IXPObservatory
from tests.reference.visibility import VisibilityOracle
from tests.verdicts import isp_verdicts, ixp_verdicts


@pytest.fixture
def small_topo():
    """T1 (AS1) -- T1 (AS2) peering clique; M1 (AS11), M2 (AS12) tier-2 IXP
    members under them; C1 (AS21) customer of M1; N (AS31) non-member stub
    under AS2."""
    reg = ASRegistry()
    reg.register(AutonomousSystem(1, ASRole.TIER1))
    reg.register(AutonomousSystem(2, ASRole.TIER1))
    reg.register(AutonomousSystem(11, ASRole.TIER2, ixp_member=True))
    reg.register(AutonomousSystem(12, ASRole.TIER2, ixp_member=True))
    reg.register(AutonomousSystem(21, ASRole.STUB))
    reg.register(AutonomousSystem(31, ASRole.STUB))
    topo = ASTopology(reg)
    topo.add_peering(1, 2)
    topo.add_customer_provider(11, 1)
    topo.add_customer_provider(12, 2)
    topo.add_customer_provider(21, 11)
    topo.add_customer_provider(31, 2)
    topo.add_peering(11, 12, via_ixp=True)
    return reg, topo


def flows_for_pairs(pairs, packets=100):
    n = len(pairs)
    return FlowTable(
        {
            "time": np.zeros(n),
            "src_ip": np.arange(n, dtype=np.uint32),
            "dst_ip": np.arange(100, 100 + n, dtype=np.uint32),
            "proto": np.full(n, 17, dtype=np.uint8),
            "src_port": np.full(n, 123, dtype=np.uint16),
            "dst_port": np.full(n, 50000, dtype=np.uint16),
            "packets": np.full(n, packets, dtype=np.int64),
            "bytes": np.full(n, packets * 486, dtype=np.int64),
            "src_asn": np.array([p[0] for p in pairs], dtype=np.int64),
            "dst_asn": np.array([p[1] for p in pairs], dtype=np.int64),
        }
    )


def at_ixp(topo, src, dst):
    """(visible, peer ASN) of one pair through ``VisibilityMatrix.ixp_verdicts``."""
    mask, peers = ixp_verdicts(VisibilityMatrix(topo), np.array([src]), np.array([dst]))
    return bool(mask[0]), int(peers[0])


def at_isp(topo, observer, src, dst, ingress_only):
    """(visible, peer ASN) of one pair through ``VisibilityMatrix.isp_verdicts``."""
    mask, peers = isp_verdicts(
        VisibilityMatrix(topo), observer, np.array([src]), np.array([dst]), ingress_only
    )
    return bool(mask[0]), int(peers[0])


class TestFlowVisibility:
    """Hand-computed flow visibility verdicts on :func:`small_topo`."""

    def test_ixp_sees_cross_member_traffic(self, small_topo):
        _, topo = small_topo
        # 21 -> 11 -> (IXP) -> 12
        assert at_ixp(topo, 21, 12) == (True, 11)

    def test_ixp_blind_to_transit_paths(self, small_topo):
        _, topo = small_topo
        assert at_ixp(topo, 21, 31) == (False, -1)  # goes 21-11-1-2-31, no IXP edge
        assert at_ixp(topo, 1, 2) == (False, -1)  # private tier-1 peering

    def test_ixp_same_as_invisible(self, small_topo):
        _, topo = small_topo
        assert at_ixp(topo, 11, 11) == (False, -1)

    def test_isp_on_path_visible(self, small_topo):
        # 31 -> 21 routes 31-2-1-11-21, crossing AS1; 31 is outside AS1's
        # customer cone, so the tier-1 ingress-only trace contains it.
        _, topo = small_topo
        assert at_isp(topo, 1, 31, 21, ingress_only=True) == (True, 2)

    def test_isp_customer_cone_src_excluded_even_in_transit(self, small_topo):
        # 21 -> 31 crosses AS1 too, but 21 sits in AS1's customer cone, so
        # the ingress-only trace (no customer-sourced traffic) drops it.
        _, topo = small_topo
        assert not at_isp(topo, 1, 21, 31, ingress_only=True)[0]
        assert at_isp(topo, 1, 21, 31, ingress_only=False)[0]

    def test_isp_off_path_invisible(self, small_topo):
        _, topo = small_topo
        assert not at_isp(topo, 2, 21, 12, ingress_only=True)[0]

    def test_ingress_only_excludes_customer_sourced(self, small_topo):
        _, topo = small_topo
        # 11 is in AS1's customer cone: tier-1 ingress-only excludes it...
        assert not at_isp(topo, 1, 11, 31, ingress_only=True)[0]
        # ...but the tier-2 style (both directions) includes it.
        assert at_isp(topo, 1, 11, 31, ingress_only=False)[0]

    def test_unknown_asn_invisible(self, small_topo):
        """ASNs outside the topology — unresolved (-1) or unregistered —
        on either side of a flow make it invisible with peer -1, and an
        observer outside the topology sees nothing."""
        _, topo = small_topo
        matrix = VisibilityMatrix(topo)
        # Rows: -1 src, positive unknown dst, positive unknown src, -1 on
        # both sides; the last row is a visible control.
        srcs = np.array([-1, 21, 999_999, -1, 21])
        dsts = np.array([12, 999_999, 12, -1, 12])
        mask, peers = ixp_verdicts(matrix, srcs, dsts)
        np.testing.assert_array_equal(mask, [False, False, False, False, True])
        np.testing.assert_array_equal(peers, [-1, -1, -1, -1, 11])
        for ingress_only in (True, False):
            mask, peers = isp_verdicts(matrix, 1, srcs, dsts, ingress_only)
            np.testing.assert_array_equal(mask[:4], False)
            np.testing.assert_array_equal(peers[:4], -1)
        assert at_isp(topo, 1, -1, 31, ingress_only=False) == (False, -1)
        mask, peers = isp_verdicts(matrix, 999_999, np.array([31, 21]), np.array([21, 31]), False)
        assert not mask.any() and (peers == -1).all()

    def test_vectorized_matches_scalar(self, small_topo):
        _, topo = small_topo
        oracle = VisibilityOracle(topo)
        srcs = np.array([21, 21, 1, -1])
        dsts = np.array([12, 31, 2, 12])
        mask, peers = ixp_verdicts(VisibilityMatrix(topo), srcs, dsts)
        expected = [oracle.at_ixp(s, d) for s, d in zip(srcs, dsts)]
        np.testing.assert_array_equal(mask, [e.visible for e in expected])
        np.testing.assert_array_equal(peers, [e.peer_asn for e in expected])

    def test_mask_shape_mismatch(self, small_topo):
        _, topo = small_topo
        with pytest.raises(ValueError):
            VisibilityMatrix(topo).pair_index(np.array([1]), np.array([1, 2]))


class TestCaptureWindow:
    def test_contains(self):
        w = CaptureWindow(10, 20)
        assert w.contains_day(10) and w.contains_day(19)
        assert not w.contains_day(9) and not w.contains_day(20)
        assert w.n_days == 10

    def test_clip_table(self):
        t = flows_for_pairs([(21, 12)] * 3)
        t = t.with_columns(time=np.array([0.0, 86_400.0 * 5, 86_400.0 * 15]))
        clipped = CaptureWindow(0, 10).clip_table(t)
        assert len(clipped) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            CaptureWindow(5, 5)


class TestVantagePoints:
    def test_ixp_observe_pipeline(self, small_topo):
        _, topo = small_topo
        vp = IXPVantagePoint(
            VisibilityMatrix(topo),
            CaptureWindow(0, 10),
            sampling_denominator=1,
            anonymizer=PrefixAnonymizer("k"),
        )
        t = flows_for_pairs([(21, 12), (21, 31), (11, 12)])
        out = vp.observe([t], np.random.default_rng(0))
        assert len(out) == 2  # (21,12) via peer 11 and (11,12) direct
        assert set(out["peer_asn"].tolist()) == {11}
        # Anonymized addresses differ from originals.
        assert not np.array_equal(out["src_ip"], t.filter(np.array([True, False, True]))["src_ip"])

    def test_ixp_sampling_loses_small_flows(self, small_topo):
        _, topo = small_topo
        vp = IXPVantagePoint(VisibilityMatrix(topo), CaptureWindow(0, 10), sampling_denominator=10_000)
        t = flows_for_pairs([(21, 12)] * 20, packets=2)
        out = vp.observe([t], np.random.default_rng(0))
        assert len(out) < 3

    def test_tier1_excludes_customer_sourced(self, small_topo):
        _, topo = small_topo
        vp = ISPVantagePoint(
            1, VisibilityMatrix(topo), CaptureWindow(0, 10), ingress_only=True, sampling_denominator=1
        )
        t = flows_for_pairs([(11, 31), (31, 12)])
        out = vp.observe([t], np.random.default_rng(0))
        # (11,31): sourced in AS1's cone -> excluded. (31,12): 31-2-1-11?
        # path 31->12 = 31-2-12 doesn't cross AS1. So depends on topology;
        # assert only that customer-sourced flow is gone.
        assert 11 not in out["src_asn"]

    def test_tier2_sees_both_directions(self, small_topo):
        _, topo = small_topo
        vp = ISPVantagePoint(
            11, VisibilityMatrix(topo), CaptureWindow(0, 10), ingress_only=False, sampling_denominator=1
        )
        t = flows_for_pairs([(21, 12), (12, 21), (11, 12)])
        out = vp.observe([t], np.random.default_rng(0))
        assert len(out) == 3

    def test_isp_validation(self, small_topo):
        _, topo = small_topo
        with pytest.raises(ValueError):
            ISPVantagePoint(0, VisibilityMatrix(topo), CaptureWindow(0, 1), ingress_only=True)


@pytest.fixture(scope="module")
def observatory_env():
    reg, topo = build_topology(TopologyConfig(n_tier1=3, n_tier2=10, n_stub=60), SeedSequenceTree(1))
    # Attach the measurement AS: transit from a tier-1, member of the IXP.
    meas_prefix = Prefix.parse("198.51.100.0/24")
    tier1 = reg.by_role(ASRole.TIER1)[0].asn
    meas_asn = 9999
    reg.register(
        AutonomousSystem(meas_asn, ASRole.MEASUREMENT, (meas_prefix,), ixp_member=True)
    )
    topo._ensure(meas_asn)
    topo.add_customer_provider(meas_asn, tier1)
    for member in reg.ixp_members():
        if member.asn != meas_asn:
            topo.add_peering(meas_asn, member.asn, via_ixp=True)
    obs = IXPObservatory(reg, topo, meas_asn, meas_prefix, transit_provider=tier1)
    pool = ReflectorPool.generate("ntp", 2000, reg, SeedSequenceTree(2))
    seeds = SeedSequenceTree(3)
    service = BooterService(
        catalog=BOOTER_CATALOG["B"],
        plans={
            "non-vip": ServicePlan("non-vip", 19.83, total_packet_rate_pps=370_000.0),
            "vip": ServicePlan("vip", 178.84, total_packet_rate_pps=5.3e6),
        },
        reflector_sets={
            "ntp": ReflectorSetProcess(pool, ReflectorChurnConfig(set_size=300), seeds.child("r"))
        },
        popularity=0.2,
        backend_asn=reg.by_role(ASRole.STUB)[0].asn,
        backend_ip=1,
    )
    return obs, service


class TestObservatory:
    def launch(self, obs, service, plan="non-vip", duration=60.0):
        victim = obs.measurement_ip(1)
        return service.launch_attack(
            victim_ip=victim,
            victim_asn=obs.asn,
            vector_name="ntp",
            start_time=0.0,
            duration_s=duration,
            plan_name=plan,
            day=0,
            seeds=SeedSequenceTree(11),
        )

    def test_fresh_victims_distinct(self, observatory_env):
        obs, _ = observatory_env
        a, b = obs.measurement_ip(1), obs.measurement_ip(2)
        assert a != b
        assert obs.prefix.contains(a) and obs.prefix.contains(b)
        # .0 and .255 are the network and broadcast addresses.
        for host in (0, 255):
            with pytest.raises(RuntimeError, match="ran out"):
                obs.measurement_ip(host)

    def test_non_vip_measurement(self, observatory_env):
        obs, service = observatory_env
        event = self.launch(obs, service)
        m = obs.capture_attack(event, np.random.default_rng(0))
        # ~370k pps x 487 B x 8 = ~1.44 Gbps, below the 10GE interface.
        assert m.mean_bps == pytest.approx(1.44e9, rel=0.2)
        assert not m.flapped()
        assert m.n_reflectors > 100
        assert m.n_peers >= 1

    def test_vip_attack_flaps_transit(self, observatory_env):
        """A ~20 Gbps VIP attack saturates the 10GE and flaps the session."""
        obs, service = observatory_env
        event = self.launch(obs, service, plan="vip", duration=120.0)
        m = obs.capture_attack(event, np.random.default_rng(0))
        assert m.flapped()
        assert m.peak_bps <= 10e9 * 1.001
        # During flap seconds only peering traffic arrives.
        down = ~m.transit_up
        assert down.any()
        assert (m.transit_bps[down] == 0).all()

    def test_transit_dominates_ingress(self, observatory_env):
        """Paper: ~80% of NTP attack traffic arrived via transit."""
        obs, service = observatory_env
        event = self.launch(obs, service)
        m = obs.capture_attack(event, np.random.default_rng(0))
        assert m.transit_share > 0.5

    def test_no_transit_reduces_traffic_increases_peers(self, observatory_env):
        obs, service = observatory_env
        event = self.launch(obs, service)
        with_t = obs.capture_attack(event, np.random.default_rng(0), transit_enabled=True)
        without_t = obs.capture_attack(event, np.random.default_rng(0), transit_enabled=False)
        assert without_t.mean_bps < with_t.mean_bps
        assert without_t.n_reflectors < with_t.n_reflectors

    def test_victim_outside_prefix_rejected(self, observatory_env):
        obs, service = observatory_env
        event = service.launch_attack(
            victim_ip=1, victim_asn=obs.asn, vector_name="ntp", start_time=0.0,
            duration_s=10.0, plan_name="non-vip", day=0, seeds=SeedSequenceTree(0),
        )
        with pytest.raises(ValueError):
            obs.capture_attack(event, np.random.default_rng(0))

    def test_prefix_must_be_slash24(self, observatory_env):
        obs, _ = observatory_env
        with pytest.raises(ValueError):
            IXPObservatory(
                obs.registry, obs.topology, obs.asn, Prefix.parse("198.51.0.0/16"),
                transit_provider=obs.transit_provider,
            )

    def test_peer_share_sums_to_one(self, observatory_env):
        obs, service = observatory_env
        m = obs.capture_attack(self.launch(obs, service), np.random.default_rng(0))
        if m.peer_byte_share:
            assert sum(m.peer_byte_share.values()) == pytest.approx(1.0)
