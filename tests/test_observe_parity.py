"""Parity of the column-gathering observation and hourly pass with their references.

``VantagePoint.observe`` reads a sequence of tables (a day's kinds) one
by one, resolves the exported rows first and gathers each column once;
``attacks_per_hour`` counts every hour in one grouped pass;
``TrafficSelector.packets`` sums one column under a mask. Their
references (:mod:`tests.reference.observe` over the concatenated table,
:mod:`tests.reference.victims` and ``FlowTable.select``) build a table
per stage, per hour, or per selector. Every check here is bit-identical:
same rows, same bytes in every column, and the same generator state
afterwards.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from repro.core.classify import ClassifierThresholds
from repro.core.pipeline import TrafficSelector
from repro.core.victims import attacks_per_hour
from repro.flows.records import SCHEMA, FlowTable
from repro.flows.sampling import PacketSampler
from repro.netmodel.addressing import PrefixAnonymizer
from repro.netmodel.asn import ASRole
from repro.netmodel.topology import TopologyConfig, build_topology
from repro.obs import MetricsRegistry, use_metrics
from repro.protocols.amplification import UDP
from repro.scenario import Scenario, ScenarioConfig
from repro.scenario.scenario import KINDS
from repro.stats.rng import SeedSequenceTree
from repro.vantage.base import CaptureWindow
from repro.vantage.isp import ISPVantagePoint
from repro.vantage.ixp import IXPVantagePoint
from repro.vantage.matrix import VisibilityMatrix
from tests.reference import observe as reference_observe
from tests.reference import victims as reference_victims
from tests.verdicts import isp_verdicts, ixp_verdicts

DAY = 86_400.0
HOUR = 3600.0
#: An ISP observer that is not in the topology: it sees nothing.
OUTSIDER_ASN = 4_242_424

#: No explain phase: on a failure it took minutes and over 1 GB here,
#: against seconds for the shrunk counterexample alone.
parity_settings = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target, Phase.shrink],
)

_REGISTRY, _TOPOLOGY = build_topology(
    TopologyConfig(n_tier1=3, n_tier2=6, n_stub=15), SeedSequenceTree(3)
)
_MATRIX = VisibilityMatrix(_TOPOLOGY)
#: Known ASNs plus the unknown sentinel and an ASN outside the topology.
_ASN_POOL = sorted(_REGISTRY.asns) + [-1, 4_000_000]
_WINDOW = CaptureWindow(1, 3)
_EDGE_TIMES = [0.0, DAY, 3 * DAY, float(np.nextafter(DAY, 0)), float(np.nextafter(3 * DAY, 0))]


def _isp_views() -> dict[str, tuple[int, bool]]:
    """The tier-1 observer (ingress only) that sees the most pairs, any
    tier-2 observer, and an observer outside the topology."""
    srcs, dsts = (a.ravel() for a in np.meshgrid(_REGISTRY.asns, _REGISTRY.asns))
    tier1 = max(
        (a.asn for a in _REGISTRY.by_role(ASRole.TIER1)),
        key=lambda asn: int(isp_verdicts(_MATRIX, asn, srcs, dsts, True)[0].sum()),
    )
    return {
        "tier1": (tier1, True),
        "tier2": (_REGISTRY.by_role(ASRole.TIER2)[0].asn, False),
        "outsider": (OUTSIDER_ASN, True),
    }


_ISP_VIEWS = _isp_views()


def _visible_pairs(kind: str) -> list[tuple[int, int]]:
    srcs, dsts = (a.ravel() for a in np.meshgrid(_REGISTRY.asns, _REGISTRY.asns))
    if kind == "ixp":
        mask, _ = ixp_verdicts(_MATRIX, srcs, dsts)
    else:
        observer, ingress_only = _ISP_VIEWS[kind]
        mask, _ = isp_verdicts(_MATRIX, observer, srcs, dsts, ingress_only)
    return [(int(s), int(d)) for s, d in zip(srcs[mask], dsts[mask])]


#: Pairs some vantage point sees, so that examples export rows.
_VISIBLE_PAIRS = sorted({p for kind in ("ixp", "tier1", "tier2") for p in _visible_pairs(kind)})
_IXP_PAIR = _visible_pairs("ixp")[0]


def _vantage(kind: str, rate: int, anonymize: bool):
    anonymizer = PrefixAnonymizer("parity") if anonymize else None
    if kind == "ixp":
        return IXPVantagePoint(_MATRIX, _WINDOW, rate, anonymizer)
    observer, ingress_only = _ISP_VIEWS[kind]
    return ISPVantagePoint(
        observer, _MATRIX, _WINDOW, ingress_only=ingress_only,
        sampling_denominator=rate, anonymizer=anonymizer,
    )


def _table(rows) -> FlowTable:
    """Rows of ((src_asn, dst_asn), time, packets, bytes per packet, extra
    bytes, src_ip, dst_ip, src_port, dst_port)."""
    if not rows:
        return FlowTable.empty()
    cols = list(zip(*rows))
    packets = np.array(cols[2], dtype=np.int64)
    return FlowTable(
        {
            "src_asn": np.array([pair[0] for pair in cols[0]], dtype=np.int64),
            "dst_asn": np.array([pair[1] for pair in cols[0]], dtype=np.int64),
            "time": np.array(cols[1], dtype=np.float64),
            "packets": packets,
            "bytes": packets * np.array(cols[3]) + np.array(cols[4]),
            "src_ip": np.array(cols[5], dtype=np.uint32),
            "dst_ip": np.array(cols[6], dtype=np.uint32),
            "proto": np.full(len(rows), UDP, dtype=np.uint8),
            "src_port": np.array(cols[7], dtype=np.uint16),
            "dst_port": np.array(cols[8], dtype=np.uint16),
        }
    )


_asn_pairs = st.one_of(
    st.sampled_from(_VISIBLE_PAIRS), st.tuples(st.sampled_from(_ASN_POOL), st.sampled_from(_ASN_POOL))
)
_flow_rows = st.lists(
    st.tuples(
        _asn_pairs,
        st.one_of(st.sampled_from(_EDGE_TIMES), st.floats(0.0, 4 * DAY, exclude_max=True)),
        st.integers(0, 60),
        st.sampled_from([0, 40, 486, 1500]),
        st.integers(0, 7),
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**32 - 1),
        st.sampled_from([123, 53, 40000]),
        st.sampled_from([123, 53, 40000]),
    ),
    max_size=40,
)


def assert_identical(got: FlowTable, want: FlowTable) -> None:
    assert len(got) == len(want)
    for name, dtype in SCHEMA.items():
        assert got[name].dtype == dtype, name
        assert got[name].tobytes() == want[name].tobytes(), name


def _split(table: FlowTable, cuts) -> list[FlowTable]:
    """``table``'s rows as consecutive tables, cut at the sorted ``cuts``."""
    bounds = [0, *sorted(min(c, len(table)) for c in cuts), len(table)]
    rows = np.arange(len(table))
    return [table.filter((rows >= a) & (rows < b)) for a, b in zip(bounds, bounds[1:])]


def assert_observe_parity(
    vp, table: FlowTable, seed: int, shared_index: bool, cuts=()
) -> None:
    """``vp.observe`` over ``table`` cut into parts equals the reference
    over the whole table."""
    parts = _split(table, cuts)
    indices = None
    if shared_index:
        indices = [_MATRIX.pair_index(t["src_asn"], t["dst_asn"]) for t in parts]
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = vp.observe(parts, rng, indices=indices)
    want = reference_observe.observe(vp, table, ref_rng)
    assert_identical(got, want)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestObserveParity:
    @parity_settings
    @given(
        rows=_flow_rows,
        kind=st.sampled_from(["ixp", "tier1", "tier2", "outsider"]),
        rate=st.sampled_from([1, 2, 7, 10_000]),
        anonymize=st.booleans(),
        shared_index=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        cuts=st.lists(st.integers(0, 40), max_size=4),
    )
    def test_matches_reference_pipeline(
        self, rows, kind, rate, anonymize, shared_index, seed, cuts
    ):
        vp = _vantage(kind, rate, anonymize)
        assert_observe_parity(vp, _table(rows), seed, shared_index, cuts)

    def _rows(self, n, pair=_IXP_PAIR, time=1.5 * DAY, packets=30):
        return [(pair, time, packets, 486, i % 3, i, 1000 + i, 123, 40000) for i in range(n)]

    @pytest.mark.parametrize("kind", ["ixp", "tier1", "tier2", "outsider"])
    @pytest.mark.parametrize("rate", [1, 10])
    def test_empty_table(self, kind, rate):
        assert_observe_parity(_vantage(kind, rate, True), FlowTable.empty(), 0, False)

    def test_no_visible_rows(self):
        table = _table(self._rows(8, pair=(-1, _IXP_PAIR[1])) + self._rows(4, pair=(_IXP_PAIR[0], 4_000_000)))
        assert_observe_parity(_vantage("ixp", 2, False), table, 1, True)

    def test_every_row_outside_the_window(self):
        table = _table(self._rows(5, time=0.5 * DAY) + self._rows(5, time=3 * DAY))
        vp = _vantage("ixp", 2, False)
        assert len(reference_observe.visible_flows(vp, table)) == 10
        assert_observe_parity(vp, table, 2, True)

    def test_no_survivors(self):
        table = _table(self._rows(10, packets=1))
        vp = _vantage("ixp", 10**9, False)
        assert len(reference_observe.clip_table(_WINDOW, reference_observe.visible_flows(vp, table))) == 10
        assert_observe_parity(vp, table, 3, False)

    def test_sampling_rate_one_keeps_zero_packet_flows(self):
        table = _table(self._rows(6, packets=0))
        vp = _vantage("ixp", 1, True)
        assert len(vp.observe([table], np.random.default_rng(4))) == 6
        assert_observe_parity(vp, table, 4, True)

    @pytest.mark.parametrize("ingress_only", [True, False])
    def test_isp_observer_outside_the_topology(self, ingress_only):
        vp = ISPVantagePoint(
            OUTSIDER_ASN, _MATRIX, _WINDOW, ingress_only=ingress_only, sampling_denominator=3
        )
        table = _table([row for pair in _VISIBLE_PAIRS[:12] for row in self._rows(1, pair=pair)])
        assert len(vp.observe([table], np.random.default_rng(5))) == 0
        assert_observe_parity(vp, table, 5, True)


class TestObserveDayParity:
    """``Scenario.observe_day`` over real days, kind by kind, equals the
    reference pipeline over the concatenation of the same kind tables."""

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _world(blocked: bool) -> Scenario:
        scenario = Scenario(
            ScenarioConfig(
                seed=41, scale=0.05, topology=TopologyConfig(n_tier1=3, n_tier2=8, n_stub=30)
            )
        )
        if blocked:
            scenario.visibility.dense_max_asns = 0
            scenario.visibility.block_columns = 7
        return scenario

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _traffic(blocked: bool, day: int):
        return TestObserveDayParity._world(blocked).day_traffic(day)

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
        phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target, Phase.shrink],
    )
    @given(
        # Both sides of the IXP window's start and of the tier-1 window.
        day=st.sampled_from([26, 27, 72, 73, 90, 91]),
        vantage=st.sampled_from(["ixp", "tier1", "tier2"]),
        kinds=st.permutations(KINDS).flatmap(
            lambda order: st.integers(0, len(order)).map(lambda k: tuple(order[:k]))
        ),
        blocked=st.booleans(),
    )
    def test_matches_reference_over_concatenated_kinds(self, day, vantage, kinds, blocked):
        scenario = self._world(blocked)
        assert scenario.visibility.blocked is blocked
        traffic = self._traffic(blocked, day)
        with use_metrics(MetricsRegistry()) as registry:
            got = scenario.observe_day(vantage, traffic, kinds=kinds)
        table = FlowTable.concat([getattr(traffic, kind) for kind in kinds])
        ref_rng = scenario.seeds.child("observe", vantage, day).rng()
        want = reference_observe.observe(scenario.vantage_point(vantage), table, ref_rng)
        assert_identical(got, want)
        # The span only: the day engine counts the scenario.* work.
        assert registry.spans[("scenario.observe_day",)].calls == 1
        assert not any(name.startswith("scenario.") for name in registry.counters)


class TestStageParity:
    @parity_settings
    @given(rows=_flow_rows, rate=st.sampled_from([1, 2, 7, 10_000]), seed=st.integers(0, 2**32 - 1))
    def test_sampler_apply_matches_reference(self, rows, rate, seed):
        table = _table(rows)
        sampler = PacketSampler(rate)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert_identical(
            sampler.apply(table, rng), reference_observe.sample_table(sampler, table, ref_rng)
        )
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_thinned_bytes_round_as_before(self):
        # 7 of 14 packets of a 29-byte flow: 7 * (29 / 14) rounds to 15,
        # (7 * 29) / 14 to 14, so the rescale's operation order shows.
        table = _table([((1, 2), DAY, 14, 2, 1, i, i, 123, 123) for i in range(64)])
        rng, ref_rng = np.random.default_rng(6), np.random.default_rng(6)
        got = PacketSampler(2).apply(table, rng)
        assert 15 in got["bytes"][got["packets"] == 7]
        assert_identical(got, reference_observe.sample_table(PacketSampler(2), table, ref_rng))

    @parity_settings
    @given(rows=_flow_rows)
    def test_clip_matches_reference(self, rows):
        table = _table(rows)
        assert_identical(_WINDOW.clip_table(table), reference_observe.clip_table(_WINDOW, table))

    @parity_settings
    @given(
        rows=_flow_rows,
        port=st.sampled_from([123, 53, 40000]),
        direction=st.sampled_from(["to_reflectors", "from_reflectors"]),
        proto=st.sampled_from([UDP, 6]),
    )
    def test_selector_packets_match_select(self, rows, port, direction, proto):
        table = _table(rows)
        if len(table):
            table = table.with_columns(proto=np.full(len(table), proto, dtype=np.uint8))
        selector = TrafficSelector("s", port, direction)
        side = {"dst_port": port} if direction == "to_reflectors" else {"src_port": port}
        assert selector.packets(table) == table.select(proto=UDP, **side).total_packets


def _outcome(fn, *args, **kwargs):
    """The result, or the type of the exception raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # compared between the two, not handled
        return type(exc)


_hour_rows = st.lists(
    st.tuples(
        st.integers(0, 5),
        st.one_of(
            st.sampled_from([0.0, 59.999, 60.0, 3599.5, -0.25, -HOUR, 6 * HOUR]),
            st.floats(-HOUR, 6 * HOUR),
        ),
        st.integers(0, 15),
        st.integers(0, 3),
        st.integers(1, 20),
        st.sampled_from([100, 486, 490]),
        st.sampled_from([123, 123, 53]),
    ),
    max_size=60,
)


class TestAttacksPerHourParity:
    @parity_settings
    @given(
        rows=_hour_rows,
        t0=st.sampled_from([0.0, 1800.0, 1000.5, 40 * DAY, 40 * DAY + 7.25]),
        span_hours=st.sampled_from([0.5, 1.0, 2.5, 4.0, 24.0]),
        min_sources=st.integers(0, 3),
        min_peak_gbps=st.sampled_from([0.0, 1e-6, 1e-3]),
        sampling_factor=st.sampled_from([1.0, 10_000.0]),
        bin_seconds=st.sampled_from([60.0, 1.0, 600.0]),
    )
    def test_matches_per_hour_tables(
        self, rows, t0, span_hours, min_sources, min_peak_gbps, sampling_factor, bin_seconds
    ):
        n = len(rows)
        cols = list(zip(*rows)) if rows else [()] * 7
        packets = np.array(cols[4], dtype=np.int64)
        table = FlowTable(
            {
                "time": t0 + np.array(cols[0], dtype=np.float64) * HOUR + np.array(cols[1]),
                "src_ip": np.array(cols[2], dtype=np.uint32),
                "dst_ip": np.array(cols[3], dtype=np.uint32) + 10,
                "proto": np.full(n, UDP, dtype=np.uint8),
                "src_port": np.array(cols[6], dtype=np.uint16),
                "dst_port": np.full(n, 40000, dtype=np.uint16),
                "packets": packets,
                "bytes": packets * np.array(cols[5], dtype=np.int64),
            }
        )
        t1 = t0 + span_hours * HOUR
        thresholds = ClassifierThresholds(min_peak_gbps=min_peak_gbps, min_sources=min_sources)
        args = (table, t0, t1)
        kwargs = dict(
            thresholds=thresholds, sampling_factor=sampling_factor, bin_seconds=bin_seconds
        )
        got = _outcome(attacks_per_hour, *args, **kwargs)
        want = _outcome(reference_victims.attacks_per_hour, *args, **kwargs)
        if isinstance(want, type):
            assert got is want
        else:
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_flows_on_hour_boundaries_and_outside_the_range(self):
        t0 = 1000.5  # not aligned to the hour
        times = [t0 - 1.0, t0, t0 + HOUR, t0 + HOUR - 1e-6, t0 + 3 * HOUR, t0 + 3 * HOUR + 1.0]
        n = len(times) * 12
        table = FlowTable(
            {
                "time": np.repeat(times, 12),
                "src_ip": np.tile(np.arange(12, dtype=np.uint32), len(times)),
                "dst_ip": np.full(n, 7, dtype=np.uint32),
                "proto": np.full(n, UDP, dtype=np.uint8),
                "src_port": np.full(n, 123, dtype=np.uint16),
                "dst_port": np.full(n, 40000, dtype=np.uint16),
                "packets": np.full(n, 10, dtype=np.int64),
                "bytes": np.full(n, 4860, dtype=np.int64),
            }
        )
        thresholds = ClassifierThresholds(min_peak_gbps=0.0, min_sources=10)
        got = attacks_per_hour(table, t0, t0 + 3 * HOUR, thresholds=thresholds)
        want = reference_victims.attacks_per_hour(table, t0, t0 + 3 * HOUR, thresholds=thresholds)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got, [1, 1, 0])
