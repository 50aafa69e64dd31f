"""Cross-cutting property-based tests (hypothesis) on core invariants.

These complement the per-module unit tests with randomized checks of the
properties the analysis pipeline *relies on*: valley-free routing on
arbitrary generated topologies, unbiasedness of packet sampling,
conservation under time binning, churn-process invariants, and the
monotonicity of the Welch test.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.booter.reflectors import ReflectorChurnConfig, ReflectorPool, ReflectorSetProcess
from repro.flows.records import FlowTable
from repro.flows.sampling import PacketSampler
from repro.flows.timeseries import bin_timeseries, per_destination_stats
from repro.netmodel.topology import TopologyConfig, build_topology
from repro.stats.rng import SeedSequenceTree
from repro.stats.welch import welch_one_tailed
from tests.reference.routes import RouteRows

slow_settings = settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _flow_table(rng, n):
    return FlowTable(
        {
            "time": rng.uniform(0, 3600, n),
            "src_ip": rng.integers(0, 1000, n, dtype=np.uint32),
            "dst_ip": rng.integers(0, 100, n, dtype=np.uint32),
            "proto": np.full(n, 17, dtype=np.uint8),
            "src_port": np.full(n, 123, dtype=np.uint16),
            "dst_port": np.full(n, 50000, dtype=np.uint16),
            "packets": rng.integers(1, 100_000, n),
            "bytes": rng.integers(100, 10_000_000, n),
        }
    )


class TestTopologyProperties:
    @slow_settings
    @given(
        st.integers(0, 10_000),
        st.integers(2, 5),
        st.integers(2, 12),
        st.integers(5, 40),
    )
    def test_generated_topologies_fully_connected_and_valley_free(
        self, seed, n_tier1, n_tier2, n_stub
    ):
        config = TopologyConfig(n_tier1=n_tier1, n_tier2=n_tier2, n_stub=n_stub)
        registry, topo = build_topology(config, SeedSequenceTree(seed))
        rows = RouteRows(topo)
        rng = np.random.default_rng(seed)
        asns = registry.asns
        for _ in range(20):
            src, dst = rng.choice(asns, 2, replace=False)
            path = rows.path(int(src), int(dst))
            assert path is not None, f"{src} cannot reach {dst}"
            assert path[0] == src and path[-1] == dst
            # Valley-free: once the path descends (peer or customer edge),
            # it never climbs again.
            descended = False
            for a, b in zip(path, path[1:]):
                if b in topo.providers(a):
                    assert not descended, f"valley in {path}"
                elif b in topo.peers(a):
                    assert not descended, f"double-peer/valley in {path}"
                    descended = True
                else:
                    assert b in topo.customers(a)
                    descended = True

    @slow_settings
    @given(st.integers(0, 10_000))
    def test_customer_cones_are_monotone(self, seed):
        registry, topo = build_topology(
            TopologyConfig(n_tier1=3, n_tier2=6, n_stub=20), SeedSequenceTree(seed)
        )
        for asn in registry.asns:
            cone = topo.customer_cone(asn)
            assert asn in cone
            for cust in topo.customers(asn):
                assert topo.customer_cone(cust) <= cone


class TestSamplingProperties:
    @slow_settings
    @given(st.integers(0, 1000), st.sampled_from([10, 100, 1000]))
    def test_thinning_unbiased_in_aggregate(self, seed, denominator):
        rng = np.random.default_rng(seed)
        table = _flow_table(rng, 400)
        sampler = PacketSampler(denominator)
        sampled = sampler.apply(table, np.random.default_rng(seed + 1))
        estimate = sampler.renormalize(sampled).total_packets
        truth = table.total_packets
        # Relative error shrinks as 1/sqrt(total/denominator); allow 5 sigma.
        sigma = np.sqrt(truth * denominator) / truth
        assert abs(estimate - truth) / truth < max(5 * sigma, 0.01)

    @slow_settings
    @given(st.integers(0, 1000))
    def test_sampling_never_inflates_flows(self, seed):
        rng = np.random.default_rng(seed)
        table = _flow_table(rng, 100)
        sampled = PacketSampler(50).apply(table, rng)
        assert len(sampled) <= len(table)
        assert sampled.total_packets <= table.total_packets


class TestTimeseriesProperties:
    @slow_settings
    @given(st.integers(0, 1000), st.sampled_from([1.0, 60.0, 600.0]))
    def test_binning_conserves_packets(self, seed, bin_seconds):
        rng = np.random.default_rng(seed)
        table = _flow_table(rng, 200)
        series = bin_timeseries(table, 0.0, 3600.0, bin_seconds)
        assert series.sum() == pytest.approx(table.total_packets)

    @slow_settings
    @given(st.integers(0, 1000))
    def test_per_destination_partition(self, seed):
        rng = np.random.default_rng(seed)
        table = _flow_table(rng, 300)
        stats = per_destination_stats(table)
        assert stats.total_packets.sum() == table.total_packets
        assert stats.total_bytes.sum() == table["bytes"].sum()
        assert np.unique(stats.destinations).size == len(stats)
        assert (stats.unique_sources >= stats.max_sources_per_bin).all()


class TestReflectorProcessProperties:
    @pytest.fixture(scope="class")
    def pool(self):
        registry, _ = build_topology(
            TopologyConfig(n_tier1=3, n_tier2=6, n_stub=30), SeedSequenceTree(0)
        )
        return ReflectorPool.generate("ntp", 1000, registry, SeedSequenceTree(1))

    @slow_settings
    @given(
        st.integers(0, 1000),
        st.integers(10, 200),
        st.floats(0.0, 0.3),
        st.floats(0.0, 0.2),
    )
    def test_process_invariants(self, pool, seed, set_size, churn, replacement):
        process = ReflectorSetProcess(
            pool,
            ReflectorChurnConfig(
                set_size=set_size, daily_churn=churn, replacement_prob=replacement
            ),
            SeedSequenceTree(seed),
            draw_pool_fraction=0.5,
        )
        previous = None
        for day in range(8):
            current = process.set_for_day(day)
            assert current.size == set_size
            assert np.unique(current).size == set_size
            assert current.min() >= 0 and current.max() < len(pool)
            if previous is not None and churn == 0.0 and replacement == 0.0:
                np.testing.assert_array_equal(current, previous)
            previous = current


class TestAnonymizationProperties:
    @slow_settings
    @given(st.integers(0, 1000), st.text(min_size=1, max_size=8))
    def test_aggregation_invariant_under_anonymization(self, seed, key):
        """Anonymization is a bijection, so every count-based aggregate —
        unique sources, per-destination partition sizes, packet sums —
        must be identical on the anonymized trace. This is the property
        that makes the paper's analysis possible on anonymized data."""
        from repro.netmodel.addressing import PrefixAnonymizer

        rng = np.random.default_rng(seed)
        table = _flow_table(rng, 150)
        anonymizer = PrefixAnonymizer(key)
        anonymized = table.with_columns(
            src_ip=anonymizer.anonymize_array(table["src_ip"]),
            dst_ip=anonymizer.anonymize_array(table["dst_ip"]),
        )
        for column in ("src_ip", "dst_ip"):
            assert np.unique(anonymized[column]).size == np.unique(table[column]).size
        original = per_destination_stats(table)
        masked = per_destination_stats(anonymized)
        assert len(masked) == len(original)
        np.testing.assert_array_equal(
            np.sort(masked.unique_sources), np.sort(original.unique_sources)
        )
        np.testing.assert_array_equal(
            np.sort(masked.total_packets), np.sort(original.total_packets)
        )


class TestWelchProperties:
    @slow_settings
    @given(st.integers(0, 1000), st.floats(0.0, 3.0))
    def test_p_value_decreases_with_gap(self, seed, gap):
        rng = np.random.default_rng(seed)
        before = rng.normal(10.0, 1.0, 30)
        after_small = before * 1.0 - gap * 0.1
        after_big = before - gap
        p_small = welch_one_tailed(before, after_small).p_value
        p_big = welch_one_tailed(before, after_big).p_value
        assert p_big <= p_small + 1e-12

    @slow_settings
    @given(st.integers(0, 1000), st.floats(0.1, 100.0))
    def test_scale_invariance(self, seed, factor):
        rng = np.random.default_rng(seed)
        before = rng.normal(50, 5, 25)
        after = rng.normal(40, 5, 25)
        base = welch_one_tailed(before, after)
        scaled = welch_one_tailed(before * factor, after * factor)
        assert scaled.p_value == pytest.approx(base.p_value, rel=1e-9)
        assert scaled.reduction_ratio == pytest.approx(base.reduction_ratio, rel=1e-9)
