"""Tests for amplification vectors and benign traffic models."""

import numpy as np
import pytest

from repro.protocols import (
    ALL_VECTORS,
    CLDAP,
    DNS,
    MEMCACHED,
    NTP,
    AmplificationVector,
    benign_traffic_for_port,
    vector_by_name,
)
from repro.protocols.benign import BENIGN_MIXES
from repro.stats.distributions import DiscreteDistribution


def rng():
    return np.random.default_rng(7)


def baf(vector):
    """Bandwidth amplification factor: mean response bytes per request byte."""
    return vector.response_packets_per_request * vector.mean_response_size / vector.request_size


class TestRegistry:
    def test_all_expected_vectors_registered(self):
        assert {
            "ntp", "dns", "cldap", "memcached", "ssdp", "chargen",
            "wsd", "tftp", "ard",
        } <= set(ALL_VECTORS)

    def test_new_vectors_have_textbook_ports(self):
        assert vector_by_name("wsd").port == 3702
        assert vector_by_name("tftp").port == 69
        assert vector_by_name("ard").port == 3283

    def test_lookup_by_name(self):
        assert vector_by_name("ntp") is NTP
        with pytest.raises(KeyError):
            vector_by_name("quic")

    def test_ports_unique(self):
        ports = [v.port for v in ALL_VECTORS.values()]
        assert len(ports) == len(set(ports))


class TestNTP:
    def test_monlist_sizes(self):
        sizes = NTP.sample_response_sizes(rng(), 50_000)
        frac_monlist = np.mean((sizes == 486.0) | (sizes == 490.0))
        assert frac_monlist == pytest.approx(0.9862, abs=0.01)

    def test_all_responses_large(self):
        sizes = NTP.sample_response_sizes(rng(), 1000)
        assert (sizes > 200).all()

    def test_baf_order_of_magnitude(self):
        # monlist BAF is in the hundreds (556x is the textbook value for
        # full monlists; ours uses the averaged response count).
        assert 50 < baf(NTP) < 600


class TestVectorProperties:
    @pytest.mark.parametrize("vector", list(ALL_VECTORS.values()), ids=lambda v: v.name)
    def test_amplifies(self, vector):
        assert baf(vector) > 1.0

    @pytest.mark.parametrize("vector", list(ALL_VECTORS.values()), ids=lambda v: v.name)
    def test_response_sizes_positive_and_mtu_bounded(self, vector):
        sizes = vector.sample_response_sizes(rng(), 2000)
        assert (sizes > 0).all()
        assert (sizes <= 1500).all()

    def test_memcached_has_highest_baf(self):
        others = [v for v in ALL_VECTORS.values() if v.name != "memcached"]
        assert all(baf(MEMCACHED) > baf(v) for v in others)

    def test_sample_zero_packets(self):
        assert NTP.sample_response_sizes(rng(), 0).size == 0
        with pytest.raises(ValueError):
            NTP.sample_response_sizes(rng(), -1)

    def test_validation(self):
        dist = DiscreteDistribution.of([(100.0, 1.0)])
        with pytest.raises(ValueError):
            AmplificationVector("x", 0, 10, dist, 1, 100)
        with pytest.raises(ValueError):
            AmplificationVector("x", 1, -1, dist, 1, 100)
        with pytest.raises(ValueError):
            AmplificationVector("x", 1, 10, dist, 0, 100)


class TestBenign:
    def test_every_vector_port_has_benign_model(self):
        for vector in ALL_VECTORS.values():
            assert vector.port in BENIGN_MIXES

    def test_ntp_benign_small(self):
        mix = benign_traffic_for_port(123)
        sizes = mix.sample_sizes(rng(), 10_000)
        assert np.mean(sizes < 200) == pytest.approx(1.0, abs=0.01)

    def test_dns_busier_than_memcached(self):
        assert (
            benign_traffic_for_port(53).relative_intensity
            > benign_traffic_for_port(11211).relative_intensity
        )

    def test_unknown_port(self):
        with pytest.raises(KeyError):
            benign_traffic_for_port(4444)

    def test_benign_vs_attack_separation_ntp(self):
        """The 200-byte threshold separates benign NTP from monlist replies."""
        benign = benign_traffic_for_port(123).sample_sizes(rng(), 5000)
        attack = NTP.sample_response_sizes(rng(), 5000)
        assert (benign <= 200).all()
        assert (attack > 200).all()
