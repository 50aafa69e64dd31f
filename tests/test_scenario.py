"""Tests for the scenario orchestration and benign background."""

import copy
import dataclasses

import numpy as np
import pytest

from repro.booter.takedown import TakedownScenario
from repro.scenario import BackgroundConfig, Scenario, ScenarioConfig
from repro.scenario.background import BenignBackground
from repro.stats.rng import SeedSequenceTree


def _never_seized(scenario: Scenario) -> Scenario:
    """The counterfactual: a view of ``scenario`` whose takedown never seizes."""
    twin = copy.copy(scenario)
    twin.takedown = TakedownScenario(takedown_day=10_000)
    return twin


@pytest.fixture(scope="module")
def scenario():
    from repro.booter.market import MarketConfig
    from repro.netmodel.topology import TopologyConfig

    return Scenario(
        ScenarioConfig(
            scale=0.2,
            topology=TopologyConfig(n_tier1=3, n_tier2=12, n_stub=80),
            market=MarketConfig(daily_attacks=40.0, n_victims=400),
            pool_sizes=(("ntp", 2000), ("dns", 1500), ("cldap", 600), ("memcached", 300), ("ssdp", 400)),
        )
    )


class TestScenarioConfig:
    def test_defaults_valid(self):
        cfg = ScenarioConfig()
        assert cfg.n_days == 122
        assert cfg.takedown_day == 80  # 2018-12-19 is day 80 from 2018-09-30

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(scale=0)
        with pytest.raises(ValueError):
            ScenarioConfig(takedown_day=999)
        with pytest.raises(ValueError):
            ScenarioConfig(ixp_window=(50, 50))


def _bumped(value):
    """A different valid value of a config field, of the same shape."""
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return "203.0.113.0/24"
    if isinstance(value, tuple):
        head = value[0]
        if isinstance(head, tuple):  # ((name, number), ...) tables
            return ((head[0], head[1] + 1),) + value[1:]
        return (head + 1,) + value[1:]  # (start, end) windows
    numeric = next(
        f.name
        for f in dataclasses.fields(value)
        if isinstance(getattr(value, f.name), (int, float))
        and not isinstance(getattr(value, f.name), bool)
    )
    return dataclasses.replace(value, **{numeric: getattr(value, numeric) + 1})


class TestContentHashMemo:
    def test_memo_equals_a_fresh_computation(self):
        config = ScenarioConfig()
        memo = config.content_hash()
        assert config.content_hash() is memo
        fresh = dataclasses.replace(config)
        assert "_content_hash" not in fresh.__dict__
        assert fresh == config
        assert fresh.content_hash() == memo

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ScenarioConfig)])
    def test_every_field_changes_the_hash(self, name):
        config = ScenarioConfig()
        memo = config.content_hash()
        changed = dataclasses.replace(config, **{name: _bumped(getattr(config, name))})
        assert changed.content_hash() != memo


class TestScenarioBuild:
    def test_world_built(self, scenario):
        assert len(scenario.registry) > 90
        assert scenario.observatory.asn == 64512
        assert set(scenario.vantage_points) == {"ixp", "tier1", "tier2"}

    def test_tier2_vantage_is_member(self, scenario):
        assert scenario.registry.get(scenario.tier2.asn).ixp_member

    def test_pools_built(self, scenario):
        assert len(scenario.pools["ntp"]) == 2000
        # Memcached pools concentrate on few ASes.
        ntp_asns = scenario.pools["ntp"].unique_asns().size
        mc_asns = scenario.pools["memcached"].unique_asns().size
        assert mc_asns < ntp_asns

    def test_unknown_vantage(self, scenario):
        with pytest.raises(KeyError):
            scenario.vantage_point("tier3")


class TestDayTraffic:
    def test_deterministic(self, scenario):
        a = scenario.day_traffic(30)
        b = scenario.day_traffic(30)
        assert len(a.events) == len(b.events)
        assert a.attack.total_packets == b.attack.total_packets

    def test_day_out_of_range(self, scenario):
        with pytest.raises(ValueError):
            scenario.day_traffic(-1)
        with pytest.raises(ValueError):
            scenario.day_traffic(99999)

    def test_kinds_have_expected_direction(self, scenario):
        d = scenario.day_traffic(30)
        # Attack flows: src_port is a service port.
        assert set(np.unique(d.attack["src_port"]).tolist()) <= {123, 53, 389, 11211, 1900}
        # Trigger + scan flows: dst_port is a service port.
        assert set(np.unique(d.trigger["dst_port"]).tolist()) <= {123, 53, 389, 11211, 1900}
        assert set(np.unique(d.scan["dst_port"]).tolist()) <= {123, 53, 389, 11211, 1900}

    def test_takedown_reduces_scans_not_attacks(self, scenario):
        """The core asymmetry: after the takedown, reflector-bound backend
        traffic collapses while attack activity stays comparable."""
        before_day = scenario.config.takedown_day - 5
        after_day = scenario.config.takedown_day + 5
        before = scenario.day_traffic(before_day)
        after = scenario.day_traffic(after_day)
        assert after.scan.total_packets < 0.6 * before.scan.total_packets
        # Attack demand dips slightly but is the same order of magnitude.
        assert len(after.events) > 0.4 * len(before.events)

    def test_takedown_demand_level_applied(self, scenario):
        """Regression: the takedown's *total* demand reduction must reach
        attacks_for_day (the per-service weights alone are normalized away)."""
        day_after = scenario.config.takedown_day + 1
        with_td = scenario.day_traffic(day_after)
        without_td = _never_seized(scenario).day_traffic(day_after)
        expected_level = scenario.takedown.demand_scale(scenario.market, day_after)
        assert expected_level < 0.8
        # Attack counts are Poisson; compare against the counterfactual of
        # the very same day (same seeds, same demand noise).
        assert len(with_td.events) < len(without_td.events)

    def test_counterfactual_keeps_scans(self, scenario):
        after_day = scenario.config.takedown_day + 5
        with_td = scenario.day_traffic(after_day)
        without_td = _never_seized(scenario).day_traffic(after_day)
        assert without_td.scan.total_packets > with_td.scan.total_packets


class TestObserveDay:
    def test_windows_respected(self, scenario):
        early = scenario.day_traffic(5)
        assert len(scenario.observe_day("ixp", early)) == 0  # before day 27
        assert len(scenario.observe_day("tier1", early)) == 0  # before day 73
        assert len(scenario.observe_day("tier2", early)) > 0

    def test_ixp_sees_traffic_in_window(self, scenario):
        d = scenario.day_traffic(30)
        obs = scenario.observe_day("ixp", d)
        assert len(obs) > 0

    def test_kind_selection(self, scenario):
        d = scenario.day_traffic(30)
        attack_only = scenario.observe_day("tier2", d, kinds=("attack",))
        everything = scenario.observe_day("tier2", d)
        assert 0 < len(attack_only) < len(everything)

    @pytest.mark.parametrize(
        "kinds",
        [("attack", "attack"), ("scan", "benign", "scan"), ("events",), ("bogus",), ("attack", "flows")],
    )
    def test_repeated_or_unknown_kinds_rejected(self, scenario, kinds):
        """A kind is exported at most once, and only the four flow kinds exist."""
        d = scenario.day_traffic(30)
        with pytest.raises(ValueError, match="attack, trigger, scan, benign"):
            scenario.observe_day("tier2", d, kinds=kinds)

    def test_observation_deterministic(self, scenario):
        d = scenario.day_traffic(30)
        a = scenario.observe_day("ixp", d)
        b = scenario.observe_day("ixp", d)
        assert len(a) == len(b)
        assert a.total_packets == b.total_packets


class TestBenignBackground:
    def test_flows_generated(self, scenario):
        bg = scenario.background.flows_for_day(0)
        assert len(bg) > 0

    def test_deterministic(self, scenario):
        a = scenario.background.flows_for_day(3)
        b = scenario.background.flows_for_day(3)
        assert a.total_packets == b.total_packets

    def test_intensity_scale(self, scenario):
        base = scenario.background.flows_for_day(4, intensity_scale=1.0)
        double = scenario.background.flows_for_day(4, intensity_scale=2.0)
        assert double.total_packets > base.total_packets * 1.5

    def test_negative_scale_rejected(self, scenario):
        with pytest.raises(ValueError):
            scenario.background.flows_for_day(0, intensity_scale=-1)

    def test_ntp_benign_packets_small(self, scenario):
        bg = scenario.background.flows_for_day(1)
        ntp = bg.select(dst_port=123)
        assert len(ntp) > 0
        assert (ntp.mean_packet_sizes() < 220).all()

    def test_dns_busier_than_memcached(self, scenario):
        bg = scenario.background.flows_for_day(2)
        dns = bg.select(dst_port=53).total_packets
        mc = bg.select(dst_port=11211).total_packets
        assert dns > mc * 10

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BackgroundConfig(daily_packets_unit=-1)
        with pytest.raises(ValueError):
            BackgroundConfig(daily_flows_per_port=0)
        with pytest.raises(ValueError):
            BackgroundConfig(response_fraction=1.5)
