"""Parity of the draw-only synthesis loops with the table-per-block reference.

Production draws a day's randomness in loops that keep only the draws
(:class:`repro.booter.attack.EventDraws`, ``BooterMarket.scan_flows_for_day``,
``BenignBackground.flows_for_day``) and walks reflector lists on sorted
positions. :mod:`tests.reference.synthesis` builds one table per event or
block and walks pool indices with ``np.setdiff1d``. Every check here is
bit-identical: the same rows, the same dtype and bytes in every column,
the same events, and the same reflector set on every day.
"""

from __future__ import annotations

import copy
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from repro.booter.attack import (
    AttackEvent,
    EventDraws,
    synthesize_attack_flows,
    synthesize_trigger_flows,
)
from repro.booter.market import MarketConfig
from repro.booter.reflectors import ReflectorChurnConfig, ReflectorPool, ReflectorSetProcess
from repro.booter.takedown import TakedownScenario
from repro.flows.records import SCHEMA, FlowTable
from repro.netmodel.topology import TopologyConfig
from repro.scenario import Scenario, ScenarioConfig
from repro.stats.rng import SeedSequenceTree
from tests.reference import synthesis as reference

#: No explain phase: on a failure it costs far more than the shrunk
#: counterexample alone.
parity_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target, Phase.shrink],
)

KINDS = ("attack", "trigger", "scan", "benign")

#: Worlds the day-parity tests draw from. ``small_pools`` gives three
#: protocols fewer than 50 reflectors, so their scan parts sample fewer
#: than 50 targets per bin; ``quiet`` has days without any attack event.
WORLDS = {
    "default": {},
    "small_pools": {
        "pool_sizes": (("ntp", 400), ("dns", 300), ("cldap", 40), ("memcached", 12), ("ssdp", 30)),
    },
    "quiet": {"market": MarketConfig(daily_attacks=10.0, n_victims=80)},
}


@lru_cache(maxsize=None)
def _world(name: str) -> Scenario:
    params = dict(
        seed=11,
        scale=0.05,
        topology=TopologyConfig(n_tier1=3, n_tier2=6, n_stub=24),
        market=MarketConfig(daily_attacks=60.0, n_victims=150),
        pool_sizes=(("ntp", 600), ("dns", 400), ("cldap", 200), ("memcached", 90), ("ssdp", 120)),
    )
    params.update(WORLDS[name])
    return Scenario(ScenarioConfig(**params))


def assert_same_table(got: FlowTable, want: FlowTable, what: str) -> None:
    assert len(got) == len(want), what
    for column, dtype in SCHEMA.items():
        assert got[column].dtype == want[column].dtype == dtype, f"{what}.{column}"
        np.testing.assert_array_equal(got[column], want[column], err_msg=f"{what}.{column}")


def assert_same_events(got: list[AttackEvent], want: list[AttackEvent]) -> None:
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.booter, a.vector, a.plan, a.victim_ip, a.victim_asn) == (
            b.booter, b.vector, b.plan, b.victim_ip, b.victim_asn,
        )
        assert (a.start_time, a.duration_s, a.total_pps) == (b.start_time, b.duration_s, b.total_pps)
        for name in ("reflector_ips", "reflector_asns", "reflector_weights"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def assert_same_day(got, want) -> None:
    assert got.day == want.day
    assert_same_events(got.events, want.events)
    for kind in KINDS:
        assert_same_table(getattr(got, kind), getattr(want, kind), kind)


class TestDayParity:
    @parity_settings
    @given(
        world=st.sampled_from(sorted(WORLDS)),
        day=st.integers(0, 121),
        twin=st.booleans(),
    )
    def test_day_traffic_matches_reference(self, world, day, twin):
        """The seized world, or its twin whose takedown never seizes."""
        scenario = _world(world)
        if twin:
            scenario = copy.copy(scenario)
            scenario.takedown = TakedownScenario(takedown_day=10_000)
        assert_same_day(scenario.day_traffic(day), reference.day_traffic(scenario, day))

    def test_quiet_world_has_days_without_events(self):
        scenario = _world("quiet")
        empty = [day for day in range(122) if not scenario.day_events(day)]
        assert empty, "the quiet world should have days without attack events"
        got = scenario.day_traffic(empty[0])
        assert len(got.attack) == len(got.trigger) == 0
        assert_same_day(got, reference.day_traffic(scenario, empty[0]))

    def test_small_pools_sample_fewer_than_50_targets(self):
        scenario = _world("small_pools")
        assert min(len(pool) for pool in scenario.pools.values()) < 50
        for day in (3, 90):
            got = scenario.market.scan_flows_for_day(day)
            assert_same_table(got, reference.scan_flows_for_day(scenario.market, day), "scan")

    @pytest.mark.parametrize("activity", ["none_live", "seized_dead", "all_live"])
    def test_scan_activity(self, activity):
        """Zero backend activity (the seized services after the takedown)
        skips a service's parts without drawing for them."""
        market = _world("default").market
        names = market.service_names()
        seized = {s.catalog.name for s in market.seized_services()}
        levels = {
            "none_live": {name: 0.0 for name in names},
            "seized_dead": {name: 0.0 if name in seized else 0.7 for name in names},
            "all_live": None,
        }[activity]
        got = market.scan_flows_for_day(85, activity=levels)
        assert_same_table(got, reference.scan_flows_for_day(market, 85, activity=levels), "scan")
        if activity == "none_live":
            assert len(got) == 0

    @parity_settings
    @given(day=st.integers(0, 121), intensity=st.sampled_from([0.0, 0.02, 0.3, 1.0]))
    def test_background_matches_reference(self, day, intensity):
        background = _world("small_pools").background
        got = background.flows_for_day(day, intensity_scale=intensity)
        want = reference.benign_flows_for_day(background, day, intensity_scale=intensity)
        assert_same_table(got, want, "benign")

    def test_takedown_silences_seized_scanners(self):
        """After the seizure the seized backends stop scanning, so the
        day's scan parts are fewer but still match."""
        scenario = _world("default")
        day = scenario.config.takedown_day + 1
        activity = scenario.takedown.backend_activity(scenario.market, day)
        assert any(level <= 0 for level in activity.values())
        got = scenario.day_traffic(day)
        assert_same_day(got, reference.day_traffic(scenario, day))


def _event(rng: np.random.Generator, n_reflectors: int, start: float, duration: float, pps: float, vector: str):
    weights = rng.dirichlet(np.ones(n_reflectors))
    return AttackEvent(
        booter="B",
        vector=vector,
        plan="non-vip",
        victim_ip=int(rng.integers(0, 2**32)),
        victim_asn=int(rng.integers(1, 70_000)),
        start_time=start,
        duration_s=duration,
        total_pps=pps,
        reflector_ips=rng.choice(2**32, size=n_reflectors, replace=False).astype(np.uint32),
        reflector_asns=rng.integers(1, 70_000, n_reflectors),
        reflector_weights=weights / weights.sum(),
    )


_events = st.builds(
    lambda seed, n, start, duration, pps, vector: _event(
        np.random.default_rng(seed), n, start, duration, pps, vector
    ),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    start=st.floats(0.0, 3 * 86_400.0),
    duration=st.floats(0.5, 900.0),
    # Low rates leave cells without a single packet.
    pps=st.floats(1.0, 2e6),
    vector=st.sampled_from(["ntp", "dns", "cldap", "memcached", "ssdp"]),
)


class TestEventSynthesisParity:
    @parity_settings
    @given(
        event=_events,
        seed=st.integers(0, 2**32 - 1),
        bin_seconds=st.sampled_from([1.0, 60.0, 7.5]),
        bin_jitter=st.sampled_from([0.0, 0.05, 0.28]),
        rate_jitter=st.sampled_from([0.0, 0.1, 0.5]),
    )
    def test_standalone_synthesizers(self, event, seed, bin_seconds, bin_jitter, rate_jitter):
        """Called alone (as the observatory's capture does), each
        synthesizer returns the reference table and leaves the generator
        where the reference leaves it."""
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = synthesize_attack_flows(
            event, got_rng, bin_seconds=bin_seconds, rate_jitter=rate_jitter, bin_jitter=bin_jitter
        )
        want = reference.attack_flows(
            event, want_rng, bin_seconds=bin_seconds, rate_jitter=rate_jitter, bin_jitter=bin_jitter
        )
        assert_same_table(got, want, "attack")
        got = synthesize_trigger_flows(event, got_rng, bin_seconds=bin_seconds, origin_asn=64_999)
        want = reference.trigger_flows(event, want_rng, bin_seconds=bin_seconds, origin_asn=64_999)
        assert_same_table(got, want, "trigger")
        assert got_rng.random() == want_rng.random()

    @parity_settings
    @given(events=st.lists(_events, max_size=12), seed=st.integers(0, 2**32 - 1))
    def test_accumulated_events_match_concat(self, events, seed):
        """Events drawn into one accumulator give the concat of the
        reference's per-event tables, in event order."""
        draws = EventDraws(events)
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        attack, trigger = [], []
        for i, event in enumerate(events):
            synthesize_attack_flows(event, got_rng, out=draws)
            synthesize_trigger_flows(event, got_rng, origin_asn=i, out=draws)
            attack.append(reference.attack_flows(event, want_rng))
            trigger.append(reference.trigger_flows(event, want_rng, origin_asn=i))
        assert_same_table(draws.attack_table(), FlowTable.concat(attack), "attack")
        assert_same_table(draws.trigger_table(), FlowTable.concat(trigger), "trigger")

    def test_events_must_come_in_order(self):
        rng = np.random.default_rng(0)
        first, second = (_event(rng, 5, 0.0, 60.0, 1e5, "ntp") for _ in range(2))
        draws = EventDraws([first, second])
        with pytest.raises(ValueError, match="order"):
            synthesize_attack_flows(second, rng, out=draws)
        with pytest.raises(ValueError, match="bin_seconds"):
            synthesize_attack_flows(first, rng, bin_seconds=30.0, out=draws)

    def test_no_events(self):
        draws = EventDraws([])
        for table in (draws.attack_table(), draws.trigger_table()):
            assert_same_table(table, FlowTable.empty(), "empty")


_POOL = ReflectorPool(
    "ntp",
    np.random.default_rng(5).choice(2**32, size=400, replace=False).astype(np.uint32),
    np.random.default_rng(6).integers(1, 1000, 400),
)


class TestReflectorWalkParity:
    @parity_settings
    @given(
        seed=st.integers(0, 2**32 - 1),
        fraction=st.sampled_from([0.05, 0.35, 1.0]),
        set_share=st.floats(0.0, 1.0),
        daily_churn=st.sampled_from([0.0, 0.025, 0.3, 1.0]),
        replacement_prob=st.sampled_from([0.0, 0.05, 1.0]),
        days=st.lists(st.integers(0, 60), min_size=1, max_size=12),
    )
    def test_day_sets_match_reference(
        self, seed, fraction, set_share, daily_churn, replacement_prob, days
    ):
        """Every queried day, in any order, including a set as large as
        the drawable pool (``set_share`` 1.0)."""
        n_drawable = int(len(_POOL) * fraction)
        set_size = max(1, round(set_share * n_drawable))
        process = ReflectorSetProcess(
            _POOL,
            ReflectorChurnConfig(set_size, daily_churn, replacement_prob),
            SeedSequenceTree(seed),
            draw_pool_fraction=fraction,
        )
        want = reference.reflector_set_days(process, max(days) + 1)
        for day in days:
            got = process.set_for_day(day)
            assert got.dtype == want[day].dtype
            np.testing.assert_array_equal(got, want[day], err_msg=f"day {day}")
        for day in range(max(days) + 1):
            np.testing.assert_array_equal(process.set_for_day(day), want[day], err_msg=f"day {day}")

    def test_every_market_walk_matches_reference(self):
        market = _world("default").market
        for service in market.services.values():
            for protocol, process in service.reflector_sets.items():
                want = reference.reflector_set_days(process, 122)
                for day in (121, 0, 57, 80):
                    np.testing.assert_array_equal(
                        process.set_for_day(day), want[day], err_msg=f"{service.catalog.name}/{protocol}"
                    )
