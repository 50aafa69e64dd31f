"""Tests for reflector remediation."""

import numpy as np
import pytest

from repro.booter.reflectors import ReflectorPool
from repro.mitigation.remediation import RemediationPolicy, ReflectorRemediation
from repro.netmodel.topology import TopologyConfig, build_topology
from repro.stats.rng import SeedSequenceTree


@pytest.fixture(scope="module")
def pool():
    reg, _ = build_topology(TopologyConfig(n_tier1=3, n_tier2=8, n_stub=40), SeedSequenceTree(1))
    return ReflectorPool.generate("ntp", 1000, reg, SeedSequenceTree(2))


class TestRemediationPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RemediationPolicy(daily_patch_fraction=1.5)
        with pytest.raises(ValueError):
            RemediationPolicy(daily_reinfection=-1)
        with pytest.raises(ValueError):
            RemediationPolicy(start_day=-1)


class TestReflectorRemediation:
    def test_decay_towards_equilibrium(self, pool):
        policy = RemediationPolicy(daily_patch_fraction=0.05, daily_reinfection=0.002)
        rem = ReflectorRemediation(pool, policy, SeedSequenceTree(3))
        assert rem.alive_fraction(0) == 1.0
        assert rem.alive_fraction(10) < 0.8
        late = rem.alive_fraction(200)
        assert late == pytest.approx(rem.equilibrium_alive_fraction(), abs=0.05)

    def test_no_reinfection_drains_pool(self, pool):
        policy = RemediationPolicy(daily_patch_fraction=0.1, daily_reinfection=0.0)
        rem = ReflectorRemediation(pool, policy, SeedSequenceTree(4))
        assert rem.alive_fraction(100) < 0.01
        assert rem.equilibrium_alive_fraction() == 0.0

    def test_start_day_respected(self, pool):
        policy = RemediationPolicy(daily_patch_fraction=0.2, start_day=10)
        rem = ReflectorRemediation(pool, policy, SeedSequenceTree(5))
        assert rem.alive_fraction(10) == 1.0
        assert rem.alive_fraction(15) < 1.0

    def test_refill_beats_static_set(self, pool):
        """Booters that churn their lists route around remediation."""
        policy = RemediationPolicy(daily_patch_fraction=0.05, daily_reinfection=0.0)
        rem = ReflectorRemediation(pool, policy, SeedSequenceTree(6))
        working = np.arange(200)
        day = 20
        static = rem.attack_capacity(day, working, refill=False)
        refilled = rem.attack_capacity(day, working, refill=True)
        assert refilled >= static
        assert refilled == 1.0  # pool still has >200 alive reflectors
        assert static < 0.6

    def test_refill_eventually_fails(self, pool):
        policy = RemediationPolicy(daily_patch_fraction=0.1, daily_reinfection=0.0)
        rem = ReflectorRemediation(pool, policy, SeedSequenceTree(7))
        working = np.arange(200)
        assert rem.attack_capacity(100, working, refill=True) < 0.2

    def test_deterministic(self, pool):
        policy = RemediationPolicy()
        a = ReflectorRemediation(pool, policy, SeedSequenceTree(8))
        b = ReflectorRemediation(pool, policy, SeedSequenceTree(8))
        np.testing.assert_array_equal(a.alive_mask(30), b.alive_mask(30))

    def test_validation(self, pool):
        rem = ReflectorRemediation(pool, RemediationPolicy(), SeedSequenceTree(9))
        with pytest.raises(ValueError):
            rem.alive_mask(-1)
        with pytest.raises(ValueError):
            rem.attack_capacity(0, np.array([]))
        with pytest.raises(ValueError):
            rem.attack_capacity(0, np.array([99999]))
