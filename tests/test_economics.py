"""Tests for the booter-economy extension."""

import numpy as np
import pytest

from repro.booter.market import BooterMarket, MarketConfig
from repro.booter.reflectors import ReflectorPool
from repro.economics.customers import (
    CustomerDynamics,
    CustomerPopulationModel,
    normalize_popularity,
)
from repro.economics.interventions import (
    DomainSeizure,
    NoIntervention,
    OperatorArrest,
    PaymentIntervention,
)
from repro.economics.simulate import EconomySimulation
from repro.netmodel.topology import TopologyConfig, build_topology
from repro.stats.rng import SeedSequenceTree


@pytest.fixture(scope="module")
def market():
    reg, _ = build_topology(TopologyConfig(n_tier1=3, n_tier2=8, n_stub=40), SeedSequenceTree(1))
    seeds = SeedSequenceTree(2)
    pools = {"ntp": ReflectorPool.generate("ntp", 800, reg, seeds)}
    return BooterMarket(reg, pools, MarketConfig(daily_attacks=10, n_victims=100), SeedSequenceTree(3))


@pytest.fixture(scope="module")
def sim(market):
    return EconomySimulation(market, SeedSequenceTree(4))


class TestCustomerDynamics:
    def test_validation(self):
        with pytest.raises(ValueError):
            CustomerDynamics(market_signups_per_day=-1)
        with pytest.raises(ValueError):
            CustomerDynamics(churn_per_day=1.5)


class TestCustomerPopulationModel:
    def test_initial_follows_popularity(self, market):
        model = CustomerPopulationModel(market, CustomerDynamics(), SeedSequenceTree(5))
        counts = model.by_name()
        popular = max(market.services.values(), key=lambda s: s.popularity)
        assert counts[popular.name] == max(counts.values())

    def test_steady_state_roughly_stable(self, market):
        model = CustomerPopulationModel(market, CustomerDynamics(), SeedSequenceTree(6))
        start = model.total()
        for day in range(30):
            model.step(day)
        # Without intervention the market moves smoothly (no collapse/explosion).
        assert 0.5 * start < model.total() < 2.0 * start

    def test_zero_signup_mult_blocks_growth(self, market):
        model = CustomerPopulationModel(market, CustomerDynamics(), SeedSequenceTree(7))
        name = market.service_names()[0]
        before = model.by_name()[name]
        for day in range(10):
            model.step(day, signup_mult={name: 0.0})
        assert model.by_name()[name] < before  # churn only, no inflow

    def test_forced_churn_shrinks_target_grows_others(self, market):
        model = CustomerPopulationModel(market, CustomerDynamics(), SeedSequenceTree(8))
        victim = market.service_names()[0]
        other = market.service_names()[1]
        before = model.by_name()
        for day in range(5):
            model.step(day, signup_mult={victim: 0.0}, extra_churn={victim: 0.3})
        after = model.by_name()
        assert after[victim] < 0.4 * before[victim]
        assert after[other] > before[other]  # migration inflow

    def test_validation(self, market):
        model = CustomerPopulationModel(market, CustomerDynamics(), SeedSequenceTree(9))
        with pytest.raises(ValueError):
            model.step(0, extra_churn={market.service_names()[0]: 2.0})
        with pytest.raises(ValueError):
            model.step(0, migration_fraction=1.5)

    def test_unknown_booter_rejected(self, market):
        # A mapping keyed by a name the market lacks used to be ignored:
        # an arrest of booter "a" arrested nobody.
        model = CustomerPopulationModel(market, CustomerDynamics(), SeedSequenceTree(9))
        with pytest.raises(ValueError, match=r"unknown booters \['a'\]"):
            model.step(0, extra_churn={"a": 0.5})
        with pytest.raises(ValueError, match=r"unknown booters \['nope'\]"):
            model.step(0, signup_mult={"nope": 0.0, "A": 1.0})
        with pytest.raises(ValueError, match="unknown booters"):
            EconomySimulation(market, SeedSequenceTree(4)).run(
                20, OperatorArrest(day=10, booter="a")
            )

    def test_deterministic(self, market):
        a = CustomerPopulationModel(market, CustomerDynamics(), SeedSequenceTree(10))
        b = CustomerPopulationModel(market, CustomerDynamics(), SeedSequenceTree(10))
        for day in range(5):
            np.testing.assert_allclose(a.step(day), b.step(day))


class _StubService:
    def __init__(self, popularity):
        self.popularity = popularity


class _StubMarket:
    def __init__(self, pops):
        self.services = {n: _StubService(p) for n, p in zip("ABCD", pops)}

    def service_names(self):
        return sorted(self.services)


class TestZeroPopularity:
    """Regression: an all-zero popularity vector must fail loudly, not 0/0."""

    def test_normalize_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError, match="empty"):
            normalize_popularity(np.array([]))
        with pytest.raises(ValueError, match="negative"):
            normalize_popularity(np.array([1.0, -0.5]))
        with pytest.raises(ValueError, match="zero"):
            normalize_popularity(np.zeros(4))

    def test_normalize_uniform_fallback(self):
        out = normalize_popularity(np.zeros(4), uniform_fallback=True)
        np.testing.assert_allclose(out, 0.25)
        # A healthy vector normalizes the same either way.
        np.testing.assert_allclose(
            normalize_popularity(np.array([3.0, 1.0]), uniform_fallback=True),
            [0.75, 0.25],
        )

    def test_population_model_raises_not_nan(self):
        with pytest.raises(ValueError, match="popularity"):
            CustomerPopulationModel(
                _StubMarket([0.0, 0.0, 0.0, 0.0]), CustomerDynamics(), SeedSequenceTree(1)
            )

    def test_market_popularity_vector(self, market):
        weights = market.popularity_vector()
        assert weights.sum() == pytest.approx(1.0)
        assert (weights > 0).all()
        assert weights.size == len(market.service_names())


class TestInterventionEdgeCases:
    """Degenerate parameters that used to be untested corners."""

    def test_full_daily_churn(self):
        dynamics = CustomerDynamics(churn_per_day=1.0)
        model = CustomerPopulationModel(
            _StubMarket([4.0, 2.0, 1.0, 1.0]), dynamics, SeedSequenceTree(21)
        )
        for day in range(5):
            counts = model.step(day)
        # The whole stock turns over daily: what's left is one day's inflow.
        assert np.isfinite(counts).all()
        assert 0 < counts.sum() < 4 * dynamics.market_signups_per_day

    def test_all_booters_seized_simultaneously(self):
        model = CustomerPopulationModel(
            _StubMarket([4.0, 2.0, 1.0, 1.0]), CustomerDynamics(), SeedSequenceTree(22)
        )
        kill = {n: 0.0 for n in model.names}
        burn = {n: 1.0 for n in model.names}
        counts = model.step(0, signup_mult=kill, extra_churn=burn)
        # Nowhere to migrate: the displaced leave rather than divide by zero.
        assert np.isfinite(counts).all()
        assert counts.sum() == 0.0
        # A further day on the empty market stays finite and empty.
        counts = model.step(1, signup_mult=kill, extra_churn=burn)
        assert counts.sum() == 0.0

    def test_intervention_at_horizon(self, market):
        sim = EconomySimulation(market, SeedSequenceTree(23))
        report = sim.run(40, DomainSeizure(day=40))
        assert report.dip_fraction() == 0.0
        assert report.recovery_day() is None
        assert report.revenue_loss() == 0.0

    def test_intervention_after_horizon(self, market):
        sim = EconomySimulation(market, SeedSequenceTree(24))
        report = sim.run(40, DomainSeizure(day=90))
        assert report.dip_fraction() == 0.0
        assert report.recovery_day() is None
        assert report.revenue_loss() == 0.0

    def test_intervention_on_day_zero(self, market):
        sim = EconomySimulation(market, SeedSequenceTree(25))
        report = sim.run(40, DomainSeizure(day=0))
        # No pre-intervention baseline exists, so dip/loss are undefined -> 0.
        assert report.dip_fraction() == 0.0
        assert report.recovery_day() is None
        assert report.revenue_loss() == 0.0

    def test_degenerate_zero_trajectory(self):
        from repro.economics.simulate import EconomyReport

        report = EconomyReport(
            intervention_name="flat zero",
            days=np.arange(10),
            customers=np.zeros((10, 2)),
            revenue_per_day=np.zeros(10),
            names=["A", "B"],
            intervention_day=4,
        )
        # An all-zero market has no baseline to dip from; recovery is
        # immediate (the zero threshold is met at the trough itself).
        assert report.dip_fraction() == 0.0
        assert report.recovery_day() == 4
        assert report.revenue_loss() == 0.0


class TestInterventions:
    def test_domain_seizure_states(self, market):
        seizure = DomainSeizure(day=50)
        assert seizure.signup_multipliers(market, 10) == {}
        mults = seizure.signup_multipliers(market, 51)
        assert mults["B"] == 0.0
        assert mults["A"] == 0.0
        revived = seizure.signup_multipliers(market, 54)
        assert revived["A"] == pytest.approx(0.6)
        assert revived["B"] == 0.0

    def test_seizure_churn_only_while_down(self, market):
        seizure = DomainSeizure(day=50)
        churn = seizure.extra_churn(market, 51)
        assert churn["A"] > 0
        churn_after_revival = seizure.extra_churn(market, 60)
        assert "A" not in churn_after_revival
        assert churn_after_revival["B"] > 0

    def test_payment_intervention_windowed(self, market):
        pay = PaymentIntervention(day=20, duration_days=10)
        assert pay.signup_multipliers(market, 19) == {}
        active = pay.signup_multipliers(market, 25)
        assert set(active) == set(market.services)
        assert pay.signup_multipliers(market, 30) == {}

    def test_arrest_kills_and_deters(self, market):
        arrest = OperatorArrest(day=20, booter="B")
        mults = arrest.signup_multipliers(market, 21)
        assert mults["B"] == 0.0
        assert 0 < mults["A"] < 1.0
        # Deterrence fades; the death does not.
        late = arrest.signup_multipliers(market, 200)
        assert late == {"B": 0.0}

    def test_validation(self):
        with pytest.raises(ValueError):
            DomainSeizure(day=0, revival_signup_fraction=2.0)
        with pytest.raises(ValueError):
            PaymentIntervention(day=0, duration_days=0)
        with pytest.raises(ValueError):
            OperatorArrest(day=0, booter="B", deterrence_fraction=2.0)


class TestEconomySimulation:
    def test_baseline_no_dip(self, sim):
        report = sim.run(60)
        assert report.dip_fraction() == 0.0
        assert report.recovery_day() is None
        assert (report.revenue_per_day > 0).all()

    def test_seizure_dips_then_recovers(self, sim):
        report = sim.run(200, DomainSeizure(day=50))
        dip = report.dip_fraction()
        assert 0.05 < dip < 0.9  # a real but survivable market shock
        # Customer inflow is unchanged, so the stock recovers with the
        # churn time constant (~50 days).
        recovery = report.recovery_day(threshold=0.9)
        assert recovery is not None and recovery > 50

    def test_payment_intervention_market_wide(self, sim):
        report = sim.run(150, PaymentIntervention(day=50, duration_days=40))
        assert report.dip_fraction() > 0.05
        # During the window, every booter shrinks (not just seized ones).
        idx_before, idx_in = 49, 80
        shrunk = (report.customers[idx_in] < report.customers[idx_before]).mean()
        assert shrunk > 0.9

    def test_revenue_loss_positive_under_interventions(self, sim):
        seizure = sim.run(150, DomainSeizure(day=50))
        assert seizure.revenue_loss() > 0

    def test_deterministic(self, market):
        a = EconomySimulation(market, SeedSequenceTree(11)).run(30, DomainSeizure(day=10))
        b = EconomySimulation(market, SeedSequenceTree(11)).run(30, DomainSeizure(day=10))
        np.testing.assert_allclose(a.revenue_per_day, b.revenue_per_day)

    def test_validation(self, market):
        with pytest.raises(ValueError):
            EconomySimulation(market, SeedSequenceTree(0), paying_fraction=0.0)
        with pytest.raises(ValueError):
            EconomySimulation(market, SeedSequenceTree(0)).run(0)
