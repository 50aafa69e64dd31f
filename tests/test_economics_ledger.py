"""Columnar customer ledger: chunk invariance, parity, per-customer outputs."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.booter.market import MarketConfig
from repro.core.workerpool import shutdown_pool
from repro.economics.customers import (
    CustomerDynamics,
    CustomerPopulationModel,
    normalize_popularity,
)
from repro.economics.interventions import DomainSeizure, NoIntervention
from repro.economics.ledger import (
    ACTIVE,
    BYTES_PER_CUSTOMER,
    CHURNED,
    DISPLACED,
    MIGRANT,
    CustomerLedger,
    _apportion,
)
from repro.economics.replicas import ReplicaStudy, run_intervention_replicas
from repro.economics.simulate import (
    ECONOMY_MODELS,
    EconomySimulation,
    LedgerEconomyReport,
)
from repro.netmodel.topology import TopologyConfig
from repro.scenario import Scenario, ScenarioConfig
from repro.stats.rng import SeedSequenceTree

NAMES = ["A", "B", "C", "D"]
POP = np.array([5.0, 3.0, 1.5, 0.5])


def _ledger(n=20_000, seed=7, **kw):
    return CustomerLedger(
        NAMES, POP, CustomerDynamics(), SeedSequenceTree(seed), n, **kw
    )


class _StubService:
    def __init__(self, popularity):
        self.popularity = popularity


class _StubMarket:
    """Just enough of BooterMarket for the customer models."""

    def __init__(self, names, pops):
        self.services = {n: _StubService(p) for n, p in zip(names, pops)}

    def service_names(self):
        return sorted(self.services)


@pytest.fixture(scope="module")
def scenario():
    return Scenario(
        ScenarioConfig(
            scale=0.05,
            topology=TopologyConfig(n_tier1=3, n_tier2=8, n_stub=40),
            market=MarketConfig(daily_attacks=40.0, n_victims=200),
            pool_sizes=(("ntp", 400), ("dns", 200)),
        )
    )


class TestApportion:
    def test_exact_and_deterministic(self):
        weights = normalize_popularity(POP)
        out = _apportion(weights, 12_345)
        assert out.sum() == 12_345
        assert (out >= 0).all()
        np.testing.assert_array_equal(out, _apportion(weights, 12_345))

    def test_follows_weights(self):
        out = _apportion(normalize_popularity(POP), 10_000)
        assert list(out) == sorted(out, reverse=True)  # POP is descending

    @given(st.integers(0, 10_000), st.integers(1, 12))
    def test_sums_for_any_total(self, total, k):
        weights = np.full(k, 1.0 / k)
        assert _apportion(weights, total).sum() == total


class TestConstruction:
    def test_initial_cohort(self):
        led = _ledger(n=10_000)
        assert led.n_customers == 10_000
        assert led.active_customers() == 10_000
        np.testing.assert_array_equal(
            led.counts, _apportion(normalize_popularity(POP), 10_000)
        )
        assert led.by_name()["A"] == max(led.by_name().values())

    def test_from_market(self, scenario):
        led = CustomerLedger.from_market(
            scenario.market, CustomerDynamics(), SeedSequenceTree(3), 5_000
        )
        assert led.names == scenario.market.service_names()
        assert led.active_customers() == 5_000
        np.testing.assert_allclose(
            led.popularity, scenario.market.popularity_vector(), atol=1e-12
        )

    def test_packed_bytes(self):
        led = _ledger(n=50_000)
        # Capacity arrays only: 9 packed bytes per row plus small accumulators.
        assert led.nbytes() < 2 * BYTES_PER_CUSTOMER * 50_000

    def test_validation(self):
        with pytest.raises(ValueError, match="popularity"):
            CustomerLedger(NAMES, np.zeros(4), CustomerDynamics(), SeedSequenceTree(1), 10)
        with pytest.raises(ValueError, match="length"):
            CustomerLedger(NAMES, np.ones(3), CustomerDynamics(), SeedSequenceTree(1), 10)
        with pytest.raises(ValueError, match="negative"):
            _ledger(n=-1)
        with pytest.raises(ValueError, match="daily_price"):
            _ledger(daily_price=np.ones(2))


class TestStepValidation:
    def test_bad_inputs(self):
        led = _ledger(n=100)
        with pytest.raises(ValueError, match="migration_fraction"):
            led.step(0, migration_fraction=1.5)
        with pytest.raises(ValueError, match="day"):
            led.step(-1)
        with pytest.raises(ValueError, match="day"):
            led.step(40_000)  # beyond the int16 signup-day horizon
        with pytest.raises(ValueError, match="multipliers"):
            led.step(0, signup_mult={"A": -1.0})
        with pytest.raises(ValueError, match="multipliers"):
            led.step(0, extra_churn={"A": 2.0})
        with pytest.raises(ValueError, match="per-booter"):
            led.step(0, extra_churn=np.ones(7))

    def test_unknown_booter_rejected(self):
        # A mapping keyed by a name the market lacks used to be ignored:
        # an arrest of booter "a" arrested nobody.
        led = _ledger(n=100)
        with pytest.raises(ValueError, match=r"unknown booters \['a'\]"):
            led.step(0, extra_churn={"a": 0.5})
        with pytest.raises(ValueError, match=r"unknown booters \['Z'\]"):
            led.step(0, signup_mult={"Z": 0.0, "A": 1.0})
        assert led.days_stepped == 0

    def test_nan_multiplier_rejected(self):
        led = _ledger(n=100)
        with pytest.raises(ValueError, match="multipliers"):
            led.step(0, extra_churn={"A": float("nan")})
        with pytest.raises(ValueError, match="multipliers"):
            led.step(0, signup_mult={"B": float("nan")})

    def test_dict_and_array_forms_agree(self):
        a, b = _ledger(seed=21), _ledger(seed=21)
        for day in range(6):
            a.step(day, signup_mult={"A": 0.0}, extra_churn={"A": 0.4})
            b.step(
                day,
                signup_mult=np.array([0.0, 1.0, 1.0, 1.0]),
                extra_churn=np.array([0.4, 0.0, 0.0, 0.0]),
            )
        assert a.digest() == b.digest()


class TestChunkInvariance:
    """The dense path's chunk rows are a pure execution detail: digests never move."""

    def _run(self, chunk_rows=None, days=12):
        led = _ledger(seed=99)
        if chunk_rows is not None:
            led.chunk_rows = chunk_rows
        for day in range(days):
            if day >= 4:
                led.step(day, signup_mult={"A": 0.0}, extra_churn={"A": 0.5})
            else:
                led.step(day)
        return led.digest()

    def test_digest_identical_across_chunk_sizes(self):
        reference = self._run()
        for rows in (256, 1_000, 7_777, 1 << 20):
            assert self._run(chunk_rows=rows) == reference

    @settings(max_examples=12, deadline=None)
    @given(st.integers(64, 30_000))
    def test_any_chunking_matches_bulk(self, rows):
        assert self._run(chunk_rows=rows, days=6) == self._run(days=6)

    def test_same_seed_same_digest(self):
        def stepped(seed):
            led = _ledger(seed=seed)
            for day in range(3):
                led.step(day)
            return led.digest()

        assert stepped(5) == stepped(5)
        assert stepped(5) != stepped(6)


class TestAggregateParity:
    """The ledger matches the aggregate model in expectation."""

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        churn=st.floats(0.0, 0.15),
        extra=st.floats(0.0, 0.5),
        mult=st.floats(0.0, 2.0),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_one_step_counts(self, churn, extra, mult, seed):
        n = 200_000
        dynamics = CustomerDynamics(
            market_signups_per_day=900.0,
            churn_per_day=churn,
            initial_customers_per_popularity=float(n),
            signup_noise_sigma=0.0,  # level == 1: aggregate step IS the mean
        )
        stub = _StubMarket(NAMES, normalize_popularity(POP))
        agg = CustomerPopulationModel(stub, dynamics, SeedSequenceTree(seed))
        led = CustomerLedger(
            stub.service_names(),
            normalize_popularity(POP),
            dynamics,
            SeedSequenceTree(seed),
            n,
        )
        kwargs = dict(signup_mult={"A": mult}, extra_churn={"A": extra})
        expected = agg.step(0, **kwargs)
        got = led.step(0, **kwargs)
        # Binomial churn + Poisson births + binomial migration around the
        # aggregate flow: a 6-sigma band on ~200k customers.
        sigma = np.sqrt(expected + 1.0)
        np.testing.assert_array_less(np.abs(got - expected), 6.0 * sigma + 60.0)

    def test_trajectory_parity_through_a_seizure(self, scenario):
        # n_customers at the dynamics' flow equilibrium (signups / churn),
        # the same stationary point the aggregate model starts from.
        dynamics = CustomerDynamics(signup_noise_sigma=0.0)
        equilibrium = int(
            dynamics.market_signups_per_day / dynamics.churn_per_day
        )
        sim = EconomySimulation(
            scenario.market,
            SeedSequenceTree(17),
            dynamics,
            n_customers=equilibrium,
        )
        seizure = DomainSeizure(day=25)
        agg = sim.run(70, seizure, model="aggregate")
        led = sim.run(70, seizure, model="ledger")
        np.testing.assert_allclose(
            led.total_customers(), agg.total_customers(), rtol=0.06
        )
        assert abs(led.dip_fraction() - agg.dip_fraction()) < 0.08


class TestPerCustomerOutputs:
    def test_flags_and_recidivism(self):
        led = _ledger(seed=31, n=40_000)
        led.step(0)
        before_a = led.counts[0]
        led.step(1, signup_mult={"A": 0.0}, extra_churn={"A": 1.0})
        state = led._state[: led.n_customers]
        displaced = state & DISPLACED != 0
        migrants = state & MIGRANT != 0
        assert displaced.sum() >= before_a  # every A customer forced out
        assert migrants.sum() > 0
        assert (state[migrants] & ACTIVE != 0).all()
        assert led.repeat_customer_fraction() == pytest.approx(0.8, abs=0.02)
        assert led.counts[0] < 0.01 * before_a  # A emptied, no inflow

    def test_migration_matrix_rows_and_destinations(self):
        led = _ledger(seed=32, n=30_000)
        led.step(0, signup_mult={"A": 0.0}, extra_churn={"A": 1.0})
        matrix = led.migration_matrix
        assert matrix[0].sum() > 0  # flow out of A...
        assert matrix[0, 0] == 0  # ...never back into the seized A
        assert matrix[1:].sum() == 0  # nobody else was displaced
        # Destinations follow the surviving signup weights.
        dest = matrix[0, 1:].astype(float)
        np.testing.assert_allclose(
            dest / dest.sum(), POP[1:] / POP[1:].sum(), atol=0.03
        )

    def test_tenure_histogram(self):
        dynamics = CustomerDynamics(market_signups_per_day=0.0, churn_per_day=0.0)
        led = CustomerLedger(NAMES, POP, dynamics, SeedSequenceTree(8), 10_000)
        for day in range(3):
            led.step(day)
        assert led.tenure_at_churn().size == 0  # nobody churned yet
        before_a = led.counts[0]
        led.step(3, extra_churn={"A": 1.0}, migration_fraction=0.0)
        tenure = led.tenure_at_churn()
        assert tenure.sum() == before_a
        assert tenure.size == 4 and tenure[3] == before_a  # all signed up day 0

    def test_spend_accrual(self):
        price = np.array([2.0, 1.0, 0.5, 0.25])
        dynamics = CustomerDynamics(market_signups_per_day=0.0, churn_per_day=0.0)
        led = CustomerLedger(
            NAMES, POP, dynamics, SeedSequenceTree(9), 8_000, daily_price=price
        )
        for day in range(5):
            led.step(day)
        assert led.spend_total() == pytest.approx(5 * float(led.counts @ price), rel=1e-5)

    def test_growth_keeps_counts_consistent(self):
        led = _ledger(n=1_000, seed=41)
        for day in range(50):
            led.step(day)
        assert led.n_customers > 1_000  # births materialized new rows
        # The incremental counts equal a recount from the state column.
        state = led._state[: led.n_customers]
        active = state & ACTIVE != 0
        np.testing.assert_array_equal(
            led.counts,
            np.bincount(led._booter[: led.n_customers][active], minlength=len(NAMES)),
        )
        assert (state[~active] & CHURNED != 0).all()  # inactive => churned

    def test_all_booters_seized_no_crash(self):
        led = _ledger(n=5_000, seed=42)
        counts = led.step(
            0,
            signup_mult={n: 0.0 for n in NAMES},
            extra_churn={n: 1.0 for n in NAMES},
        )
        # Nowhere to re-sign: the displaced leave the market entirely.
        assert counts.sum() == 0
        assert np.isfinite(counts).all()
        assert led.repeat_customer_fraction() == 0.0


class TestSimulationLedgerModel:
    def test_run_returns_ledger_report(self, scenario):
        sim = EconomySimulation(
            scenario.market, SeedSequenceTree(12), model="ledger", n_customers=30_000
        )
        report = sim.run(60, DomainSeizure(day=20))
        assert isinstance(report, LedgerEconomyReport)
        assert report.displaced > 0
        assert report.n_customer_rows >= 30_000
        assert 0.0 < report.repeat_fraction < 1.0
        assert report.migration_matrix.sum() > 0
        assert len(report.ledger_digest) == 64
        assert 0.05 < report.dip_fraction() < 0.9

    def test_model_override_and_validation(self, scenario):
        sim = EconomySimulation(scenario.market, SeedSequenceTree(13), n_customers=5_000)
        assert sim.model == "aggregate"
        report = sim.run(5, model="ledger")
        assert isinstance(report, LedgerEconomyReport)
        with pytest.raises(ValueError, match="model"):
            sim.run(5, model="per-customer")
        with pytest.raises(ValueError, match="model"):
            EconomySimulation(scenario.market, SeedSequenceTree(13), model="bogus")
        assert set(ECONOMY_MODELS) == {"aggregate", "ledger"}


class TestReplicaStudy:
    INTERVENTIONS = [NoIntervention(), DomainSeizure(day=10)]

    def _study(self, scenario, **kw) -> ReplicaStudy:
        return run_intervention_replicas(
            scenario,
            self.INTERVENTIONS,
            n_replicas=2,
            n_days=25,
            # The default dynamics' flow equilibrium: stationary baseline,
            # so the seizure dip is visible against a flat market.
            n_customers=20_000,
            **kw,
        )

    def test_executor_parity(self, scenario):
        """Same digests inline (jobs=1) and on the process pool (jobs=2)."""
        digests = {}
        try:
            for jobs in (1, 2):
                shutdown_pool()
                study = self._study(scenario, jobs=jobs)
                digests[jobs] = {
                    s: study.digests(s) for s in study.strategies()
                }
        finally:
            shutdown_pool()
        assert digests[1] == digests[2]
        assert all(d for d in digests[1].values())

    def test_replicas_are_independent(self, scenario):
        study = self._study(scenario)
        for strategy in study.strategies():
            assert len(set(study.digests(strategy))) == 2

    def test_summary_shape(self, scenario):
        study = self._study(scenario)
        summary = study.summary()
        assert set(summary) == {"none", "domain seizure"}
        assert summary["none"]["dip_fraction"] == 0.0
        assert summary["domain seizure"]["dip_fraction"] > 0.05
        assert summary["domain seizure"]["repeat_fraction"] > 0.5
        for stats in summary.values():
            assert {
                "dip_fraction",
                "revenue_loss",
                "repeat_fraction",
                "final_customers",
                "recovered_share",
                "mean_recovery_day",
            } <= set(stats)

    def test_validation(self, scenario):
        with pytest.raises(ValueError, match="n_replicas"):
            run_intervention_replicas(scenario, self.INTERVENTIONS, 0, 10)
        with pytest.raises(ValueError, match="intervention"):
            run_intervention_replicas(scenario, [], 1, 10)
