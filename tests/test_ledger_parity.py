"""Parity of the flat-slot ledger step with the per-booter reference step.

Production :class:`repro.economics.ledger.CustomerLedger` steps a day
with a fixed number of array operations over one slot array;
:class:`tests.reference.ledger.ReferenceLedger` keeps one buffer per
booter and steps booter by booter. Every check is exact and day by day:
the returned counts, the digest, the tenure histogram, the migration
matrix, and the ``econ.*`` / ``market.step_chunks`` counters of the
step (the ``market.ledger_resident_bytes`` gauge counts capacity, which
the two layouts size differently).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.economics.ledger as production
from repro.economics.customers import CustomerDynamics
from repro.economics.ledger import _DENSE_CHURN_THRESHOLD, CustomerLedger
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.stats.rng import SeedSequenceTree
from tests.reference.ledger import ReferenceLedger

#: Churn rates at the path boundaries: vanishing, just below and at the
#: dense threshold, and certain churn.
EDGE_CHURN = [0.0, 1e-9, 0.02, np.nextafter(_DENSE_CHURN_THRESHOLD, 0.0),
              _DENSE_CHURN_THRESHOLD, 0.52, 1.0]

parity_settings = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class _HeadZeros:
    """A uniform source that yields ``zeros`` zeros, then a real stream.

    A zero uniform makes a geometric gap of exactly 1, so a long enough
    run of zeros ends a booter's first batch below its used-slot count
    and forces the refill batches; a zero also classifies its churner as
    forced.
    """

    def __init__(self, rng: np.random.Generator, zeros: int) -> None:
        self._rng = rng
        self._zeros = zeros

    def random(self, n: int) -> np.ndarray:
        head = min(n, self._zeros)
        self._zeros -= head
        return np.concatenate([np.zeros(head), self._rng.random(n - head)])


class _ZeroHeadSeeds(SeedSequenceTree):
    """Seeds whose per-day churn streams start with ``zeros`` zero uniforms."""

    def __init__(self, root_seed: int, path=(), zeros: int = 0) -> None:
        super().__init__(root_seed, path)
        self.zeros = zeros

    def child(self, *path):
        return _ZeroHeadSeeds(self.root_seed, self.path + path, self.zeros)

    def rng(self):
        rng = super().rng()
        if self.path[-1:] == ("churn",):
            return _HeadZeros(rng, self.zeros)
        return rng


def _pair(names, popularity, dynamics, seeds, n, *, chunk_rows=None):
    price = np.linspace(0.9, 0.1, len(names))
    ledgers = (
        CustomerLedger(names, popularity, dynamics, seeds, n, daily_price=price),
        ReferenceLedger(names, popularity, dynamics, seeds, n, daily_price=price),
    )
    if chunk_rows is not None:
        for ledger in ledgers:
            ledger.chunk_rows = chunk_rows
    return ledgers


def _step_both(ledger, reference, day, mult, extra, migration_fraction):
    """Step both ledgers one day and require every output to agree."""
    counters = []
    counts = []
    for led in (ledger, reference):
        registry = MetricsRegistry()
        with use_metrics(registry):
            counts.append(led.step(day, mult, extra, migration_fraction))
        counters.append(registry.counters)
    np.testing.assert_array_equal(counts[0], counts[1])
    assert counters[0] == counters[1], day
    assert ledger.digest() == reference.digest(), day
    np.testing.assert_array_equal(ledger.tenure_at_churn(), reference.tenure_at_churn())
    np.testing.assert_array_equal(ledger.migration_matrix, reference.migration_matrix)
    assert ledger.n_customers == reference.n_customers


@st.composite
def markets(draw):
    n_booters = draw(st.integers(1, 8))
    popularity = np.array(
        draw(st.lists(st.floats(0.001, 5.0), min_size=n_booters, max_size=n_booters))
    )
    churn = draw(st.sampled_from(EDGE_CHURN) | st.floats(0.0, 1.0))
    dynamics = CustomerDynamics(
        market_signups_per_day=draw(st.sampled_from([0.0, 60.0, 400.0])),
        churn_per_day=churn,
        signup_noise_sigma=0.2,
    )
    n_days = draw(st.integers(1, 24))
    extra_values = st.sampled_from([0.0, 0.0, 0.0, 1e-9, 0.015, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)
    mult_values = st.sampled_from([1.0, 1.0, 0.0, 0.35, 2.0])
    days = [
        (
            np.array(draw(st.lists(mult_values, min_size=n_booters, max_size=n_booters))),
            np.array(draw(st.lists(extra_values, min_size=n_booters, max_size=n_booters))),
        )
        for _ in range(n_days)
    ]
    return {
        "names": [f"b{i}" for i in range(n_booters)],
        "popularity": popularity,
        "dynamics": dynamics,
        "n": draw(st.integers(0, 5000)),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "chunk_rows": draw(st.sampled_from([None, 256])),
        "migration_fraction": draw(st.sampled_from([0.0, 1.0, 0.8]) | st.floats(0.0, 1.0)),
        "days": days,
    }


class TestRandomMarkets:
    @parity_settings
    @given(markets())
    def test_day_by_day(self, market):
        ledger, reference = _pair(
            market["names"],
            market["popularity"],
            market["dynamics"],
            SeedSequenceTree(market["seed"]),
            market["n"],
            chunk_rows=market["chunk_rows"],
        )
        for day, (mult, extra) in enumerate(market["days"]):
            _step_both(ledger, reference, day, mult, extra, market["migration_fraction"])

    @parity_settings
    @given(markets(), st.integers(1, 3000))
    def test_refill_batches(self, market, zeros):
        """Zero-headed churn streams send first batches through the refill loop."""
        ledger, reference = _pair(
            market["names"],
            market["popularity"],
            market["dynamics"],
            _ZeroHeadSeeds(market["seed"], zeros=zeros),
            market["n"],
            chunk_rows=market["chunk_rows"],
        )
        for day, (mult, extra) in enumerate(market["days"][:6]):
            _step_both(ledger, reference, day, mult, extra, market["migration_fraction"])


NAMES = ["A", "B", "C", "D", "E"]
POP = np.array([5.0, 3.0, 1.5, 0.5, 0.25])


class TestEdgeCases:
    def _run(self, days, *, n=4_000, churn=0.02, seeds=None, chunk_rows=None, pop=POP,
             signups=400.0, migration_fraction=0.8):
        dynamics = CustomerDynamics(
            market_signups_per_day=signups, churn_per_day=churn, signup_noise_sigma=0.2
        )
        ledger, reference = _pair(
            NAMES, pop, dynamics, seeds or SeedSequenceTree(11), n, chunk_rows=chunk_rows
        )
        for day, (mult, extra) in enumerate(days):
            _step_both(ledger, reference, day, mult, extra, migration_fraction)
        return ledger

    @pytest.mark.parametrize("churn", EDGE_CHURN)
    def test_churn_at_path_boundaries(self, churn):
        self._run([(None, None)] * 8, churn=churn)

    def test_events_on_tombstoned_slots(self):
        # A long seizure of A leaves tombstones in every region that
        # later churn events land on before compaction reclaims them.
        days = [({"A": 0.0}, {"A": 0.1, "C": 0.05})] * 12 + [(None, None)] * 12
        ledger = self._run(days)
        assert ledger._adead.sum() > 0

    def test_zero_total_signup_weight(self):
        everyone = {name: 0.0 for name in NAMES}
        self._run([(everyone, {"B": 0.4, "D": 1.0})] * 5 + [(None, None)] * 3)

    @pytest.mark.parametrize("fraction", [0.0, 1.0])
    def test_migration_fraction_extremes(self, fraction):
        days = [({"A": 0.0}, {"A": 0.25, "E": 0.6})] * 6
        self._run(days, migration_fraction=fraction)

    def test_dense_booter_in_256_row_chunks(self):
        days = [({"A": 0.0}, {"A": 0.5})] * 3 + [(None, {"B": 0.45, "C": 1.0})] * 3
        self._run(days, chunk_rows=256)

    def test_booters_with_no_live_slot(self):
        # E starts empty and signs nobody up; B is emptied on day 1.
        pop = np.array([5.0, 3.0, 1.5, 0.5, 0.0])
        days = [(None, None), ({"B": 0.0}, {"B": 1.0})] + [({"B": 0.0}, None)] * 4
        ledger = self._run(days, pop=pop, n=2_000)
        assert ledger.counts[4] == 0 and ledger.counts[1] == 0

    def test_runs_beyond_exact_sums_go_one_by_one(self, monkeypatch):
        # A run whose clipped gaps could sum past 2**53 is sampled booter
        # by booter; shrinking the bound sends every run down that path.
        monkeypatch.setattr(production, "_EXACT_FLOAT_INT", 0.0)
        days = [(None, None), ({"A": 0.0}, {"A": 0.1, "C": 0.05})] * 3
        self._run(days)
        self._run(days, seeds=_ZeroHeadSeeds(3, zeros=400))

    def test_refill_loop_runs(self, monkeypatch):
        """The stub makes every gap 1, so first batches end below ``m``."""
        calls = []
        original = production._skip_sample

        def counting(rng, m, p):
            calls.append(m)
            return original(rng, m, p)

        monkeypatch.setattr(production, "_skip_sample", counting)
        seeds = _ZeroHeadSeeds(5, zeros=10**9)
        days = [(None, None), ({"A": 0.0}, {"A": 0.1, "C": 0.05}), (None, None)]
        self._run(days, n=1_500, seeds=seeds)
        assert calls  # the refill path ran (and matched the reference)
