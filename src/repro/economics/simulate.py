"""Economy simulation: run interventions over the customer models.

Produces the quantities the paper's conclusion asks about: per-booter
customer/revenue trajectories, market totals, the dip caused by an
intervention, and how long the market takes to recover.

Two engines share the same intervention interface:

* ``model="aggregate"`` — the original per-booter float step
  (:class:`~repro.economics.customers.CustomerPopulationModel`), kept as
  the parity authority: fast, continuous, no per-customer state.
* ``model="ledger"`` — the columnar per-customer
  :class:`~repro.economics.ledger.CustomerLedger`: millions of simulated
  customers with tenure, migration, and recidivism outputs the aggregate
  step cannot represent. At matched parameters its per-booter daily
  counts match the aggregate step in expectation (property-tested).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.booter.market import BooterMarket
from repro.economics.customers import CustomerDynamics, CustomerPopulationModel
from repro.economics.interventions import Intervention, NoIntervention
from repro.economics.ledger import DISPLACED, CustomerLedger
from repro.stats.rng import SeedSequenceTree

__all__ = ["ECONOMY_MODELS", "EconomyReport", "LedgerEconomyReport", "EconomySimulation"]

DAYS_PER_MONTH = 30.0

#: Valid values of the ``model`` parameter of :class:`EconomySimulation`.
ECONOMY_MODELS = ("aggregate", "ledger")


@dataclass
class EconomyReport:
    """Outcome of one economy run.

    Attributes:
        intervention_name: which intervention ran.
        days: day indices.
        customers: (n_days, n_booters) matrix of customer counts.
        revenue_per_day: per-day market revenue in USD.
        names: booter names aligned with the customer columns.
        intervention_day: when the intervention hit (None for baseline).
    """

    intervention_name: str
    days: np.ndarray
    customers: np.ndarray
    revenue_per_day: np.ndarray
    names: list[str]
    intervention_day: int | None

    def total_customers(self) -> np.ndarray:
        return self.customers.sum(axis=1)

    def dip_fraction(self) -> float:
        """Deepest market contraction relative to the pre-intervention level."""
        if self.intervention_day is None:
            return 0.0
        totals = self.total_customers()
        idx = int(np.searchsorted(self.days, self.intervention_day))
        if idx == 0 or idx >= totals.size:
            return 0.0
        before = totals[:idx].mean()
        trough = totals[idx:].min()
        return float(1.0 - trough / before) if before > 0 else 0.0

    def recovery_day(self, threshold: float = 0.95) -> int | None:
        """First day *after the trough* at which the market regains
        ``threshold`` of its pre-intervention customer level (None if
        never)."""
        if self.intervention_day is None:
            return None
        totals = self.total_customers()
        idx = int(np.searchsorted(self.days, self.intervention_day))
        if idx == 0 or idx >= totals.size:
            return None
        before = totals[:idx].mean()
        trough_idx = idx + int(np.argmin(totals[idx:]))
        for i in range(trough_idx, totals.size):
            if totals[i] >= threshold * before:
                return int(self.days[i])
        return None

    def revenue_loss(self) -> float:
        """Cumulative revenue shortfall vs the pre-intervention run rate."""
        if self.intervention_day is None:
            return 0.0
        idx = int(np.searchsorted(self.days, self.intervention_day))
        if idx == 0:
            return 0.0
        baseline = self.revenue_per_day[:idx].mean()
        shortfall = baseline - self.revenue_per_day[idx:]
        return float(np.maximum(shortfall, 0.0).sum())


@dataclass
class LedgerEconomyReport(EconomyReport):
    """An :class:`EconomyReport` plus the per-customer outputs.

    Attributes:
        migration_matrix: cumulative (from, to) re-sign counts between
            booters over the whole run.
        tenure_at_churn: histogram of subscription lengths at churn
            (index = tenure in days).
        repeat_fraction: share of intervention-displaced customers who
            re-signed somewhere (the Vu et al. recidivism measure).
        displaced: total intervention-displacement events.
        n_customer_rows: customer rows materialized (active + churned).
        ledger_digest: SHA-256 of the final ledger state — the
            determinism pin for chunk-size / ``jobs`` parity.
    """

    migration_matrix: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    tenure_at_churn: np.ndarray = field(default_factory=lambda: np.zeros(0))
    repeat_fraction: float = 0.0
    displaced: int = 0
    n_customer_rows: int = 0
    ledger_digest: str = ""


class EconomySimulation:
    """Runs a customer/revenue simulation for one market.

    ``model`` selects the default engine (any :meth:`run` call can
    override it): ``"aggregate"`` for the per-booter float step,
    ``"ledger"`` for the columnar per-customer plane with
    ``n_customers`` simulated customers.
    """

    def __init__(
        self,
        market: BooterMarket,
        seeds: SeedSequenceTree,
        dynamics: CustomerDynamics = CustomerDynamics(),
        paying_fraction: float = 0.12,
        *,
        model: str = "aggregate",
        n_customers: int = 100_000,
    ) -> None:
        """``paying_fraction``: registered customers actively paying in a
        month (leaked databases show most registered users never buy)."""
        if not 0.0 < paying_fraction <= 1.0:
            raise ValueError("paying_fraction must be in (0, 1]")
        if model not in ECONOMY_MODELS:
            raise ValueError(f"model must be one of {ECONOMY_MODELS}, got {model!r}")
        if n_customers < 0:
            raise ValueError("n_customers cannot be negative")
        self.market = market
        self.seeds = seeds
        self.dynamics = dynamics
        self.paying_fraction = paying_fraction
        self.model = model
        self.n_customers = n_customers
        # Revenue per paying customer per month: the non-VIP price of the
        # service, plus the VIP premium for the VIP share of buyers.
        self._monthly_price = {}
        for name, service in market.services.items():
            non_vip = service.plans["non-vip"].price_usd
            vip = service.plans["vip"].price_usd
            self._monthly_price[name] = 0.92 * non_vip + 0.08 * vip

    def _prices(self, names: list[str]) -> np.ndarray:
        return np.array([self._monthly_price[n] for n in names])

    def run(
        self,
        n_days: int,
        intervention: Intervention | None = None,
        intervention_day: int | None = None,
        *,
        model: str | None = None,
    ) -> EconomyReport:
        """Simulate ``n_days``; ``intervention_day`` is inferred from the
        intervention's ``day`` attribute when present. ``model``
        overrides the engine chosen at construction for this run."""
        if n_days <= 0:
            raise ValueError("n_days must be positive")
        model = self.model if model is None else model
        if model not in ECONOMY_MODELS:
            raise ValueError(f"model must be one of {ECONOMY_MODELS}, got {model!r}")
        intervention = intervention or NoIntervention()
        if intervention_day is None:
            intervention_day = getattr(intervention, "day", None)
        if model == "ledger":
            return self._run_ledger(n_days, intervention, intervention_day)
        return self._run_aggregate(n_days, intervention, intervention_day)

    def _run_aggregate(
        self, n_days: int, intervention: Intervention, intervention_day: int | None
    ) -> EconomyReport:
        model = CustomerPopulationModel(
            self.market, self.dynamics, self.seeds.child("customers", intervention.name)
        )
        names = model.names
        prices = self._prices(names)
        customers = np.empty((n_days, len(names)))
        revenue = np.empty(n_days)
        for day in range(n_days):
            counts = model.step(
                day,
                signup_mult=intervention.signup_multipliers(self.market, day),
                extra_churn=intervention.extra_churn(self.market, day),
            )
            customers[day] = counts
            revenue[day] = float(
                (counts * self.paying_fraction * prices).sum() / DAYS_PER_MONTH
            )
        return EconomyReport(
            intervention_name=intervention.name,
            days=np.arange(n_days),
            customers=customers,
            revenue_per_day=revenue,
            names=names,
            intervention_day=intervention_day,
        )

    def _run_ledger(
        self, n_days: int, intervention: Intervention, intervention_day: int | None
    ) -> LedgerEconomyReport:
        names = self.market.service_names()
        prices = self._prices(names)
        # Per-customer expected daily revenue; accrued as lifetime spend
        # and used for the market revenue series, so ledger and
        # aggregate revenue follow the same price formula.
        daily_price = prices * self.paying_fraction / DAYS_PER_MONTH
        ledger = CustomerLedger.from_market(
            self.market,
            self.dynamics,
            self.seeds.child("ledger", intervention.name),
            self.n_customers,
            daily_price=daily_price,
            # One appended row per signup: reserving the expected
            # horizon up front skips the column regrowth copies.
            reserve_rows=self.n_customers
            + int(n_days * self.dynamics.market_signups_per_day * 1.3),
        )
        customers = np.empty((n_days, len(names)))
        revenue = np.empty(n_days)
        for day in range(n_days):
            counts = ledger.step(
                day,
                signup_mult=intervention.signup_multipliers(self.market, day),
                extra_churn=intervention.extra_churn(self.market, day),
            )
            customers[day] = counts
            revenue[day] = float(counts @ daily_price)
        state = ledger._state[: ledger.n_customers]
        return LedgerEconomyReport(
            intervention_name=intervention.name,
            days=np.arange(n_days),
            customers=customers,
            revenue_per_day=revenue,
            names=names,
            intervention_day=intervention_day,
            migration_matrix=ledger.migration_matrix.copy(),
            tenure_at_churn=ledger.tenure_at_churn(),
            repeat_fraction=ledger.repeat_customer_fraction(),
            displaced=int((state & DISPLACED != 0).sum()),
            n_customer_rows=ledger.n_customers,
            ledger_digest=ledger.digest(),
        )
