"""Customer dynamics of booter services.

Each booter carries a customer base that evolves daily: new signups
arrive proportionally to the service's popularity and the overall market
growth, existing customers churn at a base rate, and interventions
modulate both (a seized front-end signs up nobody; a payment intervention
blocks a share of renewals market-wide).

Numbers are calibrated loosely against what the literature reports:
webstresser.org had ~138K registered users at seizure (Krebs 2018), and
leaked databases show thousands of *paying* customers for mid-sized
services (Santanna et al. 2015).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.booter.market import BooterMarket
from repro.stats.rng import SeedSequenceTree

__all__ = ["CustomerDynamics", "CustomerPopulationModel", "normalize_popularity"]


def normalize_popularity(
    popularity: np.ndarray, *, uniform_fallback: bool = False
) -> np.ndarray:
    """Normalize raw popularity weights into a probability vector.

    A market whose services all have zero popularity has no meaningful
    signup weighting: by default that raises a :class:`ValueError` (a
    silent ``0/0`` would propagate NaNs through every downstream count);
    with ``uniform_fallback`` it degrades to uniform weights instead,
    which is the right behavior for churner re-signup weighting where
    "nobody is more popular" should not mean "nobody re-signs".
    """
    weights = np.asarray(popularity, dtype=np.float64)
    if weights.size == 0:
        raise ValueError("popularity vector is empty — no services to weight")
    if (weights < 0).any():
        raise ValueError("popularity weights cannot be negative")
    total = weights.sum()
    if total <= 0:
        if uniform_fallback:
            return np.full(weights.size, 1.0 / weights.size)
        raise ValueError(
            "every service popularity is zero — cannot form signup weights "
            "(pass uniform_fallback=True to weight services uniformly)"
        )
    return weights / total


@dataclass(frozen=True)
class CustomerDynamics:
    """Market-wide customer flow parameters.

    Attributes:
        market_signups_per_day: new paying customers entering the market
            daily (spread over booters by popularity).
        churn_per_day: fraction of a booter's customers lost per day.
        initial_customers_per_popularity: initial base = popularity x this.
        signup_noise_sigma: day-to-day lognormal noise on signups.
    """

    market_signups_per_day: float = 400.0
    churn_per_day: float = 0.02
    # Default initial base = the flow equilibrium signups/churn, so the
    # baseline market is stationary.
    initial_customers_per_popularity: float = 20_000.0
    signup_noise_sigma: float = 0.2

    def __post_init__(self) -> None:
        if self.market_signups_per_day < 0:
            raise ValueError("signups cannot be negative")
        if not 0.0 <= self.churn_per_day <= 1.0:
            raise ValueError("churn must be in [0, 1]")
        if self.initial_customers_per_popularity < 0:
            raise ValueError("initial customers cannot be negative")


class CustomerPopulationModel:
    """Day-stepped per-booter customer counts.

    The step equation per booter ``b``::

        customers[b] += signups[b] * signup_mult[b]   (new business)
        customers[b] -= churn * customers[b]          (natural attrition)
        customers[b] -= extra_churn[b] * customers[b] (intervention)
        migrating churners re-sign at surviving booters per popularity

    ``signup_mult``/``extra_churn`` come from the active intervention.
    """

    def __init__(
        self,
        market: BooterMarket,
        dynamics: CustomerDynamics,
        seeds: SeedSequenceTree,
    ) -> None:
        self.market = market
        self.dynamics = dynamics
        self._seeds = seeds
        self.names = market.service_names()
        self._known = frozenset(self.names)
        popularity = np.array([market.services[n].popularity for n in self.names])
        self.popularity = normalize_popularity(popularity)
        self.customers = self.popularity * dynamics.initial_customers_per_popularity

    def step(
        self,
        day: int,
        signup_mult: dict[str, float] | None = None,
        extra_churn: dict[str, float] | None = None,
        migration_fraction: float = 0.8,
    ) -> np.ndarray:
        """Advance one day; returns the new per-booter customer counts.

        ``migration_fraction`` of intervention-displaced customers re-sign
        at other booters (weighted by popularity x their signup
        multiplier); the rest leave the market. A mapping that names a
        booter the market does not have raises :class:`ValueError`.
        """
        if not 0.0 <= migration_fraction <= 1.0:
            raise ValueError("migration_fraction must be in [0, 1]")
        for mapping in (signup_mult, extra_churn):
            unknown = sorted(set(mapping or ()) - self._known)
            if unknown:
                raise ValueError(
                    f"unknown booters {unknown!r}: the market has {self.names!r}"
                )
        rng = self._seeds.child("step", day).rng()
        mult = np.array(
            [1.0 if signup_mult is None else signup_mult.get(n, 1.0) for n in self.names]
        )
        churn_extra = np.array(
            [0.0 if extra_churn is None else extra_churn.get(n, 0.0) for n in self.names]
        )
        if (mult < 0).any() or (churn_extra < 0).any() or (churn_extra > 1).any():
            raise ValueError("invalid intervention multipliers")

        # Organic signups, gated by each booter's signup multiplier.
        level = rng.lognormal(0.0, self.dynamics.signup_noise_sigma)
        signup_weights = self.popularity * mult
        total_weight = signup_weights.sum()
        signups = (
            self.dynamics.market_signups_per_day
            * level
            * (signup_weights / total_weight if total_weight > 0 else 0.0)
        )

        # Natural churn plus intervention-forced churn.
        natural = self.customers * self.dynamics.churn_per_day
        forced = self.customers * churn_extra
        displaced = forced.sum()

        self.customers = self.customers + signups - natural - forced
        # Displaced customers migrate to booters still signing people up.
        # When every signup weight is zero (all booters seized at once)
        # there is nowhere to re-sign: the displaced leave the market
        # entirely rather than dividing by a zero total weight.
        if displaced > 0 and total_weight > 0:
            self.customers = self.customers + (
                migration_fraction * displaced * signup_weights / total_weight
            )
        self.customers = np.maximum(self.customers, 0.0)
        return self.customers.copy()

    def by_name(self) -> dict[str, float]:
        return dict(zip(self.names, self.customers.tolist()))

    def total(self) -> float:
        return float(self.customers.sum())
