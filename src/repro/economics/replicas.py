"""Replicated intervention studies fanned over the warm worker pool.

One economy run answers "what did this seizure do to *this* market
draw"; ranking intervention strategies needs distributions — N seeds per
strategy, compared on dip, recovery, revenue shortfall, and recidivism.
This module fans those ``strategy x replica`` runs through
:func:`repro.core.workerpool.run_tasks`, as the day engine fans days:

* every replica is an independent :class:`ReplicaTask` carrying a
  frozen intervention; it runs on the caller's world inline, or on the
  pool worker's memoized world, and seeds the run from the scenario
  seed tree, so results are bit-identical for any ``jobs`` (pinned by
  the ledger digests in each result);
* worker-side ``econ.*`` counters merge back into the parent registry
  through the pool's standard metering path, so a replica study shows up
  in ``--profile`` / ``--metrics-out`` like any other fan-out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.workerpool import run_tasks
from repro.economics.customers import CustomerDynamics
from repro.economics.interventions import Intervention
from repro.economics.simulate import EconomySimulation, LedgerEconomyReport
from repro.obs import metrics
from repro.scenario.scenario import Scenario

__all__ = ["ReplicaTask", "ReplicaResult", "ReplicaStudy", "run_intervention_replicas"]


@dataclass(frozen=True)
class ReplicaTask:
    """One picklable ``strategy x replica`` work item for the pool."""

    intervention: Intervention
    replica: int
    n_days: int
    n_customers: int
    paying_fraction: float
    dynamics: CustomerDynamics


@dataclass(frozen=True)
class ReplicaResult:
    """Compact summary of one ledger replica run (picklable)."""

    strategy: str
    replica: int
    dip_fraction: float
    recovery_day: int | None
    revenue_loss: float
    final_customers: float
    repeat_fraction: float
    displaced: int
    ledger_digest: str
    total_customers: np.ndarray


def _replica_seeds(scenario: Scenario, task: ReplicaTask):
    # Child path includes strategy name and replica index, so every
    # (strategy, replica) pair owns an independent stream derived only
    # from the scenario seed — identical in any process or order.
    return scenario.seeds.child("econ-replica", task.intervention.name, task.replica)


def _run_replica(scenario: Scenario, task: ReplicaTask) -> ReplicaResult:
    """Run one ledger replica on ``scenario``'s market and summarize it."""
    sim = EconomySimulation(
        scenario.market,
        _replica_seeds(scenario, task),
        task.dynamics,
        task.paying_fraction,
        model="ledger",
        n_customers=task.n_customers,
    )
    report = sim.run(task.n_days, task.intervention)
    assert isinstance(report, LedgerEconomyReport)
    metrics().inc("econ.replicas")
    return ReplicaResult(
        strategy=task.intervention.name,
        replica=task.replica,
        dip_fraction=report.dip_fraction(),
        recovery_day=report.recovery_day(threshold=0.9),
        revenue_loss=report.revenue_loss(),
        final_customers=float(report.total_customers()[-1]),
        repeat_fraction=report.repeat_fraction,
        displaced=report.displaced,
        ledger_digest=report.ledger_digest,
        total_customers=report.total_customers().astype(np.float64),
    )


@dataclass
class ReplicaStudy:
    """All replica results of one study, grouped per strategy."""

    n_replicas: int
    n_days: int
    n_customers: int
    results: list[ReplicaResult] = field(default_factory=list)

    def strategies(self) -> list[str]:
        """Strategy names in first-appearance order."""
        seen: dict[str, None] = {}
        for result in self.results:
            seen.setdefault(result.strategy, None)
        return list(seen)

    def by_strategy(self, strategy: str) -> list[ReplicaResult]:
        """All replicas of one strategy, ordered by replica index."""
        picked = [r for r in self.results if r.strategy == strategy]
        return sorted(picked, key=lambda r: r.replica)

    def digests(self, strategy: str) -> list[str]:
        """The per-replica ledger digests of a strategy (parity pinning)."""
        return [r.ledger_digest for r in self.by_strategy(strategy)]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-strategy means: dip, revenue loss, recidivism, final size."""
        out: dict[str, dict[str, float]] = {}
        for strategy in self.strategies():
            rows = self.by_strategy(strategy)
            recoveries = [r.recovery_day for r in rows if r.recovery_day is not None]
            out[strategy] = {
                "dip_fraction": float(np.mean([r.dip_fraction for r in rows])),
                "revenue_loss": float(np.mean([r.revenue_loss for r in rows])),
                "repeat_fraction": float(np.mean([r.repeat_fraction for r in rows])),
                "final_customers": float(np.mean([r.final_customers for r in rows])),
                "recovered_share": len(recoveries) / len(rows),
                "mean_recovery_day": float(np.mean(recoveries)) if recoveries else float("nan"),
            }
        return out


def run_intervention_replicas(
    scenario: Scenario,
    interventions: Sequence[Intervention],
    n_replicas: int,
    n_days: int,
    *,
    n_customers: int = 100_000,
    jobs: int | None = 1,
    dynamics: CustomerDynamics = CustomerDynamics(),
    paying_fraction: float = 0.12,
) -> ReplicaStudy:
    """Fan ``len(interventions) x n_replicas`` ledger runs over the pool.

    ``jobs`` follows the day-pipeline conventions (``jobs=None``/``0`` =
    all cores; ``jobs=1`` runs inline on ``scenario``). The fan is a pure
    execution strategy: results — including every ledger digest — are
    identical for any ``jobs``.
    """
    if n_replicas <= 0:
        raise ValueError("n_replicas must be positive")
    if not interventions:
        raise ValueError("need at least one intervention to study")
    tasks = [
        ReplicaTask(
            intervention=intervention,
            replica=replica,
            n_days=n_days,
            n_customers=n_customers,
            paying_fraction=paying_fraction,
            dynamics=dynamics,
        )
        for intervention in interventions
        for replica in range(n_replicas)
    ]
    results = run_tasks(scenario, _run_replica, tasks, jobs)
    metrics().inc("market.replica_tasks", len(tasks))
    return ReplicaStudy(
        n_replicas=n_replicas,
        n_days=n_days,
        n_customers=n_customers,
        results=results,
    )
