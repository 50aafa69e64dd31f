"""Extension experiments beyond the paper's figures.

The paper's conclusion motivates two follow-ups it could not measure:

* ``econ`` — the takedown's effect on the booter *economy* (customers,
  revenue) compared against other interventions (payment crackdown,
  operator arrest);
* ``whatif`` — what intervention would actually have reduced victim-side
  traffic: seizing front-ends (measured: nothing) vs remediating the open
  reflectors the attacks run on (the paper's recommendation);
* ``market`` — replicated per-customer ledger runs
  (:mod:`repro.economics.ledger`) ranking intervention strategies by
  dip, revenue shortfall, and the Vu et al. recidivism measure.
"""

from __future__ import annotations

import numpy as np

from repro.economics.interventions import (
    DomainSeizure,
    NoIntervention,
    OperatorArrest,
    PaymentIntervention,
)
from repro.economics.replicas import run_intervention_replicas
from repro.economics.simulate import EconomySimulation
from repro.experiments.base import (
    ExperimentConfig,
    ExperimentResult,
    build_scenario,
    format_table,
)
from repro.mitigation.remediation import RemediationPolicy, ReflectorRemediation

__all__ = ["run_econ", "run_market", "run_whatif"]

_ECON_DAYS = 220
_ECON_INTERVENTION_DAY = 80


def run_econ(config: ExperimentConfig) -> ExperimentResult:
    """Compare the economic footprint of four interventions."""
    scenario = build_scenario(config)
    sim = EconomySimulation(scenario.market, scenario.seeds.child("economy"))

    interventions = [
        NoIntervention(),
        DomainSeizure(day=_ECON_INTERVENTION_DAY),
        PaymentIntervention(day=_ECON_INTERVENTION_DAY),
        OperatorArrest(day=_ECON_INTERVENTION_DAY, booter="A"),
    ]
    reports = {i.name: sim.run(_ECON_DAYS, i) for i in interventions}

    rows = []
    for name, report in reports.items():
        recovery = report.recovery_day(threshold=0.9)
        rows.append(
            [
                name,
                f"{report.dip_fraction() * 100:.1f}%",
                f"day {recovery}" if recovery is not None else "never (horizon)",
                f"${report.revenue_loss():,.0f}",
            ]
        )
    table = format_table(
        ["intervention", "customer dip", "90% recovery", "revenue shortfall"], rows
    )

    seizure = reports["domain seizure"]
    payment = reports["payment intervention"]
    return ExperimentResult(
        experiment_id="econ",
        title="EXTENSION: intervention economics (customers & revenue)",
        data={"reports": reports},
        tables=[table],
        paper_vs_measured=[
            (
                "domain seizure: market survives",
                "implied (attacks continue)",
                f"dip {seizure.dip_fraction() * 100:.0f}%, recovers",
            ),
            (
                "payment intervention hits market-wide",
                "Brunt et al. 2017 (revenue drop)",
                f"dip {payment.dip_fraction() * 100:.0f}% across all booters",
            ),
            (
                "baseline market stationary",
                "-",
                f"dip {reports['none'].dip_fraction() * 100:.0f}%",
            ),
        ],
    )


_MARKET_DAYS = 160
_MARKET_INTERVENTION_DAY = 60
#: Flow equilibrium of the default dynamics (signups / churn): starting
#: on it keeps the baseline stationary, so the measured dip is the
#: intervention's, not relaxation toward equilibrium.
_MARKET_CUSTOMERS = 20_000
_MARKET_REPLICAS = 3


def run_market(config: ExperimentConfig) -> ExperimentResult:
    """Replicated per-customer market study on the columnar ledger.

    Each strategy runs ``_MARKET_REPLICAS`` independently-seeded ledger
    replicas through the warm worker pool (inline at ``jobs=1``); the
    comparison adds the measures the aggregate ``econ`` experiment
    cannot produce — recidivism after displacement and migration volume.
    """
    scenario = build_scenario(config)
    interventions = [
        NoIntervention(),
        DomainSeizure(day=_MARKET_INTERVENTION_DAY),
        PaymentIntervention(day=_MARKET_INTERVENTION_DAY),
        OperatorArrest(day=_MARKET_INTERVENTION_DAY, booter="A"),
    ]
    study = run_intervention_replicas(
        scenario,
        interventions,
        n_replicas=_MARKET_REPLICAS,
        n_days=_MARKET_DAYS,
        n_customers=_MARKET_CUSTOMERS,
        jobs=config.jobs,
    )
    summary = study.summary()
    rows = []
    for name in study.strategies():
        stats = summary[name]
        rows.append(
            [
                name,
                f"{stats['dip_fraction'] * 100:.1f}%",
                f"${stats['revenue_loss']:,.0f}",
                f"{stats['repeat_fraction'] * 100:.1f}%",
                f"{stats['recovered_share'] * 100:.0f}%",
            ]
        )
    table = format_table(
        ["strategy", "mean dip", "mean revenue loss", "recidivism", "recovered"], rows
    )
    seizure = summary["domain seizure"]
    return ExperimentResult(
        experiment_id="market",
        title="EXTENSION: replicated per-customer market (ledger plane)",
        data={"study": study, "summary": summary},
        tables=[table],
        paper_vs_measured=[
            (
                "displaced customers mostly return",
                "Vu et al. (recidivism after takedown)",
                f"{seizure['repeat_fraction'] * 100:.0f}% of displaced re-sign",
            ),
            (
                "seizure dips but does not kill the market",
                "implied (attacks continue)",
                f"mean dip {seizure['dip_fraction'] * 100:.0f}% over "
                f"{_MARKET_REPLICAS} replicas",
            ),
        ],
    )


_WHATIF_WINDOW = 40  # days simulated after each intervention


def run_whatif(config: ExperimentConfig) -> ExperimentResult:
    """Victim-side NTP attack capacity under three worlds.

    Capacity is computed analytically from the same models the traffic
    loop uses: daily attack demand (market + takedown) times per-attack
    reflector capacity (remediation). This keeps the comparison exact
    rather than sampling-noisy.
    """
    scenario = build_scenario(config)
    market = scenario.market
    takedown_day = scenario.config.takedown_day
    days = np.arange(takedown_day - 10, takedown_day + _WHATIF_WINDOW)

    # World 1: the FBI takedown as measured.
    takedown = scenario.takedown
    demand_takedown = np.array([takedown.demand_scale(market, int(d)) for d in days])

    # World 2: no takedown, but a reflector remediation campaign starting
    # the same day (a determined 12%/day patch rate, mild reinfection).
    pool = scenario.pools["ntp"]
    remediation = ReflectorRemediation(
        pool,
        RemediationPolicy(
            daily_patch_fraction=0.12, daily_reinfection=0.002, start_day=takedown_day
        ),
        scenario.seeds.child("whatif"),
    )
    working_set_size = scenario.config.market.reflector_set_size
    working = np.arange(min(working_set_size, len(pool)))
    capacity_remediation = np.array(
        [remediation.attack_capacity(int(d), working, refill=True) for d in days]
    )

    # World 3: both at once.
    combined = demand_takedown * capacity_remediation

    horizon = len(days) - 1
    rows = [
        ["takedown only", f"{demand_takedown[-1] * 100:.0f}%"],
        ["remediation only", f"{capacity_remediation[-1] * 100:.0f}%"],
        ["both", f"{combined[-1] * 100:.0f}%"],
    ]
    table = format_table(
        [f"world", f"victim-side attack capacity after {_WHATIF_WINDOW} days"], rows
    )

    return ExperimentResult(
        experiment_id="whatif",
        title="EXTENSION: what would have helped victims?",
        data={
            "days": days,
            "demand_takedown": demand_takedown,
            "capacity_remediation": capacity_remediation,
            "combined": combined,
        },
        tables=[table],
        paper_vs_measured=[
            (
                "front-end seizure helps victims",
                "no (Fig. 5 null result)",
                f"capacity back to {demand_takedown[-1] * 100:.0f}% within {_WHATIF_WINDOW} days",
            ),
            (
                "reflector remediation helps victims",
                "recommended, unmeasured",
                f"capacity down to {capacity_remediation[-1] * 100:.0f}% and falling",
            ),
        ],
    )
