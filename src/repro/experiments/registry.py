"""Experiment registry and lookup."""

from __future__ import annotations

from typing import Callable

from repro.core.parallel import Ask
from repro.experiments import (
    attribution_exp,
    extensions,
    honeypot_exp,
    victimization_exp,
    fig1,
    fig2,
    fig3,
    fig4,
    fig5,
    selfattack_summary,
    table1,
)
from repro.experiments.base import ExperimentConfig, ExperimentResult
from repro.scenario import ScenarioConfig

__all__ = ["ASKS", "EXPERIMENTS", "get_experiment", "run_experiment"]

EXPERIMENTS: dict[str, Callable[[ExperimentConfig], ExperimentResult]] = {
    "table1": table1.run,
    "fig1a": fig1.run_fig1a,
    "fig1b": fig1.run_fig1b,
    "fig1c": fig1.run_fig1c,
    "fig2a": fig2.run_fig2a,
    "fig2b": fig2.run_fig2b,
    "fig2c": fig2.run_fig2c,
    "fig3": fig3.run,
    "fig4": fig4.run,
    "fig5": fig5.run,
    "selfattack": selfattack_summary.run,
    "landscape": fig2.run_landscape,
    # Extensions beyond the paper (its stated future work).
    "econ": extensions.run_econ,
    "market": extensions.run_market,
    "whatif": extensions.run_whatif,
    "attribution": attribution_exp.run,
    "honeypot": honeypot_exp.run,
    "victimization": victimization_exp.run,
}


#: The day-engine asks of each experiment that reads simulated days, which
#: the runner prefetches and the experiment reads through (``read_asks``).
ASKS: dict[str, Callable[[ScenarioConfig], list[Ask]]] = {
    "fig2a": fig2.fig2a_asks,
    "fig2b": fig2.window_asks,
    "fig2c": fig2.window_asks,
    "fig4": fig4.asks,
    "fig5": fig5.asks,
    "landscape": fig2.landscape_asks,
    "victimization": victimization_exp.asks,
}


def get_experiment(experiment_id: str) -> Callable[[ExperimentConfig], ExperimentResult]:
    """Look up an experiment driver by id (raises KeyError with the known ids)."""
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {experiment_id!r} (known: {known})") from None


def run_experiment(
    experiment_id: str, config: ExperimentConfig | None = None
) -> ExperimentResult:
    """Run one experiment by id with the given (or default) config."""
    return get_experiment(experiment_id)(config or ExperimentConfig())
