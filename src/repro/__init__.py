"""repro — reproduction of "DDoS Hide & Seek" (IMC 2019).

A measurement-study-in-a-box: the paper's DDoS classification and
takedown-analysis pipeline plus every substrate it needs (Internet model,
flow records, amplification protocols, booter ecosystem, vantage points,
domain observatory), all deterministic from a single seed.

Most users start from :class:`repro.scenario.Scenario` (build a world,
generate traffic, observe it) and :mod:`repro.core` (classify and
analyze), or run ``repro-experiments <figure-id>`` to regenerate a paper
artifact. See README.md / DESIGN.md / EXPERIMENTS.md.
"""

from repro.core.classify import (
    ClassifierThresholds,
    ConservativeClassifier,
    OptimisticClassifier,
)
from repro.core.takedown_analysis import analyze_takedown
from repro.core.victims import attacks_per_hour, victim_report
from repro.flows.records import FlowTable
from repro.scenario import Scenario, ScenarioConfig
from repro.stats.welch import welch_one_tailed

__version__ = "1.0.0"

__all__ = [
    "ClassifierThresholds",
    "ConservativeClassifier",
    "FlowTable",
    "OptimisticClassifier",
    "Scenario",
    "ScenarioConfig",
    "analyze_takedown",
    "attacks_per_hour",
    "victim_report",
    "welch_one_tailed",
    "__version__",
]
