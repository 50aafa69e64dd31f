"""Core analysis pipeline — the paper's measurement methodology.

This is the part of the paper a downstream user adopts: given flow-level
traces (from any source; here from the simulator), classify NTP/DNS/
Memcached DDoS traffic, characterize victims, compare reflector sets
across attacks, and test intervention effects with the paper's
wt30/wt40 + red30/red40 methodology.
"""

from repro.core.classify import (
    ClassifierThresholds,
    ConservativeClassifier,
    OptimisticClassifier,
)
from repro.core.overlap import OverlapMatrix, reflector_overlap_matrix
from repro.core.parallel import DayResultCache, day_cache
from repro.core.pipeline import DailyPortSeries, TrafficSelector, collect_daily_port_series
from repro.core.selfattack import SelfAttackSummary, summarize_measurements
from repro.core.takedown_analysis import TakedownReport, analyze_takedown
from repro.core.victims import VictimReport, attacks_per_hour, victim_report

__all__ = [
    "ClassifierThresholds",
    "ConservativeClassifier",
    "DailyPortSeries",
    "DayResultCache",
    "OptimisticClassifier",
    "OverlapMatrix",
    "SelfAttackSummary",
    "TakedownReport",
    "TrafficSelector",
    "VictimReport",
    "analyze_takedown",
    "attacks_per_hour",
    "collect_daily_port_series",
    "day_cache",
    "reflector_overlap_matrix",
    "summarize_measurements",
    "victim_report",
]
