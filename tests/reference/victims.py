"""Reference Figure 5 reduction: one filtered table per hour.

:func:`attacks_per_hour` is the per-hour loop that
``repro.core.victims.attacks_per_hour`` replaced with one grouped pass
over (hour, destination) pairs: it filters a table per hour, runs
:func:`~repro.flows.timeseries.per_destination_stats` on it and applies
the conservative rule. The parity suite asserts both give identical
counts.
"""

from __future__ import annotations

import numpy as np

from repro.core.classify import ClassifierThresholds, ConservativeClassifier, OptimisticClassifier
from repro.flows.records import FlowTable
from repro.flows.timeseries import per_destination_stats

__all__ = ["attacks_per_hour"]

SECONDS_PER_HOUR = 3600.0


def attacks_per_hour(
    table: FlowTable,
    t0: float,
    t1: float,
    thresholds: ClassifierThresholds = ClassifierThresholds(),
    sampling_factor: float = 1.0,
    bin_seconds: float = 60.0,
) -> np.ndarray:
    """Destinations passing both conservative rules, per hour of ``[t0, t1)``."""
    if t1 <= t0:
        raise ValueError("t1 must be after t0")
    n_hours = int(np.ceil((t1 - t0) / SECONDS_PER_HOUR))
    counts = np.zeros(n_hours, dtype=np.int64)
    amplified = OptimisticClassifier(thresholds).amplification_flows(table)
    if len(amplified) == 0:
        return counts
    conservative = ConservativeClassifier(thresholds)
    times = amplified["time"]
    hour_idx = ((times - t0) / SECONDS_PER_HOUR).astype(np.int64)
    inside = (times >= t0) & (times < t1)
    for hour in np.unique(hour_idx[inside]):
        hour_table = amplified.filter(inside & (hour_idx == hour))
        stats = per_destination_stats(hour_table, bin_seconds=bin_seconds)
        mask = conservative.destination_mask(stats, sampling_factor)
        counts[hour] = int(mask.sum())
    return counts
