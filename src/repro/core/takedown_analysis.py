"""Intervention analysis: the paper's wt30/wt40 and red30/red40 metrics.

Section 5.2: for each (vantage point, protocol port, direction) the paper
builds a daily packet-count series spanning 122 days around the seizure,
then computes

* ``wtNN`` — whether a one-tailed Welch unequal-variances test comparing
  the NN days before with the NN days after the takedown is significant
  at p = 0.05;
* ``redNN`` — the after/before ratio of daily means.

The takedown day itself is excluded from both windows (the seizure
happened mid-day).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.stats.welch import WelchResult, welch_one_tailed

__all__ = ["WindowResult", "TakedownReport", "analyze_takedown"]


@dataclass(frozen=True)
class WindowResult:
    """One ±NN-day comparison window around the takedown."""

    window_days: int
    welch: WelchResult

    @property
    def significant(self) -> bool:
        """The paper's ``wtNN`` boolean."""
        return self.welch.significant

    @property
    def reduction_ratio(self) -> float:
        """The paper's ``redNN`` ratio (after-mean / before-mean)."""
        return self.welch.reduction_ratio


@dataclass(frozen=True)
class TakedownReport:
    """All requested windows for one daily series."""

    series_name: str
    takedown_index: int
    daily_series: np.ndarray
    windows: tuple[WindowResult, ...]

    def window(self, days: int) -> WindowResult:
        for w in self.windows:
            if w.window_days == days:
                return w
        raise KeyError(f"no ±{days}-day window in report (have {[w.window_days for w in self.windows]})")

    def summary_line(self) -> str:
        parts = [self.series_name]
        for w in self.windows:
            parts.append(
                f"wt{w.window_days}={'True' if w.significant else 'False'}"
                f" red{w.window_days}={w.reduction_ratio * 100:.2f}%"
            )
        return "  ".join(parts)


def analyze_takedown(
    daily_series: np.ndarray,
    takedown_index: int,
    windows: tuple[int, ...] = (30, 40),
    alpha: float = 0.05,
    series_name: str = "",
    min_window_samples: int = 10,
) -> TakedownReport:
    """Compute wt/red metrics for ``daily_series`` around ``takedown_index``.

    Args:
        daily_series: one value per day. ``NaN`` marks a collection gap
            (export outage, missing trace day) and is excluded from both
            windows — real flow archives have holes, and treating a gap
            as zero traffic would fabricate a reduction.
        takedown_index: index of the seizure day (excluded from windows).
        windows: window half-widths in days (the paper uses 30 and 40).
        alpha: significance level.
        series_name: label used in rendered reports.
        min_window_samples: minimum non-gap days each window must retain;
            a window narrower than this is rejected before it is read.
    """
    daily_series = np.asarray(daily_series, dtype=float)
    if daily_series.ndim != 1:
        raise ValueError("daily_series must be 1-D")
    if not 0 <= takedown_index < daily_series.size:
        raise ValueError("takedown_index outside the series")
    if min_window_samples < 2:
        raise ValueError("min_window_samples must be at least 2")
    results = []
    for w in windows:
        if w < min_window_samples:
            raise ValueError(
                f"±{w}-day window is narrower than the "
                f"{min_window_samples}-day minimum (min_window_samples)"
            )
        before_start = takedown_index - w
        after_end = takedown_index + 1 + w
        if before_start < 0 or after_end > daily_series.size:
            raise ValueError(
                f"±{w}-day window does not fit the series "
                f"(needs [{before_start}, {after_end}), have [0, {daily_series.size}))"
            )
        before = daily_series[before_start:takedown_index]
        after = daily_series[takedown_index + 1 : after_end]
        before = before[~np.isnan(before)]
        after = after[~np.isnan(after)]
        if before.size < min_window_samples or after.size < min_window_samples:
            raise ValueError(
                f"±{w}-day window has too many gaps "
                f"({before.size}/{after.size} usable days, "
                f"need {min_window_samples})"
            )
        results.append(WindowResult(window_days=w, welch=welch_one_tailed(before, after, alpha)))
    return TakedownReport(
        series_name=series_name,
        takedown_index=takedown_index,
        daily_series=daily_series,
        windows=tuple(results),
    )
