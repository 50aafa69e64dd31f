"""Figure 5: systems under NTP DDoS attack per hour (the null result).

Applies the conservative filter learned from the self-attacks (>200-byte
NTP packets, more than 10 amplifiers, >1 Gbps peak) hour by hour at the
IXP, then runs the same Welch methodology as Figure 4. The paper's
central negative finding: no significant reduction after the takedown.

The hourly counts are one :func:`repro.core.parallel.day_reductions`
value per day (:func:`hourly_attack_counts`), so they parallelize over
days (``--jobs``) with bit-identical results. fig4 asks for the same
value over the same days, so after fig4 every day is a cache hit
(``--cache``); a cached observed IXP table is reduced in place, and only
days with neither are synthesized.
"""

from __future__ import annotations

import numpy as np

from repro.core.parallel import Reduction, day_reductions, hourly_attacks
from repro.core.takedown_analysis import analyze_takedown
from repro.experiments.base import (
    ExperimentConfig,
    ExperimentResult,
    build_scenario,
    format_table,
)
from repro.scenario import Scenario

__all__ = ["run", "hourly_attack_counts"]


def hourly_attack_counts(scenario: Scenario) -> Reduction:
    """Figure 5's per-day value at the IXP: 24 conservative attack counts."""
    return hourly_attacks(float(scenario.config.ixp_sampling))


def run(config: ExperimentConfig) -> ExperimentResult:
    """Regenerate Figure 5: systems under NTP attack per hour (null)."""
    scenario = build_scenario(config)
    takedown_day = scenario.config.takedown_day
    day_range = (40, scenario.config.n_days - 1)

    reduction = hourly_attack_counts(scenario)
    per_day = day_reductions(
        scenario,
        range(*day_range),
        {"ixp": (reduction,)},
        jobs=config.jobs,
        cache=config.use_cache,
    )["ixp", reduction]
    hourly_series = np.array(per_day, dtype=np.int64).reshape(-1)
    daily = hourly_series.reshape(-1, 24).sum(axis=1).astype(float)

    takedown_index = takedown_day - day_range[0]
    report = analyze_takedown(
        daily, takedown_index, windows=(30, 40), series_name="NTP attacks/hour @ IXP"
    )
    w30, w40 = report.window(30), report.window(40)

    before_mean = daily[:takedown_index].mean() / 24.0
    after_mean = daily[takedown_index + 1 :].mean() / 24.0
    table = format_table(
        ["metric", "value"],
        [
            ["mean systems under attack/hour (before)", f"{before_mean:.2f}"],
            ["mean systems under attack/hour (after)", f"{after_mean:.2f}"],
            ["wt30 significant", str(w30.significant)],
            ["wt40 significant", str(w40.significant)],
            ["red30", f"{w30.reduction_ratio * 100:.1f}%"],
            ["red40", f"{w40.reduction_ratio * 100:.1f}%"],
        ],
    )

    return ExperimentResult(
        experiment_id="fig5",
        title="Systems under NTP DDoS attack per hour",
        data={
            "hourly_series": hourly_series,
            "daily_series": daily,
            "report": report,
            "takedown_index": takedown_index,
        },
        tables=[table],
        paper_vs_measured=[
            ("wt30 significant", "False", str(w30.significant)),
            ("wt40 significant", "False", str(w40.significant)),
            (
                "attacks continue after takedown",
                "yes",
                "yes" if after_mean > 0.3 * before_mean else "no",
            ),
        ],
    )
