"""EXTENSION experiment: who gets attacked, and how often?

Companion analysis in the spirit of Noroozian et al. (RAID 2016, "Who
gets the boot?") and Jonker et al. (IMC 2017): the distribution of
attacks over victims is heavy-tailed — a small set of targets absorbs a
large share of all attacks — and repeat victims dominate volume. Runs on
the market's ground-truth attack events over two weeks.
"""

from __future__ import annotations

import numpy as np

from repro.core.parallel import day_attack_tables, day_events
from repro.core.victims import victim_asn_breakdown, victim_report
from repro.experiments.base import (
    ExperimentConfig,
    ExperimentResult,
    build_scenario,
    format_table,
)
from repro.flows.records import FlowTable

__all__ = ["run"]

_DAYS = range(40, 54)


def run(config: ExperimentConfig) -> ExperimentResult:
    """Attack-per-victim distribution and per-AS-role victimization."""
    scenario = build_scenario(config)
    events = [
        e for day in _DAYS for e in day_events(scenario, day, cache=config.use_cache)
    ]
    victims = np.array([e.victim_ip for e in events], dtype=np.uint64)
    unique, counts = np.unique(victims, return_counts=True)
    counts_sorted = np.sort(counts)[::-1]

    n_victims = unique.size
    repeat_share = float((counts > 1).sum() / n_victims)
    top10_share = float(counts_sorted[: max(1, n_victims // 10)].sum() / counts.sum())
    gini = _gini(counts_sorted)

    rows = [
        ["attacks", len(events)],
        ["unique victims", n_victims],
        ["attacks per victim (mean)", f"{len(events) / n_victims:.2f}"],
        ["max attacks on one victim", int(counts_sorted[0])],
        ["repeat-victim share", f"{repeat_share * 100:.0f}%"],
        ["attack share of top-10% victims", f"{top10_share * 100:.0f}%"],
        ["Gini coefficient of attacks/victim", f"{gini:.2f}"],
    ]
    table = format_table(["metric", "value"], rows)

    # Per-AS-role victimization, from the ground-truth attack flows
    # (anonymized vantage exports cannot be resolved back to ASes).
    ground_truth = FlowTable.concat(
        day_attack_tables(
            scenario,
            list(_DAYS)[:3],
            jobs=config.jobs,
            cache=config.use_cache,
        )
    )
    report = victim_report(ground_truth)
    breakdown = victim_asn_breakdown(report, scenario.registry)
    role_rows = [
        [role, int(stats["victims"]), f"{stats['share'] * 100:.0f}%", f"{stats['peak_gbps_sum']:.1f}"]
        for role, stats in sorted(breakdown.items())
    ]
    role_table = format_table(["AS role", "victims", "share", "sum peak Gbps"], role_rows)

    return ExperimentResult(
        experiment_id="victimization",
        title="EXTENSION: victimization analysis (who gets the boot?)",
        data={
            "attack_counts": counts_sorted,
            "repeat_share": repeat_share,
            "top10_share": top10_share,
            "gini": gini,
            "breakdown": breakdown,
        },
        tables=[table, role_table],
        paper_vs_measured=[
            (
                "attacks concentrate on few victims",
                "heavy tail (Fig. 2b outliers; Jonker et al.)",
                f"top 10% of victims absorb {top10_share * 100:.0f}% of attacks",
            ),
            (
                "repeat victimization is common",
                "Noroozian et al. 2016",
                f"{repeat_share * 100:.0f}% of victims hit more than once",
            ),
        ],
    )


def _gini(sorted_desc: np.ndarray) -> float:
    """Gini coefficient of a descending-sorted nonnegative array."""
    values = np.sort(sorted_desc)  # ascending
    n = values.size
    if n == 0 or values.sum() == 0:
        return 0.0
    cumulative = np.cumsum(values)
    return float((n + 1 - 2 * (cumulative / cumulative[-1]).sum()) / n)
