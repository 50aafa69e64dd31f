"""Figure 4: traffic to reflectors around the FBI takedown.

Reproduces the three panels the paper shows (memcached at the IXP, NTP
and DNS at the tier-2 ISP) plus the full wt/red grid over (vantage, port,
direction) combinations discussed in the text.
"""

from __future__ import annotations

import numpy as np

from repro.core.parallel import day_reductions, port_counts
from repro.core.pipeline import TrafficSelector
from repro.core.takedown_analysis import TakedownReport, analyze_takedown
from repro.experiments.base import (
    ExperimentConfig,
    ExperimentResult,
    build_scenario,
    format_table,
)
from repro.experiments.fig5 import hourly_attack_counts

__all__ = ["run", "SELECTORS"]

SELECTORS: dict[str, TrafficSelector] = {
    "ntp_to": TrafficSelector("ntp_to", 123, "to_reflectors"),
    "dns_to": TrafficSelector("dns_to", 53, "to_reflectors"),
    "memcached_to": TrafficSelector("memcached_to", 11211, "to_reflectors"),
    "cldap_to": TrafficSelector("cldap_to", 389, "to_reflectors"),
    "ssdp_to": TrafficSelector("ssdp_to", 1900, "to_reflectors"),
    "ntp_from": TrafficSelector("ntp_from", 123, "from_reflectors"),
    "dns_from": TrafficSelector("dns_from", 53, "from_reflectors"),
    "memcached_from": TrafficSelector("memcached_from", 11211, "from_reflectors"),
}

#: The paper's headline panels.
PANELS = (
    ("memcached_to", "ixp", "packets memcached dst port @ large IXP"),
    ("ntp_to", "tier2", "packets NTP dst port @ tier-2 ISP"),
    ("dns_to", "tier2", "packets DNS dst port @ tier-2 ISP"),
)


def run(config: ExperimentConfig) -> ExperimentResult:
    """Regenerate Figure 4: the takedown wt30/wt40 + red30/red40 grid."""
    scenario = build_scenario(config)
    takedown_day = scenario.config.takedown_day
    # The takedown windows need ±40 days; the IXP window starts day 27.
    day_range = (40, scenario.config.n_days - 1)
    takedown_index = takedown_day - day_range[0]

    ports = port_counts(SELECTORS.values())
    # fig5 reads the same days at the IXP. Asking for its hourly attack
    # counts here too synthesizes each day once for both figures: fig5
    # then finds every day in the cache, and fig4 run alone pays for the
    # hourly reduction.
    values = day_reductions(
        scenario,
        range(*day_range),
        {"ixp": (ports, hourly_attack_counts(scenario)), "tier2": (ports,)},
        jobs=config.jobs,
        cache=config.use_cache,
    )
    reports: dict[str, TakedownReport] = {}
    for vantage in ("ixp", "tier2"):
        per_day = values[vantage, ports]
        for name in SELECTORS:
            key = f"{name}@{vantage}"
            series = np.array([counts[name] for counts in per_day], dtype=float)
            reports[key] = analyze_takedown(
                series, takedown_index, windows=(30, 40), series_name=key
            )

    rows = []
    for key, report in sorted(reports.items()):
        w30, w40 = report.window(30), report.window(40)
        rows.append(
            [
                key,
                str(w30.significant),
                f"{w30.reduction_ratio * 100:.2f}%",
                str(w40.significant),
                f"{w40.reduction_ratio * 100:.2f}%",
            ]
        )
    table = format_table(["series", "wt30", "red30", "wt40", "red40"], rows)

    paper_rows = [
        (
            "memcached->reflectors @ IXP",
            "wt True, red30 22.50% / red40 27.72%",
            _fmt(reports["memcached_to@ixp"]),
        ),
        (
            "memcached->reflectors @ tier-2",
            "wt True, red30 7.34% / red40 4.99%",
            _fmt(reports["memcached_to@tier2"]),
        ),
        (
            "NTP->reflectors @ tier-2",
            "wt True, red30 39.68% / red40 36.97%",
            _fmt(reports["ntp_to@tier2"]),
        ),
        (
            "DNS->reflectors @ tier-2",
            "wt True, red30 81.63% / red40 76.38%",
            _fmt(reports["dns_to@tier2"]),
        ),
        (
            "reflectors->victims (NTP/DNS)",
            "no significant reduction",
            "none significant"
            if not any(
                reports[f"{p}_from@{v}"].window(w).significant
                for p in ("ntp", "dns")
                for v in ("ixp", "tier2")
                for w in (30, 40)
            )
            else "SOME SIGNIFICANT (mismatch)",
        ),
        (
            "reflectors->victims (memcached)",
            "no significant reduction",
            # Memcached attacks are rare (5% of demand): at simulation
            # scale the daily victim-side series is sparse and its Welch
            # outcome is noise-dominated; reported for completeness.
            _fmt(reports["memcached_from@ixp"]),
        ),
    ]

    return ExperimentResult(
        experiment_id="fig4",
        title="Traffic changes before/after the takedown (wt30/wt40, red30/red40)",
        data={"reports": reports, "day_range": day_range, "takedown_index": takedown_index},
        tables=[table],
        paper_vs_measured=paper_rows,
    )


def _fmt(report: TakedownReport) -> str:
    w30, w40 = report.window(30), report.window(40)
    return (
        f"wt {w30.significant}/{w40.significant}, "
        f"red30 {w30.reduction_ratio * 100:.2f}% / red40 {w40.reduction_ratio * 100:.2f}%"
    )
