"""Figure 2: NTP amplification in the wild at the three vantage points.

* :func:`run_fig2a` — packet-size CDF/PDF on the NTP port at the IXP,
  showing the bimodal benign/amplified split around 200 bytes.
* :func:`run_fig2b` — per-victim scatter (unique amplification sources vs
  peak Gbps) per vantage point, plus the in-text destination counts.
* :func:`run_fig2c` — CDFs of max sources and peak Gbps per destination.
* :func:`run_landscape` — Section 4's conservative-filter reductions.
"""

from __future__ import annotations

import numpy as np

from repro.core.classify import ClassifierThresholds, ConservativeClassifier, OptimisticClassifier
from repro.core.parallel import Ask, Reduction
from repro.core.victims import VictimReport
from repro.experiments.base import (
    ExperimentConfig,
    ExperimentResult,
    build_scenario,
    format_table,
    read_asks,
)
from repro.flows.records import FlowTable
from repro.flows.timeseries import per_destination_stats
from repro.scenario import Scenario, ScenarioConfig
from repro.stats.ecdf import Ecdf, empirical_pdf

__all__ = [
    "run_fig2a", "run_fig2b", "run_fig2c", "run_landscape", "fig2a_asks", "window_asks", "landscape_asks"
]

#: Days of wild traffic analyzed per vantage point (each VP's own window);
#: the IXP and the tier-2 ISP share theirs.
_SHARED_WINDOW = range(40, 54)
_TIER1_WINDOW = range(73, 87)


def _ntp_rows(day: int, observed: FlowTable) -> FlowTable:
    return observed.filter((observed["src_port"] == 123) | (observed["dst_port"] == 123))


def _amplification_rows(day: int, observed: FlowTable) -> FlowTable:
    return OptimisticClassifier().amplification_flows(observed)


#: An observed day's NTP rows, both directions (Figure 2(a)).
NTP_ROWS = Reduction(("ntp_rows",), _ntp_rows)

#: An observed day's amplification rows (Figures 2(b)/(c), Section 4).
#: The classifier keeps or drops each row on its own, so the rows of a
#: window are the concatenated rows of its days.
AMPLIFICATION_ROWS = Reduction(
    ("amplification_rows", repr(ClassifierThresholds())), _amplification_rows
)


def fig2a_asks(config: ScenarioConfig) -> list[Ask]:
    """Figure 2(a) reads the IXP's NTP rows of its window's first day."""
    return [(_SHARED_WINDOW[:1], {"ixp": (NTP_ROWS,)})]


def window_asks(config: ScenarioConfig) -> list[Ask]:
    """Figures 2(b)/(c) read each vantage point's window of amplification rows."""
    return [
        (_SHARED_WINDOW, {"ixp": (AMPLIFICATION_ROWS,), "tier2": (AMPLIFICATION_ROWS,)}),
        (_TIER1_WINDOW, {"tier1": (AMPLIFICATION_ROWS,)}),
    ]


def landscape_asks(config: ScenarioConfig) -> list[Ask]:
    """Section 4 reads the IXP window's amplification rows."""
    return [(_SHARED_WINDOW, {"ixp": (AMPLIFICATION_ROWS,)})]


def run_fig2a(config: ExperimentConfig) -> ExperimentResult:
    """Regenerate Figure 2(a): NTP packet-size CDF/PDF at the IXP."""
    scenario = build_scenario(config)
    (values,) = read_asks(scenario, fig2a_asks(scenario.config), config)
    (ntp,) = values["ixp", NTP_ROWS]
    sizes = np.repeat(
        ntp.mean_packet_sizes(), np.minimum(ntp["packets"], 10_000).astype(np.int64)
    )
    ecdf = Ecdf.from_sample(sizes)
    pdf_x, pdf_y = empirical_pdf(sizes, bins=60, range_=(0, 1500))
    frac_below_200 = float(np.mean(sizes <= 200))

    rows = [[f"{x:.0f}", f"{ecdf.evaluate(x):.3f}"] for x in (100, 200, 300, 486, 490, 1000)]
    table = format_table(["packet size (B)", "CDF"], rows)

    return ExperimentResult(
        experiment_id="fig2a",
        title="CDF/PDF of NTP packet sizes in IXP data",
        data={
            "ecdf": ecdf,
            "pdf": (pdf_x, pdf_y),
            "frac_below_200": frac_below_200,
            "sizes": sizes,
        },
        tables=[table],
        paper_vs_measured=[
            ("share of NTP packets < 200 B", "54%", f"{frac_below_200 * 100:.0f}%"),
            ("share > 200 B (likely attack)", "46%", f"{(1 - frac_below_200) * 100:.0f}%"),
            ("distribution shape", "bimodal", _bimodality(sizes)),
            ("amplified mode", "486/490 B monlist", f"mode at {_large_mode(sizes):.0f} B"),
        ],
    )


def _bimodality(sizes: np.ndarray) -> str:
    small = float(np.mean(sizes <= 200))
    return "bimodal" if 0.1 < small < 0.9 else "unimodal"


def _large_mode(sizes: np.ndarray) -> float:
    large = sizes[sizes > 200]
    if large.size == 0:
        return float("nan")
    values, counts = np.unique(np.round(large), return_counts=True)
    return float(values[np.argmax(counts)])


def _per_vp_reports(scenario: Scenario, config: ExperimentConfig) -> dict[str, VictimReport]:
    """One victim report per vantage point, from its window's amplification rows."""
    reports = {}
    for values in read_asks(scenario, window_asks(scenario.config), config):
        for (vantage, _), rows in values.items():
            stats = per_destination_stats(FlowTable.concat(rows))
            sampling_factor = scenario.vantage_point(vantage).sampling_factor
            reports[vantage] = VictimReport(stats, sampling_factor=sampling_factor)
    return {vantage: reports[vantage] for vantage in scenario.vantage_points}


def run_fig2b(config: ExperimentConfig) -> ExperimentResult:
    """Regenerate Figure 2(b): per-victim sources vs peak Gbps scatter."""
    scenario = build_scenario(config)
    reports = _per_vp_reports(scenario, config)

    rows = []
    for vantage, report in reports.items():
        rows.append(
            [
                vantage,
                report.n_destinations,
                f"{report.max_victim_gbps():.1f}",
                int(report.unique_sources.max()) if report.n_destinations else 0,
                report.victims_above_gbps(1.0),
            ]
        )
    table = format_table(
        ["vantage", "destinations", "max Gbps", "max sources", "victims >1 Gbps"], rows
    )

    total_dst = sum(r.n_destinations for r in reports.values())
    all_peaks = np.concatenate([r.peak_gbps for r in reports.values()])
    return ExperimentResult(
        experiment_id="fig2b",
        title="Traffic and reflectors per destination IP at ISPs/IXP",
        data={"reports": reports, "total_destinations": total_dst},
        tables=[table],
        paper_vs_measured=[
            (
                "destinations receiving NTP reflection",
                "311K total (IXP 244K > tier2 95K > tier1 36K)",
                f"{total_dst} total "
                f"(ixp {reports['ixp'].n_destinations}, "
                f"tier2 {reports['tier2'].n_destinations}, "
                f"tier1 {reports['tier1'].n_destinations})",
            ),
            (
                "largest victim peak",
                "602 Gbps",
                f"{float(all_peaks.max()) if all_peaks.size else 0:.0f} Gbps",
            ),
            (
                "victims over 100 Gbps",
                "224",
                str(int((all_peaks > 100).sum())),
            ),
            (
                "heavy victims draw many amplifiers",
                "up to ~8500 sources",
                f"max {max(int(r.unique_sources.max()) if r.n_destinations else 0 for r in reports.values())} sources",
            ),
        ],
    )


def run_fig2c(config: ExperimentConfig) -> ExperimentResult:
    """Regenerate Figure 2(c): per-destination CDFs per vantage point."""
    scenario = build_scenario(config)
    reports = _per_vp_reports(scenario, config)

    ecdfs_sources = {}
    ecdfs_gbps = {}
    rows = []
    for vantage, report in reports.items():
        if report.n_destinations == 0:
            continue
        ecdfs_sources[vantage] = Ecdf.from_sample(
            report.max_sources_per_bin.astype(float)
        )
        ecdfs_gbps[vantage] = Ecdf.from_sample(report.peak_gbps)
        rows.append(
            [
                vantage,
                f"{ecdfs_sources[vantage].evaluate(10.0):.2f}",
                f"{1.0 - ecdfs_gbps[vantage].evaluate(1.0):.3f}",
            ]
        )
    table = format_table(
        ["vantage", "P(max srcs/min <= 10)", "P(peak > 1 Gbps)"], rows
    )

    frac_over_1g = {
        v: 1.0 - e.evaluate(1.0) for v, e in ecdfs_gbps.items()
    }
    return ExperimentResult(
        experiment_id="fig2c",
        title="CDF of reflectors and peak Gbps per destination",
        data={"ecdf_sources": ecdfs_sources, "ecdf_gbps": ecdfs_gbps, "reports": reports},
        tables=[table],
        paper_vs_measured=[
            (
                "targets with <10 amplifiers/min",
                "~70% (tier-1/IXP), ~90% (tier-2)",
                ", ".join(f"{v} {e.evaluate(10.0) * 100:.0f}%" for v, e in ecdfs_sources.items()),
            ),
            (
                "fraction of targets >1 Gbps peak",
                "0.09",
                ", ".join(f"{v} {f:.2f}" for v, f in frac_over_1g.items()),
            ),
            (
                "majority receive negligible traffic",
                "yes",
                "yes" if all(f < 0.5 for f in frac_over_1g.values()) else "no",
            ),
        ],
    )


def run_landscape(config: ExperimentConfig) -> ExperimentResult:
    """Section 4's in-text numbers: conservative-filter reductions."""
    scenario = build_scenario(config)
    (values,) = read_asks(scenario, landscape_asks(scenario.config), config)
    conservative = ConservativeClassifier()
    stats = per_destination_stats(FlowTable.concat(values["ixp", AMPLIFICATION_ROWS]))
    reductions = conservative.rule_reductions(stats, sampling_factor=scenario.ixp.sampling_factor)
    kept = conservative.classify(stats, sampling_factor=scenario.ixp.sampling_factor)

    table = format_table(
        ["rule", "destination reduction"],
        [
            ["(a) >1 Gbps only", f"{reductions['rule_a_only'] * 100:.0f}%"],
            ["(b) >10 amplifiers only", f"{reductions['rule_b_only'] * 100:.0f}%"],
            ["both", f"{reductions['both'] * 100:.0f}%"],
        ],
    )
    return ExperimentResult(
        experiment_id="landscape",
        title="Conservative NTP DDoS classification (Section 4)",
        data={"reductions": reductions, "kept": kept, "all_stats": stats},
        tables=[table],
        paper_vs_measured=[
            ("reduction by both rules", "78%", f"{reductions['both'] * 100:.0f}%"),
            ("rule (a) only", "74%", f"{reductions['rule_a_only'] * 100:.0f}%"),
            ("rule (b) only", "59%", f"{reductions['rule_b_only'] * 100:.0f}%"),
            (
                "ordering",
                "both > a > b",
                "both >= a >= b"
                if reductions["both"] >= reductions["rule_a_only"] >= reductions["rule_b_only"]
                else "differs",
            ),
        ],
    )
