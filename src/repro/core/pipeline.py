"""End-to-end collection pipeline over a scenario.

Multi-month analyses need per-day generation -> observation -> reduction
without retaining flows. :func:`collect_daily_port_series` runs that loop
and returns daily packet counts per (port, direction) selector; the
takedown experiments feed those to
:func:`repro.core.takedown_analysis.analyze_takedown`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.flows.records import FlowTable
from repro.obs import metrics
from repro.protocols.amplification import UDP
from repro.scenario.scenario import Scenario

__all__ = [
    "TrafficSelector",
    "DailyPortSeries",
    "collect_daily_port_series",
]


@dataclass(frozen=True)
class TrafficSelector:
    """A (port, direction) slice of a vantage point's export.

    ``direction='to_reflectors'`` selects packets whose *destination* port
    is the service port (triggers, scans, client queries);
    ``'from_reflectors'`` selects packets whose *source* port is the
    service port (amplified responses and benign replies).
    """

    name: str
    port: int
    direction: str

    def __post_init__(self) -> None:
        if self.direction not in ("to_reflectors", "from_reflectors"):
            raise ValueError(
                f"direction must be to_reflectors/from_reflectors, got {self.direction!r}"
            )
        if not 0 < self.port < 65536:
            raise ValueError(f"port out of range: {self.port}")

    def packets(self, table: FlowTable) -> int:
        """Packets of ``table`` in this slice."""
        side = "dst_port" if self.direction == "to_reflectors" else "src_port"
        selected = (table["proto"] == UDP) & (table[side] == self.port)
        return int(table["packets"][selected].sum())


@dataclass
class DailyPortSeries:
    """Daily packet counts per selector over a scenario day range."""

    days: np.ndarray
    series: dict[str, np.ndarray]

    def get(self, name: str) -> np.ndarray:
        try:
            return self.series[name]
        except KeyError:
            raise KeyError(f"no series {name!r} (have {sorted(self.series)})") from None


def collect_daily_port_series(
    scenario: Scenario,
    vantage: str,
    selectors: list[TrafficSelector],
    day_range: tuple[int, int] | None = None,
    jobs: int = 1,
    cache: bool = False,
) -> DailyPortSeries:
    """Generate, observe, and reduce traffic day by day.

    Args:
        scenario: the wired world.
        vantage: vantage-point name ('ixp' | 'tier1' | 'tier2').
        selectors: which (port, direction) counts to keep per day.
        day_range: half-open day range; defaults to the full scenario.
        jobs: worker processes for per-day generation (0 = all cores).
            Days are seed-tree independent, so ``jobs=N`` returns
            results bit-identical to ``jobs=1``.
        cache: consult/populate the process-wide day-result cache
            (:func:`repro.core.parallel.day_cache`).

    Returns:
        Daily packet counts per selector. Days outside the vantage
        point's capture window produce zero counts (as in the paper's
        plots, which only span each trace's window).
    """
    names = [s.name for s in selectors]
    if len(set(names)) != len(names):
        raise ValueError("selector names must be unique")
    start, end = day_range if day_range is not None else (0, scenario.config.n_days)
    if end <= start:
        raise ValueError("empty day range")
    days = np.arange(start, end)
    out = {s.name: np.zeros(days.size) for s in selectors}

    with metrics().span(
        "pipeline.collect_daily_port_series",
        trace_args={"vantage": vantage, "day_start": int(start), "day_end": int(end)},
    ):
        metrics().inc("pipeline.days_processed", int(days.size))
        from repro.core.parallel import daily_port_counts

        counts = daily_port_counts(
            scenario, vantage, selectors, [int(d) for d in days], jobs=jobs, cache=cache
        )
        for i, day in enumerate(days):
            for selector in selectors:
                out[selector.name][i] = counts[int(day)][selector.name]
        return DailyPortSeries(days=days, series=out)

