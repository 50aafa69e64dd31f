"""Shared experiment machinery: configs, results, text rendering."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.booter.market import MarketConfig
from repro.core.workerpool import scenario_for
from repro.netmodel.topology import TopologyConfig
from repro.scenario import Scenario, ScenarioConfig

__all__ = ["ExperimentConfig", "ExperimentResult", "format_table", "build_scenario"]


@dataclass(frozen=True)
class ExperimentConfig:
    """How big to run an experiment.

    ``preset`` picks the scenario size:

    * ``"small"`` — laptop/benchmark scale: reduced topology, pools, and
      attack demand (~10x down). All significance/shape conclusions hold;
      absolute counts scale down.
    * ``"paper"`` — the full default :class:`ScenarioConfig` (10x larger;
      minutes instead of seconds for the takedown experiments).

    ``jobs`` sets the worker processes of the warm pool that runs
    day-parallel experiments (1 = serial in-process, 0 = all cores; day
    results are bit-identical for any ``jobs``).
    ``cache`` enables the process-wide day-result cache so experiments
    sharing day ranges reuse each other's per-day work.
    ``cache_dir`` attaches the persistent on-disk tier
    (:class:`repro.core.diskcache.DiskDayCache`) under that directory;
    setting it implies day-caching even without ``cache`` — see the
    :attr:`use_cache` property, which experiments consult instead of
    reading ``cache`` directly.
    """

    preset: str = "small"
    seed: int = 2018
    jobs: int = 1
    cache: bool = False
    cache_dir: str | None = None

    def __post_init__(self) -> None:
        if self.preset not in ("small", "paper"):
            raise ValueError(f"unknown preset {self.preset!r}")
        if self.jobs < 0:
            raise ValueError(f"jobs must be >= 0 (0 = all cores), got {self.jobs}")

    @property
    def use_cache(self) -> bool:
        """Whether experiments should route days through the cache.

        True when in-memory caching was requested explicitly *or* a disk
        cache directory is configured (a disk tier is useless if day
        results never enter the cache path).
        """
        return self.cache or self.cache_dir is not None

    def scenario_config(self) -> ScenarioConfig:
        if self.preset == "paper":
            return ScenarioConfig(seed=self.seed, scale=1.0)
        return ScenarioConfig(
            seed=self.seed,
            scale=0.1,
            topology=TopologyConfig(n_tier1=3, n_tier2=12, n_stub=80),
            market=MarketConfig(daily_attacks=120.0, n_victims=600),
            pool_sizes=(
                ("ntp", 2000),
                ("dns", 1500),
                ("cldap", 1500),
                ("memcached", 300),
                ("ssdp", 400),
            ),
        )


def build_scenario(config: ExperimentConfig) -> Scenario:
    """The scenario for an experiment config: one shared world per process.

    Returns the process's memoized world
    (:func:`repro.core.workerpool.scenario_for`), so every experiment of
    a run, the worker pool and the serve plane read one world, built and
    its reflector lists walked once. Callers must not mutate it; a
    custom takedown travels with each day task instead.
    """
    return scenario_for(config.scenario_config())


def format_table(headers: list[str], rows: list[list[Any]]) -> str:
    """Render an aligned text table."""
    def fmt(value: Any) -> str:
        if isinstance(value, float):
            if value != value:  # NaN
                return "nan"
            if abs(value) >= 1000 or (0 < abs(value) < 0.01):
                return f"{value:.3g}"
            return f"{value:.2f}"
        return str(value)

    cells = [[fmt(v) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


@dataclass
class ExperimentResult:
    """Outcome of one experiment driver.

    Attributes:
        experiment_id: e.g. ``"fig4"``.
        title: human-readable description.
        data: raw series/values keyed by name (arrays, dicts, scalars).
        tables: rendered text tables, in display order.
        paper_vs_measured: rows of (metric, paper value, measured value)
            used by EXPERIMENTS.md and the benchmark assertions.
    """

    experiment_id: str
    title: str
    data: dict[str, Any] = field(default_factory=dict)
    tables: list[str] = field(default_factory=list)
    paper_vs_measured: list[tuple[str, str, str]] = field(default_factory=list)

    def render(self) -> str:
        parts = [f"=== {self.experiment_id}: {self.title} ==="]
        parts.extend(self.tables)
        if self.paper_vs_measured:
            parts.append(
                format_table(
                    ["metric", "paper", "measured"],
                    [list(row) for row in self.paper_vs_measured],
                )
            )
        return "\n\n".join(parts)

    def get(self, key: str) -> Any:
        try:
            return self.data[key]
        except KeyError:
            raise KeyError(f"no data key {key!r} (have {sorted(self.data)})") from None
