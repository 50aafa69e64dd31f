"""Experiments' declared asks: the prefetch covers every read, and row
filters over per-day tables equal the filters over the joined window."""

import numpy as np
import pytest

from repro.booter.market import MarketConfig
from repro.core.parallel import OBSERVED, day_cache, day_events, day_reductions, prefetch
from repro.core.victims import victim_report
from repro.core.workerpool import scenario_for
from repro.experiments.base import ExperimentConfig
from repro.experiments.fig2 import AMPLIFICATION_ROWS
from repro.experiments.registry import ASKS, run_experiment
from repro.flows.records import FlowTable
from repro.flows.timeseries import per_destination_stats
from repro.netmodel.topology import TopologyConfig
from repro.obs import MetricsRegistry, use_metrics
from repro.scenario import ScenarioConfig

SECONDS_PER_DAY = 86_400.0


def _tiny(seed: int = 2018) -> ScenarioConfig:
    return ScenarioConfig(
        seed=seed,
        scale=0.1,
        topology=TopologyConfig(n_tier1=3, n_tier2=10, n_stub=60),
        market=MarketConfig(daily_attacks=60.0, n_victims=300),
        pool_sizes=(
            ("ntp", 1500),
            ("dns", 1000),
            ("cldap", 400),
            ("memcached", 200),
            ("ssdp", 250),
        ),
    )


@pytest.mark.parametrize("experiment_id", sorted(ASKS))
def test_prefetch_covers_every_read(experiment_id, monkeypatch):
    """After a prefetch of an experiment's own asks, the experiment misses
    nothing and synthesizes no day, so an ask that misses a read fails."""
    tiny = _tiny()
    monkeypatch.setattr(ExperimentConfig, "scenario_config", lambda self: tiny)
    scenario = scenario_for(tiny)
    cache = day_cache()
    cache.clear()
    try:
        # Event lists have a key family of their own and are no ask: warm
        # them all, so the miss count below covers the engine's reads only.
        for day in range(tiny.n_days):
            day_events(scenario, day, cache=True)
        prefetch(scenario, ASKS[experiment_id](tiny))
        registry = MetricsRegistry()
        with use_metrics(registry):
            run_experiment(experiment_id, ExperimentConfig(cache=True))
        assert registry.counter("cache.misses") == 0
        assert registry.counter("cache.hits") > 0
        assert not any(path[-1] == "scenario.day_traffic" for path in registry.spans)
    finally:
        cache.clear()


def test_amplification_rows_across_midnight():
    """Attack flows of a day run past its midnight, so a one-minute bin
    can hold rows of two day tables and per-day peaks or per-bin source
    maxima do not merge by max. Concatenating each day's amplification
    rows still gives fig2's report fields of the concatenated whole
    observed tables, because the filter keeps or drops each row alone."""
    # Day 54 of this world holds attack rows timed past the next midnight.
    scenario = scenario_for(_tiny(seed=1))
    days = range(53, 57)
    for vantage in ("ixp", "tier2"):
        values = day_reductions(scenario, days, {vantage: (OBSERVED, AMPLIFICATION_ROWS)})
        rows = values[vantage, AMPLIFICATION_ROWS]
        past_midnight = [
            int((table["time"] >= (day + 1) * SECONDS_PER_DAY).sum())
            for day, table in zip(days, rows)
        ]
        assert past_midnight[days.index(54)] > 0, past_midnight

        whole = victim_report(FlowTable.concat(values[vantage, OBSERVED])).stats
        joined = per_destination_stats(FlowTable.concat(rows))
        assert len(joined) > 0
        for field in (
            "destinations",
            "unique_sources",
            "max_sources_per_bin",
            "peak_bps",
            "total_packets",
            "total_bytes",
        ):
            np.testing.assert_array_equal(getattr(joined, field), getattr(whole, field), err_msg=field)
