"""Each vantage point's sampling factor is its configured rate.

Victim reports, the Section 4 landscape and the serve ranking renormalize
sampled rates by the rate the vantage point actually samples at, so a
world configured away from the paper's 1:10,000 (IXP) and 1:1,000 (ISPs)
reports its own numbers.
"""

import pytest

from repro.booter.market import MarketConfig
from repro.core.classify import ConservativeClassifier
from repro.core.parallel import day_cache
from repro.core.victims import victim_report
from repro.core.workerpool import scenario_for
from repro.experiments import fig2
from repro.experiments.base import ExperimentConfig
from repro.experiments.registry import run_experiment
from repro.netmodel.topology import TopologyConfig
from repro.scenario import ScenarioConfig
from repro.serve.service import VICTIM_BIN_SECONDS, ObservatoryService
from repro.timeutil import date_of

IXP_SAMPLING = 2_500
ISP_SAMPLING = 250

TINY = ScenarioConfig(
    scale=0.1,
    topology=TopologyConfig(n_tier1=3, n_tier2=10, n_stub=60),
    market=MarketConfig(daily_attacks=60.0, n_victims=300),
    pool_sizes=(("ntp", 1500), ("dns", 1000), ("cldap", 400), ("memcached", 200), ("ssdp", 250)),
    ixp_sampling=IXP_SAMPLING,
    isp_sampling=ISP_SAMPLING,
)


@pytest.fixture(autouse=True)
def _tiny_world(monkeypatch):
    monkeypatch.setattr(ExperimentConfig, "scenario_config", lambda self: TINY)
    day_cache().clear()
    yield
    day_cache().clear()


def test_fig2_reports_renormalize_by_the_configured_rates():
    config = ExperimentConfig()
    reports = fig2._per_vp_reports(scenario_for(TINY), config)
    assert {v: r.sampling_factor for v, r in reports.items()} == {
        "ixp": float(IXP_SAMPLING),
        "tier1": float(ISP_SAMPLING),
        "tier2": float(ISP_SAMPLING),
    }


def test_landscape_classifies_at_the_configured_ixp_rate():
    result = run_experiment("landscape", ExperimentConfig())
    stats = result.data["all_stats"]
    conservative = ConservativeClassifier()
    assert result.data["reductions"] == conservative.rule_reductions(stats, float(IXP_SAMPLING))
    # This world's rule (a) tells the configured rate from the paper's.
    assert result.data["reductions"] != conservative.rule_reductions(stats, 10_000.0)


def test_serve_ranking_renormalizes_by_the_configured_rate():
    service = ObservatoryService(ExperimentConfig())
    day = 40
    payload = service.victims_payload(str(date_of(day)), "ixp", "1000")
    assert payload["sampling_factor"] == float(IXP_SAMPLING)
    scenario = service.scenario
    observed = scenario.observe_day("ixp", scenario.day_traffic(day))
    report = victim_report(
        observed, bin_seconds=VICTIM_BIN_SECONDS, sampling_factor=float(IXP_SAMPLING)
    )
    assert payload["victims_above_1gbps"] == report.victims_above_gbps(1.0)
    assert max(v["peak_gbps"] for v in payload["victims"]) == float(report.peak_gbps.max())
