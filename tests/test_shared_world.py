"""One world per process: experiments share it, and nothing leaks through it.

``build_scenario`` returns the process's memoized world, so every
experiment of a run reads the same topology, market and reflector walks.
State that belongs to one experiment must then live with it: a self-attack
campaign numbers its own measurement addresses, and a custom takedown
travels with each day task instead of being written into the world.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.booter.takedown import TakedownScenario
from repro.core.parallel import day_reductions, port_counts
from repro.core.pipeline import TrafficSelector
from repro.core.workerpool import run_tasks, scenario_for, shutdown_pool
from repro.experiments.base import ExperimentConfig, build_scenario
from repro.experiments.campaign import AttackSpec, SelfAttackCampaign
from repro.experiments.registry import run_experiment
from repro.scenario import Scenario

GOLDENS = json.loads((Path(__file__).parent / "goldens" / "small_preset.json").read_text())
CONFIG = ExperimentConfig()


def _digest(result) -> dict[str, str]:
    def sha(text: str) -> str:
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    return {
        "tables_sha256": sha("\n\n".join(result.tables)),
        "paper_vs_measured_sha256": sha(json.dumps([list(row) for row in result.paper_vs_measured])),
    }


@pytest.fixture(autouse=True)
def _no_pool():
    shutdown_pool()
    yield
    shutdown_pool()


def test_one_world_per_config():
    world = build_scenario(CONFIG)
    assert build_scenario(ExperimentConfig(jobs=2, cache=True)) is world
    assert scenario_for(CONFIG.scenario_config()) is world
    other = build_scenario(ExperimentConfig(seed=7))
    assert other is not world
    # The memo keeps a single world: going back builds it again.
    again = build_scenario(CONFIG)
    assert again is not world
    assert again.config == world.config


def test_captures_across_campaigns_never_run_out_of_addresses():
    """Each campaign numbers its own hosts, so one world serves more
    captures than its /24 has addresses."""
    world = build_scenario(CONFIG)
    spec = AttackSpec("probe", "C", "ntp", "non-vip", duration_s=2.0)
    victims = set()
    for _ in range(11):
        campaign = SelfAttackCampaign(world)
        for _ in range(24):
            measurement = campaign.run(spec)
            assert measurement.n_reflectors > 0
        victims.add(campaign._next_host)
    assert victims == {25}  # every campaign used hosts .1 to .24: 264 captures in all
    with pytest.raises(RuntimeError, match="ran out"):
        world.observatory.measurement_ip(255)


def test_fig1a_does_not_depend_on_earlier_experiments():
    for experiment_id in ("selfattack", "attribution"):
        run_experiment(experiment_id, CONFIG)
    assert _digest(run_experiment("fig1a", CONFIG)) == GOLDENS["experiments"]["fig1a"]


def _world_of(world: Scenario, item: int) -> Scenario:
    return world


def _takedowns(world: Scenario, item: int) -> tuple[TakedownScenario, TakedownScenario]:
    """The task's takedown, and that of the worker's shared world."""
    return world.takedown, scenario_for(world.config).takedown


def test_custom_takedown_travels_with_the_task():
    """A pool task from a scenario with its own takedown, on a pool
    spawned for the shared world, leaves the shared world alone — in the
    worker that runs it and in the calling process."""
    config = ExperimentConfig(cache=True)
    fig4_before = _digest(run_experiment("fig4", config))
    world = build_scenario(config)
    custom = Scenario(config.scenario_config())
    custom.takedown = TakedownScenario(takedown_day=70, revived_booters={})
    selectors = [TrafficSelector("ntp_to", 123, "to_reflectors")]
    requests = {"ixp": (port_counts(selectors),)}
    days = [72, 75]

    ours = day_reductions(world, days, requests, jobs=2)
    theirs = day_reductions(custom, days, requests, jobs=2)
    assert theirs == day_reductions(custom, days, requests, jobs=1)
    assert theirs != ours

    # Inline, a task gets the caller's own object; on the pool, each
    # worker's world is viewed under the caller's takedown.
    default = config.scenario_config().default_takedown()
    assert all(w is custom for w in run_tasks(custom, _world_of, [0, 1], jobs=1))
    assert run_tasks(custom, _takedowns, range(4), jobs=2) == [(custom.takedown, default)] * 4
    assert scenario_for(config.scenario_config()).takedown == default

    assert build_scenario(config) is world
    assert world.takedown == config.scenario_config().default_takedown()
    assert _digest(run_experiment("fig4", config)) == fig4_before
