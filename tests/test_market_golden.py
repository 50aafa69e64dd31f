"""Golden snapshot of the economy experiments at the small preset.

``market`` steps 12 per-customer ledgers (4 strategies x 3 replicas) and
``econ`` the aggregate per-booter model; a changed draw in either moves
their tables. This pins both experiments' rendered tables and
paper-vs-measured rows plus every replica's ledger digest (small
preset, seed 2018) in ``tests/goldens/market_small.json``.

The file is kept apart from ``small_preset.json``, whose experiments the
end-to-end benchmark's golden check runs. After an *intentional*
behaviour change, refresh with::

    PYTHONPATH=src python -m pytest tests/test_market_golden.py --update-goldens

and commit the rewritten ``tests/goldens/market_small.json``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.base import ExperimentConfig
from repro.experiments.registry import run_experiment

GOLDEN_PATH = Path(__file__).parent / "goldens" / "market_small.json"
EXPERIMENT_IDS = ("econ", "market")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _current_snapshot() -> dict:
    config = ExperimentConfig()  # small preset, seed 2018, jobs=1, no cache
    snapshot = {
        "preset": config.preset,
        "seed": config.seed,
        "scenario_config_hash": config.scenario_config().content_hash(),
        "experiments": {},
        "ledger_digests": {},
    }
    for experiment_id in EXPERIMENT_IDS:
        result = run_experiment(experiment_id, config)
        snapshot["experiments"][experiment_id] = {
            "tables_sha256": _digest("\n\n".join(result.tables)),
            "paper_vs_measured_sha256": _digest(
                json.dumps([list(row) for row in result.paper_vs_measured])
            ),
        }
        if experiment_id == "market":
            study = result.data["study"]
            snapshot["ledger_digests"] = {
                strategy: study.digests(strategy) for strategy in study.strategies()
            }
    return snapshot


@pytest.fixture(scope="module")
def current_snapshot():
    return _current_snapshot()


def test_market_outputs_match_golden(current_snapshot, update_goldens):
    if update_goldens:
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(current_snapshot, indent=2, sort_keys=True) + "\n"
        )
        pytest.skip(f"golden rewritten at {GOLDEN_PATH}; commit the file")
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(golden["experiments"]) == sorted(EXPERIMENT_IDS)
    mismatches = []
    if golden["scenario_config_hash"] != current_snapshot["scenario_config_hash"]:
        mismatches.append("scenario_config_hash (ScenarioConfig defaults changed)")
    for experiment_id, expected in golden["experiments"].items():
        got = current_snapshot["experiments"][experiment_id]
        for key in expected:
            if expected[key] != got[key]:
                mismatches.append(f"{experiment_id}.{key}")
    for strategy, digests in golden["ledger_digests"].items():
        if current_snapshot["ledger_digests"].get(strategy) != digests:
            mismatches.append(f"market ledger digests of {strategy!r}")
    assert not mismatches, (
        "economy outputs drifted from tests/goldens/market_small.json: "
        + ", ".join(mismatches)
        + ". If this change is intentional, refresh with "
        "`python -m pytest tests/test_market_golden.py --update-goldens`."
    )


def test_golden_pins_every_replica(update_goldens):
    if update_goldens:
        pytest.skip("--update-goldens: the file is (re)written this run")
    golden = json.loads(GOLDEN_PATH.read_text())
    digests = golden["ledger_digests"]
    assert len(digests) == 4
    assert all(len(replicas) == 3 for replicas in digests.values())
    assert len({d for replicas in digests.values() for d in replicas}) == 12
