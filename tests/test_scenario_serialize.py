"""Tests for scenario-config serialization."""

import json

import pytest

from repro.booter.market import MarketConfig
from repro.netmodel.topology import TopologyConfig
from repro.scenario import Scenario, ScenarioConfig
from repro.scenario.serialize import (
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)


def custom_config():
    return ScenarioConfig(
        seed=99,
        scale=0.25,
        topology=TopologyConfig(n_tier1=4, n_tier2=9, n_stub=55),
        market=MarketConfig(daily_attacks=33.0, n_victims=222),
        pool_sizes=(("ntp", 1234), ("dns", 567), ("cldap", 200), ("memcached", 100), ("ssdp", 150)),
        ixp_sampling=5000,
    )


class TestRoundtrip:
    def test_default_config(self):
        config = ScenarioConfig()
        assert config_from_dict(config_to_dict(config)) == config

    def test_custom_config(self):
        config = custom_config()
        rebuilt = config_from_dict(config_to_dict(config))
        assert rebuilt == config
        assert rebuilt.topology.n_tier2 == 9
        assert dict(rebuilt.pool_sizes)["ntp"] == 1234

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "scenario.json"
        config = custom_config()
        save_config(config, path)
        assert load_config(path) == config
        # And it's honest JSON a human can read/diff.
        data = json.loads(path.read_text())
        assert data["seed"] == 99
        assert data["market"]["daily_attacks"] == 33.0
        assert data["pool_sizes"]["ntp"] == 1234

    def test_partial_dict_uses_defaults(self):
        config = config_from_dict({"seed": 7, "scale": 0.5})
        assert config.seed == 7
        assert config.n_days == ScenarioConfig().n_days

    def test_rebuilt_config_builds_identical_world(self):
        config = custom_config()
        rebuilt = config_from_dict(config_to_dict(config))
        a = Scenario(config)
        b = Scenario(rebuilt)
        ta = a.day_traffic(40)
        tb = b.day_traffic(40)
        assert ta.attack.total_packets == tb.attack.total_packets
        assert len(ta.events) == len(tb.events)


class TestValidation:
    def test_unknown_top_level_field(self):
        with pytest.raises(ValueError, match="unknown fields"):
            config_from_dict({"seed": 1, "turbo": True})

    def test_unknown_nested_field(self):
        with pytest.raises(ValueError, match="unknown fields"):
            config_from_dict({"market": {"daily_attacks": 5.0, "bogus": 1}})
        # The uplink sampler is no longer a field: a manifest saved while
        # it was carries the key and must be edited, not half-read.
        with pytest.raises(ValueError, match="unknown fields"):
            config_from_dict({"topology": {"sampler": "legacy"}})

    def test_pair_field_must_be_object(self):
        with pytest.raises(ValueError, match="object"):
            config_from_dict({"pool_sizes": [["ntp", 100]]})

    def test_invalid_values_still_validated(self):
        with pytest.raises(ValueError):
            config_from_dict({"scale": 0.0})
