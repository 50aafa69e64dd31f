"""Tests for the trace-export CLI."""

import numpy as np
import pytest

from repro.flows.binio import read_flows_binary
from repro.flows.io import read_flows_csv
from repro.tracegen import generate_trace, main


class TestGenerateTrace:
    def test_basic_generation(self):
        table = generate_trace("tier2", (40, 41))
        assert len(table) > 0
        # Sorted by time, inside the requested day.
        times = table["time"]
        assert (np.diff(times) >= 0).all()
        assert times.min() >= 40 * 86400
        assert times.max() < 41 * 86400

    def test_kind_filter(self):
        scans_only = generate_trace("tier2", (40, 41), kinds=("scan",))
        everything = generate_trace("tier2", (40, 41))
        assert 0 < len(scans_only) < len(everything)

    def test_deterministic(self):
        a = generate_trace("tier2", (40, 41), seed=5)
        b = generate_trace("tier2", (40, 41), seed=5)
        assert a.total_packets == b.total_packets

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            generate_trace("ixp", (40, 40))

    def test_unknown_vantage(self):
        with pytest.raises(KeyError):
            generate_trace("tier9", (40, 41))


class TestCli:
    def test_binary_output(self, tmp_path, capsys):
        out = tmp_path / "trace.bin"
        assert main(["--vantage", "tier2", "--days", "40", "41", "--out", str(out)]) == 0
        # Status goes through logging to stderr, keeping stdout pipeable.
        assert "wrote" in capsys.readouterr().err
        table = read_flows_binary(out)
        assert len(table) > 0

    def test_csv_output(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = main(
            ["--vantage", "tier2", "--days", "40", "41", "--format", "csv",
             "--out", str(out), "--kinds", "scan"]
        )
        assert code == 0
        table = read_flows_csv(out)
        assert len(table) > 0

    def test_repeated_kind_errors(self, tmp_path, capsys):
        """Regression: a repeated kind exported every visible flow of it twice."""
        out = tmp_path / "x.bin"
        argv = ["--vantage", "tier2", "--days", "45", "46", "--kinds", "attack", "attack"]
        assert main([*argv, "--out", str(out)]) == 2
        assert "attack, trigger, scan, benign" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(ValueError):
            generate_trace("tier2", (45, 46), kinds=("attack", "attack"))

    def test_bad_range_errors(self, tmp_path, capsys):
        out = tmp_path / "x.bin"
        assert main(["--days", "40", "40", "--out", str(out)]) == 2
        assert "error" in capsys.readouterr().err

    def test_config_manifest(self, tmp_path):
        from repro.booter.market import MarketConfig
        from repro.netmodel.topology import TopologyConfig
        from repro.scenario import ScenarioConfig, save_config

        manifest = tmp_path / "world.json"
        save_config(
            ScenarioConfig(
                seed=3,
                scale=0.05,
                topology=TopologyConfig(n_tier1=2, n_tier2=6, n_stub=30),
                market=MarketConfig(daily_attacks=40.0, n_victims=150),
                pool_sizes=(("ntp", 500), ("dns", 300), ("cldap", 150), ("memcached", 80), ("ssdp", 100)),
            ),
            manifest,
        )
        out = tmp_path / "trace.bin"
        code = main(
            ["--vantage", "tier2", "--days", "40", "41", "--config", str(manifest),
             "--out", str(out)]
        )
        assert code == 0
        assert len(read_flows_binary(out)) > 0

    def test_missing_config_file(self, tmp_path, capsys):
        out = tmp_path / "x.bin"
        code = main(["--config", str(tmp_path / "nope.json"), "--out", str(out)])
        assert code == 2
