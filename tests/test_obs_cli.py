"""``repro-obs`` CLI: drift classification exit codes, show, schema checks."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs import MetricsRegistry, export_metrics, load_export, registry_from_dict
from repro.obs.cli import (
    EXIT_CLEAN,
    EXIT_ERROR,
    EXIT_LOGIC_DRIFT,
    EXIT_PERF_REGRESSION,
    load_run_snapshot,
    main,
)
from repro.obs.runledger import append_run_record, build_run_record


def _export(tmp_path, name, counters, wall_s=None):
    registry = MetricsRegistry()
    for key, value in counters.items():
        registry.inc(key, value)
    with registry.span("stage"):
        pass
    run_info = {"jobs": 1, "preset": "small"}
    if wall_s is not None:
        run_info["wall_s"] = wall_s
    return export_metrics({"fig2a": registry}, registry, tmp_path / name, run_info=run_info)


def _ledger(tmp_path, name, counters, wall_s, experiment_wall_s=None):
    record = build_run_record(
        config_hash="abc",
        seed=2018,
        preset="small",
        jobs=1,
        cache=False,
        experiments=["fig2a"],
        counters=counters,
        wall_s=wall_s,
        experiment_wall_s=experiment_wall_s,
    )
    return append_run_record(tmp_path / name, record)


BASE = {"scenario.days_generated": 4.0, "pipeline.days_processed": 4.0, "pool.tasks": 2.0}


class TestDiffExitCodes:
    def test_clean_between_identical_exports(self, tmp_path, capsys):
        a = _export(tmp_path, "a.json", BASE, wall_s=1.0)
        b = _export(tmp_path, "b.json", BASE, wall_s=1.1)
        assert main(["diff", str(a), str(b)]) == EXIT_CLEAN
        out = capsys.readouterr().out
        assert "identical" in out and "clean" in out

    def test_logic_drift_exits_2(self, tmp_path, capsys):
        a = _export(tmp_path, "a.json", BASE, wall_s=1.0)
        drifted = dict(BASE, **{"scenario.days_generated": 5.0})
        b = _export(tmp_path, "b.json", drifted, wall_s=1.0)
        assert main(["diff", str(a), str(b)]) == EXIT_LOGIC_DRIFT
        out = capsys.readouterr().out
        assert "LOGIC DRIFT" in out
        assert "scenario.days_generated: 4 -> 5" in out

    def test_strategy_counters_do_not_drift(self, tmp_path):
        a = _export(tmp_path, "a.json", BASE, wall_s=1.0)
        b = _export(tmp_path, "b.json", dict(BASE, **{"pool.tasks": 99.0}), wall_s=1.0)
        assert main(["diff", str(a), str(b)]) == EXIT_CLEAN

    def test_perf_regression_exits_3(self, tmp_path, capsys):
        a = _export(tmp_path, "a.json", BASE, wall_s=1.0)
        b = _export(tmp_path, "b.json", BASE, wall_s=2.0)
        assert main(["diff", str(a), str(b)]) == EXIT_PERF_REGRESSION
        assert "PERF REGRESSION" in capsys.readouterr().out

    def test_time_threshold_flag(self, tmp_path):
        a = _export(tmp_path, "a.json", BASE, wall_s=1.0)
        b = _export(tmp_path, "b.json", BASE, wall_s=2.0)
        assert main(["diff", str(a), str(b), "--time-threshold", "1.5"]) == EXIT_CLEAN

    def test_logic_only_skips_timing(self, tmp_path, capsys):
        a = _export(tmp_path, "a.json", BASE, wall_s=1.0)
        b = _export(tmp_path, "b.json", BASE, wall_s=50.0)
        assert main(["diff", str(a), str(b), "--logic-only"]) == EXIT_CLEAN
        assert "skipped" in capsys.readouterr().out

    def test_missing_timing_is_clean_not_regression(self, tmp_path, capsys):
        a = _export(tmp_path, "a.json", BASE)  # no wall_s recorded
        b = _export(tmp_path, "b.json", BASE, wall_s=9.0)
        assert main(["diff", str(a), str(b)]) == EXIT_CLEAN
        assert "skipped" in capsys.readouterr().out

    def test_logic_drift_beats_perf_drift(self, tmp_path):
        a = _export(tmp_path, "a.json", BASE, wall_s=1.0)
        drifted = dict(BASE, **{"streaming.days_ingested": 1.0})
        b = _export(tmp_path, "b.json", drifted, wall_s=9.0)
        assert main(["diff", str(a), str(b)]) == EXIT_LOGIC_DRIFT


class TestDiffLedgerInputs:
    def test_ledger_vs_ledger(self, tmp_path, capsys):
        a = _ledger(tmp_path, "a.jsonl", BASE, wall_s=1.0, experiment_wall_s={"fig2a": 1.0})
        b = _ledger(tmp_path, "b.jsonl", BASE, wall_s=1.1, experiment_wall_s={"fig2a": 1.1})
        assert main(["diff", str(a), str(b)]) == EXIT_CLEAN
        assert "fig2a" in capsys.readouterr().out  # per-experiment breakdown

    def test_mixed_export_and_ledger(self, tmp_path):
        a = _export(tmp_path, "a.json", BASE, wall_s=1.0)
        b = _ledger(tmp_path, "b.jsonl", BASE, wall_s=1.05)
        assert main(["diff", str(a), str(b)]) == EXIT_CLEAN

    def test_ledger_index_selects_record(self, tmp_path):
        ledger = _ledger(tmp_path, "l.jsonl", BASE, wall_s=1.0)
        _ledger(tmp_path, "l.jsonl", dict(BASE, **{"scenario.days_generated": 9.0}), wall_s=1.0)
        # Newest (default) drifts from the export; record 0 matches it.
        a = _export(tmp_path, "a.json", BASE, wall_s=1.0)
        assert main(["diff", str(a), str(ledger)]) == EXIT_LOGIC_DRIFT
        assert main(["diff", str(a), str(ledger), "--index-b", "0"]) == EXIT_CLEAN

    def test_out_of_range_index_errors(self, tmp_path, capsys):
        ledger = _ledger(tmp_path, "l.jsonl", BASE, wall_s=1.0)
        a = _export(tmp_path, "a.json", BASE, wall_s=1.0)
        assert main(["diff", str(a), str(ledger), "--index-b", "5"]) == EXIT_ERROR


class TestSchemaValidation:
    def test_missing_schema_named_in_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"run": {}, "experiments": {}, "total": {}}))
        with pytest.raises(ValueError) as excinfo:
            load_export(bad)
        message = str(excinfo.value)
        assert "bad.json" in message and "None" in message

    def test_unknown_schema_named_in_error(self, tmp_path):
        bad = tmp_path / "future.json"
        bad.write_text(json.dumps({"schema": "repro.obs.export/99"}))
        with pytest.raises(ValueError) as excinfo:
            load_export(bad)
        message = str(excinfo.value)
        assert "future.json" in message and "repro.obs.export/99" in message

    def test_missing_sections_rejected(self, tmp_path):
        bad = tmp_path / "partial.json"
        bad.write_text(json.dumps({"schema": "repro.obs.export/1", "run": {}}))
        with pytest.raises(ValueError, match="missing sections"):
            load_export(bad)

    def test_invalid_json_rejected(self, tmp_path):
        bad = tmp_path / "garbage.json"
        bad.write_text("{nope")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_export(bad)

    def test_cli_reports_schema_error_as_exit_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "other/1"}))
        good = _export(tmp_path, "good.json", BASE, wall_s=1.0)
        assert main(["diff", str(good), str(bad)]) == EXIT_ERROR
        assert main(["show", str(bad)]) == EXIT_ERROR

    def test_snapshot_rejects_unrecognized_schema(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "other/1"}))
        with pytest.raises(ValueError, match="other/1"):
            load_run_snapshot(bad)


class TestShow:
    def test_show_rerenders_profile_offline(self, tmp_path, capsys):
        export = _export(tmp_path, "m.json", BASE, wall_s=1.0)
        assert main(["show", str(export)]) == EXIT_CLEAN
        out = capsys.readouterr().out
        assert "fig2a profile" in out
        assert "run profile (all experiments)" in out
        assert "stage" in out
        assert "jobs=1" in out  # run parameters echoed

    def test_registry_from_dict_roundtrip(self):
        registry = MetricsRegistry()
        registry.inc("scenario.days_generated", 3)
        registry.gauge("pool.workers", 2)
        registry.observe("h", 0.25)
        with registry.span("outer"):
            with registry.span("inner"):
                pass
        clone = registry_from_dict(registry.to_dict())
        assert clone.to_dict() == registry.to_dict()

    def test_registry_from_dict_rejects_unknown_schema(self):
        with pytest.raises(ValueError, match="schema"):
            registry_from_dict({"schema": "nope/1"})


class _HungUpStdout(io.StringIO):
    """A stdout whose reader has closed the pipe: every write raises."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestClosedStdout:
    """A reader that closes stdout early (``| head -1``) ends the output
    quietly, and ``diff`` still exits with its verdict."""

    @pytest.mark.parametrize(
        "b_counters, b_wall_s, verdict",
        [
            (BASE, 1.0, EXIT_CLEAN),
            (dict(BASE, **{"scenario.days_generated": 5.0}), 1.0, EXIT_LOGIC_DRIFT),
            (BASE, 2.0, EXIT_PERF_REGRESSION),
        ],
    )
    def test_diff_keeps_its_verdict(self, tmp_path, monkeypatch, b_counters, b_wall_s, verdict):
        a = _export(tmp_path, "a.json", BASE, wall_s=1.0)
        b = _export(tmp_path, "b.json", b_counters, wall_s=b_wall_s)
        monkeypatch.setattr(sys, "stdout", _HungUpStdout())
        assert main(["diff", str(a), str(b)]) == verdict

    def test_show_ends_quietly(self, tmp_path, monkeypatch):
        export = _export(tmp_path, "m.json", BASE, wall_s=1.0)
        monkeypatch.setattr(sys, "stdout", _HungUpStdout())
        assert main(["show", str(export)]) == EXIT_CLEAN

    @pytest.mark.parametrize("command", ["diff", "show"])
    def test_closed_pipe_exits_without_traceback(self, tmp_path, command):
        a = _export(tmp_path, "a.json", BASE, wall_s=1.0)
        b = _export(tmp_path, "b.json", dict(BASE, **{"scenario.days_generated": 5.0}), wall_s=1.0)
        args = [str(a), str(b)] if command == "diff" else [str(a)]
        src = str(Path(__file__).resolve().parents[1] / "src")
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=pythonpath)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.obs.cli", command, *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()  # the reader hangs up before the first line
        _, stderr = proc.communicate(timeout=60)
        assert proc.returncode == (EXIT_LOGIC_DRIFT if command == "diff" else EXIT_CLEAN)
        assert b"Traceback" not in stderr and b"BrokenPipeError" not in stderr, stderr


class TestRunnerRoundtrip:
    def test_runner_export_diffs_clean_against_itself(self, tmp_path):
        """End to end: two real runner exports of the same experiment with
        different jobs diff clean on logic."""
        from repro.experiments.runner import main as runner_main

        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert runner_main(["fig2a", "--no-cache", "--metrics-out", str(a)]) == 0
        assert runner_main(
            ["fig2a", "--no-cache", "--jobs", "2", "--metrics-out", str(b)]
        ) == 0
        assert main(["diff", str(a), str(b), "--logic-only"]) == EXIT_CLEAN

    def test_runner_export_shows_offline(self, tmp_path, capsys):
        from repro.experiments.runner import main as runner_main

        export = tmp_path / "m.json"
        assert runner_main(["fig2a", "--no-cache", "--metrics-out", str(export)]) == 0
        capsys.readouterr()  # drop the runner's own output
        assert main(["show", str(export)]) == EXIT_CLEAN
        out = capsys.readouterr().out
        assert "experiment.fig2a" in out
