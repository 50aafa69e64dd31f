"""Smoke test of the end-to-end benchmark (outside the tier-1 suite).

Runs every workload at ``--smoke`` size, untraced and traced, through
the script the ``BENCHMARK.json`` command names, and checks that every
metric listed there prints by name with its unit::

    PYTHONPATH=src python -m pytest -q benchmarks/e2e/test_e2e_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e.compare import compare, verdict

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_listed_metric_prints_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "2018",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    *lines, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    printed = {tuple(line.split()[1::2]) for line in lines}
    for metric in listed:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert (metric["name"], metric["unit"]) in printed


def test_compare_verdicts():
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 10.1, 9.8, 10.0, 10.2, 9.9]
    assert verdict(base, [v * 0.8 for v in base], "lower", 0.1)[0] == "improved"
    assert verdict(base, [v * 1.3 for v in base], "lower", 0.1)[0] == "worse"
    assert verdict(base, [v * 1.02 for v in base], "lower", 0.1)[0] == "within bound"
    noisy = [5.0, 15.0, 7.0, 13.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert verdict(base, noisy, "lower", 0.1)[0] == "unresolved"


def test_compare_judges_serve_client_metrics(tmp_path, capsys):
    def records(warm_p50_ms):
        metrics = {"wall_s": 10.0, "setup_s": 0.5, "peak_mem_mb": 300.0, "cold_rps": 90.0,
                   "warm_rps": 250.0, "cold_p99_ms": 200.0, "warm_p99_ms": 20.0}
        return "".join(
            json.dumps({"workload": "serve_closed_loop", "seed": seed, "digests": {},
                        "metrics": metrics | {"warm_p50_ms": warm_p50_ms * (1 + seed / 100)}}) + "\n"
            for seed in range(10)
        )

    (tmp_path / "a.jsonl").write_text(records(5.0))
    (tmp_path / "b.jsonl").write_text(records(10.0))
    assert compare(str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl"), SPEC) == 1
    rows = {line.split()[1]: line for line in capsys.readouterr().out.splitlines()[1:]}
    assert "worse" in rows["warm_p50_ms"] and "worse" not in rows["wall_s"]
