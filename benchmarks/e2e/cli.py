"""Command line of the end-to-end benchmark.

::

    PYTHONPATH=src python -m benchmarks.e2e run --workload <name|all> --seed S [--trace] [--out FILE]
    python3 benchmarks/e2e/run.py --workload <name> --seed S --seconds N --trace 0|1
    python -m benchmarks.e2e compare A.jsonl B.jsonl

``run`` prints every metric by name with its unit, one line each, and
ends with one JSON line: ``correct``, ``attempted``, ``failed`` and the
metrics named in ``BENCHMARK.json`` (its ``end_to_end`` list, or its
``per_layer`` list with ``--trace``). End-to-end metrics always come
from untraced runs; ``--trace`` adds one traced run for the per-layer
numbers. ``--out`` appends one JSON record per workload run, the input
of ``compare``. The exit code is non-zero when any check fails.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import sys
from typing import Any

from benchmarks.e2e.compare import compare
from benchmarks.e2e.workloads import ROOT, SERVE_METRICS, WORKLOADS, Measurement, measure

SPEC_PATH = ROOT / "BENCHMARK.json"
WORK_ROOT = ROOT / ".e2e_work"

#: Units of the printed metrics that ``BENCHMARK.json`` does not list.
_EXTRA_UNITS = {"fail_ratio": "ratio"} | {name: unit for name, (unit, _) in SERVE_METRICS.items()}


def _per_layer(m: Measurement, names: list[str]) -> dict[str, float]:
    """The traced run's layer metrics plus the untraced client and experiment numbers.

    A client metric is 0 on the repro workloads and an experiment metric
    is 0 on the workloads that do not run that experiment.
    """
    values = dict(m.traced["metrics"])
    e2e = m.e2e()
    walls = m.experiment_walls()
    for name in names:
        group, _, rest = name.partition(".")
        if group == "client":
            values[name] = e2e.get(rest, 0.0)
        elif group == "experiment":
            experiment_id, _, stat = rest.rpartition(".")
            values[name] = walls.get(experiment_id, 0.0) if stat == "wall_s" else values.get(name, 0)
    return {name: values[name] for name in names}


def _record(m: Measurement, args: argparse.Namespace) -> dict[str, Any]:
    iteration_keys = ("setup_s", "wall_s", "peak_mem_mb", "maxrss_mb", *SERVE_METRICS, "experiment_wall_s")
    return {
        "schema": "benchmarks.e2e/1",
        "workload": m.workload.name,
        "seed": m.seed,
        "program_seed": m.program_seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "cpu_count": os.cpu_count(),
        "correct": m.correct,
        "attempted": m.attempted,
        "failed": m.failed,
        "problems": m.problems,
        "warnings": m.warnings,
        "metrics": m.e2e(),
        "setup_samples_s": m.setup_s,
        "iterations": [{k: it[k] for k in iteration_keys if k in it} for it in m.iterations],
        "experiment_wall_s": m.experiment_walls(),
        "digests": m.digests,
        "trace": m.traced,
    }


def _print_metrics(workload: str, values: dict[str, float], units: dict[str, str]) -> None:
    for name, value in values.items():
        print(f"{workload:<22} {name:<36} {value:>16.6f} {units[name]}")


def run(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"benchmarks.e2e: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]} | _EXTRA_UNITS
    e2e_names = [m["name"] for m in spec["end_to_end"]]
    layer_names = [m["name"] for m in spec["per_layer"]]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results: list[Measurement] = []
    for name in names:
        workdir = WORK_ROOT / f"{name}-{args.seed}-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            m = asyncio.run(measure(WORKLOADS[name], args.seed, args.seconds, args.trace, args.smoke, workdir))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            if not any(WORK_ROOT.iterdir()):
                WORK_ROOT.rmdir()
        results.append(m)
        _print_metrics(name, m.e2e(), units)
        if m.traced is not None:
            _print_metrics(name, _per_layer(m, layer_names), units)
        for line in m.warnings:
            print(f"{name}: warning: {line}", file=sys.stderr)
        for line in m.problems:
            print(f"{name}: FAILED: {line}", file=sys.stderr)
        if args.out:
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(_record(m, args)) + "\n")

    by_name = {m.workload.name: m for m in results}
    cold, warm = by_name.get("repro_small_cold"), by_name.get("repro_small_diskwarm")
    cross_failures = []
    if cold is not None and warm is not None:
        cross_failures = [i for i, d in cold.digests.items() if warm.digests.get(i, d) != d]
        for experiment_id in cross_failures:
            print(f"{experiment_id}: disk-warm digest differs from the cold digest", file=sys.stderr)

    def chosen(m: Measurement) -> dict[str, float]:
        return _per_layer(m, layer_names) if args.trace else {n: m.e2e()[n] for n in e2e_names}

    if len(results) == 1:
        metrics = chosen(results[0])
    else:
        metrics = {f"{m.workload.name}/{n}": v for m in results for n, v in chosen(m).items()}
    correct = all(m.correct for m in results) and not cross_failures
    print(json.dumps({
        "correct": correct,
        "attempted": sum(m.attempted for m in results),
        "failed": sum(m.failed for m in results) + len(cross_failures),
        "metrics": {n: {"value": v, "unit": units[n.rpartition("/")[2]]} for n, v in metrics.items()},
    }))
    return 0 if correct else 1


def _parser(run_seconds: int) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e", description="End-to-end benchmark of the reproduction.")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="measure workloads")
    run_p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    run_p.add_argument("--seed", type=int, default=2018)
    run_p.add_argument("--seconds", type=float, default=run_seconds,
                       help="keep repeating timed iterations until this much time has passed (at least one)")
    run_p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                       help="add a traced run and report the per-layer metrics")
    run_p.add_argument("--out", help="append one JSON record per workload run to this file")
    run_p.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    cmp_p = sub.add_parser("compare", help="compare two --out files")
    cmp_p.add_argument("a")
    cmp_p.add_argument("b")
    return parser


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(SPEC_PATH.read_text())
    args = _parser(spec["run_seconds"]).parse_args(argv)
    if args.command == "compare":
        return compare(args.a, args.b, spec)
    return run(args, spec)
