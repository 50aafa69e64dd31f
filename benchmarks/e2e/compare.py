"""``compare A B``: judge two sets of runs by the benchmark's own bounds.

``A`` and ``B`` are ``--out`` files (one JSON record per workload run)
from two commits, made by alternating the commits run for run. Rows are
the end-to-end metrics of ``BENCHMARK.json`` with its bounds and, for
the serving workload, its client latency and throughput metrics with
:data:`~benchmarks.e2e.workloads.SERVE_METRIC_BOUND`, so a change on the
warm request path is judged even where the cold pass dominates serve
``wall_s``. Each (workload, metric) row gives both sides' median and
quartiles, the fraction of pairs B wins (pairing the i-th run of each
side; ties count for neither) and a verdict:

* ``improved``: B wins at least 9 pairs in 10 and the medians differ by
  more than A's interquartile range;
* ``unresolved``: either side's quartile spread is wider than the bound,
  and not every B run beats every A run;
* ``worse``: B's median is worse than A's by more than the bound;
* ``within bound`` otherwise.

The last column says whether the two commits produced equal output
digests for the seeds both sides ran.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any

from benchmarks.e2e.workloads import SERVE_METRIC_BOUND, SERVE_METRICS

__all__ = ["compare", "verdict"]


def _load(path: str) -> dict[str, list[dict[str, Any]]]:
    by_workload: dict[str, list[dict[str, Any]]] = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """(verdict, fraction of pairs B wins) for one metric."""
    lower = better == "lower"
    a_q1, a_med, a_q3 = _quartiles(a)
    b_q1, b_med, b_q3 = _quartiles(b)
    pairs = list(zip(a, b))
    wins = sum((y < x) if lower else (y > x) for x, y in pairs) / len(pairs)
    b_better = b_med < a_med if lower else b_med > a_med
    worse_by = (b_med - a_med if lower else a_med - b_med) / a_med if a_med else 0.0
    all_better = max(b) < min(a) if lower else min(b) > max(a)
    spread = max((a_q3 - a_q1) / a_med if a_med else 0.0, (b_q3 - b_q1) / b_med if b_med else 0.0)
    if wins >= 0.9 and b_better and abs(b_med - a_med) > a_q3 - a_q1:
        return "improved", wins
    if spread > bound and not all_better:
        return "unresolved", wins
    if worse_by > bound:
        return "worse", wins
    return "within bound", wins


def _digests_equal(a: list[dict[str, Any]], b: list[dict[str, Any]]) -> str:
    a_by_seed = {r["seed"]: r["digests"] for r in a}
    common = [r for r in b if r["seed"] in a_by_seed]
    if not common:
        return "n/a"
    return "equal" if all(a_by_seed[r["seed"]] == r["digests"] for r in common) else "DIFFERENT"


def compare(path_a: str, path_b: str, spec: dict[str, Any]) -> int:
    """Print the comparison table; 1 if any row is worse or digests differ."""
    runs_a, runs_b = _load(path_a), _load(path_b)
    serve_metrics = [
        {"name": name, "unit": unit, "better": better, "bound": SERVE_METRIC_BOUND}
        for name, (unit, better) in SERVE_METRICS.items()
    ]
    print(f"{'workload':<22} {'metric':<12} {'A median [q1, q3]':<32} {'B median [q1, q3]':<32} {'B wins':>6}  verdict       digests")
    status = 0
    for workload in sorted(set(runs_a) & set(runs_b)):
        digests = _digests_equal(runs_a[workload], runs_b[workload])
        status |= digests == "DIFFERENT"
        reported = set.intersection(*(set(r["metrics"]) for r in runs_a[workload] + runs_b[workload]))
        for metric in spec["end_to_end"] + [m for m in serve_metrics if m["name"] in reported]:
            name = metric["name"]
            a = [r["metrics"][name] for r in runs_a[workload]]
            b = [r["metrics"][name] for r in runs_b[workload]]
            result, wins = verdict(a, b, metric["better"], metric["bound"])
            status |= result == "worse"
            side_a, side_b = (
                "{1:.4g} [{0:.4g}, {2:.4g}] {3}".format(*_quartiles(values), metric["unit"])
                for values in (a, b)
            )
            print(f"{workload:<22} {name:<12} {side_a:<32} {side_b:<32} {wins:>6.0%}  {result:<13} {digests}")
    return status
