"""Child-process host: runs one real entry point for the benchmark.

The benchmark process never imports the program. Every measured run is
a fresh child, ``python -m benchmarks.e2e.host TARGET --report FILE
[--layers] [--probe] -- ARGV...``, that imports the entry point, marks
itself ready and calls ``main(ARGV)`` with the program's ordinary CLI
arguments:

* ``repro``: :func:`repro.experiments.runner.main`. The host rebinds the
  runner's ``run_experiment`` so each result is digested the way
  ``tests/test_goldens.py`` digests it, and times ``main(ARGV)``.
* ``serve``: :func:`repro.serve.server.main`, which prints
  ``SERVE_READY`` and serves until the benchmark sends SIGINT.

``--layers`` installs the per-layer wrappers of
:mod:`benchmarks.e2e.layers` before ``main`` runs; ``--probe`` stops
right after the imports (a set-up time sample). The host writes one JSON
report to ``--report`` when ``main`` returns, and exits 1 if ``main``
raised or returned non-zero.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import signal
import sys
import time
import traceback
from typing import Any


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digest_experiments(runner: Any, report: dict[str, Any]) -> None:
    """Rebind the runner's ``run_experiment`` to digest and time each result."""
    original = runner.run_experiment

    def run_experiment(experiment_id, config=None):
        report["running"] = experiment_id
        start = time.monotonic()
        result = original(experiment_id, config)
        report["experiments"][experiment_id] = {
            "wall_s": time.monotonic() - start,
            "tables_sha256": _sha256("\n\n".join(result.tables)),
            "paper_vs_measured_sha256": _sha256(
                json.dumps([list(row) for row in result.paper_vs_measured])
            ),
        }
        return result

    runner.run_experiment = run_experiment


def _expected_experiments(argv: list[str]) -> list[str]:
    """The experiment ids the runner's ``argv`` asks for."""
    from repro.experiments.registry import EXPERIMENTS

    positional = []
    for token in argv:
        if token.startswith("-"):
            break
        positional.append(token)
    return sorted(EXPERIMENTS) if "all" in positional else positional


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.host")
    parser.add_argument("target", choices=("repro", "serve"))
    parser.add_argument("--report", required=True)
    parser.add_argument("--layers", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv[:split])
    program_argv = argv[split + 1 :]

    # The benchmark stops the server with SIGINT. A shell starts background
    # jobs with SIGINT ignored and children inherit that, so restore it.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    report: dict[str, Any] = {"experiments": {}, "error": None, "rc": 0}
    if args.target == "repro":
        from repro.experiments import runner as entry
    else:
        from repro.serve import server as entry
    report["ready"] = time.monotonic()
    if not args.probe:
        if args.layers:
            from benchmarks.e2e import layers

            layers.install()
        if args.target == "repro":
            _digest_experiments(entry, report)
        report["start"] = time.monotonic()
        try:
            report["rc"] = entry.main(program_argv)
        except Exception:  # the report carries the failure to the benchmark
            report["error"] = traceback.format_exc()
        report["end"] = time.monotonic()
        report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if args.target == "repro":
            report["expected"] = _expected_experiments(program_argv)
        if args.layers and args.target == "serve":
            from repro.obs import metrics

            report["registry"] = metrics().to_dict()
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0 if report["error"] is None and report["rc"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
