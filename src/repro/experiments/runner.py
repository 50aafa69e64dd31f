"""Command-line experiment runner.

Usage::

    repro-experiments fig4                 # one experiment, small preset
    repro-experiments all --preset paper   # everything at paper scale
    repro-experiments all --jobs 4         # warm process pool (bit-identical)
    repro-experiments fig1a fig1b --seed 7
    repro-experiments fig4 fig5 --no-cache # disable the day-result cache
    repro-experiments all --cache-dir .day-cache   # persistent disk tier
    repro-experiments all --jobs 2 --metrics-out metrics.json
    repro-experiments fig4 --profile       # per-stage profile table only
    repro-experiments fig4 --jobs 4 --trace-out trace.json   # Perfetto
    repro-experiments all --ledger runs.jsonl                # provenance

Observability flags compose: ``--trace-out`` writes a Chrome trace-event
JSON of every span (one track per worker process), ``--ledger`` appends
one ``repro.obs.run/1`` provenance record (config hash, seed, strategy,
wall times, deterministic counter digest, artifact digests) to a JSONL
ledger, and ``repro-obs diff`` classifies drift between any two runs.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time

from repro.core.diskcache import DEFAULT_MAX_BYTES, DiskDayCache
from repro.core.parallel import day_cache, prefetch
from repro.core.workerpool import shutdown_pool
from repro.experiments.base import ExperimentConfig, build_scenario
from repro.experiments.registry import ASKS, EXPERIMENTS, run_experiment
from repro.logutil import LOG_LEVELS, configure_cli_logging
from repro.obs import (
    MetricsRegistry,
    TraceRecorder,
    append_run_record,
    build_run_record,
    export_metrics,
    render_profile,
    set_metrics,
    use_metrics,
    write_chrome_trace,
)

__all__ = ["main"]

# Explicit name: __name__ is "__main__" under ``python -m``, which would
# fall outside the "repro" hierarchy configure_cli_logging sets up.
_log = logging.getLogger("repro.experiments.runner")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate tables/figures of 'DDoS Hide & Seek' (IMC 2019).",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help=f"experiment ids, or 'all'; known: {', '.join(sorted(EXPERIMENTS))}",
    )
    parser.add_argument("--preset", choices=("small", "paper"), default="small")
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes of the warm pool that runs day tasks "
        "(1 = serial, 0 = all cores; results are bit-identical for any --jobs)",
    )
    parser.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="compute the days the experiments declare in one pass first "
        "(each day synthesized once) and serve their reads from a cache",
    )
    parser.add_argument(
        "--cache-dir",
        dest="cache_dir",
        metavar="PATH",
        help="also persist the day cache under PATH (implies --cache) so a "
        "rerun of the same config is served from disk; entries are keyed "
        "by the scenario content hash, so config or seed changes "
        "invalidate automatically",
    )
    parser.add_argument(
        "--cache-max-bytes",
        dest="cache_max_bytes",
        type=int,
        default=DEFAULT_MAX_BYTES,
        help="byte budget for --cache-dir before least-recently-used "
        "entries are evicted (default: 2 GiB)",
    )
    parser.add_argument(
        "--metrics-out",
        dest="metrics_out",
        metavar="PATH",
        help="record pipeline metrics and write them to PATH as JSON "
        "(stable schema repro.obs.export/1); implies --profile",
    )
    parser.add_argument(
        "--trace-out",
        dest="trace_out",
        metavar="PATH",
        help="record per-span events and write Chrome trace-event JSON to "
        "PATH (open in Perfetto / chrome://tracing; one track per "
        "worker process under --jobs N)",
    )
    parser.add_argument(
        "--ledger",
        metavar="PATH",
        help="append one repro.obs.run/1 provenance record for this run "
        "(config hash, strategy, wall times, deterministic counter "
        "digest, artifact digests) to the JSONL ledger at PATH",
    )
    parser.add_argument(
        "--profile",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="print a per-experiment profile table (stage, calls, "
        "total/mean ms, cache hit rate, pool utilization)",
    )
    parser.add_argument(
        "--log-level",
        choices=LOG_LEVELS,
        default="info",
        help="stderr logging verbosity for run status (default: info)",
    )
    parser.add_argument(
        "--output",
        help="also write a markdown report of all results to this path",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: run the requested experiments, print their reports."""
    parser = _parser()
    args = parser.parse_args(argv)
    configure_cli_logging(args.log_level)
    ids = sorted(EXPERIMENTS) if "all" in args.experiments else args.experiments
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        _log.error("unknown experiments: %s", ", ".join(unknown))
        return 2
    # Out-of-range numbers are usage errors (exit 2), not tracebacks.
    try:
        config = ExperimentConfig(
            preset=args.preset,
            seed=args.seed,
            jobs=args.jobs,
            cache=args.cache,
            cache_dir=args.cache_dir,
        )
        disk = None
        if args.cache_dir:
            disk = DiskDayCache(args.cache_dir, max_bytes=args.cache_max_bytes)
    except ValueError as exc:
        parser.error(str(exc))
    if disk is not None:
        day_cache().attach_disk(disk)
        _log.info(
            "disk cache attached at %s (%d entries, %.1f MB resident)",
            disk.root,
            len(disk),
            disk.resident_bytes / 1e6,
        )
    try:
        return _run(args, config, ids, disk)
    finally:
        # main() is called in-process by tests and notebooks: restore the
        # global singleton state so one invocation cannot leak its disk
        # tier or warm pool into the next.
        shutdown_pool()
        if disk is not None:
            day_cache().attach_disk(None)


def _run(
    args: argparse.Namespace,
    config: ExperimentConfig,
    ids: list[str],
    disk: DiskDayCache | None,
) -> int:
    """Execute the experiments with the disk tier (if any) attached."""
    # Tracing and the ledger both need the registry recording; profile
    # tables print only when explicitly asked for (or exported).
    record = bool(args.metrics_out or args.profile or args.trace_out or args.ledger)
    show_profile = bool(args.metrics_out) or args.profile
    total_registry = MetricsRegistry(enabled=record)
    per_experiment: dict[str, MetricsRegistry] = {}
    experiment_wall_s: dict[str, float] = {}
    results = []
    run_start = time.perf_counter()
    asks = [ask for i in ids if i in ASKS for ask in ASKS[i](config.scenario_config())]
    if config.use_cache and asks:
        registry = MetricsRegistry(enabled=record, trace=TraceRecorder() if args.trace_out else None)
        with use_metrics(registry):
            prefetch(build_scenario(config), asks, config.jobs)
        total_registry.merge(registry)
        _log.info("[prefetch completed in %.1fs]", time.perf_counter() - run_start)
    for experiment_id in ids:
        before = day_cache().stats()
        registry = MetricsRegistry(
            enabled=record, trace=TraceRecorder() if args.trace_out else None
        )
        previous = set_metrics(registry)
        start = time.perf_counter()
        try:
            with registry.span(
                f"experiment.{experiment_id}", trace_args={"experiment": experiment_id}
            ):
                result = run_experiment(experiment_id, config)
        finally:
            set_metrics(previous)
        elapsed = time.perf_counter() - start
        experiment_wall_s[experiment_id] = elapsed
        results.append(result)
        print(result.render())
        if record:
            per_experiment[experiment_id] = registry
            total_registry.merge(registry)
        if show_profile:
            print()
            print(render_profile(registry, title=f"--- {experiment_id} profile ---"))
            print()
        status = f"[{experiment_id} completed in {elapsed:.1f}s"
        if config.use_cache:
            after = day_cache().stats()
            status += (
                f" | day-cache +{after['hits'] - before['hits']} hits"
                f" / +{after['misses'] - before['misses']} misses"
                f", {after['entries']} entries"
            )
            if disk is not None:
                status += (
                    f" | disk +{after['disk']['hits'] - before['disk']['hits']} hits"
                )
        _log.info("%s]", status)
    wall_s = time.perf_counter() - run_start
    if disk is not None:
        d = disk.stats()
        _log.info(
            "disk cache: %d entries, %d hits / %d misses (%d corrupt), "
            "%d puts, %.1f MB resident at %s",
            d["entries"],
            d["hits"],
            d["misses"],
            d["corrupt"],
            d["puts"],
            d["resident_bytes"] / 1e6,
            disk.root,
        )
    if show_profile:
        print(render_profile(total_registry, title="=== run profile (all experiments) ==="))
        print()
    artifacts: dict[str, str] = {}
    run_info = {
        "preset": args.preset,
        "seed": args.seed,
        "jobs": args.jobs,
        "cache": args.cache,
        "cache_dir": args.cache_dir,
        "experiments": ids,
        "wall_s": round(wall_s, 4),
    }
    if args.metrics_out:
        path = export_metrics(per_experiment, total_registry, args.metrics_out, run_info=run_info)
        artifacts["metrics"] = str(path)
        _log.info("metrics written to %s", path)
    if args.trace_out:
        recorder = total_registry.trace or TraceRecorder()
        path = write_chrome_trace(recorder, args.trace_out, run_info=run_info)
        artifacts["trace"] = str(path)
        _log.info(
            "trace written to %s (%d events from %d process(es))",
            path,
            len(recorder),
            len(recorder.pids()) or 1,
        )
    if args.output:
        from repro.experiments.report import write_report

        path = write_report(results, args.output)
        artifacts["report"] = str(path)
        _log.info("report written to %s", path)
    if args.ledger:
        record_entry = build_run_record(
            config_hash=config.scenario_config().content_hash(),
            seed=args.seed,
            preset=args.preset,
            jobs=args.jobs,
            cache=args.cache,
            experiments=ids,
            counters=total_registry.counters,
            wall_s=wall_s,
            experiment_wall_s=experiment_wall_s,
            artifacts=artifacts,
        )
        path = append_run_record(args.ledger, record_entry)
        _log.info(
            "run record appended to %s (counter digest %s...)",
            path,
            record_entry["counter_digest"][:16],
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
