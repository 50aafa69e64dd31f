"""``repro-obs``: offline inspection, drift diffing, and live dashboard.

Three subcommands over the observability artifacts and endpoints:

* ``repro-obs show EXPORT`` — re-render the per-experiment and run-total
  profile tables from a ``--metrics-out`` JSON export, offline;
* ``repro-obs top URL`` — poll a serving observatory's ``/v1/metrics``
  exposition and render a live terminal dashboard (RPS, cache-tier hit
  rates, latency quantiles, pool utilization, rate-limit drops);
* ``repro-obs diff A B`` — compare two runs (metrics exports or run-ledger
  JSONL files, freely mixed) and classify the drift:

  - deterministic ``scenario.*``/``streaming.*``/``pipeline.*`` counters
    differ → **logic change**, exit code 2;
  - counters identical but wall time moved beyond ``--time-threshold``
    (relative, default 25%) → **perf regression**, exit code 3;
  - otherwise clean, exit code 0.

  ``--logic-only`` skips the timing comparison — required when the two
  runs come from different machines (e.g. a committed CI baseline),
  where absolute wall time is meaningless.

Exit code 1 reports unreadable/invalid input files.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import logging
import os
import sys
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.obs.expo import MetricFamily, histogram_quantile, parse_exposition
from repro.obs.profile import EXPORT_SCHEMA, load_export, registry_from_dict, render_profile
from repro.obs.runledger import (
    RUN_SCHEMA,
    counter_digest,
    deterministic_counters,
    read_ledger,
)

__all__ = ["main", "load_run_snapshot", "render_top", "RunSnapshot"]

# Explicit name: __name__ is "__main__" under ``python -m``, which would
# fall outside the "repro" hierarchy configure_cli_logging sets up.
_log = logging.getLogger("repro.obs.cli")

#: ``repro-obs diff`` exit codes, by classification.
EXIT_CLEAN = 0
EXIT_ERROR = 1
EXIT_LOGIC_DRIFT = 2
EXIT_PERF_REGRESSION = 3


@dataclass
class RunSnapshot:
    """One run, normalized for diffing from either artifact format."""

    label: str
    kind: str  # "export" | "ledger"
    counters: dict[str, float]
    wall_s: float | None = None
    experiment_wall_s: dict[str, float] = field(default_factory=dict)

    @property
    def digest(self) -> str:
        return counter_digest(self.counters)


def load_run_snapshot(path: str | Path, index: int = -1) -> RunSnapshot:
    """Load a metrics export or run-ledger file as a :class:`RunSnapshot`.

    The format is detected from the file's ``schema`` field; for JSONL
    ledgers, ``index`` selects the record (default: the newest).
    """
    source = Path(path)
    try:
        payload = json.loads(source.read_text())
    except json.JSONDecodeError:
        payload = None  # multi-line JSONL ledger; handled below
    except OSError as exc:
        raise ValueError(f"cannot read {source}: {exc}") from None

    if isinstance(payload, dict) and payload.get("schema") == EXPORT_SCHEMA:
        export = load_export(source)
        run = export.get("run", {})
        wall = run.get("wall_s")
        return RunSnapshot(
            label=str(source),
            kind="export",
            counters=deterministic_counters(export["total"].get("counters", {})),
            wall_s=float(wall) if wall is not None else None,
        )
    if payload is None or (isinstance(payload, dict) and payload.get("schema") == RUN_SCHEMA):
        records = read_ledger(source)
        try:
            record = records[index]
        except IndexError:
            raise ValueError(
                f"{source}: ledger has {len(records)} record(s); index {index} "
                f"is out of range"
            ) from None
        return RunSnapshot(
            label=f"{source}[{index if index >= 0 else len(records) + index}]",
            kind="ledger",
            counters=deterministic_counters(record.get("counters", {})),
            wall_s=record.get("wall_s"),
            experiment_wall_s=dict(record.get("experiment_wall_s", {})),
        )
    schema = payload.get("schema") if isinstance(payload, dict) else None
    raise ValueError(
        f"{source}: unrecognized schema {schema!r} (expected {EXPORT_SCHEMA!r} "
        f"or {RUN_SCHEMA!r})"
    )


def _diff_counters(a: RunSnapshot, b: RunSnapshot) -> list[str]:
    """Human-readable lines for every deterministic counter mismatch."""
    lines = []
    for name in sorted(set(a.counters) | set(b.counters)):
        left, right = a.counters.get(name), b.counters.get(name)
        if left != right:
            fmt = lambda v: "(absent)" if v is None else f"{v:g}"
            lines.append(f"  {name}: {fmt(left)} -> {fmt(right)}")
    return lines


def _survives_hangup(command: Callable[[argparse.Namespace], int]) -> Callable[[argparse.Namespace], int]:
    """Buffer ``command``'s output and write it once it returns.

    A reader that closes the pipe early (``| head -1``) then ends the
    output quietly, and the command's exit code stands. stdout is
    pointed at ``os.devnull`` after the failed write, so the
    interpreter's flush at exit cannot raise again (the recipe of the
    :mod:`signal` docs).
    """

    @functools.wraps(command)
    def run(args: argparse.Namespace) -> int:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = command(args)
        try:
            sys.stdout.write(buffer.getvalue())
            sys.stdout.flush()
        except BrokenPipeError:
            try:
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            except (OSError, ValueError):
                pass
        return code

    return run


@_survives_hangup
def _diff(args: argparse.Namespace) -> int:
    a = load_run_snapshot(args.a, index=args.index_a)
    b = load_run_snapshot(args.b, index=args.index_b)

    if a.digest != b.digest:
        print(f"LOGIC DRIFT between {a.label} and {b.label}")
        print(f"  counter digest {a.digest[:16]}... -> {b.digest[:16]}...")
        for line in _diff_counters(a, b):
            print(line)
        print(
            "deterministic counters are strategy-independent: this difference "
            "comes from a code or config change, not from --jobs/--cache/timing."
        )
        return EXIT_LOGIC_DRIFT

    print(f"deterministic counters identical ({len(a.counters)} counters, "
          f"digest {a.digest[:16]}...)")

    if args.logic_only:
        print("timing comparison skipped (--logic-only)")
        return EXIT_CLEAN
    if a.wall_s is None or b.wall_s is None:
        missing = a.label if a.wall_s is None else b.label
        print(f"timing comparison skipped: no wall_s recorded in {missing}")
        return EXIT_CLEAN
    if a.wall_s <= 0:
        print(f"timing comparison skipped: non-positive baseline wall time in {a.label}")
        return EXIT_CLEAN

    relative = (b.wall_s - a.wall_s) / a.wall_s
    print(f"wall time {a.wall_s:.2f}s -> {b.wall_s:.2f}s ({relative:+.1%}, "
          f"threshold ±{args.time_threshold:.0%})")
    shared = set(a.experiment_wall_s) & set(b.experiment_wall_s)
    for name in sorted(shared):
        left, right = a.experiment_wall_s[name], b.experiment_wall_s[name]
        delta = (right - left) / left if left > 0 else float("inf")
        print(f"  {name}: {left:.2f}s -> {right:.2f}s ({delta:+.1%})")
    if abs(relative) > args.time_threshold:
        direction = "PERF REGRESSION" if relative > 0 else "PERF SHIFT (faster)"
        print(f"{direction}: same logic, wall time moved {relative:+.1%} "
              f"(beyond ±{args.time_threshold:.0%})")
        return EXIT_PERF_REGRESSION
    print("clean: same logic, timing within threshold")
    return EXIT_CLEAN


@_survives_hangup
def _show(args: argparse.Namespace) -> int:
    export = load_export(args.export)
    run = export.get("run", {})
    if run:
        pairs = ", ".join(f"{k}={run[k]}" for k in sorted(run))
        print(f"run: {pairs}")
        print()
    for experiment_id, payload in sorted(export.get("experiments", {}).items()):
        print(render_profile(registry_from_dict(payload), title=f"--- {experiment_id} profile ---"))
        print()
    print(render_profile(registry_from_dict(export["total"]), title="=== run profile (all experiments) ==="))
    return EXIT_CLEAN


# -- live dashboard (`repro-obs top`) ------------------------------------------

#: ANSI: home the cursor and clear the screen (the classic `top` refresh).
_ANSI_CLEAR = "\x1b[H\x1b[2J"
_BOLD = "\x1b[1m"
_RESET = "\x1b[0m"


@dataclass
class _TopSample:
    """One scrape of the exposition endpoint, timestamped locally."""

    at: float
    families: dict[str, MetricFamily]

    def scalar(self, family: str, default: float = 0.0) -> float:
        fam = self.families.get(family)
        if fam is None:
            return default
        value = fam.value()
        return default if value is None else value

    def latency_buckets(self) -> list[tuple[float, float]]:
        """Cumulative ``(le, count)`` buckets of the serve latency histogram."""
        fam = self.families.get("serve_latency_s")
        if fam is None or fam.type != "histogram":
            return []
        buckets = [
            (float("inf") if s.label("le") in ("+Inf", "inf") else float(s.label("le")), s.value)
            for s in fam.samples
            if s.name == "serve_latency_s_bucket" and s.label("le") is not None
        ]
        return sorted(buckets, key=lambda pair: pair[0])


def _fetch_sample(url: str, timeout: float) -> _TopSample:
    with urllib.request.urlopen(url, timeout=timeout) as response:
        text = response.read().decode("utf-8")
    return _TopSample(at=time.monotonic(), families=parse_exposition(text))


def _delta_buckets(
    curr: list[tuple[float, float]], prev: list[tuple[float, float]]
) -> list[tuple[float, float]]:
    """Cumulative buckets of only the interval between two scrapes."""
    if not prev or len(prev) != len(curr):
        return curr
    return [(le, count - old) for (le, count), (_, old) in zip(curr, prev)]


def _fmt_ms(seconds: float | None) -> str:
    return "-" if seconds is None else f"{seconds * 1e3:.2f}ms"


def _fmt_rate(numerator: float, denominator: float) -> str:
    return "-" if denominator <= 0 else f"{numerator / denominator:.1%}"


def render_top(prev: _TopSample | None, curr: _TopSample, url: str) -> str:
    """One dashboard frame from the current (and previous) scrape.

    Pure text in, text out — the poll loop owns the terminal control —
    so tests can assert on frames without a live screen.
    """
    dt = (curr.at - prev.at) if prev is not None else 0.0
    requests = curr.scalar("serve_requests_total")
    delta_requests = requests - (prev.scalar("serve_requests_total") if prev else 0.0)
    if prev is not None and dt > 0:
        rps = delta_requests / dt
    else:
        rps = curr.scalar("serve_window_rps_1m")

    buckets = curr.latency_buckets()
    window = _delta_buckets(buckets, prev.latency_buckets() if prev else [])
    if not window or window[-1][1] <= 0:
        window = buckets  # quiet interval: fall back to since-boot shape
    p50 = histogram_quantile(window, 0.50)
    p99 = histogram_quantile(window, 0.99)

    tiers = {
        tier: curr.scalar(f"serve_cache_tier_{tier}_total")
        for tier in ("mem", "disk", "compute")
    }
    total_tiers = sum(tiers.values())
    hits = curr.scalar("serve_singleflight_hits_total")
    leaders = curr.scalar("serve_singleflight_leaders_total")
    busy = curr.scalar("pool_busy_s_total")
    capacity = curr.scalar("pool_capacity_s_total")

    lines = [
        f"{_BOLD}repro observatory{_RESET}  {url}",
        f"uptime {curr.scalar('serve_uptime_s'):.0f}s"
        f"  active connections {curr.scalar('serve_active_connections'):.0f}"
        f"  interval {dt:.1f}s",
        "",
        f"{_BOLD}traffic{_RESET}"
        f"  requests {requests:.0f} (+{delta_requests:.0f})"
        f"  rps {rps:.1f}"
        f"  errors {curr.scalar('serve_errors_total'):.0f}"
        f"  rate-limited {curr.scalar('serve_rate_limited_total'):.0f}"
        f"  sse events {curr.scalar('serve_sse_events_total'):.0f}",
        f"{_BOLD}latency{_RESET}  p50 {_fmt_ms(p50)}  p99 {_fmt_ms(p99)}",
        f"{_BOLD}cache tiers{_RESET}"
        f"  mem {_fmt_rate(tiers['mem'], total_tiers)}"
        f"  disk {_fmt_rate(tiers['disk'], total_tiers)}"
        f"  compute {_fmt_rate(tiers['compute'], total_tiers)}"
        f"  ({total_tiers:.0f} resolved)",
        f"{_BOLD}dedup{_RESET}"
        f"  singleflight hits {hits:.0f} / leaders {leaders:.0f}"
        f"  coalesced {_fmt_rate(hits, hits + leaders)}",
        f"{_BOLD}pool{_RESET}"
        f"  workers {curr.scalar('pool_workers'):.0f}"
        f"  utilization {_fmt_rate(busy, capacity)}"
        f"  busy {busy:.2f}s / capacity {capacity:.2f}s",
    ]
    slo_burn = curr.scalar("serve_window_slo_burn_1m", default=-1.0)
    if slo_burn >= 0:
        lines.append(
            f"{_BOLD}slo{_RESET}"
            f"  1m burn {slo_burn:.2f}"
            f"  error rate {curr.scalar('serve_window_error_rate_1m'):.4f}"
        )
    return "\n".join(lines)


def _top(args: argparse.Namespace) -> int:
    url = args.url.rstrip("/")
    if not url.endswith("/v1/metrics"):
        url = f"{url}/v1/metrics"
    prev: _TopSample | None = None
    iteration = 0
    try:
        while True:
            try:
                curr = _fetch_sample(url, timeout=args.timeout)
            except (urllib.error.URLError, OSError, ValueError) as exc:
                _log.error("cannot scrape %s: %s", url, exc)
                return EXIT_ERROR
            frame = render_top(prev, curr, url)
            if not args.no_clear:
                sys.stdout.write(_ANSI_CLEAR)
            print(frame, flush=True)
            prev = curr
            iteration += 1
            if args.iterations and iteration >= args.iterations:
                return EXIT_CLEAN
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return EXIT_CLEAN


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description="Inspect and diff recorded runs (metrics exports / run ledgers).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    diff = sub.add_parser(
        "diff",
        help="classify drift between two runs (exit 0 clean / 2 logic / 3 perf)",
    )
    diff.add_argument("a", help="baseline: metrics export JSON or run-ledger JSONL")
    diff.add_argument("b", help="candidate: metrics export JSON or run-ledger JSONL")
    diff.add_argument(
        "--time-threshold",
        type=float,
        default=0.25,
        help="relative wall-time change tolerated before flagging a perf "
        "regression (default 0.25 = 25%%)",
    )
    diff.add_argument(
        "--logic-only",
        action="store_true",
        help="compare deterministic counters only (use across machines, "
        "e.g. against a committed CI baseline)",
    )
    diff.add_argument(
        "--index-a", type=int, default=-1,
        help="ledger record index for A (default -1 = newest)",
    )
    diff.add_argument(
        "--index-b", type=int, default=-1,
        help="ledger record index for B (default -1 = newest)",
    )
    diff.set_defaults(func=_diff)

    show = sub.add_parser(
        "show", help="re-render the profile tables of a --metrics-out export"
    )
    show.add_argument("export", help="metrics export JSON (repro.obs.export/1)")
    show.set_defaults(func=_show)

    top = sub.add_parser(
        "top", help="live terminal dashboard over a server's /v1/metrics"
    )
    top.add_argument(
        "url",
        help="server base URL (e.g. http://127.0.0.1:8321) or the full "
        "/v1/metrics endpoint",
    )
    top.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="seconds between scrapes (default 2)",
    )
    top.add_argument(
        "--iterations", type=int, default=0, metavar="N",
        help="stop after N frames (default 0 = run until interrupted)",
    )
    top.add_argument(
        "--timeout", type=float, default=5.0, metavar="SECONDS",
        help="per-scrape HTTP timeout (default 5)",
    )
    top.add_argument(
        "--no-clear", dest="no_clear", action="store_true",
        help="append frames instead of clearing the screen (logs, tests)",
    )
    top.set_defaults(func=_top)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the classification exit code."""
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        _log.error("%s", exc)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
