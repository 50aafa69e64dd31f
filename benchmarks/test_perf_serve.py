"""Load benchmark of the observatory serving plane.

Boots a real :class:`~repro.serve.server.ObservatoryServer` on an
ephemeral port and drives it with N concurrent asyncio clients over a
mixed schedule: a **cold** pass where every requested day is uncomputed
(all clients race the same misses, so the single-flight layer coalesces
them into one pipeline run per day) and a **warm** pass repeating the
identical schedule against the now-populated day cache.

Each pass appends one history entry to ``benchmarks/BENCH_serve.json``
(a JSON list, oldest first, like the other BENCH files): p50/p99
request latency, requests/second, and the single-flight dedup ratio.
The warm-cache p50 must beat the cold-compute p50 by >= 5x — the whole
point of the cache-tier resolution is that repeat queries never pay
compute.

``REPRO_SERVE_BENCH_SMOKE=1`` shrinks the schedule for CI smoke runs
(fewer clients/days; same phases, same assertion).
"""

import asyncio
import gc
import json
import os
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.core.parallel import day_cache
from repro.core.workerpool import shutdown_pool
from repro.experiments.base import ExperimentConfig
from repro.obs import MetricsRegistry, TraceRecorder, use_metrics
from repro.serve.routes import ServerState
from repro.serve.server import AccessLog, ObservatoryServer
from repro.serve.service import ObservatoryService
from repro.timeutil import date_of

SMOKE = os.environ.get("REPRO_SERVE_BENCH_SMOKE") == "1"
N_CLIENTS = 8 if SMOKE else 25
N_DAYS = 3 if SMOKE else 6
OVERHEAD_ROUNDS = 6 if SMOKE else 8
OVERHEAD_REPS = 15 if SMOKE else 25
OVERHEAD_CLIENTS = 2


def _append_history(payload):
    out = Path(__file__).parent / "BENCH_serve.json"
    history = json.loads(out.read_text()) if out.exists() else []
    history.append(payload)
    out.write_text(json.dumps(history, indent=2) + "\n")


class _KeepAliveClient:
    """One persistent connection issuing sequential GETs."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def connect(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port
        )

    async def get(self, path: str) -> bytes:
        self.writer.write(f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode())
        await self.writer.drain()
        head = await asyncio.wait_for(self.reader.readuntil(b"\r\n\r\n"), 120)
        status = int(head.split(b"\r\n")[0].split(b" ")[1])
        assert status == 200, head
        length = 0
        for line in head.split(b"\r\n")[1:]:
            if line.lower().startswith(b"content-length:"):
                length = int(line.split(b":", 1)[1])
        return await asyncio.wait_for(self.reader.readexactly(length), 120)

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()


async def _run_phase(
    port: int, schedule: list[str], n_clients: int = N_CLIENTS
) -> tuple[list[float], float]:
    """All clients run the schedule concurrently; per-request latencies."""

    async def client_task() -> list[float]:
        client = _KeepAliveClient(port)
        await client.connect()
        latencies = []
        try:
            for path in schedule:
                t0 = time.perf_counter()
                await client.get(path)
                latencies.append(time.perf_counter() - t0)
        finally:
            client.close()
        return latencies

    t0 = time.perf_counter()
    per_client = await asyncio.gather(*(client_task() for _ in range(n_clients)))
    wall_s = time.perf_counter() - t0
    return [lat for result in per_client for lat in result], wall_s


def test_perf_serve_cold_vs_warm():
    """Mixed cold/warm load: warm-cache p50 must beat cold p50 by >= 5x."""
    day_cache().clear()
    day_cache().attach_disk(None)
    registry = MetricsRegistry(enabled=True)
    service = ObservatoryService(
        ExperimentConfig(preset="small", seed=2018, jobs=1)
    )
    takedown = service.scenario_config.takedown_day
    dates = [str(date_of(takedown - 2 + i)) for i in range(N_DAYS)]
    schedule = [f"/v1/days/{date}" for date in dates] + ["/v1/config"]

    async def run():
        server = ObservatoryServer(service, compute_slots=1)
        await server.start()
        try:
            cold = await _run_phase(server.port, schedule)
            warm = await _run_phase(server.port, schedule)
            return cold, warm
        finally:
            await server.aclose()

    try:
        with use_metrics(registry):
            (cold_lat, cold_wall), (warm_lat, warm_wall) = asyncio.run(run())
    finally:
        shutdown_pool()

    n_requests = N_CLIENTS * len(schedule)
    assert len(cold_lat) == len(warm_lat) == n_requests

    hits = registry.counter("serve.singleflight_hits")
    leaders = registry.counter("serve.singleflight_leaders")
    dedup_ratio = hits / (hits + leaders) if hits + leaders else 0.0
    computes = registry.counter("serve.cache_tier.compute")
    # Single-flight + cache: the N_DAYS cold misses each computed once,
    # no matter how many clients raced them.
    assert computes == N_DAYS, registry.counters

    cold_p50, cold_p99 = np.percentile(cold_lat, [50, 99])
    warm_p50, warm_p99 = np.percentile(warm_lat, [50, 99])
    speedup_p50 = cold_p50 / warm_p50 if warm_p50 > 0 else float("inf")
    recorded_at = datetime.now(timezone.utc).isoformat(timespec="seconds")
    common = {
        "recorded_at": recorded_at,
        "cpu_count": os.cpu_count(),
        "clients": N_CLIENTS,
        "days": N_DAYS,
        "requests": n_requests,
        "smoke": SMOKE,
    }
    _append_history(
        {
            "benchmark": "serve_load_cold",
            **common,
            "p50_ms": round(cold_p50 * 1e3, 3),
            "p99_ms": round(cold_p99 * 1e3, 3),
            "requests_per_s": round(n_requests / cold_wall, 1),
            "singleflight_dedup_ratio": round(dedup_ratio, 4),
            "compute_runs": int(computes),
        }
    )
    _append_history(
        {
            "benchmark": "serve_load_warm",
            **common,
            "p50_ms": round(warm_p50 * 1e3, 3),
            "p99_ms": round(warm_p99 * 1e3, 3),
            "requests_per_s": round(n_requests / warm_wall, 1),
            "warm_speedup_p50": round(speedup_p50, 2),
        }
    )
    print(
        f"\nserve load ({N_CLIENTS} clients x {len(schedule)} requests): "
        f"cold p50 {cold_p50 * 1e3:.1f} ms p99 {cold_p99 * 1e3:.1f} ms, "
        f"warm p50 {warm_p50 * 1e3:.1f} ms p99 {warm_p99 * 1e3:.1f} ms, "
        f"dedup {dedup_ratio:.2%}, speedup {speedup_p50:.1f}x"
    )
    assert speedup_p50 >= 5.0, (
        f"warm p50 {warm_p50 * 1e3:.2f} ms not >= 5x faster than "
        f"cold p50 {cold_p50 * 1e3:.2f} ms"
    )


def test_perf_serve_telemetry_overhead(tmp_path):
    """Full telemetry must cost < 5% on the warm-path p50.

    Two servers share one warmed day cache: a bare one (disabled
    registry, no rolling windows, no access log — the pre-telemetry
    serving plane) and a fully instrumented one (enabled registry with
    a trace recorder, sub-ms latency histogram, rolling windows, JSONL
    access log). Rounds interleave the two modes and alternate which
    goes first — a fixed bare-then-instrumented order couples periodic
    process effects to one mode and reads as phantom overhead — and
    each mode is scored by the p50 of all its rounds pooled. The
    collector is paused (``gc.disable`` plus a collect per phase)
    while latencies are sampled: telemetry's extra allocations shift
    *when* cyclic GC pauses land, and on a ~2 ms endpoint that skew
    dwarfs the ~10 us the middleware itself costs. Concurrency is kept
    low for the same reason — deep queueing amplifies a service-time
    delta by the queue depth. A small absolute epsilon keeps the
    assertion meaningful where 5% of the warm p50 is only tens of
    microseconds.
    """
    day_cache().clear()
    day_cache().attach_disk(None)
    service = ObservatoryService(
        ExperimentConfig(preset="small", seed=2018, jobs=1)
    )
    takedown = service.scenario_config.takedown_day
    dates = [str(date_of(takedown - 1 + i)) for i in range(2)]
    schedule = [f"/v1/days/{date}" for date in dates] * OVERHEAD_REPS

    bare_registry = MetricsRegistry(enabled=False)
    full_registry = MetricsRegistry(enabled=True, trace=TraceRecorder())
    access_log = AccessLog(tmp_path / "bench_access.jsonl")

    async def run():
        bare = ObservatoryServer(service, state=ServerState(windows=None))
        full = ObservatoryServer(service, access_log=access_log)
        await bare.start()
        await full.start()
        try:
            with use_metrics(full_registry):  # populate the day cache once
                await _run_phase(
                    full.port, schedule[: len(dates)], OVERHEAD_CLIENTS
                )
            bare_lat, full_lat = [], []
            gc.disable()
            try:
                for round_no in range(OVERHEAD_ROUNDS):
                    modes = [
                        (bare, bare_registry, bare_lat),
                        (full, full_registry, full_lat),
                    ]
                    if round_no % 2:
                        modes.reverse()
                    for server, registry, sink in modes:
                        gc.collect()
                        with use_metrics(registry):
                            latencies, _ = await _run_phase(
                                server.port, schedule, OVERHEAD_CLIENTS
                            )
                        sink.extend(latencies)
            finally:
                gc.enable()
            return bare_lat, full_lat
        finally:
            await bare.aclose()
            await full.aclose()

    try:
        bare_lat, full_lat = asyncio.run(run())
    finally:
        access_log.close()
        shutdown_pool()

    bare_p50 = float(np.percentile(bare_lat, 50))
    full_p50 = float(np.percentile(full_lat, 50))
    overhead = full_p50 / bare_p50 - 1.0 if bare_p50 > 0 else 0.0
    # Sanity: the instrumented rounds really exercised the telemetry plane.
    assert full_registry.counter("serve.requests") > 0
    assert "serve.latency_s" in full_registry.histograms
    assert (tmp_path / "bench_access.jsonl").stat().st_size > 0

    _append_history(
        {
            "benchmark": "serve_telemetry_overhead",
            "recorded_at": datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            ),
            "cpu_count": os.cpu_count(),
            "clients": OVERHEAD_CLIENTS,
            "rounds": OVERHEAD_ROUNDS,
            "requests_per_round": OVERHEAD_CLIENTS * len(schedule),
            "smoke": SMOKE,
            "bare_p50_ms": round(bare_p50 * 1e3, 4),
            "telemetry_p50_ms": round(full_p50 * 1e3, 4),
            "overhead_pct": round(overhead * 100, 2),
        }
    )
    print(
        f"\ntelemetry overhead: bare p50 {bare_p50 * 1e6:.0f} us, "
        f"instrumented p50 {full_p50 * 1e6:.0f} us ({overhead:+.1%})"
    )
    assert full_p50 <= bare_p50 * 1.05 + 50e-6, (
        f"telemetry middleware overhead {overhead:.1%} exceeds 5% budget: "
        f"bare p50 {bare_p50 * 1e6:.0f} us vs "
        f"instrumented p50 {full_p50 * 1e6:.0f} us"
    )
