"""Endpoint table of the observatory server.

Routes map ``(method, /path/{param}/pattern)`` to async handlers.
Handlers receive the parsed :class:`~repro.serve.http.Request`, the
matched path params, and the :class:`ServeContext` — the server's
service, single-flight table, and bounded compute semaphore. Compute
endpoints all funnel through :func:`cached_payload_bytes`:

    single-flight (coalesce concurrent identical requests)
      -> compute semaphore (bound pipeline concurrency)
        -> worker thread (the blocking cache/pipeline access)

so N concurrent requests for the same uncomputed resource cost one
pipeline run and the pool is never oversubscribed by unrelated
requests.
"""

from __future__ import annotations

import asyncio
import datetime
import json
import time
from dataclasses import dataclass, field
from typing import Any, AsyncIterator, Awaitable, Callable

from repro.obs import metrics
from repro.obs.expo import EXPO_CONTENT_TYPE, render_exposition
from repro.obs.window import RollingWindow
from repro.serve import sse
from repro.serve.http import HttpError, Request, Response
from repro.serve.service import ObservatoryService, canonical_json
from repro.serve.singleflight import SingleFlight
from repro.timeutil import date_of

__all__ = [
    "Router",
    "ServeContext",
    "ServerState",
    "StreamingResponse",
    "build_router",
    "cached_payload_bytes",
]

#: Cap on SSE replay volume per request (events, then the stream ends).
MAX_STREAM_EVENTS = 10_000

#: Seconds of stream silence before an SSE comment heartbeat is sent so
#: idle ``/v1/events/stream`` clients (waiting on a slow day compute)
#: don't trip proxy/read timeouts. Tests shrink this via monkeypatch.
SSE_HEARTBEAT_S = 15.0


@dataclass
class ServerState:
    """Live operational state of one server instance.

    Written by the server's exchange loop, read by the health/metrics
    handlers. ``windows`` feeds the rolling-window SLO snapshots in
    ``/v1/health``; ``access_log`` is the structured JSONL writer (or
    ``None`` when ``--access-log`` is off).
    """

    started_at_wall: float = field(default_factory=time.time)
    started_at_mono: float = field(default_factory=time.monotonic)
    windows: RollingWindow | None = None
    access_log: Any = None
    active_connections: int = 0

    def uptime_s(self) -> float:
        return time.monotonic() - self.started_at_mono

    def started_at_iso(self) -> str:
        started = datetime.datetime.fromtimestamp(
            self.started_at_wall, tz=datetime.timezone.utc
        )
        return started.isoformat(timespec="seconds").replace("+00:00", "Z")


@dataclass
class ServeContext:
    """Shared per-server state handlers resolve requests against."""

    service: ObservatoryService
    flights: SingleFlight = field(default_factory=SingleFlight)
    compute_semaphore: asyncio.Semaphore | None = None
    state: ServerState | None = None

    async def compute(self, fn: Callable[[], Any]) -> Any:
        """Run blocking pipeline work in a thread, bounded by the semaphore."""
        if self.compute_semaphore is None:
            return await asyncio.to_thread(fn)
        async with self.compute_semaphore:
            return await asyncio.to_thread(fn)


@dataclass
class StreamingResponse:
    """A chunked (SSE) response: head now, body chunks as they come."""

    chunks: AsyncIterator[bytes]
    status: int = 200
    content_type: str = "text/event-stream"
    headers: tuple[tuple[str, str], ...] = (("Cache-Control", "no-store"),)


Handler = Callable[[Request, dict[str, str], ServeContext], Awaitable[Response | StreamingResponse]]


async def cached_payload_bytes(
    ctx: ServeContext, key: tuple, fn: Callable[[], Any]
) -> bytes:
    """Canonical JSON bytes of ``fn()``, deduplicated across waiters.

    The single-flight result is the serialized payload, so every
    coalesced waiter writes bit-identical bytes to its client.
    """

    async def factory() -> bytes:
        payload = await ctx.compute(fn)
        return canonical_json(payload)

    return await ctx.flights.run(key, factory)


class Router:
    """Literal-and-``{param}`` path matcher with method dispatch."""

    def __init__(self) -> None:
        self._routes: list[tuple[str, tuple[str, ...], Handler]] = []

    def add(self, method: str, pattern: str, handler: Handler) -> None:
        """Register ``handler`` for ``method`` on ``pattern``.

        Pattern segments are literals or ``{name}`` captures, e.g.
        ``/v1/days/{date}``.
        """
        if not pattern.startswith("/"):
            raise ValueError(f"pattern must start with '/': {pattern!r}")
        self._routes.append((method.upper(), tuple(pattern.strip("/").split("/")), handler))

    @staticmethod
    def _match(segments: tuple[str, ...], path: str) -> dict[str, str] | None:
        parts = path.strip("/").split("/") if path.strip("/") else []
        if len(parts) != len(segments):
            return None
        params: dict[str, str] = {}
        for segment, part in zip(segments, parts):
            if segment.startswith("{") and segment.endswith("}"):
                if not part:
                    return None
                params[segment[1:-1]] = part
            elif segment != part:
                return None
        return params

    async def dispatch(
        self, request: Request, ctx: ServeContext
    ) -> Response | StreamingResponse:
        """Route a request: 404 unknown path, 405 known path wrong method.

        ``HEAD`` is served through the matching ``GET`` handler with the
        body stripped by the server, per RFC 9110.
        """
        method = "GET" if request.method == "HEAD" else request.method
        allowed: list[str] = []
        for route_method, segments, handler in self._routes:
            params = self._match(segments, request.path)
            if params is None:
                continue
            if route_method == method:
                return await handler(request, params, ctx)
            allowed.append(route_method)
        if allowed:
            raise HttpError(
                405,
                f"{request.method} not allowed on {request.path} "
                f"(allowed: {', '.join(sorted(set(allowed)))})",
                close=False,
            )
        raise HttpError(404, f"no such resource: {request.path}", close=False)


# -- handlers ------------------------------------------------------------------


async def handle_health(request: Request, params: dict[str, str], ctx: ServeContext) -> Response:
    """``GET /v1/health`` — liveness, never builds the scenario.

    With server state attached the probe doubles as an SLO check:
    uptime, start time, package version, active connections, and 1m/5m
    rolling-window snapshots (RPS, p50/p99 latency, error rate, SLO
    burn).
    """
    payload = ctx.service.health_payload()
    state = ctx.state
    if state is not None:
        payload["uptime_seconds"] = round(state.uptime_s(), 3)
        payload["started_at"] = state.started_at_iso()
        payload["active_connections"] = state.active_connections
        if state.windows is not None:
            payload["slo"] = {
                "1m": state.windows.snapshot(60).to_dict(),
                "5m": state.windows.snapshot(300).to_dict(),
            }
    return Response(body=canonical_json(payload))


def _window_gauges(state: ServerState) -> dict[str, float]:
    """Point-in-time serve gauges that live outside the registry."""
    gauges: dict[str, float] = {
        "serve.active_connections": float(state.active_connections),
        "serve.uptime_s": state.uptime_s(),
    }
    if state.windows is not None:
        for window_s, label in ((60, "1m"), (300, "5m")):
            snap = state.windows.snapshot(window_s)
            gauges[f"serve.window.rps.{label}"] = snap.rps
            gauges[f"serve.window.error_rate.{label}"] = snap.error_rate
            gauges[f"serve.window.slo_burn.{label}"] = snap.slo_burn
            if snap.p50_s is not None:
                gauges[f"serve.window.p50_s.{label}"] = snap.p50_s
            if snap.p99_s is not None:
                gauges[f"serve.window.p99_s.{label}"] = snap.p99_s
    return gauges


async def handle_metrics(request: Request, params: dict[str, str], ctx: ServeContext) -> Response:
    """``GET /v1/metrics`` — the live registry in Prometheus exposition.

    Renders whatever the active registry has accumulated (``serve.*``,
    ``cache.*``, ``pool.*``, plus the deterministic pipeline families),
    with rolling-window rates and connection counts riding along as
    extra gauges. A disabled registry renders its (empty) contents
    rather than erroring, so the endpoint is always scrape-safe.
    """
    registry = metrics()
    extra = _window_gauges(ctx.state) if ctx.state is not None else None
    body = render_exposition(registry, extra_gauges=extra)
    return Response(body=body, content_type=EXPO_CONTENT_TYPE)


async def handle_config(request: Request, params: dict[str, str], ctx: ServeContext) -> Response:
    """``GET /v1/config`` — scenario hash, worker count, cache stats."""
    return Response(body=canonical_json(ctx.service.config_payload()))


async def handle_day(request: Request, params: dict[str, str], ctx: ServeContext) -> Response:
    """``GET /v1/days/{date}`` — per-day observed + attack aggregates."""
    service = ctx.service
    vantage = request.param("vantage")
    key = ("day", params["date"], vantage or "ixp")
    body = await cached_payload_bytes(
        ctx, key, lambda: service.day_payload(params["date"], vantage)
    )
    return Response(body=body)


async def handle_series(request: Request, params: dict[str, str], ctx: ServeContext) -> Response:
    """``GET /v1/series/takedown`` — daily selector series over a range."""
    service = ctx.service
    config = service.scenario_config
    default_start = str(date_of(max(0, config.takedown_day - 10)))
    default_end = str(
        date_of(min(config.n_days - 1, config.takedown_day + 10))
    )
    start = request.param("start", default_start)
    end = request.param("end", default_end)
    selectors = request.param("selectors")
    window = request.param("window")
    vantage = request.param("vantage")
    key = ("series", start, end, vantage or "ixp", selectors, window)
    body = await cached_payload_bytes(
        ctx,
        key,
        lambda: service.series_payload(start, end, vantage, selectors, window),
    )
    return Response(body=body)


async def handle_victims(request: Request, params: dict[str, str], ctx: ServeContext) -> Response:
    """``GET /v1/victims/top`` — top-N victims by renormalized peak Gbps."""
    service = ctx.service
    config = service.scenario_config
    date = request.param("date", str(date_of(config.takedown_day - 1)))
    vantage = request.param("vantage")
    top = request.param("top")
    key = ("victims", date, vantage or "ixp", top or "10")
    body = await cached_payload_bytes(
        ctx, key, lambda: service.victims_payload(date, vantage, top)
    )
    return Response(body=body)


async def handle_events_stream(
    request: Request, params: dict[str, str], ctx: ServeContext
) -> StreamingResponse:
    """``GET /v1/events/stream`` — SSE replay of a day range's attacks."""
    service = ctx.service
    config = service.scenario_config
    start = request.param("start", str(date_of(config.takedown_day - 1)))
    end = request.param("end", str(date_of(config.takedown_day)))
    # Parse up front so malformed ranges 400 before the stream commits a
    # 200 status line.
    start_day = service.parse_day(start)
    end_day = service.parse_day(end)
    if end_day < start_day:
        raise HttpError(400, f"end {end} precedes start {start}", close=False)
    try:
        limit = int(request.param("limit", str(MAX_STREAM_EVENTS)))
    except ValueError:
        raise HttpError(400, "invalid limit", close=False) from None
    limit = max(1, min(limit, MAX_STREAM_EVENTS))

    async def chunks() -> AsyncIterator[bytes]:
        yield sse.RETRY_PREAMBLE
        sent = 0
        for day in range(start_day, end_day + 1):
            key = ("events", day)
            # A cold day can take seconds to compute; keep the idle
            # stream alive with comment heartbeats so proxies and client
            # read timeouts don't drop the connection meanwhile. The task
            # is never cancelled: a client that hangs up leaves the shared
            # flight running for the other waiters, and the result lands
            # in the day cache.
            task = asyncio.ensure_future(
                cached_payload_bytes(
                    ctx, key, lambda day=day: service.day_events_payload(day)
                )
            )
            while True:
                done, _ = await asyncio.wait({task}, timeout=SSE_HEARTBEAT_S)
                if done:
                    raw = task.result()
                    break
                yield sse.format_comment("heartbeat")
                metrics().inc("serve.sse_heartbeats")
            events = json.loads(raw)
            yield sse.format_comment(f"day {date_of(day)} ({len(events)} events)")
            for i, event in enumerate(events):
                yield sse.format_event(event, event="attack", event_id=f"{day}-{i}")
                sent += 1
                metrics().inc("serve.sse_events")
                if sent >= limit:
                    break
            if sent >= limit:
                break
        yield sse.format_event({"events_sent": sent}, event="end")

    return StreamingResponse(chunks=chunks())


def build_router() -> Router:
    """The default endpoint table."""
    router = Router()
    router.add("GET", "/v1/health", handle_health)
    router.add("GET", "/v1/metrics", handle_metrics)
    router.add("GET", "/v1/config", handle_config)
    router.add("GET", "/v1/days/{date}", handle_day)
    router.add("GET", "/v1/series/takedown", handle_series)
    router.add("GET", "/v1/victims/top", handle_victims)
    router.add("GET", "/v1/events/stream", handle_events_stream)
    return router
