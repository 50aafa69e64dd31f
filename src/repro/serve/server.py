"""The observatory HTTP server and its ``repro-serve`` CLI.

:class:`ObservatoryServer` wires the pieces together over
``asyncio.start_server``: each connection runs a keep-alive loop of
:func:`~repro.serve.http.read_request` → rate-limit check → router
dispatch → response write. Handler work that touches the pipeline runs
in worker threads behind a bounded semaphore, coalesced per key by the
single-flight table, so the event loop never blocks and N identical
concurrent misses cost one compute.

Failure containment is the point of the loop structure: a crashed
handler answers 500 and the connection (and accept loop) live on; a
protocol violation answers with its specific status and only drops the
connection when resynchronization is impossible; a stalled client is
timed out with 408 so slow-loris connections cannot pin resources.

Every exchange is instrumented through :mod:`repro.obs`:
``serve.requests``, ``serve.responses.<status>``, ``serve.errors``,
``serve.slow_clients``, and the ``serve.latency_s`` histogram
(sub-millisecond buckets — warm responses live there), next to the
``serve.cache_tier.*`` and ``serve.singleflight_*`` counters the lower
layers record. Each request additionally gets a request id (honoring an
inbound ``X-Request-Id``) that is echoed in the response headers,
written to the JSONL access log (``--access-log``), and bound to the
request's context so every trace event it causes — down to pool-worker
spans — carries it (see :mod:`repro.obs.trace`).
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import logging
import os
import re
import signal
import threading
import time
from json.encoder import encode_basestring_ascii
from pathlib import Path

from repro.core.diskcache import DEFAULT_MAX_BYTES, DiskDayCache
from repro.core.parallel import day_cache
from repro.core.workerpool import EXECUTORS, set_execution_policy, shutdown_pool
from repro.experiments.base import ExperimentConfig
from repro.logutil import LOG_LEVELS, configure_cli_logging
from repro.obs import MetricsRegistry, TraceRecorder, metrics, set_metrics, write_chrome_trace
from repro.obs.metrics import FINE_LATENCY_BUCKETS
from repro.obs.trace import reset_request_id, set_request_id
from repro.obs.window import RollingWindow
from repro.serve.http import (
    HttpError,
    HttpLimits,
    Request,
    Response,
    SlowClient,
    read_request,
    write_response,
)
from repro.serve.ratelimit import RateLimiter
from repro.serve.routes import Router, ServeContext, ServerState, StreamingResponse, build_router
from repro.serve.service import ObservatoryService, canonical_json

__all__ = ["AccessLog", "ObservatoryServer", "main"]

#: Inbound ``X-Request-Id`` values outside this shape are replaced with a
#: server-generated id (they would corrupt log lines or trace args).
_REQUEST_ID_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")

#: The server flushes buffered access-log lines this many seconds after
#: the first unflushed write, and on close: the log stays tail-able
#: without a write syscall on every request's path.
ACCESS_LOG_FLUSH_S = 0.05


def _exchange_line(
    ts: float,
    request_id: str,
    client: str,
    method: str,
    target: str,
    status: int,
    latency_s: float,
    body_bytes: int | None,
) -> str:
    """One exchange as a canonical access-log line (without the newline).

    A JSON object with sorted keys and tight separators, strings escaped
    as ``json.dumps`` escapes them, ``ts`` (epoch seconds) and
    ``latency_ms`` in fixed point to the microsecond. It is formatted
    field by field: the general encoder, and rounding floats before
    printing them, cost several times as much on every request's path.
    """
    return (
        f'{{"bytes":{"null" if body_bytes is None else body_bytes},'
        f'"client":{encode_basestring_ascii(client)},"latency_ms":{latency_s * 1e3:.3f},'
        f'"method":{encode_basestring_ascii(method)},'
        f'"request_id":{encode_basestring_ascii(request_id)},"status":{status},'
        f'"target":{encode_basestring_ascii(target)},"ts":{ts:.6f}}}'
    )


class AccessLog:
    """Structured JSONL access log: one canonical line per exchange.

    Each line carries the request id, client, method, target, status,
    latency, and response size — the same id the response echoes in
    ``X-Request-Id`` and the trace events carry, so one grep connects an
    access-log line to its Perfetto spans. Writes are serialized under a
    lock and buffered until :meth:`flush` or :meth:`close`; the server
    flushes within :data:`ACCESS_LOG_FLUSH_S` of a write (tail-able) and
    when it closes.

    With ``max_bytes > 0`` the log rotates by size: when a write would
    push the file past the limit, the current file is atomically renamed
    to ``<path>.1`` (replacing any previous ``.1``) and a fresh file
    opened — one generation of history, bounded disk, no partial lines
    in either file.
    """

    def __init__(self, path: str | Path, max_bytes: int = 0) -> None:
        if max_bytes < 0:
            raise ValueError("max_bytes cannot be negative")
        self.path = Path(path)
        self.max_bytes = int(max_bytes)
        self.rotations = 0
        self._fh = open(self.path, "a", encoding="utf-8")
        self._size = self._fh.tell()
        self._lock = threading.Lock()

    def _rotate_locked(self) -> None:
        self._fh.close()
        os.replace(self.path, self.path.with_name(self.path.name + ".1"))
        self._fh = open(self.path, "a", encoding="utf-8")
        self._size = 0
        self.rotations += 1

    def write_line(self, line: str) -> None:
        """Append one :func:`_exchange_line`, given without its newline."""
        line += "\n"
        with self._lock:
            if (
                self.max_bytes
                and self._size
                and self._size + len(line) > self.max_bytes
            ):
                self._rotate_locked()
            self._fh.write(line)
            self._size += len(line)

    def flush(self) -> None:
        """Push buffered lines to the file."""
        with self._lock:
            if not self._fh.closed:
                self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.close()

_log = logging.getLogger("repro.serve.server")


def _error_response(
    status: int,
    detail: str,
    *,
    close: bool,
    headers: tuple[tuple[str, str], ...] = (),
) -> Response:
    """A canonical-JSON error body: ``{"error": {"detail", "status"}}``."""
    body = canonical_json({"error": {"status": status, "detail": detail}})
    return Response(status=status, body=body, headers=headers, close=close)


class ObservatoryServer:
    """Asyncio HTTP server over an :class:`ObservatoryService`.

    ``port=0`` binds an ephemeral port (read it back from :attr:`port`
    after :meth:`start`), which is how the tests and the CI smoke step
    run without reserving anything.
    """

    def __init__(
        self,
        service: ObservatoryService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        limits: HttpLimits | None = None,
        rate_limiter: RateLimiter | None = None,
        compute_slots: int = 1,
        router: Router | None = None,
        access_log: AccessLog | None = None,
        state: ServerState | None = None,
    ) -> None:
        self.service = service
        self.host = host
        self._requested_port = port
        self.limits = limits or HttpLimits()
        self.rate_limiter = rate_limiter
        self.router = router or build_router()
        if state is None:
            state = ServerState(windows=RollingWindow())
        if access_log is not None:
            state.access_log = access_log
        self.state = state
        semaphore = asyncio.Semaphore(compute_slots) if compute_slots > 0 else None
        self.ctx = ServeContext(service=service, compute_semaphore=semaphore, state=state)
        self._server: asyncio.AbstractServer | None = None
        # Request ids: a short boot-unique prefix plus a counter, e.g.
        # "3f2a1c-000007" — unique per server lifetime and cheap.
        self._rid_prefix = os.urandom(3).hex()
        self._rid_counter = itertools.count(1)
        self._log_flush: asyncio.TimerHandle | None = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections.

        Pool-backed configs fork their workers here, before the first
        client connection exists — forked workers must never inherit a
        live connection fd (the peer would never see EOF on close).
        """
        if self._server is not None:
            raise RuntimeError("server already started")
        warm = getattr(self.service, "warm_pool", None)
        if warm is not None:
            await asyncio.to_thread(warm)
        self._server = await asyncio.start_server(
            self._client_connected,
            self.host,
            self._requested_port,
            # The stream limit bounds readuntil() for the request head, so
            # an endless header stream fails fast as 431 instead of
            # buffering without bound.
            limit=self.limits.max_head_bytes,
        )

    @property
    def port(self) -> int:
        """The bound port (resolves ephemeral ``port=0`` bindings)."""
        if self._server is None:
            raise RuntimeError("server not started")
        return self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            raise RuntimeError("server not started")
        await self._server.serve_forever()

    async def aclose(self) -> None:
        """Stop accepting, close the listening sockets, flush the access log."""
        self._flush_access_log()
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None

    async def __aenter__(self) -> "ObservatoryServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()

    # -- connection handling -------------------------------------------------

    async def _client_connected(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One keep-alive connection: read requests until close or error."""
        peer = writer.get_extra_info("peername")
        client = peer[0] if isinstance(peer, tuple) else str(peer)
        self.state.active_connections += 1
        try:
            while True:
                keep_going = await self._one_exchange(reader, writer, client)
                if not keep_going:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass  # peer went away mid-write; nothing left to tell it
        except Exception:  # pragma: no cover - last-resort containment
            _log.exception("unexpected error on connection from %s", client)
            metrics().inc("serve.errors")
        finally:
            self.state.active_connections -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _one_exchange(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        client: str,
    ) -> bool:
        """Serve one request/response; returns whether to keep the connection."""
        registry = metrics()
        try:
            request = await read_request(reader, self.limits)
        except SlowClient:
            registry.inc("serve.slow_clients")
            await self._respond(
                writer, None, _error_response(408, "request timed out", close=True)
            )
            return False
        except HttpError as exc:
            response = _error_response(exc.status, exc.detail, close=exc.close)
            await self._respond(writer, None, response)
            return not exc.close
        if request is None:
            return False  # clean EOF between requests

        registry.inc("serve.requests")
        request_id = self._request_id(request)
        token = set_request_id(request_id)
        start = time.monotonic()
        start_perf = time.perf_counter()
        try:
            if self.rate_limiter is not None and not self.rate_limiter.allow(client):
                registry.inc("serve.rate_limited")
                response: Response | StreamingResponse = _error_response(
                    429,
                    "per-client rate limit exceeded",
                    close=False,
                    headers=(("Retry-After", "1"),),
                )
            else:
                response = await self._dispatch(request)
            response.headers = response.headers + (("X-Request-Id", request_id),)
            if isinstance(response, StreamingResponse):
                keep = await self._respond_streaming(writer, request, response)
            else:
                if not request.keep_alive:
                    response.close = True
                keep = await self._respond(writer, request, response)
        finally:
            reset_request_id(token)
        latency = time.monotonic() - start
        registry.observe("serve.latency_s", latency, buckets=FINE_LATENCY_BUCKETS)
        if self.state.windows is not None:
            self.state.windows.record(latency, error=response.status >= 500)
        if registry.trace is not None:
            # Recorded after the reset on purpose: the id is already in
            # args explicitly, and the exchange event must carry *this*
            # request's id, not a successor's.
            registry.trace.record(
                "serve.request",
                start_perf,
                time.perf_counter() - start_perf,
                {
                    "request_id": request_id,
                    "method": request.method,
                    "path": request.path,
                    "status": response.status,
                },
            )
        if self.state.access_log is not None:
            body_bytes = len(response.body) if isinstance(response, Response) else None
            self.state.access_log.write_line(
                _exchange_line(
                    time.time(),
                    request_id,
                    client,
                    request.method,
                    request.target,
                    response.status,
                    latency,
                    body_bytes,
                )
            )
            if self._log_flush is None:
                self._log_flush = asyncio.get_running_loop().call_later(
                    ACCESS_LOG_FLUSH_S, self._flush_access_log
                )
        return keep

    def _flush_access_log(self) -> None:
        if self._log_flush is not None:
            self._log_flush.cancel()
            self._log_flush = None
        if self.state.access_log is not None:
            self.state.access_log.flush()

    def _request_id(self, request: Request) -> str:
        """This request's id: the client's well-formed one, else fresh."""
        supplied = request.headers.get("x-request-id")
        if supplied is not None and _REQUEST_ID_RE.match(supplied):
            return supplied
        return f"{self._rid_prefix}-{next(self._rid_counter):06d}"

    async def _dispatch(self, request: Request) -> Response | StreamingResponse:
        """Route one request; never lets a handler crash the connection."""
        try:
            return await self.router.dispatch(request, self.ctx)
        except HttpError as exc:
            return _error_response(exc.status, exc.detail, close=exc.close)
        except Exception:
            _log.exception("handler failed: %s %s", request.method, request.target)
            metrics().inc("serve.errors")
            return _error_response(500, "internal server error", close=False)

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        request: Request | None,
        response: Response,
    ) -> bool:
        """Write a buffered response; returns whether to keep the connection."""
        metrics().inc(f"serve.responses.{response.status}")
        if request is not None and request.method == "HEAD" and response.body:
            # HEAD answers with GET's headers (including the length the
            # GET body would have) and no body, per RFC 9110.
            response = Response(
                status=response.status,
                body=b"",
                content_type=response.content_type,
                headers=response.headers
                + (
                    ("Content-Length", str(len(response.body))),
                    ("Content-Type", response.content_type),
                ),
                close=response.close,
            )
        try:
            await write_response(writer, response)
        except (ConnectionResetError, BrokenPipeError):
            return False
        return not response.close

    async def _respond_streaming(
        self,
        writer: asyncio.StreamWriter,
        request: Request,
        response: StreamingResponse,
    ) -> bool:
        """Write a chunk stream (SSE); the connection always closes after.

        Without a Content-Length the end of the body can only be
        signalled by closing the connection, so streaming responses are
        terminal for their connection.
        """
        metrics().inc(f"serve.responses.{response.status}")
        head_lines = [
            f"HTTP/1.1 {response.status} OK",
            f"Content-Type: {response.content_type}",
            "Connection: close",
        ]
        head_lines.extend(f"{name}: {value}" for name, value in response.headers)
        writer.write(("\r\n".join(head_lines) + "\r\n\r\n").encode("latin-1"))
        try:
            await writer.drain()
            if request.method == "HEAD":
                return False
            async for chunk in response.chunks:
                writer.write(chunk)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # client hung up mid-stream; normal for EventSource
        return False


# -- CLI -----------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve the booter-takedown observatory over HTTP "
        "(health, per-day aggregates, takedown series, victim stats, "
        "SSE event replay) resolved through the day cache tiers.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port",
        type=int,
        default=8321,
        help="TCP port to bind (0 = pick an ephemeral port and print it)",
    )
    parser.add_argument("--preset", choices=("small", "paper"), default="small")
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for day computation (0 = all cores)",
    )
    parser.add_argument(
        "--executor",
        choices=EXECUTORS,
        default="process",
        help="how cache misses compute: warm process pool, thread pool, "
        "or inline (payloads are byte-identical across modes)",
    )
    parser.add_argument("--batch-days", dest="batch_days", type=int, default=0)
    parser.add_argument("--day-shards", dest="day_shards", type=int, default=1)
    parser.add_argument(
        "--cache-dir",
        dest="cache_dir",
        metavar="PATH",
        help="attach the persistent disk cache tier at PATH",
    )
    parser.add_argument(
        "--cache-max-bytes",
        dest="cache_max_bytes",
        type=int,
        default=DEFAULT_MAX_BYTES,
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=None,
        metavar="R",
        help="per-client token-bucket rate limit, requests/second "
        "(default: unlimited)",
    )
    parser.add_argument(
        "--burst",
        type=float,
        default=None,
        metavar="B",
        help="token-bucket burst size (default: 2x --rate)",
    )
    parser.add_argument(
        "--compute-slots",
        dest="compute_slots",
        type=int,
        default=1,
        metavar="N",
        help="concurrent pipeline computations (0 = unbounded); each one "
        "already parallelizes across --jobs workers internally",
    )
    parser.add_argument(
        "--read-timeout",
        dest="read_timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="per-read client timeout; stalled requests answer 408",
    )
    parser.add_argument(
        "--access-log",
        dest="access_log",
        metavar="PATH",
        help="append one JSONL record per request (request id, client, "
        "method, target, status, latency)",
    )
    parser.add_argument(
        "--access-log-max-bytes",
        dest="access_log_max_bytes",
        type=int,
        default=0,
        metavar="BYTES",
        help="rotate the access log when it would exceed this size "
        "(atomic rename to <path>.1, one generation kept; 0 = never rotate)",
    )
    parser.add_argument(
        "--trace-out",
        dest="trace_out",
        metavar="PATH",
        help="buffer request/pipeline trace events and write Perfetto-"
        "loadable Chrome trace JSON on shutdown (spans carry the same "
        "request ids as the access log)",
    )
    parser.add_argument(
        "--log-level", choices=LOG_LEVELS, default="info"
    )
    return parser


async def _run_server(args: argparse.Namespace, config: ExperimentConfig) -> int:
    service = ObservatoryService(config)
    limiter = RateLimiter(args.rate, args.burst) if args.rate else None
    access_log = (
        AccessLog(args.access_log, max_bytes=args.access_log_max_bytes)
        if args.access_log
        else None
    )
    server = ObservatoryServer(
        service,
        args.host,
        args.port,
        limits=HttpLimits(read_timeout_s=args.read_timeout),
        rate_limiter=limiter,
        compute_slots=args.compute_slots,
        access_log=access_log,
    )
    await server.start()
    # Machine-readable readiness line on stdout: the CI smoke step (and
    # anything else scripting an ephemeral-port server) parses this.
    print(f"SERVE_READY http://{args.host}:{server.port}", flush=True)
    _log.info(
        "observatory serving on http://%s:%d (preset=%s seed=%d executor=%s jobs=%d)",
        args.host,
        server.port,
        config.preset,
        config.seed,
        config.executor,
        config.jobs,
    )
    # SIGTERM (how process managers and CI stop a server) ends the serve
    # loop as Ctrl-C does, so the access log is flushed and closed, and
    # main() writes the trace and shuts the worker pool down.
    serving = asyncio.ensure_future(server.serve_forever())
    loop = asyncio.get_running_loop()
    loop.add_signal_handler(signal.SIGTERM, serving.cancel)
    try:
        await serving
    except asyncio.CancelledError:
        # Ctrl-C cancels this task itself (asyncio.run turns that into
        # KeyboardInterrupt for main); SIGTERM cancels only the loop.
        if asyncio.current_task().cancelling():
            raise
    finally:
        loop.remove_signal_handler(signal.SIGTERM)
        await server.aclose()
        if access_log is not None:
            access_log.close()
            _log.info("access log written to %s", access_log.path)
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point for ``repro-serve``."""
    parser = _parser()
    args = parser.parse_args(argv)
    # Out-of-range numbers are usage errors (exit 2), not tracebacks.
    try:
        config = ExperimentConfig(
            preset=args.preset,
            seed=args.seed,
            jobs=args.jobs,
            cache=True,
            cache_dir=args.cache_dir,
            executor=args.executor,
            batch_days=args.batch_days,
            day_shards=args.day_shards,
        )
        disk = None
        if args.cache_dir:
            disk = DiskDayCache(args.cache_dir, max_bytes=args.cache_max_bytes)
    except ValueError as exc:
        parser.error(str(exc))
    configure_cli_logging(args.log_level)
    trace = TraceRecorder() if args.trace_out else None
    set_metrics(MetricsRegistry(enabled=True, trace=trace))
    if disk is not None:
        day_cache().attach_disk(disk)
        _log.info(
            "disk cache attached at %s (%d entries)", disk.root, len(disk)
        )
    previous_policy = set_execution_policy(
        executor=args.executor,
        batch_days=args.batch_days,
        day_shards=args.day_shards,
    )
    try:
        return asyncio.run(_run_server(args, config))
    except KeyboardInterrupt:
        _log.info("interrupted; shutting down")
        return 0
    finally:
        set_execution_policy(previous_policy)
        shutdown_pool()
        if disk is not None:
            day_cache().attach_disk(None)
        if trace is not None:
            write_chrome_trace(trace, args.trace_out)
            _log.info("trace written to %s", args.trace_out)


if __name__ == "__main__":
    raise SystemExit(main())
