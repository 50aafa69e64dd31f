"""Live telemetry plane acceptance tests over real sockets.

The three acceptance criteria of the telemetry PR, end to end:

* ``/v1/metrics`` serves Prometheus text exposition that passes the
  strict conformance validator (every line parses, histogram buckets
  cumulative/monotone, ``_sum``/``_count`` consistent);
* a request id recorded in the JSONL access log resolves to pool-worker
  spans in the exported Perfetto trace (the id crosses the serve →
  single-flight → workerpool boundary);
* the deterministic-counter drift digest is byte-identical with full
  telemetry on vs off, and so are the payload bytes.

Plus the middleware satellites: extended ``/v1/health``, ``X-Request-Id``
echo, SSE heartbeats, and the ``repro-obs top`` dashboard against a live
server.
"""

import asyncio
import contextlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.core.parallel import day_cache
from repro.core.workerpool import shutdown_pool
from repro.experiments.base import ExperimentConfig
from repro.obs import (
    MetricsRegistry,
    TraceRecorder,
    chrome_trace_events,
    counter_digest,
    use_metrics,
    validate_exposition,
)
from repro.obs import cli as obs_cli
from repro.serve import routes as routes_module
from repro.serve.routes import ServerState
from repro.serve.server import ACCESS_LOG_FLUSH_S, AccessLog, ObservatoryServer, _exchange_line
from repro.serve.service import ObservatoryService

SERIES_QUERY = "/v1/series/takedown?start=2018-12-17&end=2018-12-21"


def _config(jobs: int = 1) -> ExperimentConfig:
    return ExperimentConfig(preset="small", seed=2018, jobs=jobs)


@pytest.fixture(autouse=True)
def _fresh_day_cache():
    """Every test starts cold: the day cache is a process-wide singleton."""
    day_cache().clear()
    day_cache().attach_disk(None)
    yield
    day_cache().clear()
    day_cache().attach_disk(None)
    shutdown_pool()


@contextlib.contextmanager
def _live_server(config: ExperimentConfig | None = None, **server_kwargs):
    """Boot a server in a background thread; yield its base URL."""
    service = ObservatoryService(config or _config())
    started = threading.Event()
    holder: dict = {}

    async def run() -> None:
        server = ObservatoryServer(service, **server_kwargs)
        await server.start()
        holder["loop"] = asyncio.get_running_loop()
        holder["port"] = server.port
        holder["server"] = server
        forever = asyncio.ensure_future(server.serve_forever())
        holder["task"] = forever
        started.set()
        try:
            await forever
        except asyncio.CancelledError:
            pass
        finally:
            await server.aclose()

    thread = threading.Thread(target=lambda: asyncio.run(run()), daemon=True)
    thread.start()
    assert started.wait(60), "server failed to start"
    try:
        yield f"http://127.0.0.1:{holder['port']}", holder["server"]
    finally:
        holder["loop"].call_soon_threadsafe(holder["task"].cancel)
        thread.join(30)


def _line(request_id: str) -> str:
    """An access-log line for a 200 ``/v1/health`` exchange."""
    return _exchange_line(1760000000.0, request_id, "127.0.0.1", "GET", "/v1/health", 200, 0.001, 2)


def _get(url: str, headers: dict | None = None) -> tuple[int, dict, bytes]:
    request = urllib.request.Request(url, headers=headers or {})
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.status, dict(response.headers), response.read()


class TestMetricsEndpoint:
    def test_exposition_conformance_over_a_real_socket(self):
        registry = MetricsRegistry(enabled=True)
        with use_metrics(registry), _live_server() as (base, _):
            _get(f"{base}/v1/health")
            _get(f"{base}/v1/days/2018-12-18")
            status, headers, body = _get(f"{base}/v1/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        families = validate_exposition(body.decode())
        assert families["serve_requests_total"].value() >= 2
        assert families["serve_latency_s"].type == "histogram"
        # The rolling-window gauges ride along from the server state.
        assert "serve_uptime_s" in families
        assert "serve_window_rps_1m" in families

    def test_scrape_safe_with_disabled_registry(self):
        with _live_server() as (base, _):
            status, _, body = _get(f"{base}/v1/metrics")
        assert status == 200
        validate_exposition(body.decode())  # may be empty, must be valid


class TestHealthExtensions:
    def test_health_reports_uptime_version_connections_and_slo(self):
        with _live_server() as (base, _):
            _get(f"{base}/v1/health")  # prime the rolling window
            _, _, body = _get(f"{base}/v1/health")
        payload = json.loads(body)
        from repro import __version__

        assert payload["version"] == __version__
        assert payload["uptime_seconds"] >= 0
        assert payload["started_at"].endswith("Z")
        assert payload["active_connections"] >= 1  # this very request
        assert set(payload["slo"]) == {"1m", "5m"}
        assert payload["slo"]["1m"]["requests"] >= 1
        assert payload["slo"]["1m"]["error_rate"] == 0


class TestRequestIds:
    def test_every_response_carries_a_request_id(self):
        with _live_server() as (base, _):
            _, first, _ = _get(f"{base}/v1/health")
            _, second, _ = _get(f"{base}/v1/health")
        assert first["X-Request-Id"]
        assert second["X-Request-Id"]
        assert first["X-Request-Id"] != second["X-Request-Id"]

    def test_client_supplied_id_is_honored(self):
        with _live_server() as (base, _):
            _, headers, _ = _get(
                f"{base}/v1/health", headers={"X-Request-Id": "my-trace-0042"}
            )
        assert headers["X-Request-Id"] == "my-trace-0042"

    def test_malformed_client_id_is_replaced(self):
        with _live_server() as (base, _):
            _, headers, _ = _get(
                f"{base}/v1/health", headers={"X-Request-Id": "bad id with spaces"}
            )
        assert headers["X-Request-Id"] != "bad id with spaces"


class TestAccessLog:
    def test_one_wellformed_line_per_request(self, tmp_path):
        log_path = tmp_path / "access.jsonl"
        with _live_server(access_log=AccessLog(log_path)) as (base, _):
            _, headers, _ = _get(f"{base}/v1/health")
            _get(f"{base}/v1/config")
        lines = [json.loads(l) for l in log_path.read_text().splitlines()]
        assert len(lines) == 2
        by_target = {line["target"]: line for line in lines}
        health = by_target["/v1/health"]
        assert health["request_id"] == headers["X-Request-Id"]
        assert health["status"] == 200
        assert health["method"] == "GET"
        assert health["latency_ms"] >= 0
        assert health["bytes"] > 0
        assert health["client"] == "127.0.0.1"

    def test_lines_reach_the_file_while_the_server_runs(self, tmp_path):
        """Lines are buffered, but flushed within ACCESS_LOG_FLUSH_S of a write."""
        log_path = tmp_path / "access.jsonl"
        with _live_server(access_log=AccessLog(log_path)) as (base, _):
            _get(f"{base}/v1/health")
            deadline = time.monotonic() + 10
            while not log_path.read_text() and time.monotonic() < deadline:
                time.sleep(ACCESS_LOG_FLUSH_S)
            assert json.loads(log_path.read_text())["target"] == "/v1/health"

    def test_sigterm_flushes_the_log_and_writes_the_trace(self, tmp_path):
        """``kill PID`` stops repro-serve cleanly: no buffered line is lost."""
        log_path, trace_path = tmp_path / "access.jsonl", tmp_path / "trace.json"
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.serve.server", "--port", "0",
                "--access-log", str(log_path),
                "--trace-out", str(trace_path),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
        )
        try:
            ready = proc.stdout.readline()
            assert ready.startswith("SERVE_READY "), ready
            status, headers, _ = _get(f"{ready.split()[1]}/v1/health")
            assert status == 200
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        (line,) = log_path.read_text().splitlines()
        record = json.loads(line)
        assert record["target"] == "/v1/health"
        assert record["request_id"] == headers["X-Request-Id"]
        assert trace_path.exists()

    def test_exchange_line_is_canonical_json(self):
        target = '/v1/days/2018-12-18?q="\\é\n'
        line = _exchange_line(1760000000.1234567, "id-1", "::1", "GET", target, 404, 0.00123456, None)
        record = json.loads(line)
        assert list(record) == sorted(record)
        assert record == {
            "bytes": None,
            "client": "::1",
            "latency_ms": 1.235,
            "method": "GET",
            "request_id": "id-1",
            "status": 404,
            "target": target,
            "ts": 1760000000.123457,
        }
        assert line.isascii() and " " not in line.replace(target, "")

    def test_rotates_by_size_with_no_partial_lines(self, tmp_path):
        log_path = tmp_path / "access.jsonl"
        log = AccessLog(log_path, max_bytes=400)
        try:
            for i in range(50):
                log.write_line(_line(f"req-{i:04d}"))
        finally:
            log.close()
        assert log.rotations > 0
        rotated = log_path.with_name(log_path.name + ".1")
        assert rotated.exists()
        # Every surviving line is complete, parseable JSON...
        current = [json.loads(l) for l in log_path.read_text().splitlines()]
        previous = [json.loads(l) for l in rotated.read_text().splitlines()]
        assert current and previous
        # ...files respect the byte bound (a single line may start a file)...
        assert len(log_path.read_bytes()) <= 400
        assert len(rotated.read_bytes()) <= 400
        # ...and the two generations hold the most recent contiguous tail.
        ids = [line["request_id"] for line in previous + current]
        assert ids == [f"req-{i:04d}" for i in range(50 - len(ids), 50)]

    def test_unbounded_by_default_and_rejects_negative(self, tmp_path):
        log_path = tmp_path / "access.jsonl"
        log = AccessLog(log_path)
        try:
            for i in range(100):
                log.write_line(_line(str(i)))
        finally:
            log.close()
        assert log.rotations == 0
        assert not log_path.with_name(log_path.name + ".1").exists()
        assert len(log_path.read_text().splitlines()) == 100
        with pytest.raises(ValueError):
            AccessLog(log_path, max_bytes=-1)

    def test_rotation_preserves_size_accounting_across_reopen(self, tmp_path):
        """A reopened log appends (tell() seeds the size), then rotates."""
        log_path = tmp_path / "access.jsonl"
        first = AccessLog(log_path, max_bytes=200)
        first.write_line(_line("old-0"))
        first.close()
        log = AccessLog(log_path, max_bytes=200)
        try:
            for i in range(20):
                log.write_line(_line(f"new-{i}"))
        finally:
            log.close()
        assert log.rotations > 0
        assert len(log_path.read_bytes()) <= 200


class TestRequestTraceCorrelation:
    """Acceptance: an access-log request id resolves to pool-worker spans."""

    def test_access_log_id_reaches_pool_worker_spans(self, tmp_path):
        log_path = tmp_path / "access.jsonl"
        registry = MetricsRegistry(enabled=True, trace=TraceRecorder())
        config = _config(jobs=2)
        with use_metrics(registry):
            with _live_server(config, access_log=AccessLog(log_path)) as (base, _):
                status, headers, _ = _get(base + SERIES_QUERY)
        assert status == 200
        request_id = headers["X-Request-Id"]
        log_line = json.loads(log_path.read_text().splitlines()[0])
        assert log_line["request_id"] == request_id

        events = chrome_trace_events(registry.trace)
        tagged = [
            e for e in events if e.get("args", {}).get("request_id") == request_id
        ]
        names = {e["name"] for e in tagged}
        # The exchange event itself...
        assert "serve.request" in names
        # ...and spans that ran inside pool worker processes: the id
        # crossed the serve -> single-flight -> workerpool boundary.
        worker_names = {n for n in names if n.startswith(("scenario.", "streaming."))}
        assert worker_names, f"no pool-worker spans carried {request_id}: {names}"
        exchange = next(e for e in tagged if e["name"] == "serve.request")
        assert exchange["args"]["status"] == 200
        assert exchange["args"]["path"] == "/v1/series/takedown"
        # Worker spans really ran in other processes than the server's.
        worker_pids = {
            e["pid"] for e in tagged if e["name"] in worker_names
        }
        assert worker_pids and exchange["pid"] not in worker_pids


class TestDigestUnchangedByTelemetry:
    """Acceptance: the drift digest is identical with telemetry on vs off."""

    def test_digest_and_payload_bytes_identical(self, tmp_path):
        results = {}
        for mode in ("off", "on"):
            day_cache().clear()
            shutdown_pool()
            registry = (
                MetricsRegistry(enabled=True, trace=TraceRecorder())
                if mode == "on"
                else MetricsRegistry(enabled=True)
            )
            kwargs = (
                {"access_log": AccessLog(tmp_path / "on.jsonl")}
                if mode == "on"
                else {"state": ServerState(windows=None)}
            )
            with use_metrics(registry):
                with _live_server(_config(), **kwargs) as (base, _):
                    _, _, body = _get(base + SERIES_QUERY)
            results[mode] = (counter_digest(registry.counters), body)
        assert results["on"][0] == results["off"][0]
        assert results["on"][1] == results["off"][1]


class TestSseHeartbeat:
    def test_idle_stream_emits_comment_heartbeats(self, monkeypatch):
        monkeypatch.setattr(routes_module, "SSE_HEARTBEAT_S", 0.05)

        def slow_events(self, day):
            time.sleep(0.35)
            return []

        monkeypatch.setattr(ObservatoryService, "day_events_payload", slow_events)
        with _live_server() as (base, _):
            _, _, body = _get(
                f"{base}/v1/events/stream?start=2018-12-18&end=2018-12-18"
            )
        text = body.decode()
        assert text.count(": heartbeat") >= 2
        assert "event: end" in text


class TestTopDashboard:
    def test_renders_live_frames_and_exits_clean(self, capsys):
        registry = MetricsRegistry(enabled=True)
        with use_metrics(registry), _live_server() as (base, _):
            _get(f"{base}/v1/health")
            code = obs_cli.main(
                ["top", base, "--iterations", "2", "--interval", "0.1", "--no-clear"]
            )
        assert code == 0
        out = capsys.readouterr().out
        assert "repro observatory" in out
        assert "traffic" in out and "cache tiers" in out and "pool" in out
        assert out.count("latency") == 2  # one frame per iteration

    def test_unreachable_server_exits_with_error(self):
        code = obs_cli.main(
            ["top", "http://127.0.0.1:9/", "--iterations", "1", "--timeout", "0.5"]
        )
        assert code == obs_cli.EXIT_ERROR
