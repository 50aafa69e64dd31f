"""Route-level guarantees of the observatory server.

Three pillars:

* **Byte determinism** — ``/v1/series/takedown``, ``/v1/days/{date}``
  and ``/v1/victims/top`` answer with identical bytes whichever
  executor computed them (inline/thread/process) and whichever tier
  served them (cold compute vs disk-warm), pinned against committed
  golden digests like the experiment outputs are.
* **Single-flight coalescing** — the acceptance property: 100 concurrent
  clients asking for the same uncomputed day cost exactly one pipeline
  run (``serve.cache_tier.compute == 1``, ``serve.singleflight_hits ==
  99``) and receive bit-identical payloads; plus a hypothesis property
  over arbitrary waiter counts.
* **Concurrency safety** — hammering distinct-date requests through
  parallel compute slots exercises the day-cache and disk-cache locks
  end to end.

Refresh the golden after an intentional behaviour change with::

    PYTHONPATH=src python -m pytest tests/test_serve_routes.py --update-goldens
"""

import asyncio
import hashlib
import json
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.diskcache import DiskDayCache
from repro.core.parallel import day_cache
from repro.core.workerpool import shutdown_pool
from repro.experiments.base import ExperimentConfig
from repro.flows.records import FlowTable
from repro.obs import MetricsRegistry, metrics, use_metrics
from repro.serve.routes import ServeContext, cached_payload_bytes
from repro.serve.server import ObservatoryServer
from repro.serve.service import VANTAGES, ObservatoryService
from repro.timeutil import date_of

GOLDEN_PATH = Path(__file__).parent / "goldens" / "serve_small.json"
PAYLOADS_GOLDEN_PATH = Path(__file__).parent / "goldens" / "serve_payloads.json"

#: The series range under test: the 5 days straddling the takedown.
SERIES_QUERY = "/v1/series/takedown?start=2018-12-17&end=2018-12-21"

#: Days (relative to the takedown) and ``top`` sizes the payload golden pins.
PAYLOAD_OFFSETS = (-2, 0, 3)
PAYLOAD_TOPS = (1, 10, 1000)


def _config(executor: str = "inline", jobs: int = 1) -> ExperimentConfig:
    return ExperimentConfig(preset="small", seed=2018, jobs=jobs, executor=executor)


async def _http_get(port: int, path: str) -> tuple[int, bytes]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(f"GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n".encode())
        await writer.drain()
        head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), 30)
        status = int(head.split(b"\r\n")[0].split(b" ")[1])
        length = None
        for line in head.split(b"\r\n")[1:]:
            if line.lower().startswith(b"content-length:"):
                length = int(line.split(b":", 1)[1])
        if length is not None:
            body = await asyncio.wait_for(reader.readexactly(length), 30)
        else:
            body = await asyncio.wait_for(reader.read(-1), 30)  # SSE: until EOF
        return status, body
    finally:
        writer.close()


def _fetch_bytes(config: ExperimentConfig, queries: list[str]) -> dict[str, bytes]:
    """Boot a server for ``config``, GET each query in order, tear down."""

    async def run() -> dict[str, bytes]:
        service = ObservatoryService(config)
        server = ObservatoryServer(service, compute_slots=1)
        await server.start()
        try:
            bodies = {}
            for query in queries:
                status, body = await _http_get(server.port, query)
                assert status == 200, (query, body)
                bodies[query] = body
            return bodies
        finally:
            await server.aclose()

    try:
        return asyncio.run(run())
    finally:
        shutdown_pool()


def _fetch_series_bytes(config: ExperimentConfig) -> bytes:
    """Boot a server for ``config``, GET the series, tear down."""
    return _fetch_bytes(config, [SERIES_QUERY])[SERIES_QUERY]


def _payload_queries(config: ExperimentConfig) -> list[str]:
    """``/v1/days`` and ``/v1/victims/top`` at every vantage and pinned day."""
    takedown = config.scenario_config().takedown_day
    queries = []
    for offset in PAYLOAD_OFFSETS:
        date = date_of(takedown + offset)
        for vantage in VANTAGES:
            queries.append(f"/v1/days/{date}?vantage={vantage}")
            queries.extend(
                f"/v1/victims/top?date={date}&vantage={vantage}&top={top}"
                for top in PAYLOAD_TOPS
            )
    return queries


@pytest.fixture(scope="module")
def service():
    """One built small-preset service shared by the in-module tests."""
    return ObservatoryService(_config())


@pytest.fixture(autouse=True)
def _fresh_day_cache():
    """Every test starts cold: the day cache is a process-wide singleton."""
    day_cache().clear()
    day_cache().attach_disk(None)
    yield
    day_cache().clear()
    day_cache().attach_disk(None)


class TestSeriesByteDeterminism:
    def test_identical_across_executors_and_tiers_and_matches_golden(
        self, tmp_path, update_goldens
    ):
        payloads: dict[str, bytes] = {}
        for executor, jobs in (("inline", 1), ("thread", 2), ("process", 2)):
            day_cache().clear()
            payloads[executor] = _fetch_series_bytes(_config(executor, jobs))

        assert payloads["inline"] == payloads["thread"] == payloads["process"]

        # Cold vs disk-warm through the durable tier: fill the disk from
        # memory-cold, then drop memory so only disk can answer.
        disk = DiskDayCache(tmp_path / "daycache")
        day_cache().clear()
        day_cache().attach_disk(disk)
        cold = _fetch_series_bytes(_config())
        day_cache().clear()
        before_disk_hits = disk.hits
        warm = _fetch_series_bytes(_config())
        assert cold == warm == payloads["inline"]
        assert disk.hits > before_disk_hits, "warm run never touched the disk tier"

        digest = hashlib.sha256(payloads["inline"]).hexdigest()
        snapshot = {
            "query": SERIES_QUERY,
            "series_payload_sha256": digest,
            "scenario_config_hash": _config().scenario_config().content_hash(),
        }
        if update_goldens:
            GOLDEN_PATH.parent.mkdir(exist_ok=True)
            GOLDEN_PATH.write_text(
                json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
            )
            pytest.skip(f"goldens rewritten at {GOLDEN_PATH}; commit the file")
        assert GOLDEN_PATH.exists(), (
            f"{GOLDEN_PATH} is missing; generate it with "
            "`python -m pytest tests/test_serve_routes.py --update-goldens`"
        )
        golden = json.loads(GOLDEN_PATH.read_text())
        assert golden == snapshot, (
            "serve payload drifted from the committed golden; if the "
            "change is intentional, refresh with --update-goldens"
        )

    def test_day_and_victims_payloads_identical_across_executors_and_tiers(
        self, tmp_path, update_goldens
    ):
        """Every ``/v1/days`` and ``/v1/victims/top`` body at the pinned days."""
        queries = _payload_queries(_config())
        bodies: dict[str, dict[str, bytes]] = {}
        for executor, jobs in (("inline", 1), ("thread", 2), ("process", 2)):
            day_cache().clear()
            bodies[executor] = _fetch_bytes(_config(executor, jobs), queries)
        assert bodies["inline"] == bodies["thread"] == bodies["process"]

        disk = DiskDayCache(tmp_path / "daycache")
        day_cache().clear()
        day_cache().attach_disk(disk)
        cold = _fetch_bytes(_config(), queries)
        day_cache().clear()
        before_disk_hits = disk.hits
        warm = _fetch_bytes(_config(), queries)
        assert cold == warm == bodies["inline"]
        assert disk.hits > before_disk_hits, "warm run never touched the disk tier"

        snapshot = {
            "scenario_config_hash": _config().scenario_config().content_hash(),
            "payload_sha256": {
                query: hashlib.sha256(body).hexdigest()
                for query, body in bodies["inline"].items()
            },
        }
        if update_goldens:
            PAYLOADS_GOLDEN_PATH.write_text(
                json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
            )
            pytest.skip(f"goldens rewritten at {PAYLOADS_GOLDEN_PATH}; commit the file")
        assert PAYLOADS_GOLDEN_PATH.exists(), (
            f"{PAYLOADS_GOLDEN_PATH} is missing; generate it with "
            "`python -m pytest tests/test_serve_routes.py --update-goldens`"
        )
        golden = json.loads(PAYLOADS_GOLDEN_PATH.read_text())
        assert golden == snapshot, (
            "serve day/victims payloads drifted from the committed golden; "
            "if the change is intentional, refresh with --update-goldens"
        )

    def test_analysis_window_rides_on_the_series(self, service):
        payload = service.series_payload(
            "2018-12-09", "2018-12-29", None, "ntp_to", "10"
        )
        analysis = payload["analysis"]["ntp_to"]
        assert analysis["window"] == 10
        assert isinstance(analysis["significant"], bool)
        assert 0.0 <= analysis["reduction_ratio"] <= 1.0


class TestSingleFlightAcceptance:
    N_CLIENTS = 100

    def test_100_concurrent_clients_one_compute(self, service):
        """The acceptance property, end to end over real sockets."""
        registry = MetricsRegistry(enabled=True)
        date = str(date_of(service.scenario_config.takedown_day + 3))

        async def run() -> list[bytes]:
            server = ObservatoryServer(service, compute_slots=1)
            await server.start()
            try:
                async def client() -> bytes:
                    status, body = await _http_get(server.port, f"/v1/days/{date}")
                    assert status == 200
                    return body

                return await asyncio.gather(
                    *(client() for _ in range(self.N_CLIENTS))
                )
            finally:
                await server.aclose()

        with use_metrics(registry):
            bodies = asyncio.run(run())

        assert len(bodies) == self.N_CLIENTS
        assert len(set(bodies)) == 1, "coalesced clients saw different bytes"
        assert registry.counter("serve.cache_tier.compute") == 1
        assert registry.counter("serve.singleflight_hits") == self.N_CLIENTS - 1
        assert registry.counter("serve.singleflight_leaders") == 1
        assert registry.counter("serve.requests") == self.N_CLIENTS
        payload = json.loads(bodies[0])
        assert payload["date"] == date
        assert payload["observed"]["flows"] > 0

    @given(k=st.integers(min_value=2, max_value=50))
    @settings(deadline=None, max_examples=20)
    def test_k_waiters_one_compute_property(self, k):
        """Hypothesis: any K concurrent waiters -> 1 compute, K equal payloads."""
        registry = MetricsRegistry(enabled=True)

        async def run() -> list[bytes]:
            ctx = ServeContext(service=None)
            release = threading.Event()

            def fn():
                metrics().inc("serve.cache_tier.compute")
                # Hold the leader open until every waiter has joined the
                # flight, so coalescing is deterministic, not timing luck.
                release.wait(10)
                return {"answer": 42}

            tasks = [
                asyncio.create_task(cached_payload_bytes(ctx, ("k",), fn))
                for _ in range(k)
            ]
            while registry.counter("serve.singleflight_hits") < k - 1:
                await asyncio.sleep(0.001)
            release.set()
            return await asyncio.gather(*tasks)

        with use_metrics(registry):
            results = asyncio.run(run())

        assert len(set(results)) == 1
        assert results[0] == b'{"answer":42}'
        assert registry.counter("serve.cache_tier.compute") == 1
        assert registry.counter("serve.singleflight_leaders") == 1
        assert registry.counter("serve.singleflight_hits") == k - 1


def _span_calls(registry: MetricsRegistry, stage: str) -> int:
    return sum(stats.calls for path, stats in registry.spans.items() if path[-1] == stage)


class TestServeDay:
    def test_one_compute_serves_every_endpoint_at_its_vantage(self, service):
        """A day at one vantage point is synthesized and observed once.

        Every endpoint then reads the cached reductions, never a flow
        table; another vantage point is a compute of its own.
        """
        registry = MetricsRegistry(enabled=True)
        date = str(date_of(service.scenario_config.takedown_day - 2))
        with use_metrics(registry):
            service.day_payload(date, "tier1")
            service.victims_payload(date, "tier1", None)
            service.series_payload(date, date, "tier1", None, None)
        assert _span_calls(registry, "scenario.day_traffic") == 1
        assert _span_calls(registry, "scenario.observe_day") == 1
        assert registry.counter("serve.cache_tier.compute") == 1
        assert registry.counter("serve.cache_tier.mem") == 2
        cached = [value for value, _ in day_cache()._data.values()]
        assert cached and not any(isinstance(value, FlowTable) for value in cached)
        with use_metrics(registry):
            service.victims_payload(date, "tier2", None)
        assert _span_calls(registry, "scenario.day_traffic") == 2
        assert _span_calls(registry, "scenario.observe_day") == 2
        assert registry.counter("serve.cache_tier.compute") == 2


class TestConcurrentDistinctDates:
    def test_parallel_compute_slots_hammer_the_cache_locks(self, service, tmp_path):
        """Distinct-date requests through parallel compute slots.

        Regression for the unlocked-cache race: to_thread workers insert
        into the shared day cache (and write through to disk)
        concurrently; corruption showed up as KeyErrors, lost entries,
        or a drifted resident_bytes tally.
        """
        disk = DiskDayCache(tmp_path / "hammer")
        day_cache().attach_disk(disk)
        registry = MetricsRegistry(enabled=True)
        takedown = service.scenario_config.takedown_day
        dates = [str(date_of(takedown + offset)) for offset in range(-4, 4)]

        async def run() -> dict[str, bytes]:
            server = ObservatoryServer(service, compute_slots=8)
            await server.start()
            try:
                async def client(date: str) -> tuple[str, bytes]:
                    status, body = await _http_get(server.port, f"/v1/days/{date}")
                    assert status == 200, body
                    return date, body

                pairs = await asyncio.gather(*(client(d) for d in dates))
                return dict(pairs)
            finally:
                await server.aclose()

        with use_metrics(registry):
            bodies = asyncio.run(run())

        assert sorted(bodies) == sorted(dates)
        for date, body in bodies.items():
            assert json.loads(body)["date"] == date
        cache = day_cache()
        assert cache.resident_bytes == sum(cache._sizes.values())
        assert set(cache._data) == set(cache._sizes)
        assert disk.resident_bytes == sum(disk._index.values())


class TestRouteErrors:
    def _get(self, service, path):
        async def run():
            server = ObservatoryServer(service)
            await server.start()
            try:
                return await _http_get(server.port, path)
            finally:
                await server.aclose()

        return asyncio.run(run())

    def test_unparseable_date_is_400(self, service):
        status, body = self._get(service, "/v1/days/not-a-date")
        assert status == 400
        assert b"YYYY-MM-DD" in body

    def test_out_of_window_date_is_404(self, service):
        status, _ = self._get(service, "/v1/days/2030-01-01")
        assert status == 404

    def test_unknown_vantage_is_400(self, service):
        status, body = self._get(service, "/v1/days/2018-12-19?vantage=mars")
        assert status == 400
        assert b"vantage" in body

    def test_series_end_before_start_is_400(self, service):
        status, _ = self._get(
            service, "/v1/series/takedown?start=2018-12-20&end=2018-12-10"
        )
        assert status == 400

    def test_unknown_selector_is_400(self, service):
        status, body = self._get(
            service, "/v1/series/takedown?selectors=warp_drive"
        )
        assert status == 400
        assert b"warp_drive" in body

    def test_victims_top_out_of_range_is_400(self, service):
        status, _ = self._get(service, "/v1/victims/top?top=0")
        assert status == 400

    def test_events_stream_replays_and_terminates(self, service):
        status, body = self._get(
            service,
            "/v1/events/stream?start=2018-12-18&end=2018-12-18&limit=5",
        )
        assert status == 200
        assert body.startswith(b"retry: 5000\n\n")
        frames = [f for f in body.split(b"\n\n") if f]
        attack_frames = [f for f in frames if f.startswith(b"event: attack")]
        assert len(attack_frames) == 5
        assert frames[-1].startswith(b"event: end")
        end_data = json.loads(frames[-1].split(b"data: ", 1)[1])
        assert end_data == {"events_sent": 5}


class TestServeCliValidation:
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--jobs", "-1"], "jobs must be >= 0"),
            (["--batch-days", "-1"], "batch_days must be >= 0"),
            (["--day-shards", "0"], "day_shards must be >= 1"),
            (["--cache-max-bytes", "0"], "max_bytes must be positive"),
        ],
    )
    def test_invalid_numbers_are_usage_errors(self, flags, message, tmp_path, capsys):
        from repro.serve.server import main

        argv = ["--port", "0", *flags]
        if "--cache-max-bytes" in flags:
            argv += ["--cache-dir", str(tmp_path / "serve_cache")]
        before = metrics()
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "repro-serve: error:" in err and message in err
        assert "Traceback" not in err
        # Rejected before anything global changes or the server binds.
        assert metrics() is before
        assert not (tmp_path / "serve_cache").exists()
