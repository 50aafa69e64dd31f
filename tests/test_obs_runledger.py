"""Run-provenance ledger: digests, append/read, runner wiring, determinism."""

import json

import pytest

from repro.booter.market import MarketConfig
from repro.core.parallel import (
    day_cache,
    day_reductions,
    hourly_attacks,
    port_counts,
    prefetch,
    streaming_ingest,
)
from repro.core.pipeline import TrafficSelector, collect_daily_port_series
from repro.core.streaming import StreamingAnalyzer
from repro.netmodel.topology import TopologyConfig
from repro.obs import MetricsRegistry, use_metrics
from repro.obs.runledger import (
    RUN_SCHEMA,
    append_run_record,
    artifact_digest,
    build_run_record,
    counter_digest,
    deterministic_counters,
    read_ledger,
)
from repro.scenario import Scenario, ScenarioConfig

SELECTORS = [
    TrafficSelector("ntp_to", 123, "to_reflectors"),
    TrafficSelector("ntp_from", 123, "from_reflectors"),
]


@pytest.fixture(scope="module")
def scenario():
    return Scenario(
        ScenarioConfig(
            scale=0.1,
            topology=TopologyConfig(n_tier1=3, n_tier2=10, n_stub=60),
            market=MarketConfig(daily_attacks=60.0, n_victims=300),
            pool_sizes=(
                ("ntp", 1500),
                ("dns", 1000),
                ("cldap", 400),
                ("memcached", 200),
                ("ssdp", 250),
            ),
        )
    )


class TestDigests:
    def test_deterministic_counters_filters_and_sorts(self):
        counters = {
            "pool.tasks": 4.0,
            "scenario.days_generated": 2.0,
            "cache.hits": 1.0,
            "pipeline.days_processed": 2.0,
            "streaming.days_ingested": 2.0,
        }
        assert list(deterministic_counters(counters)) == [
            "pipeline.days_processed",
            "scenario.days_generated",
            "streaming.days_ingested",
        ]

    def test_counter_digest_ignores_strategy_counters(self):
        base = {"scenario.days_generated": 2.0}
        with_pool = dict(base, **{"pool.tasks": 8.0, "cache.hits": 3.0})
        assert counter_digest(base) == counter_digest(with_pool)

    def test_counter_digest_changes_on_logic_change(self):
        a = {"scenario.days_generated": 2.0}
        b = {"scenario.days_generated": 3.0}
        assert counter_digest(a) != counter_digest(b)

    def test_artifact_digest_matches_content(self, tmp_path):
        f = tmp_path / "artifact.bin"
        f.write_bytes(b"hello")
        import hashlib

        assert artifact_digest(f) == hashlib.sha256(b"hello").hexdigest()


class TestDigestBitIdentityAcrossStrategies:
    """The acceptance bar: the ledger's deterministic counter digest must be
    bit-identical for jobs=1 vs jobs=4, with the day cache on and off."""

    def _run(self, scenario, jobs, cache):
        day_cache().clear()
        registry = MetricsRegistry()
        with use_metrics(registry):
            collect_daily_port_series(
                scenario, "ixp", SELECTORS, day_range=(40, 44), jobs=jobs, cache=cache
            )
            analyzer = StreamingAnalyzer(
                SELECTORS, n_days=scenario.config.n_days, sampling_factor=10_000.0
            )
            streaming_ingest(
                scenario, "ixp", analyzer, range(40, 44), jobs=jobs, cache=cache
            )
        day_cache().clear()
        return registry

    def test_digest_identical_jobs1_jobs4_cache_on_off(self, scenario):
        digests = {
            (jobs, cache): counter_digest(self._run(scenario, jobs, cache).counters)
            for jobs in (1, 4)
            for cache in (False, True)
        }
        assert len(set(digests.values())) == 1, digests
        # And the strategy-dependent counters did differ, so the digest's
        # indifference is doing real work (pool ran only in jobs=4 runs).
        jobs4 = self._run(scenario, 4, False)
        assert jobs4.counter("pool.tasks") > 0

    def _run_fused_pair(self, scenario, jobs, cache, prefetched=False):
        """A fused call, then an hourly-only call, on one cache.

        ``prefetched`` first prefetches the two calls' union, so both
        calls are served from the cache.
        """
        ports = port_counts(SELECTORS)
        hourly = hourly_attacks(10_000.0)
        asks = [
            (range(40, 44), {"ixp": (ports, hourly), "tier2": (ports,)}),
            (range(40, 44), {"ixp": (hourly,)}),
        ]
        day_cache().clear()
        registry = MetricsRegistry()
        with use_metrics(registry):
            if prefetched:
                prefetch(scenario, asks, jobs=jobs)
            for days, requests in asks:
                day_reductions(scenario, days, requests, jobs=jobs, cache=cache)
        day_cache().clear()
        return registry

    def test_fused_pair_digest_identical_jobs1_jobs4_cache_on_off(self, scenario):
        runs = {
            (jobs, cache): self._run_fused_pair(scenario, jobs, cache)
            for jobs in (1, 4)
            for cache in (False, True)
        }
        for jobs in (1, 4):
            runs[jobs, "prefetched"] = self._run_fused_pair(scenario, jobs, True, prefetched=True)
        digests = {key: counter_digest(run.counters) for key, run in runs.items()}
        assert len(set(digests.values())) == 1, digests
        # Per call, the ground truth counts once per day and each vantage
        # once per day, whether computed, shared or replayed.
        cached = runs[1, True]
        assert cached.counter("scenario.days_generated") == 8
        assert cached.counter("scenario.days_observed") == 12
        assert cached.counter("cache.hits") == 4
        for jobs in (1, 4):
            prefetched = runs[jobs, "prefetched"]
            assert prefetched.counter("scenario.days_generated") == 8
            # The prefetch synthesized each day once; both calls were hits.
            assert prefetched.counter("cache.hits") == 16


class TestRecordAppendRead:
    def _record(self, tmp_path, **overrides):
        artifact = tmp_path / "metrics.json"
        artifact.write_text("{}")
        params = dict(
            config_hash="abc123",
            seed=2018,
            preset="small",
            jobs=2,
            cache=True,
            experiments=["fig2a"],
            counters={"scenario.days_generated": 2.0, "pool.tasks": 4.0},
            wall_s=1.25,
            experiment_wall_s={"fig2a": 1.25},
            artifacts={"metrics": artifact},
        )
        params.update(overrides)
        return build_run_record(**params)

    def test_build_run_record_shape(self, tmp_path):
        record = self._record(tmp_path)
        assert record["schema"] == RUN_SCHEMA
        assert record["config_hash"] == "abc123"
        assert record["counters"] == {"scenario.days_generated": 2.0}
        assert record["counter_digest"] == counter_digest(record["counters"])
        assert record["experiment_wall_s"] == {"fig2a": 1.25}
        assert record["artifacts"]["metrics"]["sha256"] == artifact_digest(
            tmp_path / "metrics.json"
        )
        from repro import __version__

        assert record["version"] == __version__
        assert json.dumps(record)  # JSON-serializable as-is

    def test_append_and_read_roundtrip(self, tmp_path):
        ledger = tmp_path / "runs.jsonl"
        first = self._record(tmp_path)
        second = self._record(tmp_path, seed=7)
        append_run_record(ledger, first)
        append_run_record(ledger, second)
        records = read_ledger(ledger)
        assert len(records) == 2
        assert records[0]["seed"] == 2018
        assert records[1]["seed"] == 7

    def test_append_rejects_wrong_schema(self, tmp_path):
        with pytest.raises(ValueError, match="schema"):
            append_run_record(tmp_path / "runs.jsonl", {"schema": "nope/9"})

    def test_read_rejects_foreign_lines(self, tmp_path):
        ledger = tmp_path / "runs.jsonl"
        ledger.write_text('{"schema": "other/1"}\n')
        with pytest.raises(ValueError, match="other/1"):
            read_ledger(ledger)

    def test_read_rejects_garbage(self, tmp_path):
        ledger = tmp_path / "runs.jsonl"
        ledger.write_text("not json\n")
        with pytest.raises(ValueError, match="not valid JSON"):
            read_ledger(ledger)

    def test_read_empty_ledger(self, tmp_path):
        ledger = tmp_path / "runs.jsonl"
        ledger.write_text("\n")
        with pytest.raises(ValueError, match="no records"):
            read_ledger(ledger)


class TestRunnerLedgerWiring:
    def test_runner_appends_matching_records(self, tmp_path):
        """Two runner invocations (jobs=1 vs jobs=4) append two records with
        identical config hash and deterministic counter digest."""
        from repro.experiments.runner import main

        ledger = tmp_path / "runs.jsonl"
        assert main(["fig2a", "--no-cache", "--ledger", str(ledger)]) == 0
        assert main(["fig2a", "--no-cache", "--jobs", "4", "--ledger", str(ledger)]) == 0
        a, b = read_ledger(ledger)
        assert a["schema"] == b["schema"] == RUN_SCHEMA
        assert a["jobs"] == 1 and b["jobs"] == 4
        assert a["config_hash"] == b["config_hash"]
        assert a["counter_digest"] == b["counter_digest"]
        assert a["counters"] and a["counters"] == b["counters"]
        assert a["wall_s"] > 0 and "fig2a" in a["experiment_wall_s"]
        assert a["platform"]["python"]

    def test_ledger_records_artifact_digests(self, tmp_path):
        from repro.experiments.runner import main

        ledger = tmp_path / "runs.jsonl"
        metrics_out = tmp_path / "metrics.json"
        trace_out = tmp_path / "trace.json"
        assert (
            main(
                [
                    "fig2a",
                    "--no-cache",
                    "--ledger",
                    str(ledger),
                    "--metrics-out",
                    str(metrics_out),
                    "--trace-out",
                    str(trace_out),
                ]
            )
            == 0
        )
        (record,) = read_ledger(ledger)
        assert set(record["artifacts"]) == {"metrics", "trace"}
        assert record["artifacts"]["metrics"]["sha256"] == artifact_digest(metrics_out)
        assert record["artifacts"]["trace"]["sha256"] == artifact_digest(trace_out)
