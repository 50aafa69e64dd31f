"""Performance benchmarks of the pipeline's hot paths.

Unlike the figure benchmarks (one timed regeneration each), these measure
throughput of the operations that dominate multi-month runs: attack flow
synthesis, vantage-point observation, packet sampling, per-destination
aggregation, and classification. Useful for catching regressions when
the substrate changes.
"""

import json
import os
import time
import tracemalloc
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

from benchmarks.ablation_common import tiny_scenario_config
from repro.booter.attack import synthesize_attack_flows
from repro.core.classify import ConservativeClassifier, OptimisticClassifier
from repro.flows.sampling import PacketSampler
from repro.flows.timeseries import per_destination_stats


@pytest.fixture(scope="module")
def scenario():
    # The process's memoized world, as ``build_scenario`` hands it to
    # ``repro-experiments``: a pool forks from this very object, so its
    # workers inherit the world built and its reflector lists walked.
    from repro.core.workerpool import scenario_for

    return scenario_for(tiny_scenario_config())


@pytest.fixture(scope="module")
def day_traffic(scenario):
    return scenario.day_traffic(40)


def test_perf_day_generation(benchmark, scenario):
    traffic = benchmark(lambda: scenario.day_traffic(41))
    assert len(traffic.attack) > 0


def test_perf_attack_flow_synthesis(benchmark, scenario, day_traffic):
    event = day_traffic.events[0]
    rng = np.random.default_rng(0)
    flows = benchmark(lambda: synthesize_attack_flows(event, rng, bin_seconds=60.0))
    assert flows.total_packets > 0


def test_perf_ixp_observation(benchmark, scenario, day_traffic):
    observed = benchmark(lambda: scenario.observe_day("ixp", day_traffic))
    assert len(observed) >= 0


def test_perf_packet_sampling(benchmark, day_traffic):
    table = day_traffic.all_flows()
    sampler = PacketSampler(10_000)
    rng = np.random.default_rng(0)
    sampled = benchmark(lambda: sampler.apply(table, rng))
    assert len(sampled) <= len(table)


def test_perf_per_destination_stats(benchmark, day_traffic):
    table = day_traffic.attack
    stats = benchmark(lambda: per_destination_stats(table))
    assert len(stats) > 0


def test_perf_conservative_classification(benchmark, scenario, day_traffic):
    observed = scenario.observe_day("ixp", day_traffic)
    optimistic, conservative = OptimisticClassifier(), ConservativeClassifier()

    def classify():
        stats = per_destination_stats(optimistic.amplification_flows(observed))
        return conservative.classify(stats, sampling_factor=10_000.0)

    stats = benchmark(classify)
    assert len(stats) >= 0


def test_perf_streaming_ingest(benchmark, scenario, day_traffic):
    from repro.core.pipeline import TrafficSelector
    from repro.core.streaming import StreamingAnalyzer

    observed = scenario.observe_day("ixp", day_traffic)
    selectors = [
        TrafficSelector("ntp_to", 123, "to_reflectors"),
        TrafficSelector("ntp_from", 123, "from_reflectors"),
    ]

    def ingest():
        analyzer = StreamingAnalyzer(
            selectors, n_days=scenario.config.n_days, sampling_factor=10_000.0
        )
        analyzer.ingest_day(40, observed)
        return analyzer

    analyzer = benchmark(ingest)
    assert analyzer.daily_series("ntp_to")[40] > 0


def _append_bench_parallel(payload):
    out = Path(__file__).parent / "BENCH_parallel.json"
    history = []
    if out.exists():
        previous = json.loads(out.read_text())
        # Pre-history files held a single dict; fold it in as entry 0.
        history = previous if isinstance(previous, list) else [previous]
    history.append(payload)
    out.write_text(json.dumps(history, indent=2) + "\n")


def test_perf_parallel_collect(scenario):
    """jobs=1 vs the warm process pool at jobs=2: bit-identical, timed.

    The campaign is a multi-call day collection, so the jobs=2 leg pays
    one pool spawn and then reuses it — exactly what ``repro-experiments
    --jobs 2`` does across experiments, whose world is this same
    memoized one (the fixture's). Appends one entry to
    ``benchmarks/BENCH_parallel.json`` (a JSON list, oldest first) with
    both wall-clock times and the speedup, so the perf trajectory
    accumulates run over run instead of overwriting. The >= 1.7x floor
    only applies with >= 2 CPU cores: on a single-core machine a worker
    pool cannot beat the serial loop (it adds dispatch + pickle
    overhead), so the run records the numbers plus a warning field and
    the parity check instead.
    """
    from repro.core.pipeline import TrafficSelector, collect_daily_port_series
    from repro.core.workerpool import shutdown_pool

    selectors = [
        TrafficSelector("ntp_to", 123, "to_reflectors"),
        TrafficSelector("ntp_from", 123, "from_reflectors"),
        TrafficSelector("dns_to", 53, "to_reflectors"),
    ]
    day_range = (40, 60)

    start = time.perf_counter()
    serial = collect_daily_port_series(scenario, "ixp", selectors, day_range=day_range)
    jobs1_s = time.perf_counter() - start

    shutdown_pool()
    start = time.perf_counter()
    try:
        result = collect_daily_port_series(scenario, "ixp", selectors, day_range=day_range, jobs=2)
        jobs2_s = time.perf_counter() - start
    finally:
        shutdown_pool()
    for selector in selectors:
        np.testing.assert_array_equal(serial.get(selector.name), result.get(selector.name))

    cores = os.cpu_count() or 1
    speedup = jobs1_s / jobs2_s if jobs2_s > 0 else float("inf")
    payload = {
        "benchmark": "parallel_collect_daily_port_series",
        "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "day_range": list(day_range),
        "cpu_count": cores,
        "jobs1_s": round(jobs1_s, 4),
        "jobs2_s": round(jobs2_s, 4),
        "speedup_jobs2": round(speedup, 3),
        "bit_identical": True,
    }
    if cores < 2 and speedup < 1.7:
        payload["warning"] = (
            f"speedup {speedup:.2f}x below the 1.7x floor; assertion "
            f"skipped on {cores} core(s)"
        )
    _append_bench_parallel(payload)
    print(
        f"\nparallel collect: jobs=1 {jobs1_s:.2f}s, "
        f"jobs=2 {jobs2_s:.2f}s ({speedup:.2f}x) on {cores} core(s)"
    )
    if cores >= 2:
        assert speedup >= 1.7, payload


def test_perf_warm_pool_dispatch(scenario):
    """Warm-pool reuse vs a cold pool per call — measurable on one core.

    Pool spin-up dominated the old per-call executors. Timing is machine-independent in *shape*: a warm dispatch
    (submit to live workers) must be far cheaper than cold spawn +
    dispatch + shutdown, regardless of core count. Uses the no-op probe
    task so only pool mechanics are measured; appends the overhead entry
    to ``BENCH_parallel.json``.
    """
    from repro.core.workerpool import WorkerPool, _probe_task, shutdown_pool

    shutdown_pool()
    reps = 5

    cold_s = 0.0
    for _ in range(reps):
        start = time.perf_counter()
        pool = WorkerPool(2, scenario.config)
        pool.map_with_deltas(_probe_task, [0, 1])
        pool.shutdown()
        cold_s += time.perf_counter() - start
    cold_s /= reps

    pool = WorkerPool(2, scenario.config)
    try:
        pool.map_with_deltas(_probe_task, [0, 1])  # warm spawn lazily
        warm_s = 0.0
        for _ in range(reps):
            start = time.perf_counter()
            pool.map_with_deltas(_probe_task, [0, 1])
            warm_s += time.perf_counter() - start
        warm_s /= reps
    finally:
        pool.shutdown()

    payload = {
        "benchmark": "warm_pool_dispatch_overhead",
        "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "cpu_count": os.cpu_count() or 1,
        "cold_pool_per_call_s": round(cold_s, 5),
        "warm_dispatch_s": round(warm_s, 5),
        "dispatch_speedup": round(cold_s / warm_s if warm_s > 0 else float("inf"), 2),
    }
    _append_bench_parallel(payload)
    print(
        f"\npool dispatch: cold {cold_s * 1e3:.1f} ms/call vs warm "
        f"{warm_s * 1e3:.2f} ms/call ({cold_s / warm_s:.0f}x)"
    )
    assert warm_s < cold_s, payload


def test_perf_disabled_metrics_overhead(scenario):
    """A disabled registry must make instrumented hot paths near-free.

    The pipeline spans/counters fire O(10) times per simulated day (never
    per flow), so the honest bound is: even a thousand disabled-primitive
    calls per day must cost under 5% of one day's real work. Measures the
    no-op ``inc``/``span`` per-call cost in bulk and checks exactly that
    against a timed day collection; also re-asserts the disabled registry
    recorded nothing while the collection ran.
    """
    from repro.core.pipeline import TrafficSelector, collect_daily_port_series
    from repro.obs import metrics

    registry = metrics()
    assert not registry.enabled, "benchmarks assume the default disabled registry"

    calls = 100_000
    start = time.perf_counter()
    for _ in range(calls):
        registry.inc("bench.counter")
        with registry.span("bench.span"):
            pass
    noop_pair_s = (time.perf_counter() - start) / calls

    selectors = [TrafficSelector("ntp_to", 123, "to_reflectors")]
    start = time.perf_counter()
    series = collect_daily_port_series(scenario, "ixp", selectors, day_range=(40, 43))
    per_day_s = (time.perf_counter() - start) / 3

    assert series.days.size == 3
    assert registry.to_dict()["counters"] == {}
    assert registry.to_dict()["spans"] == []

    budget = 0.05 * per_day_s
    implied = 1000 * noop_pair_s
    print(
        f"\ndisabled metrics: {noop_pair_s * 1e9:.0f} ns per inc+span pair; "
        f"1000 pairs = {implied * 1e3:.3f} ms vs day work {per_day_s * 1e3:.1f} ms "
        f"({100 * implied / per_day_s:.2f}% of a day)"
    )
    assert implied < budget, (
        f"disabled-metrics overhead {implied:.4f}s exceeds 5% of one day's "
        f"work ({per_day_s:.4f}s); the no-op path has gained real cost"
    )


def test_perf_visibility_matrix_mask(benchmark, scenario, day_traffic):
    """Warm-matrix pair resolution and IXP visibility mask over a full day table."""
    table = day_traffic.all_flows()
    matrix = scenario.visibility
    matrix.ixp_tables()  # warm outside the timer
    src, dst = table["src_asn"], table["dst_asn"]
    (mask,), _ = benchmark(lambda: matrix.ixp_verdicts([matrix.pair_index(src, dst)]))
    assert mask.shape == src.shape


def _legacy_day_traffic(scenario, day, bin_seconds=60.0):
    """The legacy day synthesis shape: one table per event, concat at the end."""
    from repro.booter.attack import synthesize_trigger_flows
    from repro.flows.records import FlowTable
    from repro.scenario.scenario import DayTraffic

    weights, activity, demand_level = scenario._day_demand(day)
    events = scenario.market.attacks_for_day(
        day, demand_weights=weights, demand_scale=scenario.config.scale * demand_level
    )
    rng = scenario.seeds.child("traffic", day).rng()
    attack_parts, trigger_parts = [], []
    for event in events:
        attack_parts.append(synthesize_attack_flows(event, rng, bin_seconds=bin_seconds))
        backend = scenario.market.services[event.booter]
        trigger_parts.append(
            synthesize_trigger_flows(
                event, rng, bin_seconds=bin_seconds, origin_asn=backend.backend_asn
            )
        )
    scaled = {n: a * scenario.config.scale for n, a in activity.items()}
    return DayTraffic(
        day=day,
        events=events,
        attack=FlowTable.concat(attack_parts),
        trigger=FlowTable.concat(trigger_parts),
        scan=scenario.market.scan_flows_for_day(day, activity=scaled),
        benign=scenario.background.flows_for_day(day, intensity_scale=scenario.config.scale),
    )


def _legacy_observe_all(scenario, traffic):
    """The pre-matrix observation: cold per-pair oracle, per-vantage concat,
    and a whole table per stage (:mod:`tests.reference.observe`)."""
    from repro.flows.records import FlowTable
    from tests.reference.observe import observe
    from tests.reference.visibility import VisibilityOracle

    oracle = VisibilityOracle(scenario.topology)  # cold caches, as in a fresh worker
    saved = {name: vp.visibility for name, vp in scenario.vantage_points.items()}
    observed = {}
    try:
        for name, vp in scenario.vantage_points.items():
            vp.visibility = oracle
            table = FlowTable.concat(
                [traffic.attack, traffic.trigger, traffic.scan, traffic.benign]
            )
            rng = scenario.seeds.child("observe", name, traffic.day).rng()
            observed[name] = observe(vp, table, rng)
    finally:
        for name, vp in scenario.vantage_points.items():
            vp.visibility = saved[name]
    return observed


def _traced_peak_mb(fn) -> float:
    """Peak traced Python/numpy allocation of one call of ``fn``, in MiB."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def test_perf_flowplane_fastpath(scenario):
    """Legacy flow plane vs one-pass synthesis + visibility matrix: timed and bit-checked.

    Compares a full day's generate-and-observe under the old shape
    (per-event tables + concat; fresh lazy visibility oracle, per-vantage
    re-concat, a table per observation stage) against the current fast
    path (draw-only synthesis loops assembled once per column; each kind
    table observed in turn through the dense precomputed matrix, its
    pair index resolved once per day and shared by the vantage points,
    peers resolved only for exported rows). The observed exports must be
    bit-identical; timings append to ``benchmarks/BENCH_flowplane.json``
    (a JSON list, oldest first) with the matrix build time recorded
    separately, plus each leg's ``tracemalloc`` peak from one untimed
    pass (recorded, not gated). The >= 2x speedup assertion only
    applies with >= 2 CPU cores; below that the run records a warning
    field instead of failing, since a loaded or throttled single-core
    machine times both paths too noisily.
    """
    day = 45
    reps = 3
    matrix = scenario.visibility

    start = time.perf_counter()
    matrix.ixp_tables()
    matrix.isp_tables(scenario.tier1.asn, True)
    matrix.isp_tables(scenario.tier2.asn, False)
    matrix_build_s = time.perf_counter() - start

    legacy_s = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        legacy_traffic = _legacy_day_traffic(scenario, day)
        legacy_observed = _legacy_observe_all(scenario, legacy_traffic)
        legacy_s = min(legacy_s, time.perf_counter() - start)

    fast_s = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        traffic = scenario.day_traffic(day)
        observed = {
            name: scenario.observe_day(name, traffic)
            for name in scenario.vantage_points
        }
        fast_s = min(fast_s, time.perf_counter() - start)

    def fast_pass():
        traffic = scenario.day_traffic(day)
        return {name: scenario.observe_day(name, traffic) for name in scenario.vantage_points}

    legacy_peak_mb = _traced_peak_mb(
        lambda: _legacy_observe_all(scenario, _legacy_day_traffic(scenario, day))
    )
    fast_peak_mb = _traced_peak_mb(fast_pass)

    from repro.flows.records import SCHEMA

    for name in observed:
        assert len(observed[name]) == len(legacy_observed[name]), name
        for column in SCHEMA:
            np.testing.assert_array_equal(
                observed[name][column], legacy_observed[name][column], err_msg=f"{name}.{column}"
            )

    cores = os.cpu_count() or 1
    speedup = legacy_s / fast_s if fast_s > 0 else float("inf")
    payload = {
        "benchmark": "flowplane_day_generate_observe",
        "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "day": day,
        "cpu_count": cores,
        "legacy_s": round(legacy_s, 4),
        "fastpath_s": round(fast_s, 4),
        "matrix_build_s": round(matrix_build_s, 4),
        "legacy_peak_mb": round(legacy_peak_mb, 1),
        "fastpath_peak_mb": round(fast_peak_mb, 1),
        "speedup": round(speedup, 3),
        "bit_identical": True,
    }
    if cores < 2 and speedup < 2.0:
        payload["warning"] = (
            f"speedup {speedup:.2f}x below 2x target; assertion skipped on "
            f"{cores} core(s)"
        )
    out = Path(__file__).parent / "BENCH_flowplane.json"
    history = json.loads(out.read_text()) if out.exists() else []
    history.append(payload)
    out.write_text(json.dumps(history, indent=2) + "\n")
    print(
        f"\nflow plane day {day}: legacy {legacy_s:.2f}s, fast {fast_s:.2f}s "
        f"(+{matrix_build_s:.2f}s one-time matrix build), speedup {speedup:.2f}x; "
        f"traced peak legacy {legacy_peak_mb:.1f} MiB, fast {fast_peak_mb:.1f} MiB"
    )
    if cores >= 2:
        assert speedup >= 2.0, payload
