"""Scaling benchmarks of the topology/visibility plane.

Three legs, all appending history entries to ``BENCH_topology.json``
(a JSON list, oldest first, same shape as the other BENCH files):

* **2k route-tree floor** — the batched array engine must construct route
  trees >= 10x faster than the reference per-destination dict BFS
  (``tests/reference/routes.py``) at 2k ASes. Both sides are
  single-threaded numpy/Python, so the ratio is machine-independent and
  asserted on every runner.
* **1k/2k/5k scaling curve** — build time, route-plane time, full
  route-tree sweep, and blocked-visibility resolution per AS count, with
  a wall budget on the 5k build+route+observe path.
* **10k observation day** — a full `Scenario` on a 10k-AS internet model
  resolves one complete observation day (all three vantage points) in
  blocked visibility mode within a wall + RSS budget. Impossible with the
  dense int64 tables this replaced (~0.8 GB per view at 10k ASes).

Default-scale digests are pinned elsewhere (goldens + drift-gate); these
legs only chase scale.
"""

import json
import os
import resource
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.netmodel.topology import TopologyConfig, build_topology
from repro.stats.rng import SeedSequenceTree
from repro.vantage.matrix import VisibilityMatrix
from tests.reference.routes import _routes_to_legacy

#: Wall budget (seconds) of the 5k-AS build + route + observe leg. The
#: measured path is ~3 s on a laptop-class core; the budget absorbs slow
#: shared CI runners, not algorithmic regressions — an O(n^2) relapse
#: blows through it by an order of magnitude.
BUDGET_5K_WALL_S = 60.0
#: Wall budget (seconds) of the 10k-AS scenario day (build + one full
#: observation day over ixp/tier1/tier2). Measured ~45 s single-core.
BUDGET_10K_WALL_S = 240.0
#: Peak-RSS budget (MB) of the 10k-AS day. Measured ~700 MB; the dense
#: int64 tables this replaced would need ~2.4 GB for the three views
#: alone before any traffic is synthesized.
BUDGET_10K_RSS_MB = 2048.0


def _append_bench(payload):
    out = Path(__file__).parent / "BENCH_topology.json"
    history = json.loads(out.read_text()) if out.exists() else []
    history.append(payload)
    out.write_text(json.dumps(history, indent=2) + "\n")


def _world(n, seed=5):
    config = TopologyConfig.internet_scale(n)
    return build_topology(config, SeedSequenceTree(seed).child("w"))


def test_perf_route_tree_speedup_2k():
    """Batched array engine vs reference dict BFS at 2k ASes: >= 10x, bit-equal."""
    _, topo = _world(2000)
    asns = topo.asns
    n = len(asns)

    # Warm both engines (plane build, numpy one-time costs) off the clock.
    topo.routes_to_many(asns[:64])
    _routes_to_legacy(topo, asns[0])

    sample = asns[::40]
    start = time.perf_counter()
    legacy_trees = {dst: _routes_to_legacy(topo, dst) for dst in sample}
    legacy_per_dst_s = (time.perf_counter() - start) / len(sample)

    batch_s = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        kind, length, hop = topo.routes_to_many(asns)
        batch_s = min(batch_s, time.perf_counter() - start)
    batch_per_dst_s = batch_s / n

    # The speed claim only counts if the trees are the same trees.
    plane = topo.route_plane()
    for dst in sample[:10]:
        row = asns.index(dst)
        want = legacy_trees[dst]
        reach = np.flatnonzero(kind[row] >= 0)
        assert reach.size == len(want)
        for i in reach[:: max(1, reach.size // 50)].tolist():
            entry = want[int(plane.asns[i])]
            assert entry.length == int(length[row, i])
            hop_idx = int(hop[row, i])
            assert entry.next_hop == (-1 if hop_idx < 0 else int(plane.asns[hop_idx]))

    speedup = legacy_per_dst_s / batch_per_dst_s
    payload = {
        "benchmark": "route_tree_construction_2k",
        "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "cpu_count": os.cpu_count() or 1,
        "n_asns": n,
        "legacy_ms_per_dst": round(legacy_per_dst_s * 1e3, 4),
        "batched_ms_per_dst": round(batch_per_dst_s * 1e3, 4),
        "full_sweep_s": round(batch_s, 4),
        "speedup": round(speedup, 2),
        "bit_identical": True,
    }
    _append_bench(payload)
    print(
        f"\nroute trees @2k: legacy {legacy_per_dst_s * 1e3:.2f} ms/dst, "
        f"batched {batch_per_dst_s * 1e3:.3f} ms/dst ({speedup:.1f}x)"
    )
    assert speedup >= 10.0, payload


def test_perf_scaling_curve():
    """Build/route/observe across 1k/2k/5k ASes; wall budget on the 5k leg."""
    rng = np.random.default_rng(11)
    entries = []
    for n in (1000, 2000, 5000):
        start = time.perf_counter()
        _, topo = _world(n)
        build_s = time.perf_counter() - start

        start = time.perf_counter()
        plane = topo.route_plane()
        plane_s = time.perf_counter() - start

        start = time.perf_counter()
        topo.routes_to_many(topo.asns)
        routes_s = time.perf_counter() - start

        # Blocked visibility: resolve 200k random pairs through the IXP
        # view and a tier-1 ingress view — touches every column block —
        # and, as an observation does, the peers of the visible ones.
        matrix = VisibilityMatrix(topo, dense_max_asns=0)
        tier1 = topo.asns[0]
        src = rng.integers(0, len(topo.asns), 200_000)
        dst = rng.integers(0, len(topo.asns), 200_000)
        start = time.perf_counter()
        cells = [matrix.pair_index(matrix.asns[src], matrix.asns[dst])]
        for (visible,), peers in (
            matrix.ixp_verdicts(cells),
            matrix.isp_verdicts(tier1, True, cells),
        ):
            peers([np.flatnonzero(visible)])
        observe_s = time.perf_counter() - start

        total_s = build_s + plane_s + routes_s + observe_s
        entries.append(
            {
                "n_asns": n,
                "build_s": round(build_s, 4),
                "route_plane_s": round(plane_s, 4),
                "route_sweep_s": round(routes_s, 4),
                "observe_s": round(observe_s, 4),
                "total_s": round(total_s, 4),
                "plane_bytes": plane.nbytes(),
                "matrix_blocks_built": matrix.blocks_built,
                "matrix_resident_bytes": matrix.resident_bytes,
            }
        )
        print(
            f"\nscale n={n}: build {build_s:.3f}s plane {plane_s:.3f}s "
            f"routes {routes_s:.3f}s observe {observe_s:.3f}s "
            f"({matrix.blocks_built} blocks, "
            f"{matrix.resident_bytes / 1e6:.1f} MB resident)"
        )
    payload = {
        "benchmark": "topology_scaling_curve",
        "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "cpu_count": os.cpu_count() or 1,
        "entries": entries,
        "budget_5k_wall_s": BUDGET_5K_WALL_S,
    }
    _append_bench(payload)
    assert entries[-1]["total_s"] < BUDGET_5K_WALL_S, payload


def test_perf_10k_observation_day():
    """A 10k-AS scenario resolves one full observation day within budget."""
    from repro.scenario import Scenario, ScenarioConfig

    start = time.perf_counter()
    scenario = Scenario(
        ScenarioConfig(
            seed=10_000,
            scale=0.05,
            topology=TopologyConfig.internet_scale(10_000),
        )
    )
    build_s = time.perf_counter() - start
    matrix = scenario.visibility
    assert matrix.blocked, "10k ASes must auto-select blocked visibility"

    start = time.perf_counter()
    traffic = scenario.day_traffic(scenario.config.takedown_day)
    rows = {}
    for vantage in ("ixp", "tier1", "tier2"):
        rows[vantage] = len(scenario.observe_day(vantage, traffic))
    day_s = time.perf_counter() - start
    total_s = build_s + day_s
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    payload = {
        "benchmark": "observation_day_10k",
        "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "cpu_count": os.cpu_count() or 1,
        "n_asns": 10_000,
        "build_s": round(build_s, 3),
        "day_s": round(day_s, 3),
        "total_s": round(total_s, 3),
        "peak_rss_mb": round(rss_mb, 1),
        "observed_rows": rows,
        "matrix_blocks_built": matrix.blocks_built,
        "matrix_evictions": matrix.evictions,
        "matrix_resident_bytes": matrix.resident_bytes,
        "budget_wall_s": BUDGET_10K_WALL_S,
        "budget_rss_mb": BUDGET_10K_RSS_MB,
    }
    _append_bench(payload)
    print(
        f"\n10k day: build {build_s:.2f}s, day {day_s:.2f}s, "
        f"peak RSS {rss_mb:.0f} MB, rows {rows}, "
        f"{matrix.blocks_built} blocks / {matrix.evictions} evictions"
    )
    assert rows["ixp"] > 0 and rows["tier1"] > 0
    assert total_s < BUDGET_10K_WALL_S, payload
    assert rss_mb < BUDGET_10K_RSS_MB, payload
    assert matrix.resident_bytes <= matrix.budget_bytes
