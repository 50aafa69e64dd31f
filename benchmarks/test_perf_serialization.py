"""Benchmarks of how flow tables move between processes and runs.

Two measurements, both appended to ``benchmarks/BENCH_serialization.json``
(a JSON list, oldest first):

* FlowTable round trips through the two transports tables take: a
  ``ForkingPickler`` pickle (what a pool result pays on the result
  pipe) and the ``RECORD_DTYPE`` structured array (what the disk tier
  writes and memory-maps back);
* a cold vs disk-warm mini campaign over the day cache's durable tier,
  recording the wall-time reduction a ``--cache-dir`` rerun buys.
"""

import json
import os
import time
from datetime import datetime, timezone
from multiprocessing.reduction import ForkingPickler
from pathlib import Path

import numpy as np

from benchmarks.ablation_common import tiny_scenario
from repro.flows.records import SCHEMA, FlowTable


def _random_table(n, seed=0):
    rng = np.random.default_rng(seed)
    return FlowTable(
        {
            "time": rng.uniform(0, 86400, n),
            "src_ip": rng.integers(0, 2**32, n, dtype=np.uint32),
            "dst_ip": rng.integers(0, 2**32, n, dtype=np.uint32),
            "proto": rng.integers(0, 256, n).astype(np.uint8),
            "src_port": rng.integers(0, 65536, n).astype(np.uint16),
            "dst_port": rng.integers(0, 65536, n).astype(np.uint16),
            "packets": rng.integers(1, 10**6, n),
            "bytes": rng.integers(64, 10**9, n),
            "src_asn": rng.integers(-1, 1 << 30, n),
            "dst_asn": rng.integers(-1, 1 << 30, n),
            "peer_asn": rng.integers(-1, 1 << 30, n),
        }
    )


def _append_history(payload):
    out = Path(__file__).parent / "BENCH_serialization.json"
    history = json.loads(out.read_text()) if out.exists() else []
    history.append(payload)
    out.write_text(json.dumps(history, indent=2) + "\n")


def _assert_tables_equal(a, b):
    assert len(a) == len(b)
    for name in SCHEMA:
        np.testing.assert_array_equal(a[name], b[name], err_msg=name)


def test_perf_structured_vs_pickle():
    """FlowTable round trips through the pool pipe's and the disk tier's forms.

    ``ForkingPickler`` is what ``WorkerPool.map_with_deltas`` results
    pay: the table pickles as its column dict. ``to_structured`` /
    ``from_structured`` is what the disk tier pays (its file I/O aside).
    Both directions are timed together (a transport pays both ends),
    best of five; each round trip must be bit-identical. The timings
    are recorded, not gated.
    """
    n = 250_000
    reps = 5
    table = _random_table(n, seed=1)

    pickle_s = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        blob = ForkingPickler.dumps(table)
        pickled_back = ForkingPickler.loads(blob)
        pickle_s = min(pickle_s, time.perf_counter() - start)

    structured_s = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        records = table.to_structured()
        structured_back = FlowTable.from_structured(records)
        structured_s = min(structured_s, time.perf_counter() - start)

    _assert_tables_equal(table, pickled_back)
    _assert_tables_equal(table, structured_back)

    payload = {
        "benchmark": "flowtable_transport_roundtrip",
        "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "rows": n,
        "cpu_count": os.cpu_count() or 1,
        "forking_pickle_s": round(pickle_s, 5),
        "forking_pickle_bytes": len(blob),
        "structured_s": round(structured_s, 5),
        "structured_bytes": records.nbytes,
        "bit_identical": True,
    }
    _append_history(payload)
    print(
        f"\nserialization round-trip ({n} rows): ForkingPickler "
        f"{pickle_s * 1e3:.1f} ms ({len(blob) / 1e6:.1f} MB), structured "
        f"{structured_s * 1e3:.1f} ms ({records.nbytes / 1e6:.1f} MB)"
    )


def test_perf_disk_warm_campaign(tmp_path):
    """Cold vs disk-warm observed-day campaign over the durable tier.

    Runs the same six-day observation sweep twice against one cache
    directory: cold (every day generated and persisted) and warm (the
    in-memory cache wiped, every day served from disk via memmap). The
    warm pass must be faster and bit-identical; both wall times land in
    the history entry.
    """
    from repro.core.diskcache import DiskDayCache
    from repro.core.parallel import day_cache, observed_days

    scenario = tiny_scenario()
    days = list(range(40, 46))
    cache = day_cache()
    cache.clear()
    disk = DiskDayCache(tmp_path / "day_cache")
    cache.attach_disk(disk)
    try:
        start = time.perf_counter()
        cold = observed_days(scenario, "ixp", days, cache=True)
        cold_s = time.perf_counter() - start
        assert disk.puts == len(days)

        cache.clear()  # fresh-process simulation: memory gone, disk warm
        cache.attach_disk(disk)
        start = time.perf_counter()
        warm = observed_days(scenario, "ixp", days, cache=True)
        warm_s = time.perf_counter() - start
        assert disk.hits == len(days)

        for a, b in zip(cold, warm):
            _assert_tables_equal(a, b)
    finally:
        cache.attach_disk(None)
        cache.clear()

    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    payload = {
        "benchmark": "disk_warm_observed_day_campaign",
        "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "days": len(days),
        "cpu_count": os.cpu_count() or 1,
        "cold_s": round(cold_s, 4),
        "disk_warm_s": round(warm_s, 4),
        "speedup": round(speedup, 3),
        "bit_identical": True,
    }
    _append_history(payload)
    print(
        f"\ndisk-warm campaign ({len(days)} days): cold {cold_s:.2f}s, "
        f"warm {warm_s:.2f}s, speedup {speedup:.2f}x"
    )
    assert warm_s < cold_s, payload
