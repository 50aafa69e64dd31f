"""Scaling benchmarks of the per-customer market ledger.

Three legs, all appending history entries to ``BENCH_market.json`` (a
JSON list, oldest first, same shape as the other BENCH files):

* **Pure-Python reference floor** — the columnar
  :class:`~repro.economics.ledger.CustomerLedger` must step a
  representative intervention study >= 50x faster (customer-days/sec)
  than a straightforward per-customer object loop with the same
  semantics. Both sides are single-threaded, so the ratio is
  machine-independent and asserted on every runner.
* **10^5 / 10^6 throughput curve** — customer-days/sec at both scales
  on the same day mix, recorded alongside the reference rate.
* **10^7 resident-memory leg** — ten million customers step a seizure
  week inside an RSS + wall budget. Run in its own pytest process so
  ``ru_maxrss`` reflects this leg, not whatever ran before it.

The day mix is the market experiment's own shape: a 160-day horizon
with a domain seizure at day 60 (signup multiplier 0 and extra churn
0.25 on two booters, one reviving after 3 days — the
:class:`~repro.economics.interventions.DomainSeizure` magnitudes).
Determinism is pinned elsewhere (``tests/test_economics_ledger.py``);
these legs only chase scale.
"""

import bisect
import json
import os
import random
import resource
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.economics.customers import CustomerDynamics
from repro.economics.ledger import CustomerLedger
from repro.stats.rng import SeedSequenceTree

#: Ledger-vs-pure-Python floor at 10^6 customers. Measured ~65x on a
#: laptop-class core (ledger ~190M customer-days/s vs ~2.9M/s for the
#: object loop); the floor absorbs runner noise, not a relapse to
#: per-row work on sparse days — that lands back at ~8x.
FLOOR_SPEEDUP_1E6 = 50.0
#: Wall budget (seconds) of the 10^7-customer seizure week. Measured
#: well under 5 s; the budget absorbs slow shared CI runners.
BUDGET_1E7_WALL_S = 120.0
#: Peak-RSS budget (MB) of the 10^7 leg. The packed columns are 9 bytes
#: per customer (~95 MB at 10^7 + a seizure week of signups), the
#: active-slot array 4 bytes per used slot (with 1.5x growth slack),
#: and transients are
#: chunk-bounded — so the whole process, interpreter included, fits in
#: a few hundred MB. A per-customer object model needs ~half a GB of
#: PyObjects for the customers alone.
BUDGET_1E7_RSS_MB = 1024.0

N_BOOTERS = 8
#: The measured horizon is the market experiment's own shape: 160 days
#: with the seizure at day 60 (``repro.experiments.extensions.run_market``
#: / the paper's months-long observation window around the FBI action).
#: The expensive days are the spike right after the seizure, while the
#: seized booters' stock collapses; the rest of the horizon is
#: event-sparse days, exactly like a real study window.
MIX_DAYS = 160
SEIZE_FROM = 60
REVIVE_AFTER = 3  # booter 0 re-registers (DomainSeizure's revival lag)


def _append_bench(payload):
    out = Path(__file__).parent / "BENCH_market.json"
    history = json.loads(out.read_text()) if out.exists() else []
    history.append(payload)
    out.write_text(json.dumps(history, indent=2) + "\n")


def _market_spec(n_customers):
    names = [f"booter{i}" for i in range(N_BOOTERS)]
    popularity = np.linspace(4.0, 0.5, N_BOOTERS)
    price = np.full(N_BOOTERS, 0.6)
    dynamics = CustomerDynamics(
        market_signups_per_day=n_customers * 0.02,  # flow equilibrium at n
        churn_per_day=0.02,
        signup_noise_sigma=0.1,
    )
    return names, popularity, price, dynamics


def _run_ledger_mix(n_customers, seed=42, days=MIX_DAYS):
    """Step the representative mix; returns (customer_days, wall_s, digest)."""
    names, popularity, price, dynamics = _market_spec(n_customers)
    ledger = CustomerLedger(
        names, popularity, dynamics, SeedSequenceTree(seed), n_customers,
        daily_price=price,
        # Rows are append-only (one per signup); reserving the expected
        # horizon up front skips every regrowth copy of the columns.
        reserve_rows=n_customers
        + int(days * dynamics.market_signups_per_day * 1.3),
    )
    extra = np.zeros(N_BOOTERS)
    mult = np.ones(N_BOOTERS)
    start = time.perf_counter()
    customer_days = 0
    for day in range(days):
        customer_days += ledger.active_customers()
        if day == SEIZE_FROM:  # seizure: signups die, churn spikes (A and B)
            extra[[0, 1]] = 0.25
            mult[[0, 1]] = 0.0
        if day == SEIZE_FROM + REVIVE_AFTER:  # A revives, B stays down
            extra[0] = 0.0
            mult[0] = 0.6
        ledger.step(day, signup_mult=mult, extra_churn=extra)
    wall_s = time.perf_counter() - start
    return customer_days, wall_s, ledger.digest()


class _Customer:
    """One row of the reference model, the way a non-columnar port keeps it."""

    __slots__ = ("booter", "signup_day", "spend", "active")

    def __init__(self, booter, signup_day):
        self.booter = booter
        self.signup_day = signup_day
        self.spend = 0.0
        self.active = True


def _run_python_reference(n_customers, seed=42, days=6):
    """Per-customer object loop with the ledger's semantics.

    The straightforward port: one uniform decides each customer's churn,
    survivors accrue the day's spend and are tallied into the day's
    per-booter counts (the simulation's primary output — the ledger
    maintains those incrementally), forced churners draw for migration
    and re-sign through an inverse-CDF bisect. Signup volume uses the
    expected inflow (the throughput of the per-customer loop does not
    depend on the Poisson draw). Returns (customer_days, wall_s).
    """
    names, popularity, price, dynamics = _market_spec(n_customers)
    rand = random.Random(seed)
    weights = (popularity / popularity.sum()).tolist()
    cdf = np.cumsum(popularity / popularity.sum()).tolist()
    p_churn = dynamics.churn_per_day
    prices = price.tolist()
    migration_fraction = 0.8

    customers = []
    for b, w in enumerate(weights):
        for _ in range(int(round(w * n_customers))):
            customers.append(_Customer(b, 0))
    tenure = {}
    migration = [[0] * N_BOOTERS for _ in range(N_BOOTERS)]
    trajectory = []

    start = time.perf_counter()
    customer_days = 0
    for day in range(days):
        extra = [0.0] * N_BOOTERS
        if day >= 2:  # match the mix shape: seizure after a lead-in
            extra[0] = 0.25
        counts = [0] * N_BOOTERS
        survivors = []
        for c in customers:
            customer_days += 1
            u = rand.random()
            p_total = p_churn + extra[c.booter]
            if u < p_total:
                stint = day - c.signup_day
                tenure[stint] = tenure.get(stint, 0) + 1
                forced = u < extra[c.booter]
                if forced and rand.random() < migration_fraction:
                    dest = bisect.bisect_right(cdf, rand.random())
                    dest = min(dest, N_BOOTERS - 1)
                    migration[c.booter][dest] += 1
                    c.booter = dest
                    c.signup_day = day
                    c.spend += prices[dest]
                    counts[dest] += 1
                    survivors.append(c)
                else:
                    c.active = False
            else:
                c.spend += prices[c.booter]
                counts[c.booter] += 1
                survivors.append(c)
        births = int(dynamics.market_signups_per_day)
        for _ in range(births):
            b = min(bisect.bisect_right(cdf, rand.random()), N_BOOTERS - 1)
            newcomer = _Customer(b, day)
            newcomer.spend += prices[b]
            counts[b] += 1
            survivors.append(newcomer)
        customers = survivors
        trajectory.append(counts)
    wall_s = time.perf_counter() - start
    return customer_days, wall_s


def test_perf_ledger_vs_python_reference():
    """Columnar ledger vs per-customer objects: >= 50x customer-days/sec."""
    # Reference: small cohort, few days — its per-customer-day cost is
    # scale-invariant (one dict-free object visit per row per day).
    # Best-of-2 on both sides: compare steady-state to steady-state.
    ref_rate = 0.0
    for _ in range(2):
        ref_days, ref_wall = _run_python_reference(30_000)
        ref_rate = max(ref_rate, ref_days / ref_wall)

    rates = {}
    digests = {}
    for n in (100_000, 1_000_000):
        best = float("inf")
        for _ in range(2):  # best-of-2: drop first-touch page faults
            days, wall, digest = _run_ledger_mix(n)
            best = min(best, wall)
        rates[n] = days / best
        digests[n] = digest[:16]

    speedup = rates[1_000_000] / ref_rate
    payload = {
        "benchmark": "market_ledger_vs_python",
        "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "cpu_count": os.cpu_count() or 1,
        "mix_days": MIX_DAYS,
        "seized_days": MIX_DAYS - SEIZE_FROM,
        "python_ref_cd_per_s": round(ref_rate, 0),
        "ledger_1e5_cd_per_s": round(rates[100_000], 0),
        "ledger_1e6_cd_per_s": round(rates[1_000_000], 0),
        "speedup_1e6": round(speedup, 1),
        "digest_1e6": digests[1_000_000],
        "floor_speedup": FLOOR_SPEEDUP_1E6,
    }
    _append_bench(payload)
    print(
        f"\nmarket ledger: python ref {ref_rate / 1e6:.2f}M cd/s, "
        f"ledger 1e5 {rates[100_000] / 1e6:.1f}M cd/s, "
        f"1e6 {rates[1_000_000] / 1e6:.1f}M cd/s ({speedup:.1f}x)"
    )
    assert speedup >= FLOOR_SPEEDUP_1E6, payload


def test_perf_1e7_customers_resident_budget():
    """10^7 customers step a seizure week inside wall + RSS budgets.

    Run this leg in its own pytest process (CI does) so the process-wide
    ``ru_maxrss`` peak belongs to this benchmark.
    """
    n = 10_000_000
    customer_days, wall_s, digest = _run_ledger_mix(n, days=7)
    rate = customer_days / wall_s
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    names, popularity, price, dynamics = _market_spec(n)
    ledger = CustomerLedger(
        names, popularity, dynamics, SeedSequenceTree(42), n, daily_price=price
    )
    payload = {
        "benchmark": "market_ledger_1e7",
        "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "cpu_count": os.cpu_count() or 1,
        "n_customers": n,
        "days": 7,
        "customer_days": customer_days,
        "cd_per_s": round(rate, 0),
        "wall_s": round(wall_s, 3),
        "peak_rss_mb": round(rss_mb, 1),
        "ledger_bytes_at_init": ledger.nbytes(),
        "digest": digest[:16],
        "budget_wall_s": BUDGET_1E7_WALL_S,
        "budget_rss_mb": BUDGET_1E7_RSS_MB,
    }
    _append_bench(payload)
    print(
        f"\n1e7 seizure week: {rate / 1e6:.0f}M cd/s, wall {wall_s:.2f}s, "
        f"peak RSS {rss_mb:.0f} MB "
        f"(packed ledger {ledger.nbytes() / 1e6:.0f} MB at init)"
    )
    assert wall_s < BUDGET_1E7_WALL_S, payload
    assert rss_mb < BUDGET_1E7_RSS_MB, payload
