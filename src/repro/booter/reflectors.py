"""Reflector pools and per-booter reflector-set dynamics.

Section 3.2 of the paper derives several facts about how booters manage
their amplifier lists, all of which this module reproduces as a stochastic
process:

* booters use a *small* working set (hundreds) out of a huge global pool
  (millions of NTP servers on shodan);
* working sets are stable within a day (same-day attacks overlap heavily);
* sets churn moderately over weeks (~30% over two weeks for booter B);
* a booter occasionally *replaces* its whole set overnight;
* sets overlap *between* booters occasionally (shared list sources);
* VIP and non-VIP tiers of the same booter use the *same* set — VIP just
  drives each reflector at a higher packet rate.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.netmodel.asn import ASRegistry, ASRole
from repro.netmodel.addressing import random_ips_in_prefix
from repro.stats.rng import SeedSequenceTree

__all__ = ["ReflectorPool", "ReflectorChurnConfig", "ReflectorSetProcess"]


class ReflectorPool:
    """The global population of abusable reflectors for one protocol.

    Reflectors are (ip, asn) pairs spread over the topology's ASes. A
    placement bias lets protocols differ the way the paper observed: NTP
    amplifiers are widespread across many networks, while memcached
    amplifiers concentrate in few (hosting) networks.
    """

    def __init__(
        self,
        protocol: str,
        ips: np.ndarray,
        asns: np.ndarray,
    ) -> None:
        ips = np.asarray(ips, dtype=np.uint32)
        asns = np.asarray(asns, dtype=np.int64)
        if ips.size != asns.size:
            raise ValueError("ips and asns must align")
        if ips.size == 0:
            raise ValueError("a reflector pool cannot be empty")
        if np.unique(ips).size != ips.size:
            raise ValueError("reflector IPs must be unique")
        self.protocol = protocol
        self.ips = ips
        self.asns = asns

    def __len__(self) -> int:
        return int(self.ips.size)

    @staticmethod
    def generate(
        protocol: str,
        size: int,
        registry: ASRegistry,
        seeds: SeedSequenceTree,
        concentration: float = 1.0,
        member_weight_multiplier: float = 1.0,
    ) -> "ReflectorPool":
        """Scatter ``size`` reflectors across the registry's stub/tier-2 space.

        ``concentration`` controls placement skew: 1.0 spreads reflectors
        roughly uniformly over eligible ASes (NTP-like), larger values
        concentrate them on few ASes (memcached-like). Implemented as
        Dirichlet(1/concentration) AS weights. ``member_weight_multiplier``
        biases placement towards IXP-member ASes (memcached amplifiers
        cluster in hosting networks, which peer at IXPs — the reason the
        paper's VIP memcached attack arrived 88.59% via peering).
        """
        if size <= 0:
            raise ValueError("pool size must be positive")
        if concentration <= 0:
            raise ValueError("concentration must be positive")
        if member_weight_multiplier <= 0:
            raise ValueError("member_weight_multiplier must be positive")
        rng = seeds.child("reflector-pool", protocol).rng()
        hosts = [
            a for a in registry if a.role in (ASRole.STUB, ASRole.TIER2) and a.prefixes
        ]
        if not hosts:
            raise ValueError("registry has no eligible reflector-hosting ASes")
        weights = rng.dirichlet(np.full(len(hosts), 1.0 / concentration))
        if member_weight_multiplier != 1.0:
            member_mask = np.array([a.ixp_member for a in hosts])
            weights = np.where(member_mask, weights * member_weight_multiplier, weights)
            weights = weights / weights.sum()
        counts = rng.multinomial(size, weights)
        ips: list[np.ndarray] = []
        asns: list[np.ndarray] = []
        for asys, count in zip(hosts, counts):
            if count == 0:
                continue
            prefix = asys.prefixes[0]
            count = min(int(count), prefix.size)
            ips.append(random_ips_in_prefix(prefix, rng, count, unique=True))
            asns.append(np.full(count, asys.asn, dtype=np.int64))
        all_ips = np.concatenate(ips)
        all_asns = np.concatenate(asns)
        # Cross-AS collisions cannot happen (prefixes are disjoint).
        return ReflectorPool(protocol, all_ips, all_asns)

    def unique_asns(self) -> np.ndarray:
        return np.unique(self.asns)


@dataclass(frozen=True)
class ReflectorChurnConfig:
    """Parameters of a booter's reflector-set evolution.

    Attributes:
        set_size: working-set size (reflectors used per attack era).
        daily_churn: fraction of the set replaced per day (paper: ~30%
            over two weeks ≈ 0.025/day for booter B).
        replacement_prob: per-day probability of discarding the entire set
            and drawing a fresh one (the sudden switch of booter B between
            2018-06-12 and 2018-06-13).
    """

    set_size: int = 300
    daily_churn: float = 0.025
    replacement_prob: float = 0.01

    def __post_init__(self) -> None:
        if self.set_size <= 0:
            raise ValueError("set_size must be positive")
        if not 0.0 <= self.daily_churn <= 1.0:
            raise ValueError("daily_churn must be in [0, 1]")
        if not 0.0 <= self.replacement_prob <= 1.0:
            raise ValueError("replacement_prob must be in [0, 1]")


class ReflectorSetProcess:
    """Deterministic day-indexed evolution of one booter's reflector set.

    The state on day ``d`` is a sorted array of indices into the pool.
    Day 0 draws the initial set; each subsequent day replaces a binomial
    number of members (``daily_churn``) or, with ``replacement_prob``, the
    entire set. Days are materialized lazily and cached, so queries for
    arbitrary days are cheap after the first pass.

    Two booters share reflectors only by chance — but because both draw
    from the same finite pool (optionally from a shared "list source"
    subset via ``draw_pool_fraction``), occasional overlap arises exactly
    as in Figure 1(c), marker (4).
    """

    def __init__(
        self,
        pool: ReflectorPool,
        config: ReflectorChurnConfig,
        seeds: SeedSequenceTree,
        draw_pool_fraction: float = 1.0,
        source_seeds: SeedSequenceTree | None = None,
    ) -> None:
        """``source_seeds`` scopes the *list source* (the drawable subset):
        two booters constructed with the same ``source_seeds`` buy from the
        same reflector-list seller and therefore overlap occasionally,
        while their day-to-day churn (scoped by ``seeds``) stays
        independent."""
        if not 0.0 < draw_pool_fraction <= 1.0:
            raise ValueError("draw_pool_fraction must be in (0, 1]")
        if config.set_size > len(pool) * draw_pool_fraction:
            raise ValueError(
                f"set_size {config.set_size} exceeds the drawable pool "
                f"({len(pool)} * {draw_pool_fraction})"
            )
        self.pool = pool
        self.config = config
        self._seeds = seeds
        self._rng = seeds.child("reflector-set").rng()
        n_drawable = int(len(pool) * draw_pool_fraction)
        # The booter's list source: a fixed subset of the global pool.
        source = source_seeds if source_seeds is not None else seeds
        self._drawable = np.sort(
            source.child("drawable").rng().choice(len(pool), size=n_drawable, replace=False)
        )
        self._days: list[np.ndarray] = []
        # The latest day's set as sorted positions into ``_drawable`` (the
        # pool indices are ``_drawable[positions]``, in the same order,
        # because ``_drawable`` is sorted): the walk draws positions, and
        # ``rng.choice(n, ...)`` consumes the stream exactly as
        # ``rng.choice(array_of_n, ...)`` does.
        self._positions = np.empty(0, dtype=np.int64)
        # Materialization consumes self._rng sequentially, day by day.
        # Concurrent computations in one process (repro-serve runs them
        # in asyncio.to_thread workers, several with --compute-slots
        # above 1) must extend the sequence one holder at a time or the
        # draws interleave and the day sets stop being reproducible.
        self._lock = threading.Lock()

    def _draw_fresh_set(self) -> np.ndarray:
        return np.sort(
            self._rng.choice(self._drawable.size, size=self.config.set_size, replace=False)
        )

    def _churned_set(self, n_churn: int) -> np.ndarray:
        """The current set with ``n_churn`` members swapped for drawable non-members."""
        set_size = self.config.set_size
        keep = self._rng.choice(set_size, size=set_size - n_churn, replace=False)
        # Order does not matter here: the day's set is sorted below.
        kept = self._positions[keep]
        free = np.ones(self._drawable.size, dtype=bool)
        free[kept] = False
        candidates = np.flatnonzero(free)
        fresh = candidates[self._rng.choice(candidates.size, size=n_churn, replace=False)]
        return np.sort(np.concatenate([kept, fresh]))

    def set_for_day(self, day: int) -> np.ndarray:
        """Sorted pool indices in use on ``day`` (day 0 = process epoch)."""
        if day < 0:
            raise ValueError("day must be non-negative")
        if len(self._days) > day:
            # Already materialized: append-only, so a lock-free read of a
            # settled prefix entry is safe.
            return self._days[day]
        with self._lock:
            while len(self._days) <= day:
                if not self._days or self._rng.random() < self.config.replacement_prob:
                    self._positions = self._draw_fresh_set()
                else:
                    n_churn = self._rng.binomial(self.config.set_size, self.config.daily_churn)
                    if n_churn == 0:
                        self._days.append(self._days[-1])
                        continue
                    self._positions = self._churned_set(n_churn)
                self._days.append(self._drawable[self._positions])
            return self._days[day]

    def ips_for_day(self, day: int) -> np.ndarray:
        return self.pool.ips[self.set_for_day(day)]

    def asns_for_day(self, day: int) -> np.ndarray:
        return self.pool.asns[self.set_for_day(day)]


def overlap_fraction(set_a: np.ndarray, set_b: np.ndarray) -> float:
    """|A ∩ B| / |A ∪ B| for two index arrays (Jaccard)."""
    a = np.unique(set_a)
    b = np.unique(set_b)
    if a.size == 0 and b.size == 0:
        return 1.0
    inter = np.intersect1d(a, b, assume_unique=True).size
    union = a.size + b.size - inter
    return inter / union
