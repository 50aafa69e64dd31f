"""Scenario configuration: one dataclass for the whole world."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.booter.market import MarketConfig
from repro.booter.takedown import TakedownScenario
from repro.netmodel.topology import TopologyConfig
from repro.scenario.background import BackgroundConfig
from repro.timeutil import TAKEDOWN_DATE, day_index, parse_date

__all__ = ["ScenarioConfig"]

#: Capture windows in traffic-epoch day indices (epoch = 2018-09-30).
_IXP_START = day_index(parse_date("2018-10-27"))
_TIER1_START = day_index(parse_date("2018-12-12"))
_TIER1_END = day_index(parse_date("2018-12-30")) + 1
_TIER2_START = 0  # trace starts 2018-09-27, clipped to the scenario epoch
_SCENARIO_DAYS = 122  # 2018-09-30 .. 2019-01-30 (the paper's 122-day series)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a :class:`~repro.scenario.scenario.Scenario` needs.

    Defaults reproduce the paper's setup at simulation scale: the 122-day
    takedown window, per-vantage-point capture windows, the seizure on
    day 80 (2018-12-19), IXP sampling, and the market/topology/pool
    shapes. ``scale`` multiplies attack demand and background volume
    together so experiments can trade fidelity for speed.
    """

    seed: int = 2018
    scale: float = 1.0
    n_days: int = _SCENARIO_DAYS
    takedown_day: int = day_index(TAKEDOWN_DATE)

    # Per-event traffic seeding: with False (the default, matching every
    # historical run) a day's attack/trigger flows consume one sequential
    # stream seeded by ("traffic", day); with True each event draws from
    # its own ("traffic", day, "event", i) stream, which makes the day's
    # synthesis decomposable into event-range shards that merge back
    # bit-identically (see Scenario.day_traffic_shard). The two modes
    # produce *different* (equally valid) flow values, so the flag is
    # part of the content hash and cache keys never collide.
    per_event_seeds: bool = False

    topology: TopologyConfig = field(default_factory=TopologyConfig)
    market: MarketConfig = field(default_factory=MarketConfig)
    background: BackgroundConfig = field(default_factory=BackgroundConfig)

    # Reflector pools: size and AS concentration per protocol. NTP servers
    # are everywhere; memcached amplifiers cluster in few hosting networks
    # (Section 3.2's takeaway about why NTP attacks are the most reliable).
    pool_sizes: tuple[tuple[str, int], ...] = (
        ("ntp", 6000),
        ("dns", 5000),
        ("cldap", 1500),
        ("memcached", 700),
        ("ssdp", 1200),
    )
    pool_concentrations: tuple[tuple[str, float], ...] = (
        ("ntp", 1.0),
        ("dns", 1.0),
        ("cldap", 1.0),
        ("memcached", 6.0),
        ("ssdp", 1.5),
    )
    # Placement bias towards IXP-member (hosting) ASes per protocol.
    pool_member_bias: tuple[tuple[str, float], ...] = (("memcached", 25.0),)

    # Vantage points.
    ixp_window: tuple[int, int] = (_IXP_START, _SCENARIO_DAYS)
    tier1_window: tuple[int, int] = (_TIER1_START, _TIER1_END)
    tier2_window: tuple[int, int] = (_TIER2_START, _SCENARIO_DAYS)
    ixp_sampling: int = 10_000
    isp_sampling: int = 1_000

    # The measurement AS (IXP observatory).
    observatory_prefix: str = "198.51.100.0/24"
    observatory_asn: int = 64512
    observatory_capacity_bps: float = 10e9
    peering_adoption: float = 0.5
    cone_export_prob: float = 0.3

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.n_days <= 0:
            raise ValueError("n_days must be positive")
        if not 0 <= self.takedown_day < self.n_days:
            raise ValueError("takedown_day must fall inside the scenario")
        for name, size in self.pool_sizes:
            if size <= 0:
                raise ValueError(f"pool size for {name} must be positive")
        for window in (self.ixp_window, self.tier1_window, self.tier2_window):
            if window[1] <= window[0]:
                raise ValueError(f"empty capture window {window}")

    def default_takedown(self) -> TakedownScenario:
        """The FBI takedown with the paper's timeline (booter A revives +3d)."""
        return TakedownScenario(takedown_day=self.takedown_day)

    def content_hash(self) -> str:
        """Stable hex digest of the config's full content, seed included.

        Two configs with equal field values hash identically across
        processes and Python versions (canonical JSON + SHA-256); any
        field change — including ``seed`` — changes the hash. This keys
        the day-result cache and the per-process scenario memo in
        :mod:`repro.core.parallel`, so every cache lookup asks for it.
        The config and everything in it are frozen, so the digest is
        computed once per instance and memoized.
        """
        cached = self.__dict__.get("_content_hash")
        if cached is None:
            cached = self._compute_content_hash()
            object.__setattr__(self, "_content_hash", cached)
        return cached

    def _compute_content_hash(self) -> str:
        # Local import: serialize imports this module.
        from repro.scenario.serialize import config_to_dict

        content = config_to_dict(self)
        # At the default (False) this field is absent from the payload, so
        # hashes — and therefore day caches, goldens, and the drift
        # baseline — from before the field existed remain valid. True
        # changes the hash: per-event seeding draws a different world.
        if not content.get("per_event_seeds"):
            content.pop("per_event_seeds", None)
        # topology.sampler was added after the hash was pinned; at its
        # default ("legacy", the exact historical RNG stream) it is
        # stripped for the same reason. "vectorized" DOES hash: it draws
        # a different world.
        if content.get("topology", {}).get("sampler") == "legacy":
            content["topology"].pop("sampler", None)
        payload = json.dumps(content, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()
