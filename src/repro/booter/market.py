"""The booter market: services, demand, victims, and backend scanning.

The market model generates the "wild" DDoS activity seen at the vantage
points: a population of booter services (the four from Table 1 plus
synthetic peers standing in for the wider market), Poisson attack
arrivals routed to services by popularity, a heavy-tailed victim
population (some targets are hit over and over), and the list-maintenance
scanning each live backend directs at reflector ports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.booter.attack import AttackEvent
from repro.booter.catalog import BOOTER_CATALOG, BooterCatalogEntry
from repro.booter.reflectors import (
    ReflectorChurnConfig,
    ReflectorPool,
    ReflectorSetProcess,
)
from repro.booter.service import BooterService, ServicePlan
from repro.flows.records import FlowTable
from repro.netmodel.asn import ASRegistry, ASRole
from repro.netmodel.addressing import random_ips_in_prefix
from repro.protocols.amplification import UDP, vector_by_name
from repro.stats.rng import SeedSequenceTree

__all__ = ["MarketConfig", "BooterMarket", "VictimPopulation"]

SECONDS_PER_DAY = 86_400.0


@dataclass(frozen=True)
class MarketConfig:
    """Shape of the booter market and its attack demand.

    The default rates target simulation scale, not the paper's absolute
    numbers: experiments multiply ``daily_attacks`` by their own scale
    factor. Distributional parameters (vector mix, durations, rate
    spreads) are calibrated to the paper's reported characteristics.
    """

    n_synthetic_booters: int = 20
    seized_synthetic: int = 13  # + booters A and B = the 15 seized services
    popularity_zipf_exponent: float = 1.1
    daily_attacks: float = 120.0
    n_victims: int = 1500
    victim_zipf_exponent: float = 1.2
    vector_mix: tuple[tuple[str, float], ...] = (
        ("ntp", 0.67),
        ("dns", 0.15),
        ("cldap", 0.10),
        ("memcached", 0.05),
        ("ssdp", 0.03),
    )
    plan_mix: tuple[tuple[str, float], ...] = (("non-vip", 0.92), ("vip", 0.08))
    duration_median_s: float = 300.0
    duration_sigma: float = 0.8
    max_duration_s: float = 3600.0
    # Non-VIP packet rates: lognormal with ~1.4 Gbps mean NTP equivalent.
    non_vip_pps_median: float = 520_000.0
    non_vip_pps_sigma: float = 0.55
    vip_pps_multiplier: float = 13.0
    # Rare extremely large events (multi-vector / concerted attacks) that
    # produce the paper's several-hundred-Gbps victim peaks.
    mega_attack_prob: float = 0.004
    mega_pps_multiplier: float = 40.0
    # Day-to-day demand variability (weekday effects, campaigns).
    demand_noise_sigma: float = 0.15
    # Per-vector attack rate multipliers: weak amplifiers cannot be driven
    # at NTP rates (NTP is the most potent and reliable booter vector).
    vector_rate_multipliers: tuple[tuple[str, float], ...] = (
        ("ntp", 1.0),
        ("dns", 0.35),
        ("cldap", 0.5),
        ("memcached", 1.0),
        ("ssdp", 0.25),
    )
    # Backend scanning: *market-wide* packets/second directed at each
    # protocol's port for list refresh and amplification verification.
    # Each live backend contributes proportionally to its popularity —
    # bigger booters run bigger scanning infrastructures.
    scan_pps: tuple[tuple[str, float], ...] = (
        ("ntp", 160_000.0),
        ("dns", 60_000.0),
        ("cldap", 3_000.0),
        ("memcached", 12_000.0),
        ("ssdp", 1_500.0),
    )
    # Protocols whose scanning infrastructure was run only by the big
    # (seized) services: small booters buy memcached amplifier lists
    # instead of scanning for them. Attack capability is unaffected —
    # which is why victim-side memcached traffic survives the takedown
    # while scanning collapses (Figure 4's deepest drop).
    scan_only_seized: tuple[str, ...] = ("memcached",)
    # Scan probes are small version/ping queries (not full monlist
    # requests): they land in the sub-200-byte mode of Figure 2(a).
    scan_probe_size: float = 90.0
    reflector_set_size: int = 300
    reflector_set_size_spread: float = 0.5
    shared_list_fraction: float = 0.35

    def __post_init__(self) -> None:
        if self.n_synthetic_booters < 0:
            raise ValueError("n_synthetic_booters cannot be negative")
        if self.seized_synthetic > self.n_synthetic_booters:
            raise ValueError("cannot seize more synthetic booters than exist")
        if self.daily_attacks <= 0:
            raise ValueError("daily_attacks must be positive")
        if self.n_victims <= 0:
            raise ValueError("n_victims must be positive")
        for name, share in self.vector_mix:
            vector_by_name(name)  # validates the name
            if share < 0:
                raise ValueError(f"negative share for {name}")
        if abs(sum(s for _, s in self.vector_mix) - 1.0) > 1e-9:
            raise ValueError("vector_mix shares must sum to 1")
        if abs(sum(s for _, s in self.plan_mix) - 1.0) > 1e-9:
            raise ValueError("plan_mix shares must sum to 1")


class VictimPopulation:
    """Heavy-tailed population of attack targets.

    Victims are addresses spread over all ASes; per-victim popularity is
    Zipf-distributed, so a few targets absorb repeated attacks (the
    paper's Figure 2b outliers) while most are hit once or twice.
    """

    def __init__(self, registry: ASRegistry, config: MarketConfig, seeds: SeedSequenceTree):
        rng = seeds.child("victims").rng()
        eligible = [a for a in registry if a.prefixes and a.role != ASRole.MEASUREMENT]
        if not eligible:
            raise ValueError("registry has no eligible victim ASes")
        weights = rng.dirichlet(np.ones(len(eligible)))
        counts = rng.multinomial(config.n_victims, weights)
        ips: list[np.ndarray] = []
        asns: list[np.ndarray] = []
        for asys, count in zip(eligible, counts):
            if count == 0:
                continue
            prefix = asys.prefixes[0]
            count = min(int(count), prefix.size)
            ips.append(random_ips_in_prefix(prefix, rng, count, unique=True))
            asns.append(np.full(count, asys.asn, dtype=np.int64))
        self.ips = np.concatenate(ips)
        self.asns = np.concatenate(asns)
        ranks = np.arange(1, self.ips.size + 1, dtype=float)
        zipf = ranks ** (-config.victim_zipf_exponent)
        rng.shuffle(zipf)
        self.weights = zipf / zipf.sum()

    def __len__(self) -> int:
        return int(self.ips.size)

    def sample(self, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``n`` victims (with repetition) -> (ips, asns)."""
        idx = rng.choice(self.ips.size, size=n, p=self.weights)
        return self.ips[idx], self.asns[idx]


class BooterMarket:
    """All booter services plus demand and scanning processes."""

    def __init__(
        self,
        registry: ASRegistry,
        pools: dict[str, ReflectorPool],
        config: MarketConfig,
        seeds: SeedSequenceTree,
    ) -> None:
        self.registry = registry
        self.pools = pools
        self.config = config
        self.seeds = seeds
        self.victims = VictimPopulation(registry, config, seeds.child("population"))
        self.services: dict[str, BooterService] = {}
        self._build_services()
        self._vector_names = [name for name, _ in config.vector_mix]
        self._vector_shares = np.array([s for _, s in config.vector_mix])
        self._plan_names = [name for name, _ in config.plan_mix]
        self._plan_shares = np.array([s for _, s in config.plan_mix])
        self._rate_multipliers = dict(config.vector_rate_multipliers)

    # -- construction -------------------------------------------------------

    def _backend_location(self, rng: np.random.Generator) -> tuple[int, int]:
        """(asn, ip) for a booter backend: hosted in some stub AS."""
        stubs = [a for a in self.registry.by_role(ASRole.STUB) if a.prefixes]
        asys = stubs[int(rng.integers(0, len(stubs)))]
        ip = int(random_ips_in_prefix(asys.prefixes[0], rng, 1)[0])
        return asys.asn, ip

    def _make_service(
        self, entry: BooterCatalogEntry, popularity: float, seeds: SeedSequenceTree
    ) -> BooterService:
        rng = seeds.child("build").rng()
        config = self.config
        set_size = max(
            30,
            int(
                config.reflector_set_size
                * rng.lognormal(0.0, config.reflector_set_size_spread)
            ),
        )
        reflector_sets: dict[str, ReflectorSetProcess] = {}
        for protocol in entry.protocols:
            pool = self.pools.get(protocol)
            if pool is None:
                continue
            churn = ReflectorChurnConfig(
                set_size=min(set_size, max(1, int(len(pool) * config.shared_list_fraction))),
                daily_churn=float(rng.uniform(0.01, 0.06)),
                replacement_prob=float(rng.uniform(0.003, 0.02)),
            )
            reflector_sets[protocol] = ReflectorSetProcess(
                pool,
                churn,
                seeds.child("reflectors", protocol),
                draw_pool_fraction=config.shared_list_fraction,
            )
        non_vip_pps = float(
            rng.lognormal(np.log(config.non_vip_pps_median), config.non_vip_pps_sigma)
        )
        plans = {
            "non-vip": ServicePlan(
                "non-vip", entry.price_non_vip_usd, non_vip_pps, max_duration_s=600.0
            ),
            "vip": ServicePlan(
                "vip",
                entry.price_vip_usd,
                non_vip_pps * config.vip_pps_multiplier,
                max_duration_s=1800.0,
            ),
        }
        backend_asn, backend_ip = self._backend_location(rng)
        seized_only = set(config.scan_only_seized)
        scan_rates = {
            protocol: market_pps * popularity
            for protocol, market_pps in config.scan_pps
            if entry.offers(protocol)
            and protocol in self.pools
            and (entry.seized or protocol not in seized_only)
        }
        return BooterService(
            catalog=entry,
            plans=plans,
            reflector_sets=reflector_sets,
            popularity=popularity,
            backend_asn=backend_asn,
            backend_ip=backend_ip,
            scan_pps_per_protocol=scan_rates,
        )

    def _build_services(self) -> None:
        config = self.config
        entries: list[BooterCatalogEntry] = list(BOOTER_CATALOG.values())
        for i in range(config.n_synthetic_booters):
            seized = i < config.seized_synthetic
            entries.append(
                BooterCatalogEntry(
                    name=f"S{i:02d}",
                    seized=seized,
                    measurement_months=(),
                    protocols=("ntp", "dns", "cldap", "memcached", "ssdp"),
                    price_non_vip_usd=15.0,
                    price_vip_usd=150.0,
                )
            )
        ranks = np.arange(1, len(entries) + 1, dtype=float)
        popularity = ranks ** (-config.popularity_zipf_exponent)
        # Seized services were the market leaders (the FBI picked popular
        # ones): give seized entries the head of the Zipf curve.
        entries.sort(key=lambda e: not e.seized)
        popularity /= popularity.sum()
        for entry, pop in zip(entries, popularity):
            self.services[entry.name] = self._make_service(
                entry, float(pop), self.seeds.child("service", entry.name)
            )

    # -- demand --------------------------------------------------------------

    def seized_services(self) -> list[BooterService]:
        return [s for s in self.services.values() if s.catalog.seized]

    def service_names(self) -> list[str]:
        return sorted(self.services)

    def popularity_vector(self, names: list[str] | None = None) -> np.ndarray:
        """Normalized popularity weights aligned with ``names``.

        The shared demand/signup weighting used by the customer models
        (:mod:`repro.economics`): raises a clear :class:`ValueError`
        when every service's popularity is zero instead of letting a
        ``0/0`` propagate NaN weights into downstream draws.
        """
        if names is None:
            names = self.service_names()
        weights = np.array([self.services[n].popularity for n in names], dtype=np.float64)
        total = weights.sum()
        if total <= 0:
            raise ValueError(
                "every service popularity is zero — cannot form demand weights"
            )
        return weights / total

    def attacks_for_day(
        self,
        day: int,
        demand_weights: dict[str, float] | None = None,
        demand_scale: float = 1.0,
    ) -> list[AttackEvent]:
        """Generate the day's attack events.

        ``demand_weights`` overrides each service's share of demand (used
        by the takedown scenario); ``demand_scale`` scales total demand.
        Determinism: the same (seed, day, weights, scale) always produces
        the same events.
        """
        if demand_scale < 0:
            raise ValueError("demand_scale cannot be negative")
        rng = self.seeds.child("demand", day).rng()
        names = self.service_names()
        if demand_weights is None:
            weights = np.array([self.services[n].popularity for n in names])
        else:
            weights = np.array([demand_weights.get(n, 0.0) for n in names])
        total_weight = weights.sum()
        if total_weight <= 0:
            return []
        weights = weights / total_weight

        day_level = rng.lognormal(0.0, self.config.demand_noise_sigma)
        n_attacks = rng.poisson(self.config.daily_attacks * demand_scale * day_level)
        if n_attacks == 0:
            return []
        victim_ips, victim_asns = self.victims.sample(rng, n_attacks)
        service_idx = rng.choice(len(names), size=n_attacks, p=weights)
        start_times = np.sort(rng.uniform(0, SECONDS_PER_DAY, n_attacks)) + day * SECONDS_PER_DAY
        durations = np.clip(
            rng.lognormal(np.log(self.config.duration_median_s), self.config.duration_sigma, n_attacks),
            30.0,
            self.config.max_duration_s,
        )

        events: list[AttackEvent] = []
        for i in range(n_attacks):
            service = self.services[names[service_idx[i]]]
            offered = [v for v in self._vector_names if v in service.reflector_sets]
            if not offered:
                continue
            shares = np.array(
                [self._vector_shares[self._vector_names.index(v)] for v in offered]
            )
            vector = offered[int(rng.choice(len(offered), p=shares / shares.sum()))]
            plan = self._plan_names[int(rng.choice(len(self._plan_names), p=self._plan_shares))]
            event = service.launch_attack(
                victim_ip=int(victim_ips[i]),
                victim_asn=int(victim_asns[i]),
                vector_name=vector,
                start_time=float(start_times[i]),
                duration_s=float(durations[i]),
                plan_name=plan,
                day=day,
                seeds=self.seeds.child("launch", day, i),
                rate_multiplier=self._rate_multipliers.get(vector, 1.0),
            )
            if rng.random() < self.config.mega_attack_prob:
                boosted = self.config.mega_pps_multiplier * event.total_pps
                event = AttackEvent(
                    booter=event.booter,
                    vector=event.vector,
                    plan="mega",
                    victim_ip=event.victim_ip,
                    victim_asn=event.victim_asn,
                    start_time=event.start_time,
                    duration_s=event.duration_s,
                    total_pps=boosted,
                    reflector_ips=event.reflector_ips,
                    reflector_asns=event.reflector_asns,
                    reflector_weights=event.reflector_weights,
                )
            events.append(event)
        return events

    # -- backend scanning --------------------------------------------------------

    def scan_flows_for_day(
        self,
        day: int,
        activity: dict[str, float] | None = None,
        bin_seconds: float = 3600.0,
    ) -> FlowTable:
        """List-maintenance scan traffic of all live backends for ``day``.

        ``activity`` maps service name -> multiplier in [0, 1] (0 after
        seizure). Scans hit a random sample of the global pool — the whole
        point of scanning is discovering reflectors beyond the current
        working set.
        """
        rng = self.seeds.child("scans", day).rng()
        n_bins = int(SECONDS_PER_DAY / bin_seconds)
        # One part per live (service, protocol), service by service. Each
        # spreads a bin's probes over a sample of its pool's reflectors:
        # n_bins x n_targets cells, some of which get no probe.
        parts: list[tuple[BooterService, str, float]] = []
        for name in self.service_names():
            service = self.services[name]
            mult = 1.0 if activity is None else activity.get(name, 1.0)
            if mult > 0:
                parts.extend(
                    (service, protocol, pps * mult)
                    for protocol, pps in service.scan_pps_per_protocol.items()
                )
        protocols = list(self.pools)
        part_pool = np.array([protocols.index(p) for _, p, _ in parts], dtype=np.int64)
        n_targets = np.array([min(50, len(self.pools[p])) for p in protocols])[part_pool]
        cell_start = np.concatenate(([0], np.cumsum(n_bins * n_targets)))
        targets = np.empty(cell_start[-1], dtype=np.int64)
        packets = np.empty(cell_start[-1], dtype=np.int64)
        ports = np.empty(cell_start[-1], dtype=np.uint16)
        flows = np.zeros(len(parts), dtype=np.int64)
        n_flows = 0
        for i, (_, protocol, rate) in enumerate(parts):
            daily_jitter = rng.lognormal(0.0, 0.1)
            packets_per_bin = rate * daily_jitter * bin_seconds
            # Aggregate each bin's scanning into flows towards a sample
            # of targets (flow records, not per-probe packets).
            width = int(n_targets[i])
            cells = slice(cell_start[i], cell_start[i + 1])
            targets[cells] = rng.choice(len(self.pools[protocol]), size=(n_bins, width)).ravel()
            packets[cells] = rng.multinomial(
                int(packets_per_bin), np.full(width, 1.0 / width), size=n_bins
            ).ravel()
            n = int(np.count_nonzero(packets[cells]))
            if n:
                ports[n_flows : n_flows + n] = rng.integers(1024, 65535, n)
                flows[i] = n
                n_flows += n

        # The flows are the probed cells, part by part.
        flat = np.flatnonzero(packets)
        part = np.repeat(np.arange(len(parts)), flows)
        bins = (flat - cell_start[part]) // n_targets[part]
        pool_sizes = [len(self.pools[p]) for p in protocols]
        chosen = (np.cumsum(pool_sizes) - pool_sizes)[part_pool[part]] + targets[flat]
        pool_ips = np.concatenate([self.pools[p].ips for p in protocols])
        pool_asns = np.concatenate([self.pools[p].asns for p in protocols])
        flow_packets = packets[flat]
        return FlowTable(
            {
                "time": day * SECONDS_PER_DAY + bins * bin_seconds,
                "src_ip": np.repeat([s.backend_ip for s, _, _ in parts], flows),
                "dst_ip": pool_ips[chosen],
                "proto": np.full(n_flows, UDP, dtype=np.uint8),
                "src_port": ports[:n_flows],
                "dst_port": np.repeat([vector_by_name(p).port for _, p, _ in parts], flows),
                "packets": flow_packets,
                "bytes": np.round(flow_packets * self.config.scan_probe_size).astype(np.int64),
                "src_asn": np.repeat([s.backend_asn for s, _, _ in parts], flows),
                "dst_asn": pool_asns[chosen],
            }
        )
