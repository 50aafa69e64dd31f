"""The IXP observatory: the measurement AS used for self-attacks.

Section 2/3 of the paper: a dedicated measurement AS, connected to the IXP
over a 10GE link, announcing an otherwise unused /24, peering
multilaterally via the route server and buying transit over the same
physical interface. Attacks are captured unsampled at the AS; the IXP's
sampled view covers what exceeds the interface.

:class:`IXPObservatory` drives that setup: it hands out an address of the
/24 per attack (the paper isolates every measurement on a new address;
the campaign running them numbers the hosts), expands the attack into
per-second flows, applies reachability (transit on/off), ingress
labeling, interface capacity, and BGP-flap dynamics, and reports the
per-second series the paper plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.booter.attack import AttackEvent, synthesize_attack_flows
from repro.netmodel.addressing import Prefix
from repro.netmodel.asn import ASRegistry
from repro.netmodel.router import MeasurementRouter
from repro.netmodel.topology import ASTopology

__all__ = ["SelfAttackMeasurement", "IXPObservatory"]


@dataclass
class SelfAttackMeasurement:
    """Post-mortem of one self-attack.

    Per-second arrays are aligned with ``seconds`` (offsets from attack
    start). Rates are *delivered* traffic after capacity clipping and
    transit flaps, as captured at the measurement AS.
    """

    booter: str
    vector: str
    plan: str
    transit_enabled: bool
    seconds: np.ndarray
    delivered_bps: np.ndarray
    offered_bps: np.ndarray
    transit_bps: np.ndarray
    peering_bps: np.ndarray
    transit_up: np.ndarray
    reflectors_per_second: np.ndarray
    peers_per_second: np.ndarray
    reflector_ips: np.ndarray
    peer_asns: np.ndarray
    peer_byte_share: dict[int, float] = field(default_factory=dict)

    @property
    def peak_bps(self) -> float:
        return float(self.delivered_bps.max()) if self.delivered_bps.size else 0.0

    @property
    def peak_offered_bps(self) -> float:
        """Peak rate as observed at the IXP fabric (pre interface clipping).

        The paper measures attack traffic exceeding the 10GE interface via
        the IXP's sampled traces — this is the 20 Gbps of Figure 1(b).
        """
        return float(self.offered_bps.max()) if self.offered_bps.size else 0.0

    @property
    def mean_bps(self) -> float:
        return float(self.delivered_bps.mean()) if self.delivered_bps.size else 0.0

    @property
    def n_reflectors(self) -> int:
        return int(self.reflector_ips.size)

    @property
    def n_peers(self) -> int:
        return int(self.peer_asns.size)

    @property
    def transit_share(self) -> float:
        """Fraction of delivered bytes that arrived via the transit link."""
        total = self.transit_bps.sum() + self.peering_bps.sum()
        return float(self.transit_bps.sum() / total) if total else 0.0

    def flapped(self) -> bool:
        return bool(self.transit_enabled and not self.transit_up.all())


class IXPObservatory:
    """The measurement AS at the IXP.

    Args:
        registry: scenario AS registry (must contain ``asn``).
        topology: scenario topology.
        asn: the measurement AS number.
        prefix: the /24 announced for the experiments.
        transit_provider: ASN of the transit upstream.
        capacity_bps: physical interface rate (10GE).
    """

    def __init__(
        self,
        registry: ASRegistry,
        topology: ASTopology,
        asn: int,
        prefix: Prefix,
        transit_provider: int,
        capacity_bps: float = 10e9,
        peering_adoption: float = 0.5,
        cone_export_prob: float = 0.3,
        decision_seed: int = 0,
        flap_trigger_seconds: int = 120,
        flap_holddown_seconds: int = 50,
    ) -> None:
        if prefix.length != 24:
            raise ValueError(f"the observatory announces a /24, got /{prefix.length}")
        self.registry = registry
        self.topology = topology
        self.asn = asn
        self.prefix = prefix
        self.transit_provider = transit_provider
        self.capacity_bps = capacity_bps
        self.peering_adoption = peering_adoption
        self.cone_export_prob = cone_export_prob
        self.decision_seed = decision_seed
        self.flap_trigger_seconds = flap_trigger_seconds
        self.flap_holddown_seconds = flap_holddown_seconds

    def measurement_ip(self, host: int) -> int:
        """Address ``host`` of the /24 (1-254: not the network or broadcast address).

        The observatory keeps no state between measurements: whoever runs
        them numbers the hosts, one fresh address per measurement.
        """
        if not 1 <= host < self.prefix.size - 1:
            raise RuntimeError("the /24 ran out of fresh measurement addresses")
        return self.prefix.address_at(host)

    def capture_attack(
        self,
        event: AttackEvent,
        rng: np.random.Generator,
        transit_enabled: bool = True,
        bin_jitter: float = 0.25,
    ) -> SelfAttackMeasurement:
        """Run ``event`` against the observatory and measure it.

        The event's victim must be an address inside the observatory /24.
        Capture is unsampled and per-second. ``bin_jitter`` is the
        per-second attack-wide rate wiggle (VIP attacks run much steadier
        than non-VIP ones).
        """
        if not self.prefix.contains(event.victim_ip):
            raise ValueError("self-attack victim must be inside the observatory /24")
        router = MeasurementRouter(
            self.registry,
            self.topology,
            asn=self.asn,
            transit_provider=self.transit_provider,
            transit_enabled=transit_enabled,
            capacity_bps=self.capacity_bps,
            peering_adoption=self.peering_adoption,
            cone_export_prob=self.cone_export_prob,
            decision_seed=self.decision_seed,
            flap_trigger_seconds=self.flap_trigger_seconds,
            flap_holddown_seconds=self.flap_holddown_seconds,
        )
        flows = synthesize_attack_flows(event, rng, bin_seconds=1.0, bin_jitter=bin_jitter)
        origins, handover = router.ingress_for_sources(flows["src_asn"])
        reachable = origins != 2
        flows = flows.with_columns(peer_asn=handover).filter(reachable)
        origins = origins[reachable]

        n_secs = int(np.ceil(event.end_time)) - int(np.floor(event.start_time))
        t0 = np.floor(event.start_time)
        seconds = np.arange(n_secs, dtype=np.int64)
        sec_idx = (flows["time"] - t0).astype(np.int64)
        in_range = (sec_idx >= 0) & (sec_idx < n_secs)
        sec_idx = sec_idx[in_range]
        flows = flows.filter(in_range)
        origins = origins[in_range]

        bits = flows["bytes"].astype(np.float64) * 8.0
        transit_bits = np.zeros(n_secs)
        peering_bits = np.zeros(n_secs)
        np.add.at(transit_bits, sec_idx[origins == 0], bits[origins == 0])
        np.add.at(peering_bits, sec_idx[origins == 1], bits[origins == 1])

        delivered, transit_up = router.deliver_timeseries(transit_bits, peering_bits)
        # Offered load at the IXP fabric: what the sampled IXP trace sees,
        # unconstrained by our 10GE interface (but transit traffic stops
        # reaching the fabric while the transit route is withdrawn).
        effective_transit = np.where(transit_up, transit_bits, 0.0)
        offered = effective_transit + peering_bits
        # Capacity clipping applies proportionally to both ingresses.
        with np.errstate(divide="ignore", invalid="ignore"):
            clip = np.where(offered > 0, np.minimum(1.0, self.capacity_bps / offered), 1.0)
        effective_transit = effective_transit * clip
        effective_peering = peering_bits * clip

        # Per-second reflector and peer counts (only flows that were
        # actually delivered: transit flows in flap seconds don't count).
        alive = transit_up[sec_idx] | (origins == 1)
        live_secs = sec_idx[alive]
        refl_keys = np.unique(
            live_secs.astype(np.uint64) << np.uint64(32)
            | flows["src_ip"][alive].astype(np.uint64)
        )
        reflectors_per_second = np.bincount(
            (refl_keys >> np.uint64(32)).astype(np.int64), minlength=n_secs
        )
        peer_keys = np.unique(
            live_secs.astype(np.uint64) << np.uint64(32)
            | flows["peer_asn"][alive].astype(np.uint64)
        )
        peers_per_second = np.bincount(
            (peer_keys >> np.uint64(32)).astype(np.int64), minlength=n_secs
        )

        # Byte share per IXP peer (Fig. 1b: one member carried 45.55% of
        # the peering traffic of the VIP NTP attack).
        peer_share: dict[int, float] = {}
        peering_mask = origins == 1
        peering_total = float(bits[peering_mask].sum())
        if peering_total > 0:
            for peer in np.unique(flows["peer_asn"][peering_mask]):
                share = float(
                    bits[peering_mask & (flows["peer_asn"] == peer)].sum() / peering_total
                )
                peer_share[int(peer)] = share

        return SelfAttackMeasurement(
            booter=event.booter,
            vector=event.vector,
            plan=event.plan,
            transit_enabled=transit_enabled,
            seconds=seconds,
            delivered_bps=delivered,
            offered_bps=offered,
            transit_bps=effective_transit,
            peering_bps=effective_peering,
            transit_up=transit_up,
            reflectors_per_second=reflectors_per_second,
            peers_per_second=peers_per_second,
            reflector_ips=np.unique(flows["src_ip"]),
            peer_asns=np.unique(flows["peer_asn"][peering_mask])
            if peering_mask.any()
            else np.empty(0, dtype=np.int64),
            peer_byte_share=peer_share,
        )
