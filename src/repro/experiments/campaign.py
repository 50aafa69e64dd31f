"""The self-attack campaign (Section 3): specs and execution.

Recreates the paper's purchase list: ten non-VIP attack runs (including
three with the transit link disabled), two VIP runs from booter B, and
the sixteen dated NTP attacks whose reflector sets Figure 1(c) compares.
Packet rates per booter are calibrated to the measured traffic levels
(booter A and B peaking at ~7 Gbps non-VIP; booter B's VIP NTP at
~20 Gbps and VIP Memcached at ~10 Gbps).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.booter.catalog import BOOTER_CATALOG
from repro.booter.reflectors import ReflectorChurnConfig, ReflectorSetProcess
from repro.booter.service import BooterService, ServicePlan
from repro.scenario import Scenario
from repro.vantage.observatory import SelfAttackMeasurement

__all__ = ["AttackSpec", "SelfAttackCampaign", "NON_VIP_SPECS", "VIP_SPECS"]


@dataclass(frozen=True)
class AttackSpec:
    """One purchased attack run."""

    label: str
    booter: str
    vector: str
    plan: str
    transit: bool = True
    duration_s: float = 120.0
    day: int = 0
    date_label: str = ""
    list_epoch: str = "era0"  # which reflector list generation is in use


# Packet rates per (booter, plan): calibrated against Section 3.2.
# Non-VIP NTP runs average ~1.4 Gbps with peaks at ~7 Gbps (booters A/B);
# booter B's VIP NTP runs at 5.3M pps (~20 Gbps) vs 2.2M non-VIP.
_BOOTER_NTP_PPS = {
    "A": 9.0e5,   # ~3.5 Gbps sustained, ~7 Gbps peaks (Fig. 1a top)
    "B": 8.5e5,   # ~3.3 Gbps sustained
    "C": 2.5e5,   # ~1.0 Gbps
    "D": 1.7e5,   # ~0.7 Gbps
}
_VIP_NTP_PPS = 5.3e6          # ~20 Gbps
_VIP_MEMCACHED_PPS = 8.9e5    # ~10 Gbps
_NON_VIP_MEMCACHED_PPS = 1.2e5
_CLDAP_PPS = 2.0e5

#: Attack-wide per-second rate wiggle: non-VIP services fluctuate a lot
#: (their peaks are ~2x their means); VIP attacks run near the backend's
#: capacity and hold steady.
_BIN_JITTER = {"non-vip": 0.28, "vip": 0.05}

#: The ten non-VIP runs of Figure 1(a), with their transit setting.
NON_VIP_SPECS: tuple[AttackSpec, ...] = (
    AttackSpec("booter A NTP", "A", "ntp", "non-vip"),
    AttackSpec("booter A NTP (no transit)", "A", "ntp", "non-vip", transit=False),
    AttackSpec("booter B CLDAP", "B", "cldap", "non-vip"),
    AttackSpec("booter B memcached", "B", "memcached", "non-vip"),
    AttackSpec("booter B NTP 1", "B", "ntp", "non-vip"),
    AttackSpec("booter B NTP 2", "B", "ntp", "non-vip", day=1),
    AttackSpec("booter B NTP (no transit)", "B", "ntp", "non-vip", transit=False),
    AttackSpec("booter C NTP", "C", "ntp", "non-vip"),
    AttackSpec("booter C NTP (no transit)", "C", "ntp", "non-vip", transit=False),
    AttackSpec("booter D NTP", "D", "ntp", "non-vip"),
)

#: The two VIP runs of Figure 1(b) (5 minutes each, booter B).
VIP_SPECS: tuple[AttackSpec, ...] = (
    AttackSpec("NTP VIP DDoS", "B", "ntp", "vip", duration_s=300.0),
    AttackSpec("Memcached VIP DDoS", "B", "memcached", "vip", duration_s=300.0),
)

#: The sixteen dated NTP self-attacks of Figure 1(c). Booter B shows a
#: stable-but-churning set over two weeks (1), then suddenly switches
#: lists between 18-06-12 and 18-06-13 (a new ``list_epoch``); booter A
#: churns over a long period (2); booter C's same-day runs overlap almost
#: fully (3); booters A and B draw from a shared list source, producing
#: occasional cross-booter overlap (4); B's VIP run uses the same set as
#: non-VIP on the same day.
FIG1C_SPECS: tuple[AttackSpec, ...] = (
    AttackSpec("B 18-05-30", "B", "ntp", "non-vip", day=0, date_label="18-05-30"),
    AttackSpec("B 18-06-04", "B", "ntp", "non-vip", day=5, date_label="18-06-04"),
    AttackSpec("B 18-06-08", "B", "ntp", "non-vip", day=9, date_label="18-06-08"),
    AttackSpec("B 18-06-12", "B", "ntp", "non-vip", day=13, date_label="18-06-12"),
    AttackSpec("B 18-06-13", "B", "ntp", "non-vip", day=14, date_label="18-06-13", list_epoch="era1"),
    AttackSpec("B 18-06-20", "B", "ntp", "non-vip", day=21, date_label="18-06-20", list_epoch="era1"),
    AttackSpec("B VIP 18-06-20", "B", "ntp", "vip", day=21, date_label="18-06-20", list_epoch="era1"),
    AttackSpec("A 18-04-10", "A", "ntp", "non-vip", day=0, date_label="18-04-10"),
    AttackSpec("A 18-05-15", "A", "ntp", "non-vip", day=35, date_label="18-05-15"),
    AttackSpec("A 18-06-20", "A", "ntp", "non-vip", day=71, date_label="18-06-20"),
    AttackSpec("A 18-08-01", "A", "ntp", "non-vip", day=113, date_label="18-08-01"),
    AttackSpec("C 18-04-25 a", "C", "ntp", "non-vip", day=10, date_label="18-04-25"),
    AttackSpec("C 18-04-25 b", "C", "ntp", "non-vip", day=10, date_label="18-04-25"),
    AttackSpec("C 18-04-25 c", "C", "ntp", "non-vip", day=10, date_label="18-04-25"),
    AttackSpec("D 18-05-07", "D", "ntp", "non-vip", day=22, date_label="18-05-07"),
    AttackSpec("D 18-05-09", "D", "ntp", "non-vip", day=24, date_label="18-05-09"),
)


class SelfAttackCampaign:
    """Executes attack specs against a scenario's observatory."""

    #: Reflector working-set sizes per vector. The CLDAP run of booter B
    #: used 3519 reflectors over 72 peer ASes — far more than NTP runs,
    #: because the CLDAP pool is small enough that booters spray most of
    #: it (the paper's "protocol has an effect on the number of
    #: reflectors" observation).
    SET_SIZES = {"ntp": 300, "cldap": 3519, "memcached": 120}

    #: Fraction of the global pool a booter's list source covers.
    DRAW_POOL_FRACTIONS = {"ntp": 0.5, "cldap": 0.9, "memcached": 0.6}

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self.seeds = scenario.seeds.child("selfattack-campaign")
        self._services: dict[tuple[str, str, str], BooterService] = {}
        # The campaign numbers its own measurement addresses: the world,
        # and with it the observatory, is shared by every experiment of a
        # run, so a counter there would leak from one campaign into the next.
        self._next_host = 1

    def _draw_fraction(self, vector: str) -> float:
        return self.DRAW_POOL_FRACTIONS.get(vector, 0.25)

    def _set_size(self, vector: str) -> int:
        base = self.SET_SIZES.get(vector, 300)
        pool = self.scenario.pools[vector]
        return min(base, int(len(pool) * self._draw_fraction(vector) * 0.8))

    def _service(self, booter: str, vector: str, list_epoch: str) -> BooterService:
        """A dedicated service instance per (booter, vector, list era)."""
        key = (booter, vector, list_epoch)
        if key in self._services:
            return self._services[key]
        pool = self.scenario.pools[vector]
        # Booters A and B buy from the same reflector-list seller: their
        # drawable subsets share a seed scope, producing the occasional
        # cross-booter overlap of Figure 1(c) marker (4).
        list_source = "shared-ab" if booter in ("A", "B") else f"source-{booter}"
        process = ReflectorSetProcess(
            pool,
            ReflectorChurnConfig(
                set_size=self._set_size(vector),
                daily_churn=0.025,
                replacement_prob=0.0,  # eras model replacements explicitly
            ),
            self.seeds.child("lists", booter, vector, list_epoch),
            draw_pool_fraction=self._draw_fraction(vector),
            # A list replacement means the booter bought a new list: the
            # source scope includes the era.
            source_seeds=self.seeds.child("list-source", list_source, vector, list_epoch),
        )
        ntp_pps = _BOOTER_NTP_PPS[booter]
        plan_pps = {
            ("ntp", "non-vip"): ntp_pps,
            ("ntp", "vip"): _VIP_NTP_PPS,
            ("memcached", "non-vip"): _NON_VIP_MEMCACHED_PPS,
            ("memcached", "vip"): _VIP_MEMCACHED_PPS,
            ("cldap", "non-vip"): _CLDAP_PPS,
            ("cldap", "vip"): _CLDAP_PPS * 2,
        }
        entry = BOOTER_CATALOG[booter]
        service = BooterService(
            catalog=entry,
            plans={
                "non-vip": ServicePlan(
                    "non-vip",
                    entry.price_non_vip_usd,
                    plan_pps.get((vector, "non-vip"), ntp_pps),
                    max_duration_s=600.0,
                ),
                "vip": ServicePlan(
                    "vip",
                    entry.price_vip_usd,
                    plan_pps.get((vector, "vip"), ntp_pps * 3),
                    max_duration_s=1800.0,
                ),
            },
            reflector_sets={vector: process},
            popularity=0.1,
            backend_asn=self.scenario.market.services[booter].backend_asn,
            backend_ip=self.scenario.market.services[booter].backend_ip,
        )
        self._services[key] = service
        return service

    def run(self, spec: AttackSpec) -> SelfAttackMeasurement:
        """Purchase and measure one attack per ``spec``."""
        observatory = self.scenario.observatory
        service = self._service(spec.booter, spec.vector, spec.list_epoch)
        victim = observatory.measurement_ip(self._next_host)
        self._next_host += 1
        event = service.launch_attack(
            victim_ip=victim,
            victim_asn=observatory.asn,
            vector_name=spec.vector,
            start_time=0.0,
            duration_s=spec.duration_s,
            plan_name=spec.plan,
            day=spec.day,
            seeds=self.seeds.child("launch", spec.label),
        )
        rng = self.seeds.child("measure", spec.label).rng()
        return observatory.capture_attack(
            event,
            rng,
            transit_enabled=spec.transit,
            bin_jitter=_BIN_JITTER.get(spec.plan, 0.2),
        )

    def reflector_sets(self, specs: tuple[AttackSpec, ...]) -> list[tuple[AttackSpec, np.ndarray]]:
        """Reflector IP sets per spec (without running the full capture)."""
        out = []
        for spec in specs:
            service = self._service(spec.booter, spec.vector, spec.list_epoch)
            process = service.reflector_sets[spec.vector]
            out.append((spec, process.ips_for_day(spec.day)))
        return out
