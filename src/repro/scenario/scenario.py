"""The Scenario: build the world once, serve traffic day by day.

Memory discipline: multi-month experiments never hold the whole trace.
:meth:`Scenario.day_traffic` generates one day's ground-truth flows;
:meth:`Scenario.observe_day` pushes them through a vantage point; callers
keep only the aggregates they need and drop the tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.booter.attack import (
    AttackEvent,
    EventDraws,
    synthesize_attack_flows,
    synthesize_trigger_flows,
)
from repro.booter.market import BooterMarket
from repro.booter.reflectors import ReflectorPool
from repro.booter.takedown import TakedownScenario
from repro.flows.records import FlowTable
from repro.netmodel.addressing import Prefix
from repro.netmodel.asn import ASRole, AutonomousSystem
from repro.netmodel.topology import build_topology
from repro.obs import metrics
from repro.scenario.background import BenignBackground
from repro.scenario.config import ScenarioConfig
from repro.stats.rng import SeedSequenceTree
from repro.vantage.base import CaptureWindow, VantagePoint
from repro.vantage.isp import ISPVantagePoint
from repro.vantage.ixp import IXPVantagePoint
from repro.vantage.matrix import VisibilityMatrix
from repro.vantage.observatory import IXPObservatory

__all__ = ["KINDS", "DayTraffic", "Scenario"]


#: The kinds of a day's ground-truth flows, in the order of their tables.
KINDS = ("attack", "trigger", "scan", "benign")


@dataclass
class DayTraffic:
    """Ground-truth traffic of one scenario day, by kind.

    Observation reads the kind tables one by one and never concatenates
    them. Each kind's visibility-matrix pair index is memoized here
    (:meth:`kind_index`), so every vantage point observing the day shares
    one resolution per kind.
    """

    day: int
    events: list[AttackEvent]
    attack: FlowTable
    trigger: FlowTable
    scan: FlowTable
    benign: FlowTable

    def all_flows(self) -> FlowTable:
        """Every kind's flows in one table, in :data:`KINDS` order."""
        return FlowTable.concat([getattr(self, kind) for kind in KINDS])

    def kind_index(self, kind: str, matrix: VisibilityMatrix) -> np.ndarray:
        """Memoized :meth:`VisibilityMatrix.pair_index` of one kind's table.

        Resolved once per kind for the matrix's current generation and
        shared by every vantage point observing this day.
        """
        cached = self.__dict__.get("_kind_index")
        if cached is None or cached[0] is not matrix or cached[1] != matrix.generation:
            self._kind_index = cached = (matrix, matrix.generation, {})
        index = cached[2].get(kind)
        if index is None:
            table = getattr(self, kind)
            index = cached[2][kind] = matrix.pair_index(table["src_asn"], table["dst_asn"])
        return index


class Scenario:
    """A fully wired simulation world."""

    def __init__(self, config: ScenarioConfig | None = None) -> None:
        self.config = config or ScenarioConfig()
        self.seeds = SeedSequenceTree(self.config.seed)

        # World: topology + the measurement AS attached to it.
        self.registry, self.topology = build_topology(
            self.config.topology, self.seeds.child("world")
        )
        self._attach_observatory_as()

        # Reflector pools.
        concentrations = dict(self.config.pool_concentrations)
        member_bias = dict(self.config.pool_member_bias)
        self.pools: dict[str, ReflectorPool] = {
            name: ReflectorPool.generate(
                name,
                size,
                self.registry,
                self.seeds.child("pools"),
                concentration=concentrations.get(name, 1.0),
                member_weight_multiplier=member_bias.get(name, 1.0),
            )
            for name, size in self.config.pool_sizes
        }

        # Market, takedown, background.
        self.market = BooterMarket(
            self.registry, self.pools, self.config.market, self.seeds.child("market")
        )
        self.takedown: TakedownScenario = self.config.default_takedown()
        self.background = BenignBackground(
            self.registry, self.pools, self.config.background, self.seeds.child("bg")
        )

        # Vantage points share one visibility matrix over the full
        # registry (tables build lazily on first observation, dense or
        # per-column-block by registry size).
        self.visibility = VisibilityMatrix(self.topology)
        tier1_asn = self.registry.by_role(ASRole.TIER1)[0].asn
        tier2_members = [
            a for a in self.registry.by_role(ASRole.TIER2) if a.ixp_member
        ]
        if not tier2_members:
            raise RuntimeError("topology has no tier-2 IXP member for the tier-2 ISP")
        tier2_asn = tier2_members[0].asn
        self.ixp = IXPVantagePoint(
            self.visibility,
            CaptureWindow(*self.config.ixp_window),
            sampling_denominator=self.config.ixp_sampling,
        )
        self.tier1 = ISPVantagePoint(
            tier1_asn,
            self.visibility,
            CaptureWindow(*self.config.tier1_window),
            ingress_only=True,
            sampling_denominator=self.config.isp_sampling,
        )
        self.tier2 = ISPVantagePoint(
            tier2_asn,
            self.visibility,
            CaptureWindow(*self.config.tier2_window),
            ingress_only=False,
            sampling_denominator=self.config.isp_sampling,
        )
        self.vantage_points: dict[str, VantagePoint] = {
            "ixp": self.ixp,
            "tier1": self.tier1,
            "tier2": self.tier2,
        }

    # -- construction helpers -----------------------------------------------

    def _attach_observatory_as(self) -> None:
        config = self.config
        prefix = Prefix.parse(config.observatory_prefix)
        tier1_asn = self.registry.by_role(ASRole.TIER1)[0].asn
        self.registry.register(
            AutonomousSystem(
                config.observatory_asn,
                ASRole.MEASUREMENT,
                (prefix,),
                ixp_member=True,
                name="observatory",
            )
        )
        self.topology._ensure(config.observatory_asn)
        self.topology.add_customer_provider(config.observatory_asn, tier1_asn)
        for member in self.registry.ixp_members():
            if member.asn != config.observatory_asn:
                self.topology.add_peering(config.observatory_asn, member.asn, via_ixp=True)
        self.observatory = IXPObservatory(
            self.registry,
            self.topology,
            config.observatory_asn,
            prefix,
            transit_provider=tier1_asn,
            capacity_bps=config.observatory_capacity_bps,
            peering_adoption=config.peering_adoption,
            cone_export_prob=config.cone_export_prob,
            decision_seed=config.seed,
        )

    # -- traffic generation -------------------------------------------------

    def _day_demand(self, day: int) -> tuple[dict[str, float], dict[str, float], float]:
        """(demand weights, backend activity, demand scale) for ``day``."""
        return (
            self.takedown.demand_weights(self.market, day),
            self.takedown.backend_activity(self.market, day),
            self.takedown.demand_scale(self.market, day),
        )

    def day_events(self, day: int) -> list[AttackEvent]:
        """Ground-truth attack events of ``day``, without flow synthesis.

        Returns exactly the events ``day_traffic(day).events`` would carry
        (the market's per-day streams are independent and path-seeded),
        but skips synthesizing attack/trigger/scan/background flows —
        much cheaper for analyses that only need the event list.
        """
        if not 0 <= day < self.config.n_days:
            raise ValueError(f"day {day} outside scenario [0, {self.config.n_days})")
        weights, _, demand_level = self._day_demand(day)
        return self.market.attacks_for_day(
            day, demand_weights=weights, demand_scale=self.config.scale * demand_level
        )

    def day_traffic(self, day: int) -> DayTraffic:
        """Generate the ground-truth traffic for ``day``.

        The world without the seizure is a copy whose ``takedown`` never
        seizes (``TakedownScenario(takedown_day=10_000)``). Nothing is
        kept: days are reused through the day-reduction engine's cache
        (:func:`repro.core.parallel.day_reductions`), which also counts
        the ``scenario.*`` work; this method records its span only.
        """
        if not 0 <= day < self.config.n_days:
            raise ValueError(f"day {day} outside scenario [0, {self.config.n_days})")

        registry = metrics()
        with registry.span("scenario.day_traffic", trace_args={"day": day}):
            # attacks_for_day normalizes the weights (they only set the
            # per-service mix); the takedown's *total* demand level must be
            # applied through the scale factor.
            weights, activity, demand_level = self._day_demand(day)
            events = self.market.attacks_for_day(
                day, demand_weights=weights, demand_scale=self.config.scale * demand_level
            )
            with registry.span("scenario.synthesize_flows"):
                attack, trigger = self._synthesize_events(day, events)
                # Scan volume scales with the simulated world size like
                # everything else.
                scaled_activity = {n: a * self.config.scale for n, a in activity.items()}
                scan = self.market.scan_flows_for_day(day, activity=scaled_activity)
                benign = self.background.flows_for_day(day, intensity_scale=self.config.scale)
            return DayTraffic(
                day=day, events=events, attack=attack, trigger=trigger, scan=scan, benign=benign
            )

    def _synthesize_events(
        self, day: int, events: list[AttackEvent]
    ) -> tuple[FlowTable, FlowTable]:
        """Attack and trigger flows of ``day``'s events, in one-minute bins.

        Every event draws, in order, from the day's one sequential
        ``("traffic", day)`` stream. The bin width is the synthesizers'
        default.
        """
        rng = self.seeds.child("traffic", day).rng()
        draws = EventDraws(events)
        for event in draws.events:
            synthesize_attack_flows(event, rng, out=draws)
            backend = self.market.services[event.booter]
            synthesize_trigger_flows(event, rng, origin_asn=backend.backend_asn, out=draws)
        return draws.attack_table(), draws.trigger_table()

    def observe_day(
        self,
        vantage: str,
        traffic: DayTraffic,
        kinds: tuple[str, ...] = KINDS,
    ) -> FlowTable:
        """What ``vantage`` ('ixp' | 'tier1' | 'tier2') exports of the
        day's ``kinds``: distinct names from :data:`KINDS`, in the order
        their flows appear in the export."""
        kinds = tuple(kinds)
        if len(set(kinds)) != len(kinds) or not set(kinds) <= set(KINDS):
            raise ValueError(
                f"kinds must be distinct names among {', '.join(KINDS)}; got {kinds}"
            )
        vp = self.vantage_point(vantage)
        with metrics().span(
            "scenario.observe_day", trace_args={"day": traffic.day, "vantage": vantage}
        ):
            tables = [getattr(traffic, kind) for kind in kinds]
            indices = [traffic.kind_index(kind, self.visibility) for kind in kinds]
            rng = self.seeds.child("observe", vantage, traffic.day).rng()
            return vp.observe(tables, rng, indices=indices)

    def vantage_point(self, name: str) -> VantagePoint:
        try:
            return self.vantage_points[name]
        except KeyError:
            raise KeyError(
                f"unknown vantage point {name!r} (have: {sorted(self.vantage_points)})"
            ) from None
