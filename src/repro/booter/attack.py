"""Attack events and their expansion into flow records.

An :class:`AttackEvent` is the *intent* of one booter attack: victim,
vector, rate, reflector set, weights. Two synthesizers expand an event
into traffic:

* :func:`synthesize_attack_flows` — the amplified reflector -> victim
  response flood (what hits the victim and what Figures 1, 2 and 5
  measure);
* :func:`synthesize_trigger_flows` — the spoofed victim -> reflector
  request stream that triggers the amplification (part of what Figure 4's
  "packets to reflectors" time series measure).

Both only draw: they write an event's random draws into an
:class:`EventDraws`, which assembles the flow tables of all its events
once per column. A day's synthesis fills one accumulator with every
event; called alone, a synthesizer fills a one-event accumulator and
returns its table, so each expansion rule is written once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.flows.records import FlowTable
from repro.protocols.amplification import UDP, vector_by_name

__all__ = ["AttackEvent", "EventDraws", "synthesize_attack_flows", "synthesize_trigger_flows"]


@dataclass(frozen=True)
class AttackEvent:
    """One booter attack, fully specified."""

    booter: str
    vector: str
    plan: str
    victim_ip: int
    victim_asn: int
    start_time: float
    duration_s: float
    total_pps: float
    reflector_ips: np.ndarray
    reflector_asns: np.ndarray
    reflector_weights: np.ndarray

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")
        if self.total_pps <= 0:
            raise ValueError("packet rate must be positive")
        n = self.reflector_ips.size
        if self.reflector_asns.size != n or self.reflector_weights.size != n:
            raise ValueError("reflector arrays must align")
        if n == 0:
            raise ValueError("an attack needs at least one reflector")
        if not np.isclose(self.reflector_weights.sum(), 1.0, atol=1e-6):
            raise ValueError("reflector weights must sum to 1")

    @property
    def end_time(self) -> float:
        return self.start_time + self.duration_s

    @property
    def n_reflectors(self) -> int:
        return int(self.reflector_ips.size)

    def expected_gbps(self) -> float:
        """Analytic victim-side traffic rate."""
        vector = vector_by_name(self.vector)
        return self.total_pps * vector.mean_response_size * 8 / 1e9


def _active_bins(
    event: AttackEvent, bin_seconds: float
) -> tuple[np.ndarray, np.ndarray]:
    """(bin start times, seconds of attack activity within each bin)."""
    if bin_seconds <= 0:
        raise ValueError("bin_seconds must be positive")
    first = np.floor(event.start_time / bin_seconds) * bin_seconds
    starts = np.arange(first, event.end_time, bin_seconds)
    overlap = np.minimum(starts + bin_seconds, event.end_time) - np.maximum(
        starts, event.start_time
    )
    active = overlap > 0
    return starts[active], overlap[active]


class _KindDraws:
    """One flow kind's draws: packets per (bin, reflector) cell, and the
    per-flow values of the non-zero cells in cell order."""

    def __init__(self, n_events: int, n_cells: int, sizes: bool) -> None:
        self.packets = np.zeros(n_cells, dtype=np.int64)
        self.ports = np.empty(n_cells, dtype=np.uint16)
        self.sizes = np.empty(n_cells) if sizes else None
        self.flows = np.zeros(n_events, dtype=np.int64)
        self.n_drawn = 0
        self.n_flows = 0

    def take(self, i: int, n: int) -> slice:
        """Reserve the per-flow slots of event ``i``'s ``n`` flows."""
        self.flows[i] = n
        start = self.n_flows
        self.n_flows += n
        return slice(start, self.n_flows)


class EventDraws:
    """The random draws of a run of attack events, and the tables they make.

    Every event spans ``n_bins x n_reflectors`` cells, known before any
    draw, so the buffers are sized once: packets per cell, and for the
    non-zero cells (one flow each) the drawn ports and response sizes.
    :func:`synthesize_attack_flows` and :func:`synthesize_trigger_flows`
    fill them event by event, in this accumulator's event order.
    :meth:`attack_table` and :meth:`trigger_table` then build each column
    once: drawn columns are read from the buffers, the rest are gathers
    of the events' bins and reflectors or repeats of per-event scalars.
    """

    def __init__(self, events: Sequence[AttackEvent], bin_seconds: float = 60.0) -> None:
        self.events = tuple(events)
        self.bin_seconds = bin_seconds
        bins = [_active_bins(event, bin_seconds) for event in self.events]
        self._active_secs = [secs for _, secs in bins]
        self._n_bins = np.array([starts.size for starts, _ in bins], dtype=np.int64)
        self._n_refl = np.array([e.n_reflectors for e in self.events], dtype=np.int64)
        self._cell_start = np.concatenate(([0], np.cumsum(self._n_bins * self._n_refl)))
        # Every event's bins and reflectors end to end, for the gathers.
        self._bin_starts = np.concatenate([starts for starts, _ in bins] or [np.empty(0)])
        self._refl_ips = np.concatenate([e.reflector_ips for e in self.events] or [np.empty(0)])
        self._refl_asns = np.concatenate([e.reflector_asns for e in self.events] or [np.empty(0)])
        n_cells = int(self._cell_start[-1])
        self.attack = _KindDraws(len(self.events), n_cells, sizes=True)
        self.trigger = _KindDraws(len(self.events), n_cells, sizes=False)
        self.origin_asns = np.full(len(self.events), -1, dtype=np.int64)

    def cells(
        self, kind: _KindDraws, event: AttackEvent, bin_seconds: float
    ) -> tuple[int, np.ndarray, np.ndarray]:
        """(index, active seconds per bin, packets per cell) of the next event of ``kind``.

        The cell array is a ``(n_bins, n_reflectors)`` view into the
        buffer, for the caller to fill with the event's packet draws.
        """
        i = kind.n_drawn
        if i >= len(self.events) or event is not self.events[i]:
            raise ValueError("events must be drawn in the order EventDraws was built with")
        if bin_seconds != self.bin_seconds:
            raise ValueError(
                f"bin_seconds {bin_seconds} differs from the accumulator's {self.bin_seconds}"
            )
        kind.n_drawn += 1
        packets = kind.packets[self._cell_start[i] : self._cell_start[i + 1]]
        return i, self._active_secs[i], packets.reshape(self._n_bins[i], self._n_refl[i])

    def _flows(self, kind: _KindDraws) -> tuple[np.ndarray, ...]:
        """(bin start time, reflector IP, reflector ASN, packets) per flow.

        Flows are the non-zero cells in buffer order: event by event,
        and (bin, reflector) row-major within an event.
        """
        flat = np.flatnonzero(kind.packets)
        event = np.repeat(np.arange(len(self.events)), kind.flows)
        bins, refl = np.divmod(flat - self._cell_start[event], self._n_refl[event])
        bins += (np.cumsum(self._n_bins) - self._n_bins)[event]
        refl += (np.cumsum(self._n_refl) - self._n_refl)[event]
        time = self._bin_starts[bins]
        return time, self._refl_ips[refl], self._refl_asns[refl], kind.packets[flat]

    def _per_event(self, kind: _KindDraws, values: list, dtype: type) -> np.ndarray:
        """One value per event, repeated over the event's flows of ``kind``."""
        return np.repeat(np.array(values, dtype=dtype), kind.flows)

    def attack_table(self) -> FlowTable:
        """Reflector -> victim response flows of every event drawn so far."""
        kind = self.attack
        time, refl_ips, refl_asns, packets = self._flows(kind)
        vectors = [vector_by_name(e.vector) for e in self.events]
        return FlowTable(
            {
                "time": time,
                "src_ip": refl_ips,
                "dst_ip": self._per_event(kind, [e.victim_ip for e in self.events], np.uint32),
                "proto": np.full(packets.size, UDP, dtype=np.uint8),
                "src_port": self._per_event(kind, [v.port for v in vectors], np.uint16),
                "dst_port": kind.ports[: packets.size],
                "packets": packets,
                "bytes": np.round(packets * kind.sizes[: packets.size]).astype(np.int64),
                "src_asn": refl_asns,
                "dst_asn": self._per_event(kind, [e.victim_asn for e in self.events], np.int64),
            }
        )

    def trigger_table(self) -> FlowTable:
        """Spoofed victim -> reflector trigger flows of every event drawn so far."""
        kind = self.trigger
        time, refl_ips, refl_asns, packets = self._flows(kind)
        vectors = [vector_by_name(e.vector) for e in self.events]
        request_sizes = self._per_event(kind, [v.request_size for v in vectors], np.float64)
        return FlowTable(
            {
                "time": time,
                "src_ip": self._per_event(kind, [e.victim_ip for e in self.events], np.uint32),
                "dst_ip": refl_ips,
                "proto": np.full(packets.size, UDP, dtype=np.uint8),
                "src_port": kind.ports[: packets.size],
                "dst_port": self._per_event(kind, [v.port for v in vectors], np.uint16),
                "packets": packets,
                "bytes": np.round(packets * request_sizes).astype(np.int64),
                "src_asn": np.repeat(self.origin_asns, kind.flows),
                "dst_asn": refl_asns,
            }
        )


def synthesize_attack_flows(
    event: AttackEvent,
    rng: np.random.Generator,
    bin_seconds: float = 60.0,
    rate_jitter: float = 0.1,
    bin_jitter: float = 0.0,
    out: EventDraws | None = None,
) -> FlowTable:
    """Expand ``event`` into reflector -> victim response flows.

    One flow is emitted per (reflector, time bin). Packet counts follow the
    event's per-reflector weights with multiplicative lognormal jitter of
    ``rate_jitter`` sigma per (reflector, bin); ``bin_jitter`` adds a
    lognormal factor *shared by all reflectors within a bin*, modelling
    attack-wide rate swings (booter backends do not hold perfectly steady
    rates — the per-second wiggle of Figure 1). Packet sizes use the
    vector's response-size distribution.

    With ``out`` set, the event's draws go into that accumulator (the
    day pipeline's path: ``event`` must be its next event) and an empty
    table is returned; the RNG consumption is identical either way.
    """
    if not 0.0 <= rate_jitter < 1.0:
        raise ValueError("rate_jitter must be in [0, 1)")
    if not 0.0 <= bin_jitter < 1.0:
        raise ValueError("bin_jitter must be in [0, 1)")
    draws = EventDraws((event,), bin_seconds) if out is None else out
    i, active_secs, cells = draws.cells(draws.attack, event, bin_seconds)

    base = np.outer(active_secs * event.total_pps, event.reflector_weights)
    if bin_jitter > 0:
        base = base * rng.lognormal(0.0, bin_jitter, size=(base.shape[0], 1))
    if rate_jitter > 0:
        base = base * rng.lognormal(0.0, rate_jitter, size=base.shape)
    cells[...] = np.maximum(np.round(base), 0)
    n_flows = int(np.count_nonzero(cells))
    if n_flows:
        flows = draws.attack.take(i, n_flows)
        # Mean response size with slight per-flow variation from the size dist.
        draws.attack.sizes[flows] = vector_by_name(event.vector).sample_response_sizes(
            rng, n_flows
        )
        draws.attack.ports[flows] = rng.integers(1024, 65535, n_flows)
    return draws.attack_table() if out is None else FlowTable.empty()


def synthesize_trigger_flows(
    event: AttackEvent,
    rng: np.random.Generator,
    bin_seconds: float = 60.0,
    origin_asn: int = -1,
    out: EventDraws | None = None,
) -> FlowTable:
    """Expand ``event`` into spoofed victim -> reflector trigger flows.

    The booter backend sends ``total_pps / PAF`` spoofed requests per
    second, spread over the reflectors proportionally to their weights
    (reflectors asked to carry more traffic receive more triggers).
    Source addresses are the spoofed victim — resolving ``src_ip``
    attributes the packets to the victim's network, which is why the paper
    cannot attribute trigger traffic. ``src_asn`` however carries the
    *true* routing origin (``origin_asn``, the booter backend's AS):
    vantage-point visibility is a property of where packets physically
    travel, not of the forged header. With ``out`` set, the draws go into
    that accumulator (see :func:`synthesize_attack_flows`).
    """
    draws = EventDraws((event,), bin_seconds) if out is None else out
    i, active_secs, cells = draws.cells(draws.trigger, event, bin_seconds)
    draws.origin_asns[i] = origin_asn

    request_pps = event.total_pps / vector_by_name(event.vector).response_packets_per_request
    cells[...] = rng.poisson(np.outer(active_secs * request_pps, event.reflector_weights))
    n_flows = int(np.count_nonzero(cells))
    if n_flows:
        draws.trigger.ports[draws.trigger.take(i, n_flows)] = rng.integers(1024, 65535, n_flows)
    return draws.trigger_table() if out is None else FlowTable.empty()
