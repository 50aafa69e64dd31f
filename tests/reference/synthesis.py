"""Reference ground-truth synthesis: one table per event or block, then concat.

Production draws each day's randomness in loops that only draw and
assembles every flow table once per column
(:class:`repro.booter.attack.EventDraws`, ``scan_flows_for_day``,
``BenignBackground.flows_for_day``). The code here is the shape it
replaced: each attack event, trigger stream, scan part and background
block builds its own :class:`~repro.flows.records.FlowTable`, and the
day's tables are their :meth:`~repro.flows.records.FlowTable.concat`.
The reflector-set walk keeps ``np.setdiff1d`` over pool indices. The
parity suite asserts production is bit-identical to all of it: every
column, every dtype, and the day's events.
"""

from __future__ import annotations

import numpy as np

from repro.booter.attack import AttackEvent
from repro.booter.reflectors import ReflectorSetProcess
from repro.flows.records import FlowTable
from repro.protocols.amplification import UDP, vector_by_name
from repro.protocols.benign import BENIGN_MIXES
from repro.scenario.scenario import DayTraffic, Scenario

__all__ = [
    "attack_flows",
    "benign_flows_for_day",
    "day_traffic",
    "reflector_set_days",
    "scan_flows_for_day",
    "trigger_flows",
]

SECONDS_PER_DAY = 86_400.0


def _active_bins(event: AttackEvent, bin_seconds: float) -> tuple[np.ndarray, np.ndarray]:
    first = np.floor(event.start_time / bin_seconds) * bin_seconds
    starts = np.arange(first, event.end_time, bin_seconds)
    overlap = np.minimum(starts + bin_seconds, event.end_time) - np.maximum(
        starts, event.start_time
    )
    active = overlap > 0
    return starts[active], overlap[active]


def attack_flows(
    event: AttackEvent,
    rng: np.random.Generator,
    bin_seconds: float = 60.0,
    rate_jitter: float = 0.1,
    bin_jitter: float = 0.0,
) -> FlowTable:
    """One event's reflector -> victim flows, one per non-zero (bin, reflector)."""
    vector = vector_by_name(event.vector)
    bin_starts, active_secs = _active_bins(event, bin_seconds)
    n_bins = bin_starts.size
    base = np.outer(active_secs * event.total_pps, event.reflector_weights)
    if bin_jitter > 0:
        base = base * rng.lognormal(0.0, bin_jitter, size=(n_bins, 1))
    if rate_jitter > 0:
        base = base * rng.lognormal(0.0, rate_jitter, size=base.shape)
    packets = np.maximum(np.round(base), 0).astype(np.int64)
    mask = packets > 0
    if not mask.any():
        return FlowTable.empty()
    bin_idx, refl_idx = np.nonzero(mask)
    flow_packets = packets[bin_idx, refl_idx]
    sizes = vector.sample_response_sizes(rng, flow_packets.size)
    n_flows = flow_packets.size
    return FlowTable(
        {
            "time": bin_starts[bin_idx],
            "src_ip": event.reflector_ips[refl_idx],
            "dst_ip": np.full(n_flows, event.victim_ip, dtype=np.uint32),
            "proto": np.full(n_flows, UDP, dtype=np.uint8),
            "src_port": np.full(n_flows, vector.port, dtype=np.uint16),
            "dst_port": rng.integers(1024, 65535, n_flows).astype(np.uint16),
            "packets": flow_packets,
            "bytes": np.round(flow_packets * sizes).astype(np.int64),
            "src_asn": event.reflector_asns[refl_idx],
            "dst_asn": np.full(n_flows, event.victim_asn, dtype=np.int64),
        }
    )


def trigger_flows(
    event: AttackEvent,
    rng: np.random.Generator,
    bin_seconds: float = 60.0,
    origin_asn: int = -1,
) -> FlowTable:
    """One event's spoofed victim -> reflector trigger flows."""
    vector = vector_by_name(event.vector)
    request_pps = event.total_pps / vector.response_packets_per_request
    bin_starts, active_secs = _active_bins(event, bin_seconds)
    packets = rng.poisson(np.outer(active_secs * request_pps, event.reflector_weights))
    mask = packets > 0
    if not mask.any():
        return FlowTable.empty()
    bin_idx, refl_idx = np.nonzero(mask)
    flow_packets = packets[bin_idx, refl_idx].astype(np.int64)
    n_flows = flow_packets.size
    return FlowTable(
        {
            "time": bin_starts[bin_idx],
            "src_ip": np.full(n_flows, event.victim_ip, dtype=np.uint32),
            "dst_ip": event.reflector_ips[refl_idx],
            "proto": np.full(n_flows, UDP, dtype=np.uint8),
            "src_port": rng.integers(1024, 65535, n_flows).astype(np.uint16),
            "dst_port": np.full(n_flows, vector.port, dtype=np.uint16),
            "packets": flow_packets,
            "bytes": np.round(flow_packets * vector.request_size).astype(np.int64),
            "src_asn": np.full(n_flows, origin_asn, dtype=np.int64),
            "dst_asn": event.reflector_asns[refl_idx],
        }
    )


def scan_flows_for_day(market, day: int, activity=None, bin_seconds: float = 3600.0) -> FlowTable:
    """The market's scan traffic for ``day``: one table per (service, protocol)."""
    rng = market.seeds.child("scans", day).rng()
    parts = []
    n_bins = int(SECONDS_PER_DAY / bin_seconds)
    for name in market.service_names():
        service = market.services[name]
        mult = 1.0 if activity is None else activity.get(name, 1.0)
        if mult <= 0:
            continue
        for protocol, pps in service.scan_pps_per_protocol.items():
            pool = market.pools[protocol]
            vector = vector_by_name(protocol)
            daily_jitter = rng.lognormal(0.0, 0.1)
            packets_per_bin = pps * mult * daily_jitter * bin_seconds
            n_targets = min(50, len(pool))
            target_idx = rng.choice(len(pool), size=(n_bins, n_targets))
            per_flow = rng.multinomial(
                int(packets_per_bin), np.full(n_targets, 1.0 / n_targets), size=n_bins
            )
            bins_idx, tgt_idx = np.nonzero(per_flow)
            if bins_idx.size == 0:
                continue
            flow_packets = per_flow[bins_idx, tgt_idx].astype(np.int64)
            chosen = target_idx[bins_idx, tgt_idx]
            n_flows = flow_packets.size
            parts.append(
                FlowTable(
                    {
                        "time": day * SECONDS_PER_DAY + bins_idx * bin_seconds,
                        "src_ip": np.full(n_flows, service.backend_ip, dtype=np.uint32),
                        "dst_ip": pool.ips[chosen],
                        "proto": np.full(n_flows, UDP, dtype=np.uint8),
                        "src_port": rng.integers(1024, 65535, n_flows).astype(np.uint16),
                        "dst_port": np.full(n_flows, vector.port, dtype=np.uint16),
                        "packets": flow_packets,
                        "bytes": np.round(flow_packets * market.config.scan_probe_size).astype(np.int64),
                        "src_asn": np.full(n_flows, service.backend_asn, dtype=np.int64),
                        "dst_asn": pool.asns[chosen],
                    }
                )
            )
    return FlowTable.concat(parts)


def _servers(background) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    return {
        vector_by_name(name).port: (pool.ips, pool.asns) for name, pool in background.pools.items()
    }


def benign_flows_for_day(background, day: int, intensity_scale: float = 1.0) -> FlowTable:
    """The benign background of ``day``: one table per noise, scanner and port block."""
    rng = background.seeds.child("background", day).rng()
    config = background.config
    clients, client_asns = background.client_ips, background.client_asns
    servers = _servers(background)
    parts = []

    n_noise = rng.poisson(config.ntp_noise_flows_per_day * intensity_scale)
    if n_noise:
        a = rng.integers(0, clients.size, n_noise)
        b = rng.integers(0, clients.size, n_noise)
        packets = 1 + rng.geometric(1.0 / config.ntp_noise_packets_mean, n_noise)
        sizes = rng.uniform(250.0, 1200.0, n_noise)
        times = day * SECONDS_PER_DAY + rng.uniform(0, SECONDS_PER_DAY, n_noise)
        parts.append(
            FlowTable(
                {
                    "time": times,
                    "src_ip": clients[a],
                    "dst_ip": clients[b],
                    "proto": np.full(n_noise, UDP, dtype=np.uint8),
                    "src_port": np.full(n_noise, 123, dtype=np.uint16),
                    "dst_port": rng.integers(1024, 65535, n_noise).astype(np.uint16),
                    "packets": packets.astype(np.int64),
                    "bytes": np.round(packets * sizes).astype(np.int64),
                    "src_asn": client_asns[a],
                    "dst_asn": client_asns[b],
                }
            )
        )
    if 123 in servers:
        ntp_ips, ntp_asns = servers[123]
        n_scanners = rng.poisson(config.monitor_scanners_per_day * intensity_scale)
        for _ in range(n_scanners):
            scanner_idx = int(rng.integers(0, clients.size))
            k = max(1, int(rng.lognormal(np.log(config.monitor_reflectors_median), 0.8)))
            k = min(k, ntp_ips.size)
            refl = rng.choice(ntp_ips.size, size=k, replace=False)
            packets = rng.poisson(config.monitor_packets_per_reflector, k) + 1
            times = day * SECONDS_PER_DAY + rng.uniform(0, SECONDS_PER_DAY, k)
            parts.append(
                FlowTable(
                    {
                        "time": times,
                        "src_ip": ntp_ips[refl],
                        "dst_ip": np.full(k, clients[scanner_idx], dtype=np.uint32),
                        "proto": np.full(k, UDP, dtype=np.uint8),
                        "src_port": np.full(k, 123, dtype=np.uint16),
                        "dst_port": rng.integers(1024, 65535, k).astype(np.uint16),
                        "packets": packets.astype(np.int64),
                        "bytes": np.round(packets * 486.0).astype(np.int64),
                        "src_asn": ntp_asns[refl],
                        "dst_asn": np.full(k, client_asns[scanner_idx], dtype=np.int64),
                    }
                )
            )

    for port, mix in BENIGN_MIXES.items():
        if port not in servers:
            continue
        server_ips, server_asns = servers[port]
        packet_budget = (
            config.daily_packets_unit
            * mix.relative_intensity
            * intensity_scale
            * rng.lognormal(0.0, config.daily_noise_sigma)
        )
        if packet_budget < 1:
            continue
        n_flows = config.daily_flows_per_port
        client_idx = rng.integers(0, clients.size, n_flows)
        server_idx = rng.integers(0, server_ips.size, n_flows)
        times = day * SECONDS_PER_DAY + (
            rng.integers(0, int(SECONDS_PER_DAY / config.bin_seconds), n_flows) * config.bin_seconds
        )
        mean_per_flow = max(packet_budget / n_flows, 1.0)
        packets = 1 + rng.geometric(1.0 / mean_per_flow, n_flows)
        sizes = mix.sample_sizes(rng, n_flows)
        parts.append(
            FlowTable(
                {
                    "time": times.astype(float),
                    "src_ip": clients[client_idx],
                    "dst_ip": server_ips[server_idx],
                    "proto": np.full(n_flows, UDP, dtype=np.uint8),
                    "src_port": rng.integers(1024, 65535, n_flows).astype(np.uint16),
                    "dst_port": np.full(n_flows, port, dtype=np.uint16),
                    "packets": packets.astype(np.int64),
                    "bytes": np.round(packets * sizes).astype(np.int64),
                    "src_asn": client_asns[client_idx],
                    "dst_asn": server_asns[server_idx],
                }
            )
        )
        n_resp = int(n_flows * config.response_fraction)
        if n_resp:
            keep = rng.choice(n_flows, size=n_resp, replace=False)
            resp_sizes = mix.sample_sizes(rng, n_resp)
            resp_packets = packets[keep]
            parts.append(
                FlowTable(
                    {
                        "time": times[keep].astype(float),
                        "src_ip": server_ips[server_idx[keep]],
                        "dst_ip": clients[client_idx[keep]],
                        "proto": np.full(n_resp, UDP, dtype=np.uint8),
                        "src_port": np.full(n_resp, port, dtype=np.uint16),
                        "dst_port": rng.integers(1024, 65535, n_resp).astype(np.uint16),
                        "packets": resp_packets.astype(np.int64),
                        "bytes": np.round(resp_packets * resp_sizes).astype(np.int64),
                        "src_asn": server_asns[server_idx[keep]],
                        "dst_asn": client_asns[client_idx[keep]],
                    }
                )
            )
    return FlowTable.concat(parts)


def day_traffic(scenario: Scenario, day: int) -> DayTraffic:
    """``scenario``'s ground truth for ``day``, synthesized table by table.

    Events come from the market unchanged; each event's attack and
    trigger flows are drawn, in order, from the day's sequential stream,
    in one-minute bins.
    """
    weights, activity, demand_level = scenario._day_demand(day)
    events = scenario.market.attacks_for_day(
        day, demand_weights=weights, demand_scale=scenario.config.scale * demand_level
    )
    rng = scenario.seeds.child("traffic", day).rng()
    attack, trigger = [], []
    for event in events:
        attack.append(attack_flows(event, rng))
        trigger.append(
            trigger_flows(
                event, rng, origin_asn=scenario.market.services[event.booter].backend_asn
            )
        )
    scaled = {name: a * scenario.config.scale for name, a in activity.items()}
    return DayTraffic(
        day=day,
        events=events,
        attack=FlowTable.concat(attack),
        trigger=FlowTable.concat(trigger),
        scan=scan_flows_for_day(scenario.market, day, activity=scaled),
        benign=benign_flows_for_day(
            scenario.background, day, intensity_scale=scenario.config.scale
        ),
    )


def reflector_set_days(process: ReflectorSetProcess, n_days: int) -> list[np.ndarray]:
    """Sorted pool indices of ``process``'s set on days ``0 .. n_days - 1``.

    Walks a fresh copy of the process's stream (the same seed path) with
    pool indices and ``np.setdiff1d``; ``process`` itself is not touched.
    """
    config = process.config
    drawable = process._drawable
    rng = process._seeds.child("reflector-set").rng()

    def fresh() -> np.ndarray:
        return np.sort(rng.choice(drawable, size=config.set_size, replace=False))

    days: list[np.ndarray] = []
    while len(days) < n_days:
        if not days:
            days.append(fresh())
            continue
        prev = days[-1]
        if rng.random() < config.replacement_prob:
            days.append(fresh())
            continue
        n_churn = rng.binomial(config.set_size, config.daily_churn)
        if n_churn == 0:
            days.append(prev)
            continue
        keep = rng.choice(config.set_size, size=config.set_size - n_churn, replace=False)
        kept = prev[np.sort(keep)]
        candidates = np.setdiff1d(drawable, kept, assume_unique=True)
        new = rng.choice(candidates, size=n_churn, replace=False)
        days.append(np.sort(np.concatenate([kept, new])))
    return days
