"""Benign background traffic on amplification-prone ports.

The classification problem of Section 4 only exists because port 123 (and
53, 11211, ...) carry plenty of legitimate traffic. The background
generator emits, per day, benign query flows from clients to servers on
each modeled port and the matching small response flows — with the
servers drawn from the same reflector pools that attacks abuse, because a
public NTP server serves both its legitimate clients and the booters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.booter.reflectors import ReflectorPool
from repro.flows.records import FlowTable
from repro.netmodel.asn import ASRegistry, ASRole
from repro.netmodel.addressing import random_ips_in_prefix
from repro.protocols.amplification import UDP, vector_by_name
from repro.protocols.benign import BENIGN_MIXES
from repro.stats.rng import SeedSequenceTree

__all__ = ["BackgroundConfig", "BenignBackground"]

SECONDS_PER_DAY = 86_400.0


@dataclass(frozen=True)
class BackgroundConfig:
    """Volume knobs of the benign background.

    ``daily_packets_unit`` is the daily benign packet budget of a port
    with ``relative_intensity == 1`` (NTP); other ports scale by their
    intensity. The budget is spread over ``daily_flows_per_port``
    aggregated flow records (benign traffic between the same endpoints is
    exported as few large flow records, the way real collectors aggregate).
    """

    daily_packets_unit: float = 2.0e9
    daily_flows_per_port: int = 3000
    n_client_ips: int = 4000
    bin_seconds: float = 3600.0
    response_fraction: float = 0.9
    daily_noise_sigma: float = 0.08
    # Large-packet NTP *noise*: the false-positive population of the
    # optimistic classifier (Section 4). Custom applications on port 123
    # exchange >200-byte packets pairwise, and monlist monitoring projects
    # receive 486-byte responses from many reflectors at low rates. These
    # make up the bulk of the paper's 311K "NTP reflection" destinations —
    # low-rate, few-source — and are exactly what the conservative filter
    # removes.
    ntp_noise_flows_per_day: float = 800.0
    ntp_noise_packets_mean: float = 5000.0
    monitor_scanners_per_day: float = 100.0
    monitor_reflectors_median: float = 60.0
    monitor_packets_per_reflector: float = 5000.0

    def __post_init__(self) -> None:
        if self.daily_packets_unit < 0:
            raise ValueError("daily_packets_unit cannot be negative")
        if self.daily_flows_per_port <= 0:
            raise ValueError("daily_flows_per_port must be positive")
        if self.n_client_ips <= 0:
            raise ValueError("n_client_ips must be positive")
        if not 0.0 <= self.response_fraction <= 1.0:
            raise ValueError("response_fraction must be in [0, 1]")


class _Block(NamedTuple):
    """One block of background flows, as drawn.

    Each field is a per-flow array or a scalar the block's flows share.
    Endpoints are indices into the background's host table.
    """

    n: int
    src: np.ndarray | int
    dst: np.ndarray | int
    time: np.ndarray
    src_port: np.ndarray | int
    dst_port: np.ndarray | int
    packets: np.ndarray
    sizes: np.ndarray | float


def _column(blocks: list[_Block], field: str, dtype: type) -> np.ndarray:
    """One day column: every block's arrays and scalars, in block order."""
    out = np.empty(sum(block.n for block in blocks), dtype=dtype)
    start = 0
    for block in blocks:
        out[start : start + block.n] = getattr(block, field)
        start += block.n
    return out


class BenignBackground:
    """Per-day benign flow generation over the modeled ports."""

    def __init__(
        self,
        registry: ASRegistry,
        pools: dict[str, ReflectorPool],
        config: BackgroundConfig,
        seeds: SeedSequenceTree,
    ) -> None:
        self.registry = registry
        self.pools = pools
        self.config = config
        self.seeds = seeds
        rng = seeds.child("clients").rng()
        eligible = [a for a in registry if a.prefixes and a.role != ASRole.MEASUREMENT]
        if not eligible:
            raise ValueError("no eligible client ASes")
        per_as = np.maximum(rng.multinomial(config.n_client_ips, rng.dirichlet(np.ones(len(eligible)))), 0)
        ips: list[np.ndarray] = []
        asns: list[np.ndarray] = []
        for asys, count in zip(eligible, per_as):
            if count == 0:
                continue
            prefix = asys.prefixes[0]
            count = min(int(count), prefix.size)
            ips.append(random_ips_in_prefix(prefix, rng, count, unique=True))
            asns.append(np.full(count, asys.asn, dtype=np.int64))
        self.client_ips = np.concatenate(ips)
        self.client_asns = np.concatenate(asns)
        # Server banks per port: the reflector pool of that port's protocol
        # (public NTP/DNS/... servers serve legitimate clients and booters
        # alike). The host table lists every endpoint a flow can have: the
        # clients, then each port's servers (first host index, count).
        self._servers: dict[int, tuple[int, int]] = {}
        start = self.client_ips.size
        for name, pool in pools.items():
            self._servers[vector_by_name(name).port] = (start, len(pool))
            start += len(pool)
        self._host_ips = np.concatenate([self.client_ips, *(p.ips for p in pools.values())])
        self._host_asns = np.concatenate([self.client_asns, *(p.asns for p in pools.values())])

    def _ntp_noise_blocks(
        self, day: int, rng: np.random.Generator, intensity_scale: float
    ) -> list[_Block]:
        """Large-packet NTP noise: custom apps and monlist monitoring."""
        config = self.config
        n_clients = self.client_ips.size
        blocks = []

        # Custom applications on port 123: pairwise flows with >200-byte
        # packets, one source per destination, low rate.
        n_noise = rng.poisson(config.ntp_noise_flows_per_day * intensity_scale)
        if n_noise:
            a = rng.integers(0, n_clients, n_noise)
            b = rng.integers(0, n_clients, n_noise)
            packets = 1 + rng.geometric(1.0 / config.ntp_noise_packets_mean, n_noise)
            sizes = rng.uniform(250.0, 1200.0, n_noise)
            times = day * SECONDS_PER_DAY + rng.uniform(0, SECONDS_PER_DAY, n_noise)
            ports = rng.integers(1024, 65535, n_noise)
            blocks.append(_Block(n_noise, a, b, times, 123, ports, packets, sizes))

        # Monlist monitoring: each scanner address receives 486-byte
        # responses from a few dozen reflectors.
        if 123 not in self._servers:
            return blocks
        ntp_start, n_ntp = self._servers[123]
        n_scanners = rng.poisson(config.monitor_scanners_per_day * intensity_scale)
        for _ in range(n_scanners):
            scanner_idx = int(rng.integers(0, n_clients))
            k = max(1, int(rng.lognormal(np.log(config.monitor_reflectors_median), 0.8)))
            k = min(k, n_ntp)
            refl = rng.choice(n_ntp, size=k, replace=False)
            packets = rng.poisson(config.monitor_packets_per_reflector, k) + 1
            times = day * SECONDS_PER_DAY + rng.uniform(0, SECONDS_PER_DAY, k)
            ports = rng.integers(1024, 65535, k)
            scanner = _Block(k, ntp_start + refl, scanner_idx, times, 123, ports, packets, 486.0)
            blocks.append(scanner)
        return blocks

    def flows_for_day(self, day: int, intensity_scale: float = 1.0) -> FlowTable:
        """All benign flows for ``day`` across modeled ports.

        The loops only draw: each block keeps its draws, and the day's
        table is assembled once per column at the end.
        """
        if intensity_scale < 0:
            raise ValueError("intensity_scale cannot be negative")
        rng = self.seeds.child("background", day).rng()
        config = self.config
        blocks = self._ntp_noise_blocks(day, rng, intensity_scale)
        for port, mix in BENIGN_MIXES.items():
            if port not in self._servers:
                continue
            server_start, n_servers = self._servers[port]
            packet_budget = (
                config.daily_packets_unit
                * mix.relative_intensity
                * intensity_scale
                * rng.lognormal(0.0, config.daily_noise_sigma)
            )
            if packet_budget < 1:
                continue
            n_flows = config.daily_flows_per_port
            client_idx = rng.integers(0, self.client_ips.size, n_flows)
            server_idx = server_start + rng.integers(0, n_servers, n_flows)
            times = day * SECONDS_PER_DAY + (
                rng.integers(0, int(SECONDS_PER_DAY / config.bin_seconds), n_flows)
                * config.bin_seconds
            )
            mean_per_flow = max(packet_budget / n_flows, 1.0)
            packets = 1 + rng.geometric(1.0 / mean_per_flow, n_flows)
            sizes = mix.sample_sizes(rng, n_flows)
            ports = rng.integers(1024, 65535, n_flows)
            query = _Block(n_flows, client_idx, server_idx, times, ports, port, packets, sizes)
            blocks.append(query)
            # Matching benign responses (server -> client, small packets).
            n_resp = int(n_flows * config.response_fraction)
            if n_resp:
                keep = rng.choice(n_flows, size=n_resp, replace=False)
                resp_sizes = mix.sample_sizes(rng, n_resp)
                resp_ports = rng.integers(1024, 65535, n_resp)
                blocks.append(
                    _Block(
                        n_resp,
                        server_idx[keep],
                        client_idx[keep],
                        times[keep],
                        port,
                        resp_ports,
                        packets[keep],
                        resp_sizes,
                    )
                )

        src = _column(blocks, "src", np.int64)
        dst = _column(blocks, "dst", np.int64)
        packets = _column(blocks, "packets", np.int64)
        return FlowTable(
            {
                "time": _column(blocks, "time", np.float64),
                "src_ip": self._host_ips[src],
                "dst_ip": self._host_ips[dst],
                "proto": np.full(packets.size, UDP, dtype=np.uint8),
                "src_port": _column(blocks, "src_port", np.uint16),
                "dst_port": _column(blocks, "dst_port", np.uint16),
                "packets": packets,
                "bytes": np.round(packets * _column(blocks, "sizes", np.float64)).astype(np.int64),
                "src_asn": self._host_asns[src],
                "dst_asn": self._host_asns[dst],
            }
        )
