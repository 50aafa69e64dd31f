"""The amplification vector abstraction.

An :class:`AmplificationVector` describes one reflection/amplification
protocol end to end: a spoofed *request* of ``request_size`` bytes sent to
a reflector's ``port`` elicits ``response_packets_per_request`` response
packets whose sizes follow ``response_size``. The *bandwidth amplification
factor* (BAF, Rossow NDSS'14 terminology) is their mean response bytes per
request byte: ``response_packets_per_request * mean_response_size /
request_size``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.stats.distributions import Sampler

__all__ = ["AmplificationVector", "ALL_VECTORS", "register_vector", "vector_by_name"]

UDP = 17


@dataclass(frozen=True)
class AmplificationVector:
    """One reflection/amplification protocol.

    Attributes:
        name: human-readable protocol name ("ntp", "memcached", ...).
        port: the reflector-side UDP port (e.g. 123 for NTP).
        request_size: size in bytes of one spoofed trigger request.
        response_size: sampler of response packet sizes in bytes.
        response_packets_per_request: mean number of response packets one
            request elicits (NTP monlist: up to 100 packets of ~482-490 B
            for a 234 B request).
        mean_response_size: analytic mean of ``response_size`` (used for
            rate math without sampling).
        protocol: IP protocol number (UDP for every vector here).
    """

    name: str
    port: int
    request_size: float
    response_size: Sampler
    response_packets_per_request: float
    mean_response_size: float
    protocol: int = UDP
    description: str = ""

    def __post_init__(self) -> None:
        if not 0 < self.port < 65536:
            raise ValueError(f"port out of range: {self.port}")
        if self.request_size <= 0:
            raise ValueError("request_size must be positive")
        if self.response_packets_per_request <= 0:
            raise ValueError("response_packets_per_request must be positive")
        if self.mean_response_size <= 0:
            raise ValueError("mean_response_size must be positive")

    def sample_response_sizes(self, rng: np.random.Generator, n_packets: int) -> np.ndarray:
        """Draw ``n_packets`` response packet sizes in bytes."""
        if n_packets < 0:
            raise ValueError("n_packets must be non-negative")
        if n_packets == 0:
            return np.empty(0)
        return self.response_size.sample(rng, n_packets)


ALL_VECTORS: dict[str, AmplificationVector] = {}


def register_vector(vector: AmplificationVector) -> AmplificationVector:
    """Add ``vector`` to the global registry (keyed by name, unique port)."""
    if vector.name in ALL_VECTORS:
        raise ValueError(f"vector {vector.name!r} already registered")
    if any(v.port == vector.port for v in ALL_VECTORS.values()):
        raise ValueError(f"port {vector.port} already registered")
    ALL_VECTORS[vector.name] = vector
    return vector


def vector_by_name(name: str) -> AmplificationVector:
    """Look up a registered vector by name (KeyError lists known names)."""
    try:
        return ALL_VECTORS[name]
    except KeyError:
        known = ", ".join(sorted(ALL_VECTORS))
        raise KeyError(f"unknown vector {name!r} (known: {known})") from None
