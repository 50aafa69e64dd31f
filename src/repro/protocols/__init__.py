"""Amplification protocol models.

Booter attacks abuse UDP protocols whose responses dwarf their requests.
This package models, per protocol: the well-known port, request packet
size, response packet-size distribution, response packets per request
(amplification), and the benign traffic mix on the same port — which is
what makes classification non-trivial (Figure 2a: 54% of NTP packets at
the IXP are small/benign).
"""

from repro.protocols.amplification import (
    ALL_VECTORS,
    AmplificationVector,
    vector_by_name,
)
from repro.protocols.benign import BenignPortTraffic, benign_traffic_for_port
from repro.protocols.vectors import CHARGEN, CLDAP, DNS, MEMCACHED, NTP, SSDP

__all__ = [
    "ALL_VECTORS",
    "AmplificationVector",
    "BenignPortTraffic",
    "CHARGEN",
    "CLDAP",
    "DNS",
    "MEMCACHED",
    "NTP",
    "SSDP",
    "benign_traffic_for_port",
    "vector_by_name",
]
