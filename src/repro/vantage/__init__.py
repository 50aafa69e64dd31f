"""Vantage points: what each network actually sees.

The paper's three traces differ in visibility, direction, and sampling:

* the IXP exports *sampled* IPFIX of traffic crossing its peering fabric;
* the tier-1 ISP exports ingress-only NetFlow at its border routers, with
  traffic sourced by its own end-users/customers excluded;
* the tier-2 ISP exports both directions including customer-sourced
  traffic.

All three anonymize addresses. This package reproduces those lenses over
the synthetic global traffic, plus the paper's dedicated measurement AS
(the "IXP observatory") used for the self-attacks.
"""

from repro.vantage.base import CaptureWindow, VantagePoint
from repro.vantage.isp import ISPVantagePoint
from repro.vantage.ixp import IXPVantagePoint
from repro.vantage.matrix import VisibilityMatrix
from repro.vantage.observatory import IXPObservatory, SelfAttackMeasurement

__all__ = [
    "CaptureWindow",
    "ISPVantagePoint",
    "IXPObservatory",
    "IXPVantagePoint",
    "SelfAttackMeasurement",
    "VantagePoint",
    "VisibilityMatrix",
]
