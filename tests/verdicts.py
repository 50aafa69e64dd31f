"""Every pair's visibility verdict through the production matrix API.

``VisibilityMatrix`` resolves masks for whole cell arrays but peers only
for the rows a vantage point exports. The parity tests compare whole
verdict arrays with the reference oracle, so these helpers ask the
production lookup for every row's peer.
"""

from __future__ import annotations

import numpy as np

from repro.vantage.matrix import VisibilityMatrix


def ixp_verdicts(matrix: VisibilityMatrix, src_asns, dst_asns) -> tuple[np.ndarray, np.ndarray]:
    """(visible mask, peer ASNs) of aligned ASN pairs at the IXP."""
    cells = matrix.pair_index(src_asns, dst_asns)
    (visible,), peers = matrix.ixp_verdicts([cells])
    return visible, peers([np.arange(cells.size)])


def isp_verdicts(
    matrix: VisibilityMatrix, observer_asn: int, src_asns, dst_asns, ingress_only: bool
) -> tuple[np.ndarray, np.ndarray]:
    """(visible mask, peer ASNs) of aligned ASN pairs at one ISP view."""
    cells = matrix.pair_index(src_asns, dst_asns)
    (visible,), peers = matrix.isp_verdicts(observer_asn, ingress_only, [cells])
    return visible, peers([np.arange(cells.size)])
