"""Flow-record substrate.

Every vantage point in the paper exports flow summaries (IPFIX at the IXP,
NetFlow at the ISPs): no payloads, just timestamps, the 5-tuple, counters,
and ingress metadata. :class:`~repro.flows.records.FlowTable` is the
columnar in-memory form of such a trace; samplers, time binning, and
per-destination aggregation all operate on it.
"""

from repro.flows.io import read_flows_csv, write_flows_csv
from repro.flows.records import FlowTable
from repro.flows.sampling import PacketSampler
from repro.flows.timeseries import bin_timeseries, per_destination_stats

__all__ = [
    "FlowTable",
    "PacketSampler",
    "bin_timeseries",
    "per_destination_stats",
    "read_flows_csv",
    "write_flows_csv",
]
