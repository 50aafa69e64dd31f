"""Reference observation: the table-per-stage pipeline ``VantagePoint.observe`` replaced.

Every stage builds a whole :class:`~repro.flows.records.FlowTable` over
one (concatenated) input table: the visible flows with ``peer_asn`` set
on every row, then the capture-window clip, then 1-in-N packet sampling
with thinned counters, then address anonymization. Production reads a
day's kind tables one by one, resolves the exported rows first and
gathers each column, ``peer_asn`` included, once; the parity suites
assert that both exports, and the generator state they leave behind, are
bit-identical.

Verdicts come from the vantage point's own ``visibility_filter`` hook, so
a reference verdict engine swapped into ``vp.visibility`` (as the
flow-plane benchmark's legacy leg does) drives this pipeline too. The
clip and the sampler are the original code, sharing nothing with
``CaptureWindow.contains_times`` or ``PacketSampler.thin``.
"""

from __future__ import annotations

import numpy as np

from repro.flows.records import FlowTable
from repro.flows.sampling import PacketSampler
from repro.vantage.base import SECONDS_PER_DAY, CaptureWindow, VantagePoint

__all__ = ["clip_table", "observe", "sample_table", "visible_flows"]


def visible_flows(vp: VantagePoint, table: FlowTable, pair_index=None) -> FlowTable:
    """The flows ``vp`` sees, with ``peer_asn`` set to the handover neighbor."""
    if len(table) == 0:
        return table
    indices = None if pair_index is None else [pair_index]
    (mask,), peers = vp.visibility_filter([table], indices)
    return table.with_columns(peer_asn=peers([np.arange(len(table))])).filter(mask)


def clip_table(window: CaptureWindow, table: FlowTable) -> FlowTable:
    """Drop flows outside ``window``."""
    if len(table) == 0:
        return table
    t0 = window.start_day * SECONDS_PER_DAY
    t1 = window.end_day * SECONDS_PER_DAY
    return table.select(time_range=(t0, t1))


def sample_table(
    sampler: PacketSampler, table: FlowTable, rng: np.random.Generator
) -> FlowTable:
    """Surviving flows of 1-in-N packet sampling, with thinned counters."""
    if sampler.rate_denominator == 1 or len(table) == 0:
        return table
    packets = table["packets"]
    sampled = rng.binomial(packets, sampler.probability)
    survivors = sampled > 0
    if not survivors.any():
        return FlowTable.empty()
    mean_size = table.mean_packet_sizes()
    new_bytes = np.round(sampled * mean_size).astype(np.int64)
    thinned = table.with_columns(packets=sampled.astype(np.int64), bytes=new_bytes)
    return thinned.filter(survivors)


def observe(
    vp: VantagePoint, table: FlowTable, rng: np.random.Generator, pair_index=None
) -> FlowTable:
    """``vp``'s export of ``table``: visibility, clip, sample, anonymize."""
    visible = visible_flows(vp, table, pair_index=pair_index)
    clipped = clip_table(vp.window, visible)
    sampled = sample_table(vp.sampler, clipped, rng)
    if vp.anonymizer is not None and len(sampled):
        sampled = sampled.with_columns(
            src_ip=vp.anonymizer.anonymize_array(sampled["src_ip"]),
            dst_ip=vp.anonymizer.anonymize_array(sampled["dst_ip"]),
        )
    return sampled
