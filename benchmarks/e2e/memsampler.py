"""Process-tree PSS sampler behind ``peak_mem_mb``.

Worker pools fork from the program, so their pages are shared
copy-on-write: summing RSS would count every shared page once per
process. PSS splits each shared page between its sharers, so the sum of
PSS over a process tree is the tree's real footprint. psutil is not a
dependency; the sampler reads Linux ``/proc`` directly
(``smaps_rollup`` for PSS, ``task/<tid>/children`` for the tree).
"""

from __future__ import annotations

import asyncio
import os
import threading

__all__ = ["SAMPLE_INTERVAL_S", "sample_peak_kb", "tree_pss_kb"]

#: 20 Hz: fine enough to catch the day-table plateaus that set the peak.
SAMPLE_INTERVAL_S = 0.05


def _pss_kb(pid: int) -> int:
    with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Pss:"):
                return int(line.split()[1])
    return 0  # a zombie's rollup is empty


def _children(pid: int) -> list[int]:
    out: list[int] = []
    for tid in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as fh:
            out.extend(int(child) for child in fh.read().split())
    return out


def tree_pss_kb(root_pid: int) -> int:
    """Summed PSS (KiB) of ``root_pid`` and all its live descendants."""
    total = 0
    pending = [root_pid]
    while pending:
        pid = pending.pop()
        try:
            total += _pss_kb(pid)
            pending.extend(_children(pid))
        except (FileNotFoundError, ProcessLookupError):
            continue  # exited between being listed and being read
    return total


def _sample_until(root_pid: int, stop: threading.Event) -> int:
    peak = 0
    while not stop.is_set():
        peak = max(peak, tree_pss_kb(root_pid))
        stop.wait(SAMPLE_INTERVAL_S)
    return peak


async def sample_peak_kb(root_pid: int, stop: threading.Event) -> int:
    """Peak of :func:`tree_pss_kb` over 20 Hz samples until ``stop`` is set.

    Sampling runs in a worker thread: reading ``smaps_rollup`` of a
    large process takes milliseconds of kernel time, which on the event
    loop would delay the serve load generator's requests.
    """
    return await asyncio.to_thread(_sample_until, root_pid, stop)
