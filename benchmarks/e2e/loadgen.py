"""Closed-loop load for the ``serve_closed_loop`` workload.

Observatory API callers each wait for their reply before asking again,
so the load is a closed loop: :data:`CONNECTIONS` keep-alive connections
(one per core of the 2-core reference box) each send their next request
only after the previous body has fully arrived. Everything runs on the
benchmark's one asyncio loop; no extra threads or processes.

The request mix is assumed, not measured: the repository holds no
capture of real API traffic to derive it from. It is 75%
``/v1/days/{d}``, 20% ``/v1/victims/top``, 5% 7-day
``/v1/series/takedown``; days follow a Zipf(1.1) law over the takedown
day ±:data:`HALF_WIDTH_DAYS`, hottest at the takedown and cooling with
distance from it; vantages are ixp/tier2/tier1 at 60/30/10%. The
schedule holds each target in proportion to that mix and the workload
seed shuffles its order: which targets a pass touches sets its compute
and the server's memory, so drawing them at random would make both vary
with the seed. Latency is timed per request, from send to full body.
"""

from __future__ import annotations

import asyncio
import datetime
import hashlib
import random
import time
from dataclasses import dataclass, field

__all__ = ["CONNECTIONS", "PassResult", "build_schedule", "run_pass"]

CONNECTIONS = 2
HOST = "127.0.0.1"

#: The paper's seizure date: the schedule centres on it.
TAKEDOWN = datetime.date(2018, 12, 19)
#: ±15 days, not ±30: at ±30 the cold pass computed twice as many days
#: and took over 80% of the workload's wall time, hiding the warm path.
HALF_WIDTH_DAYS = 15
ZIPF_EXPONENT = 1.1
VANTAGE_MIX = (("ixp", 0.6), ("tier2", 0.3), ("tier1", 0.1))
KIND_MIX = (("day", 0.75), ("victims", 0.20), ("series", 0.05))

#: A request that has not completed after this long counts as failed.
REQUEST_TIMEOUT_S = 60.0


def _target(kind: str, day: datetime.date, vantage: str) -> str:
    if kind == "day":
        return f"/v1/days/{day}?vantage={vantage}"
    if kind == "victims":
        return f"/v1/victims/top?date={day}&vantage={vantage}"
    start, end = day - datetime.timedelta(days=3), day + datetime.timedelta(days=3)
    return f"/v1/series/takedown?start={start}&end={end}&vantage={vantage}"


def build_schedule(seed: int, n_requests: int) -> list[str]:
    """``n_requests`` request targets in the mix's proportions, shuffled by ``seed``.

    Each (endpoint, day, vantage) target gets its share of the requests,
    rounded by largest remainder so the counts sum exactly.
    """
    offsets = [0]
    for distance in range(1, HALF_WIDTH_DAYS + 1):
        offsets += [-distance, distance]
    day_weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(offsets))]
    day_total = sum(day_weights)
    cells = [
        (_target(kind, TAKEDOWN + datetime.timedelta(days=offset), vantage), p_kind * w / day_total * p_vantage)
        for kind, p_kind in KIND_MIX
        for offset, w in zip(offsets, day_weights)
        for vantage, p_vantage in VANTAGE_MIX
    ]
    exact = [n_requests * p for _, p in cells]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(cells)), key=lambda i: exact[i] - counts[i], reverse=True)
    for i in by_remainder[: n_requests - sum(counts)]:
        counts[i] += 1
    schedule = [target for (target, _), count in zip(cells, counts) for _ in range(count)]
    random.Random(seed).shuffle(schedule)
    return schedule


@dataclass
class PassResult:
    """One pass over the schedule."""

    attempted: int = 0
    wall_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    #: sha256 of the body served for each target (first response).
    bodies: dict[str, str] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)


async def _get(reader: asyncio.StreamReader, writer: asyncio.StreamWriter, target: str) -> tuple[int, bytes]:
    writer.write(f"GET {target} HTTP/1.1\r\nHost: {HOST}\r\n\r\n".encode("ascii"))
    await writer.drain()
    head = (await reader.readuntil(b"\r\n\r\n")).decode("latin-1")
    lines = head.split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return status, await reader.readexactly(length)


async def run_pass(port: int, schedule: list[str]) -> PassResult:
    """Send ``schedule`` over :data:`CONNECTIONS` closed-loop connections."""
    result = PassResult(attempted=len(schedule))
    pending = iter(range(len(schedule)))

    async def client() -> None:
        conn = None
        try:
            for i in pending:
                target = schedule[i]
                if conn is None:
                    conn = await asyncio.open_connection(HOST, port)
                start = time.perf_counter()
                try:
                    status, body = await asyncio.wait_for(_get(*conn, target), REQUEST_TIMEOUT_S)
                except (ConnectionError, asyncio.IncompleteReadError, asyncio.TimeoutError) as exc:
                    result.failures.append(f"{target}: {exc!r}")
                    conn[1].close()
                    conn = None
                    continue
                result.latencies_s.append(time.perf_counter() - start)
                if status != 200:
                    result.failures.append(f"{target}: HTTP {status}")
                    continue
                digest = hashlib.sha256(body).hexdigest()
                if result.bodies.setdefault(target, digest) != digest:
                    result.failures.append(f"{target}: body changed within the pass")
        finally:
            if conn is not None:
                conn[1].close()
                await conn[1].wait_closed()

    start = time.perf_counter()
    await asyncio.gather(*(client() for _ in range(CONNECTIONS)))
    result.wall_s = time.perf_counter() - start
    return result
