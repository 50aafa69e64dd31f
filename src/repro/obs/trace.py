"""Event tracing: bounded per-process event buffers and Chrome trace export.

A :class:`TraceRecorder` attached to a :class:`~repro.obs.metrics.MetricsRegistry`
turns every completed ``span()`` into one *complete* trace event — name,
wall-clock offset, duration, pid/tid, and optional args such as the
scenario day or experiment id. Recorders are picklable and mergeable with
the same reduction shape as ``MetricsRegistry.merge``, so worker
processes ship their event buffers back with pool results and the parent
folds them into one run-wide timeline.

:func:`write_chrome_trace` exports that timeline as Chrome trace-event
JSON (the ``traceEvents`` array format), loadable in Perfetto or
``chrome://tracing``: one track per process, so a ``--jobs N`` run of the
17 experiments is visually inspectable per worker.

Timestamps are ``time.perf_counter()`` microseconds. On Linux that clock
is ``CLOCK_MONOTONIC``, which shares its epoch across processes, so
parent and worker events interleave correctly; the export re-bases all
timestamps to the earliest event.

**Request-scoped tracing.** The serving plane assigns every HTTP request
an id and installs it in the :data:`current_request_id` context variable
(:func:`request_scope`). :meth:`TraceRecorder.record` stamps the current
id into every event's args, and the worker pool forwards the id across
the process boundary, so a pool-worker span stitches back to
the HTTP request that caused it: filtering the Perfetto export on
``args.request_id`` shows one request's full serve → pool timeline.
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

__all__ = [
    "TRACE_SCHEMA",
    "TraceRecorder",
    "chrome_trace_events",
    "write_chrome_trace",
    "current_request_id",
    "set_request_id",
    "reset_request_id",
    "request_scope",
]

#: The id of the request the current task/thread is working for, or
#: ``None`` outside any request. Context variables propagate through
#: ``asyncio`` task creation and ``asyncio.to_thread``, so serve-side
#: spans inherit the id for free; pool tasks forward it explicitly.
_REQUEST_ID: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "repro_request_id", default=None
)


def current_request_id() -> str | None:
    """The request id bound to the current context, if any."""
    return _REQUEST_ID.get()


def set_request_id(request_id: str | None) -> contextvars.Token:
    """Bind ``request_id`` to the current context; returns a reset token."""
    return _REQUEST_ID.set(request_id)


def reset_request_id(token: contextvars.Token) -> None:
    """Undo a :func:`set_request_id` using its token."""
    _REQUEST_ID.reset(token)


@contextmanager
def request_scope(request_id: str | None) -> Iterator[str | None]:
    """Scope ``request_id`` as the current request for a ``with`` block."""
    token = _REQUEST_ID.set(request_id)
    try:
        yield request_id
    finally:
        _REQUEST_ID.reset(token)

#: This process's id, refreshed in forked children: ``os.getpid()`` is a
#: system call, and every trace event carries the pid.
_PID = os.getpid()


def _refresh_pid() -> None:
    global _PID
    _PID = os.getpid()


os.register_at_fork(after_in_child=_refresh_pid)

#: Version tag embedded in the exported trace file (under ``otherData``).
TRACE_SCHEMA = "repro.obs.trace/1"

#: Default event-buffer bound. A full 17-experiment small-preset run emits
#: a few thousand span events; the bound only exists so a pathological
#: hot-loop span cannot grow the buffer without limit.
DEFAULT_MAX_EVENTS = 200_000


class TraceRecorder:
    """Bounded buffer of completed span events for one process.

    Events are stored as ``(name, ts_us, dur_us, pid, tid, args)`` tuples
    (``args`` is ``None`` or a small dict). Once ``max_events`` is
    reached further events are counted in :attr:`dropped` instead of
    stored, so tracing can never exhaust memory.
    """

    __slots__ = ("max_events", "events", "dropped")

    def __init__(self, max_events: int = DEFAULT_MAX_EVENTS) -> None:
        if max_events <= 0:
            raise ValueError(f"max_events must be positive, got {max_events}")
        self.max_events = max_events
        self.events: list[tuple[str, float, float, int, int, dict[str, Any] | None]] = []
        self.dropped = 0

    def record(
        self,
        name: str,
        start_s: float,
        duration_s: float,
        args: dict[str, Any] | None = None,
    ) -> None:
        """Record one completed span (``start_s`` in perf_counter seconds).

        When a request id is bound in the current context (see
        :func:`request_scope`) it is stamped into the event args as
        ``request_id``, without overriding an explicit value.
        """
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        request_id = _REQUEST_ID.get()
        if request_id is not None:
            args = dict(args) if args else {}
            args.setdefault("request_id", request_id)
        self.events.append(
            (
                name,
                start_s * 1e6,
                duration_s * 1e6,
                _PID,
                threading.get_native_id(),
                args,
            )
        )

    def merge(self, other: "TraceRecorder") -> "TraceRecorder":
        """Fold another recorder's buffer into this one (commutative up to
        event order, which the export re-sorts by timestamp anyway)."""
        room = self.max_events - len(self.events)
        if room >= len(other.events):
            self.events.extend(other.events)
        else:
            self.events.extend(other.events[:room])
            self.dropped += len(other.events) - room
        self.dropped += other.dropped
        return self

    def pids(self) -> set[int]:
        """Distinct process ids that contributed events."""
        return {event[3] for event in self.events}

    def __len__(self) -> int:
        return len(self.events)

    def __getstate__(self) -> dict[str, Any]:
        return {
            "max_events": self.max_events,
            "events": self.events,
            "dropped": self.dropped,
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.max_events = state["max_events"]
        self.events = state["events"]
        self.dropped = state["dropped"]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceRecorder({len(self.events)} events, {self.dropped} dropped)"


def chrome_trace_events(
    recorder: TraceRecorder, parent_pid: int | None = None
) -> list[dict[str, Any]]:
    """The recorder's buffer as Chrome trace-event dicts.

    Events are complete (``"ph": "X"``) events sorted by timestamp and
    re-based so the earliest starts at 0; process-name metadata events
    label the parent process vs pool workers.
    """
    ordered = sorted(recorder.events, key=lambda event: event[1])
    t0 = ordered[0][1] if ordered else 0.0
    out: list[dict[str, Any]] = []
    if parent_pid is None:
        parent_pid = os.getpid()
    for pid in sorted({event[3] for event in ordered}):
        label = "repro-experiments" if pid == parent_pid else f"worker-{pid}"
        out.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "ts": 0,
                "args": {"name": label},
            }
        )
    for name, ts, dur, pid, tid, args in ordered:
        event: dict[str, Any] = {
            "name": name,
            "cat": "repro",
            "ph": "X",
            "ts": round(ts - t0, 3),
            "dur": round(dur, 3),
            "pid": pid,
            "tid": tid,
        }
        if args:
            event["args"] = dict(args)
        out.append(event)
    return out


def write_chrome_trace(
    recorder: TraceRecorder,
    path: str | Path,
    parent_pid: int | None = None,
    run_info: dict[str, Any] | None = None,
) -> Path:
    """Write the recorder as a Chrome trace-event JSON file.

    The object form of the format is used (``traceEvents`` +
    ``displayTimeUnit``) so run metadata and the dropped-event count can
    ride along under ``otherData``.
    """
    payload = {
        "displayTimeUnit": "ms",
        "traceEvents": chrome_trace_events(recorder, parent_pid=parent_pid),
        "otherData": {
            "schema": TRACE_SCHEMA,
            "dropped_events": recorder.dropped,
            **(run_info or {}),
        },
    }
    out = Path(path)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return out
