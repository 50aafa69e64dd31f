"""Async request coalescing: one compute per key, shared by all waiters.

A thousand clients asking for the same uncomputed day must trigger one
pipeline run, not a thousand. :class:`SingleFlight` keys in-flight
computations: the first caller for a key becomes the *leader* and runs
the factory; every caller that arrives while the leader is still running
becomes a *follower* and awaits the same future. Followers are counted
as ``serve.singleflight_hits`` — the dedup ratio the load-test benchmark
reports is hits over total calls.

The flight table only coalesces *concurrent* callers: the key is removed
the moment the leader finishes, so results are never cached here —
caching across time is the day cache's job, coalescing across waiters is
this module's.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable

from repro.obs import metrics

__all__ = ["SingleFlight"]


class SingleFlight:
    """Deduplicate concurrent async computations by key.

    All methods must be called from one event loop (the server's); the
    flight table is loop-confined state and needs no lock.
    """

    def __init__(self) -> None:
        self._inflight: dict[Any, asyncio.Future] = {}

    def __len__(self) -> int:
        return len(self._inflight)

    async def run(self, key: Any, factory: Callable[[], Awaitable[Any]]) -> Any:
        """The result of ``factory()`` for ``key``, shared while in flight.

        The leader's exception propagates to every waiter of that
        flight; the next caller after the flight resolves starts a fresh
        one. A follower being cancelled never cancels the leader's
        computation (the shared future is shielded). Cancelling the
        *leader* fails every waiter with ``CancelledError``, so callers
        must not cancel a call that may lead a flight.
        """
        registry = metrics()
        existing = self._inflight.get(key)
        if existing is not None:
            registry.inc("serve.singleflight_hits")
            return await asyncio.shield(existing)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        registry.inc("serve.singleflight_leaders")
        try:
            result = await factory()
        except BaseException as exc:
            if not future.cancelled():
                future.set_exception(exc)
                # Touch the exception so a flight with zero followers does
                # not log "exception was never retrieved" at GC time.
                future.exception()
            raise
        else:
            if not future.cancelled():
                future.set_result(result)
            return result
        finally:
            self._inflight.pop(key, None)
