"""Observatory-as-a-service: an async query/serving plane over the day cache.

The experiment substrate — the in-memory
:class:`~repro.core.parallel.DayResultCache`, the durable
:class:`~repro.core.diskcache.DiskDayCache`, and the warm
:mod:`repro.core.workerpool` — is exactly what a long-running
service needs to hand takedown time-series and victim statistics to many
concurrent clients. This package is that service:

* :mod:`repro.serve.http` — a dependency-free HTTP/1.1 request parser
  and response writer (the environment is offline: stdlib only, built on
  ``asyncio.start_server``), with hard limits on header/body sizes and a
  read timeout against slow-loris clients;
* :mod:`repro.serve.singleflight` — async request coalescing: N
  concurrent requests for the same uncomputed resource trigger exactly
  one pipeline run and share its bytes;
* :mod:`repro.serve.ratelimit` — per-client token buckets behind 429s;
* :mod:`repro.serve.service` — the domain layer resolving every request
  through the cache tiers (memory -> disk -> warm-pool compute) and
  producing canonical (byte-stable) JSON payloads;
* :mod:`repro.serve.routes` — the endpoint table: ``/v1/health``,
  ``/v1/config``, ``/v1/days/{date}``, ``/v1/series/takedown``,
  ``/v1/victims/top``, and the ``/v1/events/stream`` SSE feed;
* :mod:`repro.serve.sse` — Server-Sent Events framing for the live
  attack-map-style event replay;
* :mod:`repro.serve.server` — the ``repro-serve`` console entry point
  tying it together (``--host/--port/--cache-dir/--jobs``).

Everything the service returns is derived from the same deterministic
day pipeline the experiments use, so responses are byte-identical across
``--jobs`` values, cold vs warm caches, and server restarts.
"""

from repro.serve.http import (
    HttpError,
    HttpLimits,
    Request,
    Response,
    parse_request_head,
)
from repro.serve.ratelimit import RateLimiter, TokenBucket
from repro.serve.routes import build_router
from repro.serve.server import ObservatoryServer
from repro.serve.service import ObservatoryService, canonical_json
from repro.serve.singleflight import SingleFlight

__all__ = [
    "HttpError",
    "HttpLimits",
    "ObservatoryServer",
    "ObservatoryService",
    "RateLimiter",
    "Request",
    "Response",
    "SingleFlight",
    "TokenBucket",
    "build_router",
    "canonical_json",
    "parse_request_head",
]
