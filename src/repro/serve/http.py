"""Minimal HTTP/1.1 machinery for the observatory server.

The serving environment is offline and dependency-free, so there is no
FastAPI/uvicorn underneath — just ``asyncio.start_server`` streams and
this module: a strict request parser with hard limits, a tiny response
type, and the keep-alive rules the conformance suite pins down
(``tests/test_serve_http.py``).

Parsing is split in two layers so the protocol rules are testable
without an event loop:

* :func:`parse_request_head` is a pure function from raw head bytes to a
  :class:`Request`, raising :class:`HttpError` with the right status for
  every malformation (bad request line, bad verb token, oversized or
  malformed headers, unsupported version);
* :func:`read_request` drives it over an ``asyncio.StreamReader`` with a
  read timeout, returning ``None`` on a clean end-of-stream between
  requests (how keep-alive connections end) and raising
  :class:`SlowClient` when a client stalls mid-request (slow-loris).
"""

from __future__ import annotations

import asyncio
import re
from dataclasses import dataclass, field
from urllib.parse import parse_qsl, unquote

__all__ = [
    "STATUS_REASONS",
    "HttpError",
    "HttpLimits",
    "Request",
    "Response",
    "SlowClient",
    "parse_request_head",
    "read_request",
    "write_response",
]

#: Reason phrases for every status the server emits.
STATUS_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    505: "HTTP Version Not Supported",
}

#: RFC 9110 token characters (method names are tokens).
_TOKEN_RE = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")

#: Origin-form targets (RFC 9112 §3.2.1): an absolute path whose first
#: segment is not empty, so it cannot read as ``//authority``, and an
#: optional query, both in RFC 3986 path/query characters.
_ORIGIN_FORM_RE = re.compile(r"/(?!/)[!$&'()*+,;=:@/?%\-._~0-9A-Za-z]*")

#: Characters RFC 9110 §5.5 forbids in field values; no decoded path may
#: carry them either.
_FORBIDDEN_CHARS = re.compile("[\r\n\x00]")

#: Methods the server understands at all; anything else that is still a
#: valid token is 501, a non-token is 400.
KNOWN_METHODS = ("GET", "HEAD", "POST", "PUT", "DELETE", "OPTIONS", "PATCH")


class HttpError(Exception):
    """A protocol-level rejection carrying the HTTP status to send.

    ``close`` marks errors after which the connection state is
    unrecoverable (we cannot know where the next request starts), so the
    server responds and hangs up instead of keeping the stream alive.
    """

    def __init__(self, status: int, detail: str, *, close: bool = True) -> None:
        if status not in STATUS_REASONS:
            raise ValueError(f"unknown status {status}")
        super().__init__(detail)
        self.status = status
        self.detail = detail
        self.close = close


class SlowClient(Exception):
    """A client stalled mid-request past the read timeout (slow-loris)."""


@dataclass(frozen=True)
class HttpLimits:
    """Hard limits the parser enforces per request."""

    max_head_bytes: int = 16 * 1024
    max_body_bytes: int = 256 * 1024
    max_header_count: int = 64
    read_timeout_s: float = 10.0

    def __post_init__(self) -> None:
        if self.max_head_bytes <= 0 or self.max_body_bytes < 0:
            raise ValueError("limits must be positive")
        if self.read_timeout_s <= 0:
            raise ValueError("read_timeout_s must be positive")


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    target: str
    version: str
    headers: dict[str, str]
    body: bytes = b""
    path: str = ""
    query: dict[str, str] = field(default_factory=dict)

    @property
    def keep_alive(self) -> bool:
        """Whether the connection persists after this exchange.

        HTTP/1.1 defaults to keep-alive unless ``Connection: close``;
        HTTP/1.0 defaults to close unless ``Connection: keep-alive``.
        """
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"

    def param(self, name: str, default: str | None = None) -> str | None:
        return self.query.get(name, default)


@dataclass
class Response:
    """One response to write: status, body, and extra headers."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: tuple[tuple[str, str], ...] = ()
    close: bool = False


def parse_request_head(head: bytes, limits: HttpLimits = HttpLimits()) -> Request:
    """Parse the request line + headers (everything before the body).

    ``head`` excludes the terminating blank line. Raises
    :class:`HttpError` for every malformation, with the most specific
    status available (400 bad syntax, 431 header overflow, 505 version).
    """
    if len(head) > limits.max_head_bytes:
        raise HttpError(431, f"request head exceeds {limits.max_head_bytes} bytes")
    try:
        text = head.decode("latin-1")
    except UnicodeDecodeError:  # pragma: no cover - latin-1 decodes all bytes
        raise HttpError(400, "undecodable request head") from None
    lines = text.split("\r\n")
    request_line = lines[0]
    parts = request_line.split(" ")
    if len(parts) != 3 or not all(parts):
        raise HttpError(400, f"malformed request line: {request_line!r}")
    method, target, version = parts
    if not _TOKEN_RE.fullmatch(method):
        raise HttpError(400, f"method is not a valid token: {method!r}")
    if method not in KNOWN_METHODS:
        raise HttpError(501, f"method not implemented: {method!r}")
    if not version.startswith("HTTP/"):
        raise HttpError(400, f"malformed HTTP version: {version!r}")
    if version not in ("HTTP/1.0", "HTTP/1.1"):
        raise HttpError(505, f"unsupported HTTP version: {version!r}")
    if target != "*" and not _ORIGIN_FORM_RE.fullmatch(target):
        raise HttpError(400, f"request target must be origin-form: {target!r}")
    raw_path, _, raw_query = target.partition("?")
    path = unquote(raw_path)
    if _FORBIDDEN_CHARS.search(path):
        raise HttpError(400, f"request path decodes to CR, LF or NUL: {target!r}")

    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        if line[0] in " \t":
            # Obsolete line folding: deprecated by RFC 7230 and a request
            # smuggling vector; reject rather than guess.
            raise HttpError(400, "obsolete header line folding")
        name, sep, value = line.partition(":")
        if not sep or not _TOKEN_RE.fullmatch(name):
            raise HttpError(400, f"malformed header field: {line!r}")
        if _FORBIDDEN_CHARS.search(value):
            raise HttpError(400, f"CR, LF or NUL in header field value: {line!r}")
        key = name.lower()
        if key in headers:
            headers[key] = f"{headers[key]}, {value.strip()}"
        else:
            headers[key] = value.strip()
        if len(headers) > limits.max_header_count:
            raise HttpError(431, f"more than {limits.max_header_count} header fields")

    if "transfer-encoding" in headers:
        # Chunked bodies are out of scope for a read-mostly JSON API —
        # declining is safer than half-implementing the framing.
        raise HttpError(501, "transfer-encoding is not supported")

    return Request(
        method=method,
        target=target,
        version=version,
        headers=headers,
        path=path,
        query=dict(parse_qsl(raw_query, keep_blank_values=True)),
    )


def _content_length(request: Request, limits: HttpLimits) -> int:
    raw = request.headers.get("content-length")
    if raw is None:
        return 0
    # RFC 9110 §8.6: 1*DIGIT. int() alone would also take "+1_0" or " 7".
    if not raw.isascii() or not raw.isdigit():
        raise HttpError(400, f"malformed Content-Length: {raw!r}")
    try:
        length = int(raw)
    except ValueError:  # more digits than int() parses
        raise HttpError(400, f"malformed Content-Length: {raw!r}") from None
    if length > limits.max_body_bytes:
        raise HttpError(413, f"body of {length} bytes exceeds {limits.max_body_bytes}")
    return length


async def read_request(
    reader: asyncio.StreamReader, limits: HttpLimits = HttpLimits()
) -> Request | None:
    """Read and parse one request from the stream.

    Returns ``None`` on a clean EOF before any byte of a new request
    (the normal end of a keep-alive connection). Raises:

    * :class:`SlowClient` when the peer stalls past ``read_timeout_s``
      mid-head or mid-body (slow-loris / truncated body);
    * :class:`HttpError` for protocol violations, including a truncated
      head at EOF (the peer gave up mid-request).
    """
    try:
        head = await asyncio.wait_for(
            reader.readuntil(b"\r\n\r\n"), timeout=limits.read_timeout_s
        )
    except asyncio.TimeoutError:
        raise SlowClient("timed out reading request head") from None
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between requests
        raise HttpError(400, "connection closed mid-request-head") from None
    except asyncio.LimitOverrunError:
        raise HttpError(431, "request head exceeds the stream limit") from None
    request = parse_request_head(head[:-4], limits)
    length = _content_length(request, limits)
    if length:
        try:
            request.body = await asyncio.wait_for(
                reader.readexactly(length), timeout=limits.read_timeout_s
            )
        except asyncio.TimeoutError:
            raise SlowClient("timed out reading request body") from None
        except asyncio.IncompleteReadError as exc:
            raise HttpError(
                400,
                f"truncated body: Content-Length {length}, got {len(exc.partial)} bytes",
            ) from None
    return request


def render_response(response: Response, *, version: str = "HTTP/1.1") -> bytes:
    """Serialize head + body (the writer-independent part of a response)."""
    reason = STATUS_REASONS[response.status]
    head_lines = [f"{version} {response.status} {reason}"]
    names = {name.lower() for name, _ in response.headers}
    if "content-type" not in names and response.body:
        head_lines.append(f"Content-Type: {response.content_type}")
    if "content-length" not in names:
        head_lines.append(f"Content-Length: {len(response.body)}")
    head_lines.append(f"Connection: {'close' if response.close else 'keep-alive'}")
    head_lines.extend(f"{name}: {value}" for name, value in response.headers)
    return ("\r\n".join(head_lines) + "\r\n\r\n").encode("latin-1") + response.body


async def write_response(writer: asyncio.StreamWriter, response: Response) -> None:
    """Write a full response and flush it."""
    writer.write(render_response(response))
    await writer.drain()
