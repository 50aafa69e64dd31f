"""Protocol conformance of the observatory HTTP server.

Two layers under test: the pure request parser
(:func:`repro.serve.http.parse_request_head` — every malformation maps
to its specific status) and the live connection loop
(:class:`repro.serve.server.ObservatoryServer` over real sockets —
keep-alive semantics, pipelining, slow-loris timeouts, rate limiting,
and the guarantee that a crashing handler never takes down the accept
loop).

The socket tests run against a stub router so no scenario is ever
built; each test drives raw bytes through ``asyncio.open_connection``
and asserts on the exact response framing.
"""

import asyncio
from contextlib import asynccontextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import metrics
from repro.serve.http import (
    HttpError,
    HttpLimits,
    Request,
    Response,
    _content_length,
    parse_request_head,
)
from repro.serve.ratelimit import RateLimiter, TokenBucket
from repro.serve.routes import Router
from repro.serve.server import ObservatoryServer


# -- pure parser ---------------------------------------------------------------


def _status_of(head: bytes, limits: HttpLimits = HttpLimits()) -> int:
    with pytest.raises(HttpError) as excinfo:
        parse_request_head(head, limits)
    return excinfo.value.status


class TestParseRequestHead:
    def test_minimal_get(self):
        request = parse_request_head(b"GET /v1/health HTTP/1.1\r\nHost: x")
        assert request.method == "GET"
        assert request.path == "/v1/health"
        assert request.version == "HTTP/1.1"
        assert request.headers == {"host": "x"}

    def test_query_string_parsed_and_path_unquoted(self):
        request = parse_request_head(
            b"GET /v1/days/2018%2D12%2D19?vantage=ixp&top=5&flag= HTTP/1.1"
        )
        assert request.path == "/v1/days/2018-12-19"
        assert request.query == {"vantage": "ixp", "top": "5", "flag": ""}
        assert request.param("vantage") == "ixp"
        assert request.param("missing", "dflt") == "dflt"

    @pytest.mark.parametrize(
        "line",
        [
            b"GARBAGE",
            b"GET /",
            b"GET  / HTTP/1.1",  # double space -> empty part
            b"GET / HTTP/1.1 extra",
            b"",
        ],
    )
    def test_malformed_request_line_is_400(self, line):
        assert _status_of(line) == 400

    def test_non_token_method_is_400(self):
        assert _status_of(b"GE T/ / HTTP/1.1") == 400
        assert _status_of(b'G"T / HTTP/1.1') == 400

    def test_unknown_token_method_is_501(self):
        assert _status_of(b"BREW /coffee HTTP/1.1") == 501

    def test_bad_version_prefix_is_400(self):
        assert _status_of(b"GET / SPDY/3") == 400

    @pytest.mark.parametrize("version", [b"HTTP/2.0", b"HTTP/0.9", b"HTTP/1.2"])
    def test_unsupported_version_is_505(self, version):
        assert _status_of(b"GET / " + version) == 505

    def test_non_origin_form_target_is_400(self):
        assert _status_of(b"GET http://example.com/ HTTP/1.1") == 400

    def test_asterisk_target_allowed(self):
        assert parse_request_head(b"OPTIONS * HTTP/1.1").target == "*"

    def test_oversized_head_is_431(self):
        limits = HttpLimits(max_head_bytes=128)
        head = b"GET / HTTP/1.1\r\nX-Pad: " + b"a" * 200
        assert _status_of(head, limits) == 431

    def test_too_many_headers_is_431(self):
        limits = HttpLimits(max_header_count=4)
        head = b"GET / HTTP/1.1\r\n" + b"\r\n".join(
            b"X-H%d: v" % i for i in range(6)
        )
        assert _status_of(head, limits) == 431

    def test_obsolete_line_folding_is_400(self):
        head = b"GET / HTTP/1.1\r\nX-A: one\r\n two"
        assert _status_of(head) == 400

    def test_malformed_header_field_is_400(self):
        assert _status_of(b"GET / HTTP/1.1\r\nno-colon-here") == 400
        assert _status_of(b"GET / HTTP/1.1\r\nbad name: v") == 400

    def test_transfer_encoding_is_501(self):
        head = b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked"
        assert _status_of(head) == 501

    def test_duplicate_headers_combine(self):
        request = parse_request_head(b"GET / HTTP/1.1\r\nAccept: a\r\nAccept: b")
        assert request.headers["accept"] == "a, b"

    def test_keep_alive_defaults(self):
        http11 = parse_request_head(b"GET / HTTP/1.1")
        assert http11.keep_alive
        closed = parse_request_head(b"GET / HTTP/1.1\r\nConnection: close")
        assert not closed.keep_alive
        http10 = parse_request_head(b"GET / HTTP/1.0")
        assert not http10.keep_alive
        http10_ka = parse_request_head(b"GET / HTTP/1.0\r\nConnection: keep-alive")
        assert http10_ka.keep_alive


    @pytest.mark.parametrize(
        "target",
        [b"//[::1/x", b"//v1/health", b"/v1/\x00health", b"/v1/%00", b"/a%0d%0ab", b"/a\nb", b"/\xff"],
    )
    def test_authority_like_or_control_character_target_is_400(self, target):
        assert _status_of(b"GET " + target + b" HTTP/1.1") == 400

    def test_query_split_at_first_question_mark(self):
        request = parse_request_head(b"GET /v1/x?a=1?b&c=%20 HTTP/1.1")
        assert request.path == "/v1/x"
        assert request.query == {"a": "1?b", "c": " "}

    @pytest.mark.parametrize("value", [b"a\nInjected: b", b"a\rb", b"a\x00b"])
    def test_cr_lf_or_nul_in_header_value_is_400(self, value):
        assert _status_of(b"GET / HTTP/1.1\r\nX: " + value + b"\r\nHost: h") == 400

    def test_lf_after_header_name_is_400(self):
        assert _status_of(b"GET / HTTP/1.1\r\nX\n: v") == 400

    @pytest.mark.parametrize("raw", ["+1_0", "1_0", "-1", "0x10", "1e3", "", "\xb2", "5, 5"])
    def test_content_length_is_digits_only(self, raw):
        request = parse_request_head(f"POST / HTTP/1.1\r\nContent-Length: {raw}".encode("latin-1"))
        with pytest.raises(HttpError) as excinfo:
            _content_length(request, HttpLimits())
        assert excinfo.value.status == 400

    def test_content_length_digits_are_read(self):
        request = parse_request_head(b"POST / HTTP/1.1\r\nContent-Length: 0010")
        assert _content_length(request, HttpLimits()) == 10


#: Pieces request heads are fuzzed from: request-line and header syntax,
#: target delimiters, percent escapes, and bytes a parser must refuse.
_HEAD_PIECES = [
    "GET", "POST", "BREW", " ", "/", "//", "[", "]", "::1", "%", "%00", "%0a", "%2F", "?", "&",
    "=", ":", "@", "#", "v1", "health", "HTTP/1.1", "HTTP/1.0", "HTTP/2", "\r", "\n", "\r\n",
    "\x00", "\xff", "\t", "Host", "Content-Length", "Transfer-Encoding", "+1_0", "7", "-1",
]
_fragments = st.lists(
    st.one_of(st.sampled_from(_HEAD_PIECES), st.text(st.characters(max_codepoint=255), max_size=3)),
    max_size=8,
).map("".join)


@st.composite
def _request_heads(draw) -> bytes:
    """Heads shaped like requests, so most reach the target and header rules."""
    method = draw(st.one_of(st.sampled_from(["GET", "POST", "HEAD"]), _fragments))
    target = draw(st.one_of(_fragments.map(lambda f: "/" + f), _fragments))
    version = draw(st.one_of(st.sampled_from(["HTTP/1.1", "HTTP/1.0"]), _fragments))
    fields = draw(
        st.lists(
            st.tuples(st.one_of(st.sampled_from(["Host", "Content-Length", "X"]), _fragments), _fragments),
            max_size=4,
        )
    )
    lines = [f"{method} {target} {version}"] + [f"{name}:{value}" for name, value in fields]
    return "\r\n".join(lines).encode("latin-1")


class TestHeadFuzz:
    @settings(max_examples=1000, deadline=None)
    @given(head=st.one_of(_request_heads(), _fragments.map(lambda f: f.encode("latin-1"))))
    def test_head_parses_or_raises_http_error(self, head):
        try:
            request = parse_request_head(head)
            length = _content_length(request, HttpLimits())
        except HttpError as exc:
            assert exc.status in (400, 413, 431, 501, 505)
            return
        forbidden = ("\r", "\n", "\x00")
        for name, value in request.headers.items():
            assert not any(c in name or c in value for c in forbidden), (name, value)
        assert not any(c in request.path for c in forbidden), request.path
        assert request.path == "*" or request.path.startswith("/")
        assert length >= 0


# -- rate limiter units --------------------------------------------------------


class TestTokenBucket:
    def test_refill_math_with_fake_clock(self):
        now = [0.0]
        bucket = TokenBucket(rate=2.0, burst=2.0, clock=lambda: now[0])
        assert bucket.allow()
        assert bucket.allow()
        assert not bucket.allow()  # burst exhausted, no time passed
        now[0] += 0.5  # refills one token at 2/s
        assert bucket.allow()
        assert not bucket.allow()

    def test_limiter_lru_is_bounded(self):
        now = [0.0]
        limiter = RateLimiter(rate=1.0, max_clients=3, clock=lambda: now[0])
        for i in range(10):
            limiter.allow(f"client-{i}")
        assert len(limiter._buckets) == 3

    def test_disabled_limiter_always_allows(self):
        limiter = RateLimiter(rate=None)
        assert all(limiter.allow("c") for _ in range(1000))
        assert limiter.rejected == 0


# -- live server ---------------------------------------------------------------


class _StubService:
    """Duck-typed stand-in: the stub router never touches the pipeline."""


def _stub_router() -> Router:
    router = Router()

    async def ping(request, params, ctx):
        return Response(body=b'{"pong":true}')

    async def echo(request, params, ctx):
        return Response(body=request.body or b"{}")

    async def boom(request, params, ctx):
        raise RuntimeError("handler exploded")

    router.add("GET", "/ping", ping)
    router.add("POST", "/echo", echo)
    router.add("GET", "/boom", boom)
    return router


@asynccontextmanager
async def _server(**kwargs):
    server = ObservatoryServer(_StubService(), router=_stub_router(), **kwargs)
    await server.start()
    try:
        yield server
    finally:
        await server.aclose()


async def _read_response(reader: asyncio.StreamReader):
    head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), 5)
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers = {}
    for line in lines[1:]:
        if line:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", 0))
    body = await asyncio.wait_for(reader.readexactly(length), 5) if length else b""
    return status, headers, body


async def _one_shot(port: int, raw: bytes):
    """Send raw bytes on a fresh connection, read one response."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(raw)
        await writer.drain()
        return await _read_response(reader)
    finally:
        writer.close()


async def _at_eof(reader: asyncio.StreamReader) -> bool:
    data = await asyncio.wait_for(reader.read(1), 5)
    return data == b""


class TestServerProtocol:
    def test_keep_alive_sequential_requests(self):
        async def run():
            async with _server() as server:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                for _ in range(3):
                    writer.write(b"GET /ping HTTP/1.1\r\nHost: t\r\n\r\n")
                    await writer.drain()
                    status, headers, body = await _read_response(reader)
                    assert status == 200
                    assert headers["connection"] == "keep-alive"
                    assert body == b'{"pong":true}'
                writer.close()

        asyncio.run(run())

    def test_pipelined_requests_answered_in_order(self):
        async def run():
            async with _server() as server:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                writer.write(
                    b"GET /ping HTTP/1.1\r\n\r\n"
                    b"POST /echo HTTP/1.1\r\nContent-Length: 7\r\n\r\nPAYLOAD"
                    b"GET /ping HTTP/1.1\r\nConnection: close\r\n\r\n"
                )
                await writer.drain()
                first = await _read_response(reader)
                second = await _read_response(reader)
                third = await _read_response(reader)
                assert first[0] == second[0] == third[0] == 200
                assert second[2] == b"PAYLOAD"
                assert third[1]["connection"] == "close"
                assert await _at_eof(reader)
                writer.close()

        asyncio.run(run())

    def test_http10_closes_by_default(self):
        async def run():
            async with _server() as server:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                writer.write(b"GET /ping HTTP/1.0\r\n\r\n")
                await writer.drain()
                status, headers, _ = await _read_response(reader)
                assert status == 200
                assert headers["connection"] == "close"
                assert await _at_eof(reader)
                writer.close()

        asyncio.run(run())

    def test_unknown_path_is_404_and_connection_survives(self):
        async def run():
            async with _server() as server:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                writer.write(b"GET /nope HTTP/1.1\r\n\r\n")
                await writer.drain()
                status, _, body = await _read_response(reader)
                assert status == 404
                assert b"/nope" in body
                writer.write(b"GET /ping HTTP/1.1\r\n\r\n")
                await writer.drain()
                assert (await _read_response(reader))[0] == 200
                writer.close()

        asyncio.run(run())

    def test_wrong_method_is_405_listing_allowed(self):
        async def run():
            async with _server() as server:
                status, _, body = await _one_shot(
                    server.port, b"DELETE /ping HTTP/1.1\r\n\r\n"
                )
                assert status == 405
                assert b"GET" in body

        asyncio.run(run())

    def test_unknown_verb_is_501(self):
        async def run():
            async with _server() as server:
                status, _, _ = await _one_shot(
                    server.port, b"BREW /ping HTTP/1.1\r\n\r\n"
                )
                assert status == 501

        asyncio.run(run())

    def test_malformed_request_line_is_400_and_closes(self):
        async def run():
            async with _server() as server:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                writer.write(b"total garbage\r\n\r\n")
                await writer.drain()
                status, headers, _ = await _read_response(reader)
                assert status == 400
                assert headers["connection"] == "close"
                assert await _at_eof(reader)
                writer.close()

        asyncio.run(run())

    def test_unsupported_version_is_505(self):
        async def run():
            async with _server() as server:
                status, _, _ = await _one_shot(
                    server.port, b"GET /ping HTTP/2.0\r\n\r\n"
                )
                assert status == 505

        asyncio.run(run())

    def test_oversized_headers_are_431(self):
        async def run():
            limits = HttpLimits(max_head_bytes=256, read_timeout_s=5.0)
            async with _server(limits=limits) as server:
                raw = (
                    b"GET /ping HTTP/1.1\r\nX-Pad: " + b"a" * 600 + b"\r\n\r\n"
                )
                status, _, _ = await _one_shot(server.port, raw)
                assert status == 431

        asyncio.run(run())

    def test_body_above_limit_is_413(self):
        async def run():
            limits = HttpLimits(max_body_bytes=64, read_timeout_s=5.0)
            async with _server(limits=limits) as server:
                raw = b"POST /echo HTTP/1.1\r\nContent-Length: 100000\r\n\r\n"
                status, _, _ = await _one_shot(server.port, raw)
                assert status == 413

        asyncio.run(run())

    def test_truncated_body_is_400(self):
        async def run():
            async with _server() as server:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                writer.write(b"POST /echo HTTP/1.1\r\nContent-Length: 10\r\n\r\nfour")
                await writer.drain()
                writer.write_eof()  # close our sending side mid-body
                status, _, body = await _read_response(reader)
                assert status == 400
                assert b"truncated" in body.lower()
                writer.close()

        asyncio.run(run())

    def test_slow_loris_head_times_out_408(self):
        async def run():
            limits = HttpLimits(read_timeout_s=0.2)
            async with _server(limits=limits) as server:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                writer.write(b"GET /ping HT")  # ...and stall forever
                await writer.drain()
                status, _, _ = await _read_response(reader)
                assert status == 408
                assert await _at_eof(reader)
                writer.close()

        asyncio.run(run())

    def test_slow_loris_body_times_out_408(self):
        async def run():
            limits = HttpLimits(read_timeout_s=0.2)
            async with _server(limits=limits) as server:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                writer.write(b"POST /echo HTTP/1.1\r\nContent-Length: 50\r\n\r\nstall")
                await writer.drain()
                status, _, _ = await _read_response(reader)
                assert status == 408
                writer.close()

        asyncio.run(run())

    def test_handler_crash_is_500_and_never_kills_the_loop(self):
        async def run():
            async with _server() as server:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                writer.write(b"GET /boom HTTP/1.1\r\n\r\n")
                await writer.drain()
                status, _, _ = await _read_response(reader)
                assert status == 500
                # Same connection still serves.
                writer.write(b"GET /ping HTTP/1.1\r\n\r\n")
                await writer.drain()
                assert (await _read_response(reader))[0] == 200
                writer.close()
                # And the accept loop still accepts fresh connections.
                status, _, _ = await _one_shot(
                    server.port, b"GET /ping HTTP/1.1\r\n\r\n"
                )
                assert status == 200

        asyncio.run(run())

    def test_head_mirrors_get_headers_without_body(self):
        async def run():
            async with _server() as server:
                get_status, get_headers, get_body = await _one_shot(
                    server.port, b"GET /ping HTTP/1.1\r\n\r\n"
                )
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                writer.write(b"HEAD /ping HTTP/1.1\r\nConnection: close\r\n\r\n")
                await writer.drain()
                head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), 5)
                assert b" 200 " in head.split(b"\r\n")[0]
                assert (
                    f"content-length: {len(get_body)}".encode()
                    in head.lower()
                )
                assert await _at_eof(reader)  # no body follows
                writer.close()
                assert get_status == 200

        asyncio.run(run())

    def test_rate_limited_request_is_429_and_connection_survives(self):
        async def run():
            now = [0.0]
            limiter = RateLimiter(rate=1.0, burst=1.0, clock=lambda: now[0])
            async with _server(rate_limiter=limiter) as server:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                writer.write(b"GET /ping HTTP/1.1\r\n\r\n")
                await writer.drain()
                assert (await _read_response(reader))[0] == 200
                writer.write(b"GET /ping HTTP/1.1\r\n\r\n")
                await writer.drain()
                status, headers, _ = await _read_response(reader)
                assert status == 429
                assert headers["retry-after"] == "1"
                now[0] += 2.0  # refill
                writer.write(b"GET /ping HTTP/1.1\r\n\r\n")
                await writer.drain()
                assert (await _read_response(reader))[0] == 200
                writer.close()
                assert limiter.rejected == 1

        asyncio.run(run())

    def test_unsplittable_target_is_400_without_a_server_error(self):
        async def run():
            async with _server() as server:
                before = metrics().counters.get("serve.errors", 0)
                status, headers, _ = await _one_shot(server.port, b"GET //[::1/x HTTP/1.1\r\n\r\n")
                assert status == 400
                assert headers["connection"] == "close"
                assert metrics().counters.get("serve.errors", 0) == before

        asyncio.run(run())

    def test_clean_eof_between_requests_closes_quietly(self):
        async def run():
            async with _server() as server:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                writer.write(b"GET /ping HTTP/1.1\r\n\r\n")
                await writer.drain()
                assert (await _read_response(reader))[0] == 200
                writer.close()  # EOF with no next request: no error response
                await writer.wait_closed()

        asyncio.run(run())
