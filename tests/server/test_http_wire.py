"""What the HTTP loop does on the wire, byte for byte, over raw sockets.

The front end parses HTTP itself; these tests pin the behaviour clients and
proxies rely on that no route handler spells out: keep-alive and its
exceptions, pipelining, ``Expect: 100-continue``, the bounds on a request
head, the refusals that must close the connection, and the read timeout of
a request that has begun.
"""

import json
import socket
import time

import pytest

from repro.server import http as http_module
from repro.server.http import ServerApp, start_background
from repro.service.catalog import GraphCatalog

QUERY = json.dumps(
    {"query": "SELECT ?x WHERE { ?x <http://example.org/fig2/editor> ?y . }"}
).encode()


@pytest.fixture
def served(fig2):
    catalog = GraphCatalog()
    catalog.register("fig2", graph=fig2)
    app = ServerApp(catalog, kind="weak", max_workers=2, max_body_bytes=1 << 20, quiet=False)
    server, _thread = start_background(app)
    yield server.server_address[1]
    server.shutdown()
    server.server_close()
    app.close()
    catalog.close()


class _Client:
    """A raw socket plus just enough HTTP to split responses apart."""

    def __init__(self, port, timeout=5.0):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self.file = self.sock.makefile("rb")

    def send(self, data):
        self.sock.sendall(data)

    def response(self):
        """``(status, headers, body)`` of the next response; ``None`` at EOF."""
        try:
            status_line = self.file.readline()
        except ConnectionResetError:
            return None
        if not status_line:
            return None
        headers = {}
        while (line := self.file.readline()) not in (b"\r\n", b""):
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = self.file.read(int(headers.get("content-length", 0)))
        return int(status_line.split()[1]), headers, body

    def close(self):
        self.file.close()
        self.sock.close()


@pytest.fixture
def client(served):
    client = _Client(served)
    yield client
    client.close()


def _get(path, version="HTTP/1.1", headers=()):
    lines = [f"GET {path} {version}", "Host: test", *headers]
    return "\r\n".join(lines).encode() + b"\r\n\r\n"


def _post(path, body, headers=()):
    lines = [f"POST {path} HTTP/1.1", "Host: test", f"Content-Length: {len(body)}", *headers]
    return "\r\n".join(lines).encode() + b"\r\n\r\n" + body


REFUSED = {
    "request line over 64 KiB": (b"GET /" + b"a" * 70000 + b" HTTP/1.1\r\n\r\n", 414),
    "header line over 64 KiB": (_get("/healthz", headers=["X-Big: " + "b" * 70000]), 431),
    "more than 100 headers": (_get("/healthz", headers=[f"X-{n}: {n}" for n in range(101)]), 431),
    "one-word request line": (b"GARBAGE\r\n\r\n", 400),
    "request line without a version": (b"GET /healthz\r\n\r\n", 400),
    "header line without a colon": (b"GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n", 400),
    "PUT": (b"PUT /graphs HTTP/1.1\r\nHost: test\r\nContent-Length: 0\r\n\r\n", 501),
    "HEAD": (b"HEAD /healthz HTTP/1.1\r\nHost: test\r\n\r\n", 501),
    "chunked body": (
        b"POST /graphs/fig2/query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
        501,
    ),
    "Content-Length that is no number": (_get("/healthz", headers=["Content-Length: +5"]), 400),
    "two Content-Lengths": (
        _get("/healthz", headers=["Content-Length: 0", "Content-Length: 7"]),
        400,
    ),
    "POST body over the limit": (
        b"POST /graphs/fig2/query HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n",
        413,
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_refusals_answer_and_close(client, case):
    request, expected = REFUSED[case]
    client.send(request + _get("/healthz"))  # the second request must never be served
    status, headers, _body = client.response()
    assert status == expected
    assert headers["connection"] == "close"
    assert client.response() is None


def test_a_drained_body_is_bounded_like_a_read_one(client):
    """A GET that declares a body is not read for as long as it drips: past
    ``max_body_bytes`` it is refused before a byte of it is read."""
    client.send(_get("/healthz", headers=["Content-Length: 100000000"]))
    status, headers, body = client.response()
    assert status == 413 and headers["connection"] == "close"
    assert "1048576" in json.loads(body)["error"]
    assert client.response() is None


def test_a_small_body_on_a_get_is_drained(client):
    client.send(_get("/healthz", headers=["Content-Length: 5"]) + b"hello" + _get("/graphs"))
    first, second = client.response(), client.response()
    assert first[0] == second[0] == 200
    assert "uptime_seconds" in json.loads(first[2]) and "graphs" in json.loads(second[2])


def test_expect_100_continue_is_answered_before_the_body_is_read(client):
    head, _, body = _post("/graphs/fig2/query", QUERY, ["Expect: 100-continue"]).partition(
        b"\r\n\r\n"
    )
    client.send(head + b"\r\n\r\n")
    assert client.response() == (100, {}, b"")
    client.send(body)
    status, _headers, answer = client.response()
    assert status == 200 and json.loads(answer)["answers"]


def test_no_100_continue_for_a_body_that_will_be_refused(client):
    client.send(
        b"POST /graphs/fig2/query HTTP/1.1\r\nContent-Length: 2000000\r\n"
        b"Expect: 100-continue\r\n\r\n"
    )
    assert client.response()[0] == 413


@pytest.mark.parametrize(
    "version, headers, kept",
    [
        ("HTTP/1.1", [], True),
        ("HTTP/1.1", ["Connection: close"], False),
        ("HTTP/1.1", ["Connection: Keep-Alive"], True),
        ("HTTP/1.0", [], False),
        ("HTTP/1.0", ["Connection: keep-alive"], True),
    ],
)
def test_which_connections_are_kept(client, version, headers, kept):
    client.send(_get("/healthz", version, headers))
    status, response_headers, _body = client.response()
    assert status == 200
    assert (response_headers.get("connection") != "close") == kept
    client.send(_get("/graphs", version, headers))
    second = client.response()
    assert (second is not None and second[0] == 200) == kept


def test_pipelined_requests_are_answered_in_order(client):
    client.send(
        _get("/healthz") + _post("/graphs/fig2/query", QUERY) + _get("/graphs")
    )
    first, second, third = (client.response() for _ in range(3))
    assert [first[0], second[0], third[0]] == [200, 200, 200]
    assert "uptime_seconds" in json.loads(first[2])
    assert json.loads(second[2])["answers"]
    assert [graph["name"] for graph in json.loads(third[2])["graphs"]] == ["fig2"]


def test_http_2_is_refused(client):
    client.send(_get("/healthz", "HTTP/2.0"))
    status, headers, _body = client.response()
    assert status == 505 and headers["connection"] == "close"


class TestReadTimeout:
    @pytest.fixture(autouse=True)
    def short_timeout(self, monkeypatch):
        monkeypatch.setattr(http_module, "_READ_TIMEOUT_SECONDS", 0.2)

    @pytest.mark.parametrize(
        "partial",
        [
            b"G",
            b"GET /healthz HTTP/1.1\r\nHost: te",
            _post("/graphs/fig2/query", QUERY)[:-10],
        ],
        ids=["first byte", "mid-head", "mid-body"],
    )
    def test_a_request_that_stalls_gets_a_408_and_a_close(self, client, partial):
        client.send(partial)
        started = time.monotonic()
        status, headers, _body = client.response()
        assert status == 408 and headers["connection"] == "close"
        assert time.monotonic() - started < 3
        assert client.response() is None

    def test_an_idle_connection_between_requests_is_not_timed_out(self, client):
        time.sleep(0.5)  # idle before the first request ...
        client.send(_get("/healthz"))
        assert client.response()[0] == 200
        time.sleep(0.5)  # ... and parked between two
        client.send(_post("/graphs/fig2/query", QUERY))
        assert client.response()[0] == 200


def test_verbose_prints_one_access_log_line_per_request(client, capsys):
    client.send(_get("/healthz") + _post("/graphs/nope/query", QUERY) + b"GARBAGE\r\n\r\n")
    assert [client.response()[0] for _ in range(3)] == [200, 404, 400]
    assert client.response() is None
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("127.0.0.1 - - [")
    assert lines[0].endswith('] "GET /healthz HTTP/1.1" 200 -')
    assert lines[1].endswith('] "POST /graphs/nope/query HTTP/1.1" 404 -')
    assert lines[2].endswith('] "" 400 -')
