"""Every HTTP response leaves the server as exactly one socket write.

Headers and body in two segments cost a keep-alive client the 40 ms
delayed-ACK wait between them; these tests count what reaches the socket.
"""

import http.client
import json
import socket

import pytest

from repro.server import http as http_module
from repro.server.http import ServerApp, start_background
from repro.service.catalog import GraphCatalog


class _RecordingWriter:
    """Stands in for the handler's ``wfile``; keeps each write's bytes."""

    def __init__(self, inner, writes):
        self._inner = inner
        self._writes = writes

    def write(self, data):
        self._writes.append(bytes(data))
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.fixture
def wire(fig2, monkeypatch):
    """``(connection, writes, nodelay)`` against a served fig2 catalog."""
    writes, nodelay = [], []
    original_setup = http_module._Handler.setup

    def recording_setup(handler):
        original_setup(handler)
        nodelay.append(
            handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        )
        handler.wfile = _RecordingWriter(handler.wfile, writes)

    monkeypatch.setattr(http_module._Handler, "setup", recording_setup)
    catalog = GraphCatalog()
    catalog.register("fig2", graph=fig2)
    app = ServerApp(catalog, kind="weak", max_workers=2)
    server, _thread = start_background(app)
    connection = http.client.HTTPConnection(
        "127.0.0.1", server.server_address[1], timeout=30
    )
    yield connection, writes, nodelay
    connection.close()
    server.shutdown()
    server.server_close()
    app.close()
    catalog.close()


def _post(connection, route, body):
    connection.request(
        "POST", route, body=json.dumps(body), headers={"Content-Type": "application/json"}
    )
    response = connection.getresponse()
    return response, response.read()


def _assert_whole_response(write, status, body):
    head, _, sent_body = write.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 %d " % status)
    assert b"Content-Length: %d" % len(body) in head
    assert sent_body == body


QUERY = {"query": "SELECT ?x WHERE { ?x <http://example.org/fig2/editor> ?y . }"}


def test_keep_alive_responses_are_one_write_each(wire):
    connection, writes, nodelay = wire
    ok, ok_body = _post(connection, "/graphs/fig2/query", QUERY)
    missing, missing_body = _post(connection, "/graphs/nope/query", QUERY)
    malformed, malformed_body = _post(connection, "/graphs/fig2/query", {"query": "SELECT"})
    connection.request("GET", "/graphs/fig2/summary/weak?format=ntriples")
    text = connection.getresponse()
    text_body = text.read()

    assert (ok.status, missing.status, malformed.status, text.status) == (200, 404, 400, 200)
    assert text.getheader("Content-Type").startswith("text/plain")
    assert json.loads(ok_body)["answers"]
    assert len(writes) == 4  # four responses on one connection, four writes
    for write, status, body in zip(
        writes, (200, 404, 400, 200), (ok_body, missing_body, malformed_body, text_body)
    ):
        _assert_whole_response(write, status, body)
    assert nodelay == [1]


def test_connection_close_response_is_one_write(wire):
    connection, writes, _nodelay = wire
    connection.putrequest("POST", "/graphs/fig2/query")
    connection.putheader("Transfer-Encoding", "chunked")
    connection.endheaders()
    response = connection.getresponse()
    body = response.read()
    assert response.status == 501
    assert response.getheader("Connection") == "close"
    assert len(writes) == 1
    _assert_whole_response(writes[0], 501, body)


def test_listen_backlog_is_raised():
    assert http_module._Server.request_queue_size == 128
