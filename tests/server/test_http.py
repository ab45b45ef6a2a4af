"""Tests for the HTTP front end (JSON API over ThreadingHTTPServer)."""

import json
import sqlite3
import sys
import urllib.error
import urllib.request

import pytest

from repro.io.ntriples import parse_ntriples, serialize_ntriples
from repro.model import dictionary as dictionary_module
from repro.model.dictionary import pack_terms
from repro.model.triple import TripleKind
from repro.service.catalog import GraphCatalog
from repro.server.http import ServerApp, start_background


def _call(base, method, route, body=None):
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(
        base + route,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if body is not None else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            raw = response.read()
            content_type = response.headers.get("Content-Type", "")
            if content_type.startswith("application/json"):
                return response.status, json.loads(raw)
            return response.status, raw.decode("utf-8")
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


@pytest.fixture
def served(fig2):
    catalog = GraphCatalog()
    catalog.register("fig2", graph=fig2)
    app = ServerApp(catalog, kind="weak", max_workers=2)
    server, _thread = start_background(app)
    base = f"http://127.0.0.1:{server.server_address[1]}"
    yield base, catalog
    server.shutdown()
    server.server_close()
    app.close()
    catalog.close()


class TestBasics:
    def test_healthz(self, served):
        base, _catalog = served
        status, payload = _call(base, "GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["graphs"] == ["fig2"]

    def test_list_graphs(self, served, fig2):
        base, _catalog = served
        status, payload = _call(base, "GET", "/graphs")
        assert status == 200
        (entry,) = payload["graphs"]
        assert entry["name"] == "fig2"
        assert entry["store"]["total_rows"] == len(fig2)

    def test_unknown_route_404(self, served):
        base, _catalog = served
        status, payload = _call(base, "GET", "/nonsense")
        assert status == 404 and "error" in payload


class TestQuery:
    def test_select_answers(self, served):
        base, _catalog = served
        status, payload = _call(
            base,
            "POST",
            "/graphs/fig2/query",
            {"query": "SELECT ?x WHERE { ?x <http://example.org/fig2/editor> ?y . }"},
        )
        assert status == 200
        assert payload["answer_count"] == len(payload["answers"]) > 0
        assert payload["head"] == ["x"]
        assert not payload["pruned"]

    def test_ask_query(self, served):
        base, _catalog = served
        status, payload = _call(
            base,
            "POST",
            "/graphs/fig2/query",
            {"query": "ASK WHERE { ?x <http://example.org/fig2/editor> ?y . }"},
        )
        assert status == 200
        assert payload["boolean"] is True
        assert payload["answer_count"] == 1  # the empty tuple

    def test_unsatisfiable_query_is_pruned(self, served):
        base, _catalog = served
        status, payload = _call(
            base,
            "POST",
            "/graphs/fig2/query",
            # both properties exist but never meet on a node — the weak
            # summary rejects the join (a structural unsat, not a dict miss)
            {
                "query": "SELECT ?x WHERE { ?y <http://example.org/fig2/comment> ?x . "
                "?x <http://example.org/fig2/editor> ?z . }"
            },
        )
        assert status == 200
        assert payload["answers"] == [] and payload["pruned"]
        assert payload["kind"] == "weak"
        # one guard: no cascade order, no per-kind attribution
        assert "pruned_by" not in payload and "guard_order" not in payload

    def test_explain_carries_a_trace(self, served):
        base, _catalog = served
        status, payload = _call(
            base,
            "POST",
            "/graphs/fig2/query",
            {
                "query": "SELECT ?x WHERE { ?x <http://example.org/fig2/editor> ?y . }",
                "explain": True,
            },
        )
        assert status == 200
        assert payload["trace"]["strategy"] == "hash"

    def test_malformed_query_400(self, served):
        base, _catalog = served
        status, payload = _call(base, "POST", "/graphs/fig2/query", {"query": "HELLO"})
        assert status == 400 and "error" in payload

    def test_unknown_graph_404(self, served):
        base, _catalog = served
        status, payload = _call(
            base, "POST", "/graphs/missing/query", {"query": "ASK { ?s ?p ?o }"}
        )
        assert status == 404 and "error" in payload

    def test_bad_limit_400(self, served):
        base, _catalog = served
        for bad_limit in (-3, 0, True, "ten", sys.maxsize + 1, 10**30):
            status, _payload = _call(
                base,
                "POST",
                "/graphs/fig2/query",
                {"query": "ASK { ?s ?p ?o }", "limit": bad_limit},
            )
            assert status == 400, bad_limit
        body = {"query": "SELECT ?s WHERE { ?s ?p ?o }", "limit": sys.maxsize}
        assert _call(base, "POST", "/graphs/fig2/query", body)[0] == 200

    @pytest.mark.parametrize("flag", ["saturated", "explain", "trace"])
    def test_non_boolean_flag_400(self, served, flag):
        """``"saturated": "false"`` is a truthy string: read as ``bool()``
        it answered over ``G∞``.  A flag that is not a JSON boolean is a 400."""
        base, _catalog = served
        for bad_value in ("false", "no", 0, 1, None, []):
            status, payload = _call(
                base,
                "POST",
                "/graphs/fig2/query",
                {"query": "ASK { ?s ?p ?o }", flag: bad_value},
            )
            assert status == 400 and flag in payload["error"], bad_value
        for good_value in (False, True):
            status, _payload = _call(
                base,
                "POST",
                "/graphs/fig2/query",
                {"query": "ASK { ?s ?p ?o }", flag: good_value},
            )
            assert status == 200, good_value

    def test_saturated_string_never_reaches_g_infinity(self, served):
        """The graph entails ``<a> rdf:type <C>`` only through the domain
        rule: the explicit graph has no answer, ``G∞`` has one, and the
        string ``"false"`` is neither."""
        base, catalog = served
        catalog.register(
            "domain",
            graph=parse_ntriples(
                "<http://ex/a> <http://ex/p> <http://ex/b> .\n"
                "<http://ex/p> <http://www.w3.org/2000/01/rdf-schema#domain> <http://ex/C> .\n"
            ),
        )
        query = "SELECT ?s ?c WHERE { ?s <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> ?c }"
        answers = {}
        for saturated in (False, True):
            status, payload = _call(
                base, "POST", "/graphs/domain/query", {"query": query, "saturated": saturated}
            )
            assert status == 200, saturated
            answers[saturated] = payload["answers"]
        assert answers[False] == [] and len(answers[True]) == 1
        status, payload = _call(
            base, "POST", "/graphs/domain/query", {"query": query, "saturated": "false"}
        )
        assert status == 400 and "answers" not in payload


class TestIngestAndMaintenance:
    def test_ingest_bumps_version_and_serves_new_data(self, served):
        base, catalog = served
        triples = "<http://example.org/new/a> <http://example.org/new/p> <http://example.org/new/b> .\n"
        status, payload = _call(base, "POST", "/graphs/fig2/triples", {"triples": triples})
        assert status == 200
        assert payload["inserted"] == 1 and payload["version"] == 1
        status, payload = _call(
            base,
            "POST",
            "/graphs/fig2/query",
            {"query": "SELECT ?x WHERE { ?x <http://example.org/new/p> ?y . }"},
        )
        assert status == 200 and payload["answer_count"] == 1

    def test_reingest_is_idempotent(self, served):
        base, _catalog = served
        triples = "<http://example.org/new/a> <http://example.org/new/p> <http://example.org/new/b> .\n"
        _call(base, "POST", "/graphs/fig2/triples", {"triples": triples})
        status, payload = _call(base, "POST", "/graphs/fig2/triples", {"triples": triples})
        assert status == 200 and payload["inserted"] == 0

    def test_malformed_ntriples_400(self, served):
        base, _catalog = served
        status, payload = _call(
            base, "POST", "/graphs/fig2/triples", {"triples": "this is not rdf"}
        )
        assert status == 400 and "error" in payload

    def test_url_encoded_graph_names_round_trip(self, served):
        base, _catalog = served
        status, _payload = _call(base, "POST", "/graphs", {"name": "my graph"})
        assert status == 201
        status, payload = _call(
            base, "POST", "/graphs/my%20graph/query", {"query": "ASK { ?s ?p ?o }"}
        )
        assert status == 200 and payload["boolean"] is True
        status, _payload = _call(base, "GET", "/graphs/my%20graph/statistics")
        assert status == 200
        status, _payload = _call(base, "DELETE", "/graphs/my%20graph")
        assert status == 200

    def test_graph_names_with_slashes_rejected_at_registration(self, served):
        base, _catalog = served
        status, payload = _call(base, "POST", "/graphs", {"name": "a/b"})
        assert status == 400 and "error" in payload

    def test_delete_with_a_body_keeps_the_connection_usable(self, served):
        """A DELETE carrying a body (curl -d) must not desynchronize the
        keep-alive connection for the next request."""
        import http.client

        base, _catalog = served
        connection = http.client.HTTPConnection(base[len("http://") :], timeout=30)
        try:
            connection.request("DELETE", "/graphs/nope", body=b'{"why": "curl -d"}')
            response = connection.getresponse()
            assert response.status == 404
            response.read()
            # same connection: the body above must have been drained
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
        finally:
            connection.close()

    def test_persistence_failure_is_a_500(self, served, monkeypatch):
        from repro.errors import PersistenceError as PE

        base, catalog = served
        entry = catalog.entry("fig2")

        def failing_update(_entry, _rows):
            raise PE("disk full (simulated)")

        monkeypatch.setattr(entry, "_on_update", failing_update)
        status, payload = _call(
            base,
            "POST",
            "/graphs/fig2/triples",
            {"triples": "<http://p.example/a> <http://p.example/b> <http://p.example/c> .\n"},
        )
        assert status == 500 and "persistence" in payload["error"]

    def test_query_racing_a_drop_gets_a_404(self, served):
        """A query that raced drop() must see unknown-graph, not a
        closed-store 400."""
        from repro.errors import UnknownGraphError
        from repro.service.service import QueryService
        from repro.queries.parser import parse_query

        base, catalog = served
        entry = catalog.entry("fig2")
        service = QueryService(catalog, kind="weak")
        query = parse_query("ASK { ?s ?p ?o }")
        with entry.rwlock.write_locked():
            entry.close()  # what drop() does under the write lock
        with pytest.raises(UnknownGraphError):
            # the service still resolves the (stale) entry object — the
            # closed flag is what protects the race window
            service.answer("fig2", query)

    def test_statistics_racing_a_drop_gets_a_404(self, served):
        base, catalog = served
        entry = catalog.entry("fig2")
        with entry.rwlock.write_locked():
            entry.close()  # what drop() does under the write lock
        status, payload = _call(base, "GET", "/graphs/fig2/statistics")
        assert status == 404 and "dropped" in payload["error"]

    def test_chunked_bodies_are_refused_with_a_close(self, served):
        import http.client

        base, _catalog = served
        connection = http.client.HTTPConnection(base[len("http://") :], timeout=30)
        try:
            connection.putrequest("POST", "/graphs/fig2/query")
            connection.putheader("Transfer-Encoding", "chunked")
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 501
            assert response.getheader("Connection") == "close"
        finally:
            connection.close()

    def test_oversized_body_closes_the_connection(self, served):
        import http.client

        base, _catalog = served
        connection = http.client.HTTPConnection(base[len("http://") :], timeout=30)
        try:
            connection.putrequest("POST", "/graphs/fig2/query")
            connection.putheader("Content-Length", str(200 * 1024 * 1024))
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 413
            assert response.getheader("Connection") == "close"
        finally:
            connection.close()

    def test_malformed_content_length_is_a_client_error(self, served):
        import http.client

        base, _catalog = served
        host_port = base[len("http://") :]
        connection = http.client.HTTPConnection(host_port, timeout=30)
        try:
            connection.putrequest("POST", "/graphs/fig2/query")
            connection.putheader("Content-Length", "abc")
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 400
        finally:
            connection.close()

    def test_register_and_drop_over_http(self, served, fig2):
        base, _catalog = served
        body = {"name": "copy", "triples": serialize_ntriples(fig2)}
        status, payload = _call(base, "POST", "/graphs", body)
        assert status == 201 and payload["triples"] == len(fig2)
        status, payload = _call(base, "POST", "/graphs", body)
        assert status == 409
        status, payload = _call(base, "DELETE", "/graphs/copy")
        assert status == 200
        status, payload = _call(base, "GET", "/graphs")
        assert [g["name"] for g in payload["graphs"]] == ["fig2"]


class TestStatisticsAndSummaries:
    def test_statistics_endpoint(self, served, fig2):
        base, _catalog = served
        status, payload = _call(base, "GET", "/graphs/fig2/statistics")
        assert status == 200
        assert payload["store"]["total_rows"] == len(fig2)
        assert payload["cardinality"]["total_rows"] == len(fig2)
        # process-wide query counts are /metrics series, not per-graph state
        assert "service" not in payload

    def test_summary_endpoint_json(self, served):
        base, _catalog = served
        status, payload = _call(base, "GET", "/graphs/fig2/summary/weak")
        assert status == 200
        assert payload["kind"] == "weak"
        assert payload["statistics"]["all_edge_count"] > 0

    def test_summary_endpoint_ntriples(self, served):
        base, catalog = served
        status, text = _call(base, "GET", "/graphs/fig2/summary/weak?format=ntriples")
        assert status == 200
        assert isinstance(text, str)
        assert text == serialize_ntriples(catalog.summary("fig2", "weak").graph)

    def test_unknown_summary_kind_400(self, served):
        base, _catalog = served
        status, payload = _call(base, "GET", "/graphs/fig2/summary/banana")
        assert status == 400 and "error" in payload


class TestPersistentRestart:
    def test_http_restart_cycle_preserves_answers(self, fig2, tmp_path):
        path = str(tmp_path / "catalog.db")
        query = {"query": "SELECT ?x WHERE { ?x <http://example.org/fig2/editor> ?y . }"}

        catalog = GraphCatalog.open(path)
        catalog.register("fig2", graph=fig2)
        app = ServerApp(catalog)
        server, _thread = start_background(app)
        base = f"http://127.0.0.1:{server.server_address[1]}"
        _status, before = _call(base, "POST", "/graphs/fig2/query", query)
        server.shutdown()
        server.server_close()
        app.close()
        catalog.close()

        catalog = GraphCatalog.open(path)
        app = ServerApp(catalog)
        server, _thread = start_background(app)
        base = f"http://127.0.0.1:{server.server_address[1]}"
        _status, after = _call(base, "POST", "/graphs/fig2/query", query)
        entry = catalog.entry("fig2")
        server.shutdown()
        server.server_close()
        app.close()
        catalog.close()

        assert after["answers"] == before["answers"]
        assert not any(entry.build_counters.values())


class TestSaturationExposure:
    def test_statistics_report_saturation_maintenance(self, served):
        base, catalog = served
        status, payload = _call(base, "GET", "/graphs/fig2/statistics")
        assert status == 200
        assert payload["saturation"] is None  # G∞ never requested yet

        query = "SELECT ?s ?o WHERE { ?s <http://example.org/fig2/editor> ?o . }"
        status, answer = _call(
            base,
            "POST",
            "/graphs/fig2/query",
            {"query": query, "saturated": True, "explain": True},
        )
        assert status == 200
        assert answer["saturation"]["builds"] == 1

        status, payload = _call(base, "GET", "/graphs/fig2/statistics")
        assert status == 200
        saturation = payload["saturation"]
        assert saturation["store_rows"] >= payload["store"]["total_rows"]

        # an ingest updates G∞ in place and the delta shows up
        status, _ = _call(
            base,
            "POST",
            "/graphs/fig2/triples",
            {"triples": "<http://x.example/a> <http://x.example/p> <http://x.example/b> .\n"},
        )
        assert status == 200
        status, payload = _call(base, "GET", "/graphs/fig2/statistics")
        assert payload["saturation"]["deltas"] == 1
        assert payload["saturation"]["last_delta_rows"] == 1
        assert payload["build_counters"]["saturation_builds"] == 1

    def test_unsaturated_answers_carry_no_saturation_block(self, served):
        base, _catalog = served
        query = "SELECT ?s ?o WHERE { ?s <http://example.org/fig2/editor> ?o . }"
        status, answer = _call(
            base, "POST", "/graphs/fig2/query", {"query": query, "explain": True}
        )
        assert status == 200
        assert "saturation" not in answer


def test_an_ingest_past_the_id_limit_is_refused_whole(fig2, tmp_path, monkeypatch):
    """A batch whose new terms would take an id past the 4-byte range is a
    400, and the store, the dictionary and the durable row log are left
    exactly as they were — a batch that fits still goes through."""
    path = str(tmp_path / "catalog.db")
    with GraphCatalog.open(path) as catalog:
        entry = catalog.register("fig2", graph=fig2)
        monkeypatch.setattr(dictionary_module, "ID_LIMIT", len(entry.store.dictionary) + 3)
        app = ServerApp(catalog, kind="weak")
        server, _thread = start_background(app)
        base = f"http://127.0.0.1:{server.server_address[1]}"

        def state():
            connection = sqlite3.connect(path)
            try:
                logged = connection.execute("SELECT kind, s, p, o FROM graph_triples").fetchall()
            finally:
                connection.close()
            tables = {
                kind: [row for batch in entry.store.scan_batches(kind) for row in batch]
                for kind in TripleKind
            }
            return entry.version, tables, pack_terms(entry.store.dictionary), logged

        def post(text):
            return _call(base, "POST", "/graphs/fig2/triples", {"triples": text})

        try:
            fits = "<http://l.example/a> <http://l.example/p> <http://l.example/b> .\n"
            assert post(fits)[0] == 200  # three new terms: the dictionary is full now
            before = state()
            status, payload = post(
                "<http://l.example/a> <http://l.example/p> <http://l.example/a> .\n"
                "<http://l.example/b> <http://l.example/p> <http://l.example/c> .\n"
            )
            assert status == 400 and "dictionary is full" in payload["error"]
            assert state() == before
            assert catalog.log_tail_rows("fig2") == 1
            known = "<http://l.example/b> <http://l.example/p> <http://l.example/a> .\n"
            assert post(known) == (200, {"name": "fig2", "inserted": 1, "version": before[0] + 1})
        finally:
            server.shutdown()
            server.server_close()
            app.close()
