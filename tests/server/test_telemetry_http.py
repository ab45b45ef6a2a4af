"""The telemetry surface of the HTTP front end: /metrics, /debug/slow,
healthz version, and the per-query span tree behind ``"trace": true``."""

import json
import urllib.error
import urllib.request

import pytest

import repro
from repro import telemetry
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
    yield base
    server.shutdown()
    server.server_close()
    app.close()
    catalog.close()


QUERY = {"query": "SELECT ?s WHERE { ?s ?p ?o }"}


def test_queries_to_one_graph_leave_another_graphs_statistics_alone(fig2):
    """``/graphs/<g>/statistics`` is per-graph state: three queries to ``a``
    move the process-wide ``/metrics`` count by three and leave the payload
    of ``b``, never queried, as it was."""
    queries = telemetry.counter("query.count")
    with GraphCatalog() as catalog:
        catalog.register("a", graph=fig2)
        catalog.register("b", graph=fig2)
        app = ServerApp(catalog, kind="weak")
        try:
            status, before = app.dispatch("GET", "/graphs/b/statistics", None)
            assert status == 200
            count = queries.value
            for _ in range(3):
                assert app.dispatch("POST", "/graphs/a/query", QUERY)[0] == 200
            assert queries.value == count + 3
            assert app.dispatch("GET", "/graphs/b/statistics", None) == (200, before)
        finally:
            app.close()


def test_healthz_reports_version_and_uptime(served):
    status, payload = _call(served, "GET", "/healthz")
    assert status == 200
    assert payload["version"] == repro.__version__
    assert payload["uptime_seconds"] >= 0


def test_metrics_is_prometheus_text(served):
    # answer one query first so the query-plane metrics have moved
    status, answer = _call(served, "POST", "/graphs/fig2/query", QUERY)
    assert status == 200 and answer["answer_count"] > 0
    status, text = _call(served, "GET", "/metrics")
    assert status == 200
    assert isinstance(text, str)  # text/plain, not JSON
    lines = text.splitlines()
    assert any(line.startswith("# TYPE repro_") for line in lines)
    assert any(line.startswith("repro_query_count_total ") for line in lines)
    assert 'repro_query_total_seconds_bucket{le="+Inf"}' in text
    # the http request that carried the query has itself been counted
    requests = next(
        float(line.split()[-1])
        for line in lines
        if line.startswith("repro_http_requests_total ")
    )
    assert requests >= 2


def test_query_trace_key_is_opt_in(served):
    status, untraced = _call(served, "POST", "/graphs/fig2/query", QUERY)
    assert status == 200 and "query_trace" not in untraced

    status, traced = _call(
        served, "POST", "/graphs/fig2/query", dict(QUERY, trace=True)
    )
    assert status == 200
    tree = traced["query_trace"]
    assert tree["name"] == "query"
    assert len(tree["trace_id"]) == 16
    names = [child["name"] for child in tree["children"]]
    assert names == ["guard", "evaluate"]
    assert tree["attributes"]["graph"] == "fig2"


def test_debug_slow_captures_an_induced_slow_query(served):
    old = telemetry.SLOW_LOG.threshold_seconds
    telemetry.SLOW_LOG.clear()
    telemetry.SLOW_LOG.threshold_seconds = 1e-9
    try:
        status, _answer = _call(served, "POST", "/graphs/fig2/query", QUERY)
        assert status == 200
        status, payload = _call(served, "GET", "/debug/slow")
        assert status == 200
        assert payload["threshold_seconds"] == pytest.approx(1e-9)
        entry = next(e for e in payload["entries"] if e["graph"] == "fig2")
        assert entry["total_seconds"] > 0
        assert entry["sparql"].startswith("SELECT")
    finally:
        telemetry.SLOW_LOG.threshold_seconds = old
        telemetry.SLOW_LOG.clear()


def test_debug_slow_empty_by_default(served):
    telemetry.SLOW_LOG.clear()
    status, payload = _call(served, "GET", "/debug/slow")
    assert status == 200
    assert payload["entries"] == []
    assert payload["capacity"] == 256
