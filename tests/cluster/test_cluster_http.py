"""The HTTP front end over a cluster: same API, multi-process answers."""

import json
import urllib.error
import urllib.request

import pytest

from repro.cluster import ClusterCoordinator
from repro.io.ntriples import serialize_ntriples
from repro.queries.generator import generate_rbgp_workload
from repro.server.http import ServerApp, start_background
from repro.service.catalog import GraphCatalog
from repro.service.service import QueryService


def _post(url, payload, timeout=60):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


def _get(url, timeout=60):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.loads(response.read())


@pytest.fixture(scope="module")
def cluster_server(bsbm_small):
    catalog = GraphCatalog()
    catalog.register("g", graph=bsbm_small)
    serial_catalog = GraphCatalog()
    serial_catalog.register("g", graph=bsbm_small)
    service = QueryService(serial_catalog)
    cluster = ClusterCoordinator(catalog, workers=2, heartbeat_seconds=0)
    app = ServerApp(catalog, cluster=cluster)
    server, _thread = start_background(app)
    base = f"http://127.0.0.1:{server.server_address[1]}"
    yield base, service, serial_catalog
    server.shutdown()
    server.server_close()
    app.drain()
    app.close()
    catalog.close()
    serial_catalog.close()


def test_healthz_reports_cluster(cluster_server):
    base, _, _ = cluster_server
    payload = _get(base + "/healthz")
    assert payload["cluster"]["worker_count"] == 2
    assert payload["cluster"]["workers_alive"] == 2
    workers = payload["cluster"]["workers"]
    assert [worker["index"] for worker in workers] == [0, 1]
    for worker in workers:
        assert worker["alive"] is True
        # heartbeats are observational; with heartbeat_seconds=0 the age
        # may be null (no ping yet) but the key must be present
        assert "last_heartbeat_age_seconds" in worker


def test_cluster_endpoint(cluster_server):
    base, _, _ = cluster_server
    payload = _get(base + "/cluster")
    assert payload["worker_count"] == 2
    assert [worker["alive"] for worker in payload["workers"]] == [True, True]
    assert "g" in payload["graphs"]


def test_cluster_endpoint_404_without_cluster(bsbm_small):
    catalog = GraphCatalog()
    app = ServerApp(catalog)
    server, _thread = start_background(app)
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base + "/cluster")
        assert excinfo.value.code == 404
    finally:
        server.shutdown()
        server.server_close()
        app.close()
        catalog.close()


def test_query_parity_over_http(cluster_server, bsbm_small):
    base, service, _ = cluster_server
    for query in generate_rbgp_workload(bsbm_small, count=10, seed=41):
        serial = service.answer("g", query, limit=None)
        expected = sorted(
            [term.n3() for term in row] for row in serial.answers
        )
        payload = _post(base + "/graphs/g/query", {"query": query.to_sparql(), "limit": None})
        assert sorted(payload["answers"]) == expected
        assert payload["cluster"]["mode"] == "full"  # routing attribution rides along
        assert len(payload["cluster"]["workers"]) == 1


def test_non_boolean_flag_is_400_on_a_cluster(cluster_server):
    """The flag check runs before routing: a cluster-backed server refuses
    ``"saturated": "false"`` like the in-process one, instead of answering
    over ``G∞``."""
    base, _, _ = cluster_server
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(base + "/graphs/g/query", {"query": "ASK { ?s ?p ?o }", "saturated": "false"})
    assert excinfo.value.code == 400
    payload = _post(base + "/graphs/g/query", {"query": "ASK { ?s ?p ?o }", "saturated": False})
    assert payload["boolean"] is True


def test_ingest_then_query_over_http(cluster_server):
    base, _, _ = cluster_server
    triples = '<http://hc/s> <http://hc/p> <http://hc/o> .\n'
    ingest = _post(base + "/graphs/g/triples", {"triples": triples})
    assert ingest["inserted"] == 1
    payload = _post(
        base + "/graphs/g/query",
        {"query": "SELECT ?o WHERE { <http://hc/s> <http://hc/p> ?o }"},
    )
    assert payload["answers"] == [["<http://hc/o>"]]


def test_register_and_drop_over_http(cluster_server, fig2):
    base, _, _ = cluster_server
    created = _post(
        base + "/graphs", {"name": "fig2http", "triples": serialize_ntriples(fig2)}
    )
    assert created["triples"] == len(fig2)
    payload = _post(
        base + "/graphs/fig2http/query",
        {"query": "SELECT ?s ?o WHERE { ?s ?p ?o }", "limit": None},
    )
    assert payload["answer_count"] > 0
    request = urllib.request.Request(base + "/graphs/fig2http", method="DELETE")
    with urllib.request.urlopen(request, timeout=60) as response:
        assert json.loads(response.read())["dropped"] == "fig2http"
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(base + "/graphs/fig2http/query", {"query": "ASK WHERE { ?s ?p ?o }"})
    assert excinfo.value.code == 404


def test_explain_on_a_cluster_is_the_in_process_explain(bsbm_small):
    """The one worker's plan is the answer's plan: the same requests in
    process and on two workers give the same response keys (bar
    ``cluster``) and the same stages, probes and produced rows — the plan
    used to be buried in ``cluster.per_worker[i].trace``."""
    catalog = GraphCatalog()
    catalog.register("g", graph=bsbm_small)
    serial_catalog = GraphCatalog()
    serial_catalog.register("g", graph=bsbm_small)
    local = ServerApp(serial_catalog)
    clustered = ServerApp(
        catalog, cluster=ClusterCoordinator(catalog, workers=2, heartbeat_seconds=0)
    )
    predicate = next(iter(bsbm_small)).predicate.value
    texts = [
        "SELECT ?s ?o WHERE { ?s <%s> ?o . ?s ?p ?x }" % predicate,
        "SELECT ?a ?c WHERE { ?a <%s> ?b . ?b ?q ?c }" % predicate,
        "SELECT ?s WHERE { ?s <http://nowhere/p> ?o . ?s <http://nowhere/q> ?x }",
    ]

    def stages(payload):
        return [
            (stage["pattern"], stage["probes"], stage["produced_rows"])
            for stage in payload["trace"]["stages"]
        ]

    try:
        for text in texts:
            for saturated in (False, True):
                body = {"query": text, "explain": True, "saturated": saturated, "limit": None}
                status, expected = local.dispatch("POST", "/graphs/g/query", body)
                assert status == 200
                for _each_worker in range(2):
                    status, payload = clustered.dispatch("POST", "/graphs/g/query", body)
                    assert status == 200
                    context = (text, saturated)
                    assert set(payload) - {"cluster"} == set(expected), context
                    assert payload["answers"] == expected["answers"], context
                    if "trace" in expected:
                        assert stages(payload) == stages(expected), context
    finally:
        clustered.close()
        local.close()
        catalog.close()
        serial_catalog.close()
