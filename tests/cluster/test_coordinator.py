"""Scatter-gather answering: bit-identical to the in-process service."""

import pytest

from repro.cluster import ClusterCoordinator
from repro.model.terms import URI
from repro.model.triple import Triple
from repro.queries.generator import generate_rbgp_workload
from repro.queries.parser import parse_query
from repro.service.catalog import GraphCatalog
from repro.service.service import QueryService


@pytest.fixture(scope="module", params=[2, 3], ids=["k2", "k3"])
def shards(request):
    """Shard count K: every shard layout must answer the same."""
    return request.param


@pytest.fixture(scope="module")
def cluster_pair(shards, bsbm_small):
    """A K-worker cluster and a serial reference service over the same data."""
    catalog = GraphCatalog()
    catalog.register("bsbm", graph=bsbm_small)
    serial_catalog = GraphCatalog()
    serial_catalog.register("bsbm", graph=bsbm_small)
    service = QueryService(serial_catalog)
    coordinator = ClusterCoordinator(catalog, workers=shards, heartbeat_seconds=0)
    yield coordinator, service, serial_catalog
    coordinator.close()
    catalog.close()
    serial_catalog.close()


def _sample_triple(graph):
    for triple in graph:
        return triple
    raise AssertionError("empty graph")


def test_workload_parity(cluster_pair, bsbm_small):
    coordinator, service, _ = cluster_pair
    queries = generate_rbgp_workload(bsbm_small, count=25, seed=13)
    scattered = 0
    for query in queries:
        serial = service.answer("bsbm", query)
        clustered = coordinator.answer("bsbm", query)
        assert clustered.answers == serial.answers, query.to_sparql()
        if clustered.cluster["mode"] == "scatter":
            scattered += 1
    # the workload must actually exercise the scatter path
    assert scattered > 0


def test_star_query_scatters(cluster_pair, shards, bsbm_small):
    coordinator, service, _ = cluster_pair
    triple = _sample_triple(bsbm_small)
    query = parse_query(
        "SELECT ?s ?o WHERE { ?s <%s> ?o . ?s ?p ?x }" % triple.predicate.value
    )
    serial = service.answer("bsbm", query)
    clustered = coordinator.answer("bsbm", query)
    assert clustered.answers == serial.answers
    assert clustered.cluster["mode"] == "scatter"
    assert len(clustered.cluster["workers"]) == shards


def test_chain_query_routes_to_full_replica(cluster_pair, bsbm_small):
    coordinator, service, _ = cluster_pair
    query = parse_query("SELECT ?a ?c WHERE { ?a ?p ?b . ?b ?q ?c }")
    serial = service.answer("bsbm", query, limit=None)
    clustered = coordinator.answer("bsbm", query, limit=None)
    assert clustered.answers == serial.answers
    assert clustered.cluster["mode"] == "full"
    assert len(clustered.cluster["workers"]) == 1


def test_constant_subject_routes_to_owning_shard(cluster_pair, bsbm_small):
    coordinator, service, _ = cluster_pair
    triple = _sample_triple(bsbm_small)
    query = parse_query(
        "SELECT ?p ?o WHERE { <%s> ?p ?o }" % triple.subject.value
    )
    serial = service.answer("bsbm", query)
    clustered = coordinator.answer("bsbm", query)
    assert clustered.answers == serial.answers
    assert clustered.answers  # the subject exists: answers must be non-empty
    assert clustered.cluster["mode"] == "scatter"
    assert "routed_shard" in clustered.cluster
    assert len(clustered.cluster["workers"]) == 1


def test_unknown_constant_subject_is_empty(cluster_pair):
    coordinator, service, _ = cluster_pair
    query = parse_query("SELECT ?o WHERE { <http://nowhere/q> ?p ?o }")
    assert service.answer("bsbm", query).answers == set()
    clustered = coordinator.answer("bsbm", query)
    assert clustered.answers == set()


def test_boolean_query_parity(cluster_pair, bsbm_small):
    coordinator, service, _ = cluster_pair
    triple = _sample_triple(bsbm_small)
    sat = parse_query("ASK WHERE { ?s <%s> ?o }" % triple.predicate.value)
    unsat = parse_query("ASK WHERE { ?s <http://nowhere/p> ?o }")
    for query in (sat, unsat):
        assert (
            coordinator.answer("bsbm", query).answers
            == service.answer("bsbm", query).answers
        )


def test_pruned_query_reports_pruning(cluster_pair):
    coordinator, service, _ = cluster_pair
    query = parse_query(
        "SELECT ?s WHERE { ?s <http://nowhere/p> ?o . ?s <http://nowhere/q> ?x }"
    )
    serial = service.answer("bsbm", query)
    clustered = coordinator.answer("bsbm", query)
    assert clustered.answers == serial.answers == set()
    if serial.pruned:
        # every shard guard must refute what the global guard refutes
        assert clustered.pruned
        assert clustered.cluster["shards_pruned"] == len(
            clustered.cluster["workers"]
        )


def test_saturated_parity_uses_full_replica(cluster_pair, bsbm_small):
    coordinator, service, _ = cluster_pair
    queries = generate_rbgp_workload(bsbm_small, count=8, seed=29)
    for query in queries:
        serial = service.answer("bsbm", query, saturated=True)
        clustered = coordinator.answer("bsbm", query, saturated=True)
        assert clustered.answers == serial.answers
        assert clustered.cluster["mode"] == "full"


def test_limit_returns_answer_subset(cluster_pair):
    coordinator, service, _ = cluster_pair
    query = parse_query("SELECT ?s ?o WHERE { ?s ?p ?o }")
    full = service.answer("bsbm", query, limit=None)
    limited = coordinator.answer("bsbm", query, limit=10)
    assert len(limited.answers) == 10
    assert limited.answers <= full.answers


def test_read_your_writes(cluster_pair):
    coordinator, service, serial_catalog = cluster_pair
    triples = [
        Triple(URI("http://ryw/s1"), URI("http://ryw/p"), URI("http://ryw/o1")),
        Triple(URI("http://ryw/s1"), URI("http://ryw/p"), URI("http://ryw/o2")),
    ]
    inserted = coordinator.add_triples("bsbm", triples)
    assert inserted == 2
    serial_catalog.add_triples("bsbm", triples)
    query = parse_query("SELECT ?o WHERE { <http://ryw/s1> <http://ryw/p> ?o }")
    clustered = coordinator.answer("bsbm", query)
    assert clustered.answers == service.answer("bsbm", query).answers
    assert len(clustered.answers) == 2


def test_register_and_drop_at_runtime(cluster_pair, fig2):
    coordinator, _, _ = cluster_pair
    coordinator.register("fig2", graph=fig2)
    query = parse_query("SELECT ?s ?o WHERE { ?s ?p ?o }")
    answer = coordinator.answer("fig2", query, limit=None)
    assert len(answer.answers) > 0
    coordinator.drop("fig2")
    from repro.errors import UnknownGraphError

    with pytest.raises(UnknownGraphError):
        coordinator.answer("fig2", query)


def test_status_reports_workers(cluster_pair, shards):
    coordinator, _, _ = cluster_pair
    status = coordinator.status()
    assert status["worker_count"] == shards
    assert len(status["workers"]) == shards
    for worker in status["workers"]:
        assert worker["alive"]
    assert "bsbm" in status["graphs"]
    assert status["service"]["queries"] > 0


def test_load_ack_reports_rows_and_attach_time(cluster_pair):
    coordinator, _, _ = cluster_pair
    for worker in coordinator.status()["workers"]:
        ack = worker["last_load"]
        assert set(ack) == {"name", "version", "shard_rows", "full_rows", "attach_seconds"}
        assert ack["full_rows"] >= ack["shard_rows"] and ack["full_rows"] > 0


def test_statistics_record_cluster_answers(cluster_pair):
    coordinator, _, _ = cluster_pair
    before = coordinator.statistics.queries
    query = parse_query("ASK WHERE { ?s ?p ?o }")
    coordinator.answer("bsbm", query)
    assert coordinator.statistics.queries == before + 1
