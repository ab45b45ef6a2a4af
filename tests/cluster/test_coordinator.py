"""Cluster answering: bit-identical to the in-process service, each query
on one worker's full replica, round-robin over the K workers."""

import pytest

from repro import telemetry
from repro.cluster import ClusterCoordinator
from repro.model.namespaces import RDF_TYPE, RDFS_SUBCLASSOF
from repro.model.terms import URI
from repro.model.triple import Triple
from repro.queries.generator import generate_rbgp_workload
from repro.queries.parser import parse_query
from repro.service.catalog import GraphCatalog
from repro.service.service import QueryService


@pytest.fixture(scope="module", params=[2, 3], ids=["k2", "k3"])
def workers(request):
    """Worker count K: every pool size must answer the same."""
    return request.param


@pytest.fixture(scope="module")
def cluster_pair(workers, bsbm_small):
    """A K-worker cluster and a serial reference service over the same data."""
    catalog = GraphCatalog()
    catalog.register("bsbm", graph=bsbm_small)
    serial_catalog = GraphCatalog()
    serial_catalog.register("bsbm", graph=bsbm_small)
    service = QueryService(serial_catalog)
    coordinator = ClusterCoordinator(catalog, workers=workers, heartbeat_seconds=0)
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
    for query in queries:
        serial = service.answer("bsbm", query)
        clustered = coordinator.answer("bsbm", query)
        assert clustered.answers == serial.answers, query.to_sparql()
        # the worker guards with the summaries of the whole graph
        assert clustered.pruned == serial.pruned, query.to_sparql()
        assert clustered.cluster["mode"] == "full"
        assert len(clustered.cluster["workers"]) == 1


def test_queries_go_round_robin_over_the_workers(cluster_pair, workers, bsbm_small):
    """One worker per query, whatever its shape: a star, a chain, a
    constant subject and a saturated query take their turn like any other."""
    coordinator, _, _ = cluster_pair
    triple = _sample_triple(bsbm_small)
    shapes = [
        ("SELECT ?s ?o WHERE { ?s <%s> ?o . ?s ?p ?x }" % triple.predicate.value, False),
        ("SELECT ?a ?c WHERE { ?a ?p ?b . ?b ?q ?c }", False),
        ("SELECT ?p ?o WHERE { <%s> ?p ?o }" % triple.subject.value, False),
        ("SELECT ?s ?o WHERE { ?s <%s> ?o }" % triple.predicate.value, True),
    ]
    contacted = []
    for _round in range(workers):
        for text, saturated in shapes:
            answer = coordinator.answer("bsbm", parse_query(text), limit=5, saturated=saturated)
            contacted.extend(answer.cluster["workers"])
    first = contacted[0]
    assert contacted == [(first + step) % workers for step in range(workers * len(shapes))]


def test_star_query_parity(cluster_pair, bsbm_small):
    coordinator, service, _ = cluster_pair
    triple = _sample_triple(bsbm_small)
    query = parse_query(
        "SELECT ?s ?o WHERE { ?s <%s> ?o . ?s ?p ?x }" % triple.predicate.value
    )
    serial = service.answer("bsbm", query)
    clustered = coordinator.answer("bsbm", query)
    assert clustered.answers == serial.answers


def test_chain_query_routes_to_full_replica(cluster_pair, bsbm_small):
    coordinator, service, _ = cluster_pair
    query = parse_query("SELECT ?a ?c WHERE { ?a ?p ?b . ?b ?q ?c }")
    serial = service.answer("bsbm", query, limit=None)
    clustered = coordinator.answer("bsbm", query, limit=None)
    assert clustered.answers == serial.answers
    assert clustered.cluster["mode"] == "full"
    assert len(clustered.cluster["workers"]) == 1


def test_constant_subject_query_parity(cluster_pair, bsbm_small):
    coordinator, service, _ = cluster_pair
    triple = _sample_triple(bsbm_small)
    query = parse_query(
        "SELECT ?p ?o WHERE { <%s> ?p ?o }" % triple.subject.value
    )
    serial = service.answer("bsbm", query)
    clustered = coordinator.answer("bsbm", query)
    assert clustered.answers == serial.answers
    assert clustered.answers  # the subject exists: answers must be non-empty


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
    # the worker's guard is the in-process guard, on the same summaries
    assert (clustered.pruned, clustered.kind) == (serial.pruned, serial.kind)
    assert clustered.cluster["shards_pruned"] == int(serial.pruned)


def test_answered_query_reports_no_pruning(cluster_pair, bsbm_small):
    coordinator, _, _ = cluster_pair
    triple = _sample_triple(bsbm_small)
    query = parse_query("SELECT ?s WHERE { ?s <%s> ?o }" % triple.predicate.value)
    clustered = coordinator.answer("bsbm", query)
    assert clustered.answers and not clustered.pruned
    assert clustered.cluster["shards_pruned"] == 0


def test_explain_plan_is_the_in_process_plan(cluster_pair, bsbm_small):
    """The one worker's plan comes back as the answer's own ``trace``,
    stage for stage what the in-process service observes."""
    coordinator, service, _ = cluster_pair
    triple = _sample_triple(bsbm_small)
    query = parse_query(
        "SELECT ?s ?o WHERE { ?s <%s> ?o . ?s ?p ?x }" % triple.predicate.value
    )
    serial = service.answer("bsbm", query, limit=None, explain=True)
    for _each_worker in range(coordinator.worker_count):
        clustered = coordinator.answer("bsbm", query, limit=None, explain=True)
        assert clustered.trace is not None
        assert clustered.trace.strategy == serial.trace.strategy
        assert [stage.as_dict() for stage in clustered.trace.stages] == [
            stage.as_dict() for stage in serial.trace.stages
        ]


def test_saturated_parity_uses_full_replica(cluster_pair, bsbm_small):
    coordinator, service, _ = cluster_pair
    queries = generate_rbgp_workload(bsbm_small, count=8, seed=29)
    for query in queries:
        serial = service.answer("bsbm", query, saturated=True)
        clustered = coordinator.answer("bsbm", query, saturated=True)
        assert clustered.answers == serial.answers
        assert clustered.cluster["mode"] == "full"


def test_a_worker_answers_saturated_queries_before_and_after_an_ingest():
    """A worker builds its ``G∞`` at the first saturated query sent to it
    (it loads the saturator there, not at start) and folds every later
    ingest into it: each answer, on each worker, is the in-process one."""
    student, person = URI("http://s/Student"), URI("http://s/Person")
    triples = [Triple(URI("http://s/a"), RDF_TYPE, student), Triple(student, RDFS_SUBCLASSOF, person)]
    serial_catalog, catalog = GraphCatalog(), GraphCatalog()
    serial_catalog.register("g", graph=triples)
    catalog.register("g", graph=triples)
    service = QueryService(serial_catalog)
    coordinator = ClusterCoordinator(catalog, workers=2, heartbeat_seconds=0)
    query = parse_query("SELECT ?x WHERE { ?x <%s> <%s> }" % (RDF_TYPE.value, person.value))
    try:
        for expected_rows, batch in ((1, []), (2, [Triple(URI("http://s/b"), RDF_TYPE, student)])):
            coordinator.add_triples("g", batch)
            serial_catalog.add_triples("g", batch)
            for worker in range(2):
                answer = coordinator.answer("g", query, saturated=True)
                assert answer.cluster["workers"] == [worker]
                assert answer.answers == service.answer("g", query, saturated=True).answers
                assert len(answer.answers) == expected_rows
    finally:
        coordinator.close()
        catalog.close()
        serial_catalog.close()


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


def test_writes_reach_every_replica(cluster_pair, workers):
    """Each query reads one replica, so a write must reach all K: K
    consecutive queries visit every worker and each sees the new rows."""
    coordinator, service, serial_catalog = cluster_pair
    triples = [
        Triple(URI("http://every/s"), URI("http://every/p"), URI("http://every/o%d" % i))
        for i in range(3)
    ]
    assert coordinator.add_triples("bsbm", triples) == 3
    serial_catalog.add_triples("bsbm", triples)
    query = parse_query("SELECT ?o WHERE { <http://every/s> <http://every/p> ?o }")
    expected = service.answer("bsbm", query).answers
    assert len(expected) == 3
    contacted = set()
    for _each_worker in range(workers):
        clustered = coordinator.answer("bsbm", query)
        assert clustered.answers == expected
        contacted.update(clustered.cluster["workers"])
    assert contacted == set(range(workers))


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


def test_status_reports_workers(cluster_pair, workers):
    coordinator, _, _ = cluster_pair
    status = coordinator.status()
    assert status["worker_count"] == workers
    assert len(status["workers"]) == workers
    for worker in status["workers"]:
        assert worker["alive"]
    assert "bsbm" in status["graphs"]
    assert "service" not in status  # the query counts live in the registry (/metrics)
    # the guard the service runs, not the constructor's spelling of it
    assert status["kind"] == coordinator.service.kind == "strong"
    legacy = ClusterCoordinator(GraphCatalog(), workers=1, kind="weak+strong", start=False)
    try:
        assert legacy.status()["kind"] == "strong"
    finally:
        legacy.close()


def test_load_ack_reports_rows_and_attach_time(cluster_pair):
    coordinator, _, _ = cluster_pair
    for worker in coordinator.status()["workers"]:
        ack = worker["last_load"]
        assert set(ack) == {"name", "version", "rows", "attach_seconds"}
        assert ack["rows"] > 0


def test_statistics_record_cluster_answers(cluster_pair):
    coordinator, _, _ = cluster_pair
    queries = telemetry.counter("query.count")
    before = queries.value
    query = parse_query("ASK WHERE { ?s ?p ?o }")
    coordinator.answer("bsbm", query)
    assert queries.value == before + 1


def _messages():
    """Messages written to worker pipes so far, by opcode (process-wide)."""
    return {
        op: telemetry.counter(f"cluster.messages.{op}").int_value
        for op in ("load", "delta", "query", "drop", "ping", "shutdown")
    }


def test_a_query_the_front_end_answers_sends_no_message(cluster_pair):
    """A guard-pruned query and a dictionary miss are answered on the
    coordinator: not one message crosses a pipe."""
    coordinator, service, _ = cluster_pair
    pruned = parse_query(
        "SELECT ?s WHERE { ?s <http://nowhere/p> ?o . ?s <http://nowhere/q> ?x }"
    )
    missing = parse_query("SELECT ?o WHERE { <http://nowhere/s> ?p ?o }")  # not an RBGP
    before = _messages()
    assert coordinator.answer("bsbm", pruned).pruned
    answer = coordinator.answer("bsbm", missing)
    assert not answer.pruned and not answer.prunable and answer.answers == set()
    assert answer.cluster["workers"] == []
    assert _messages() == before


def test_an_answered_query_sends_one_query_message(cluster_pair, workers, bsbm_small):
    coordinator, _, _ = cluster_pair
    triple = _sample_triple(bsbm_small)
    query = parse_query("SELECT ?s WHERE { ?s <%s> ?o }" % triple.predicate.value)
    for _each_worker in range(workers):  # every worker up to date
        coordinator.answer("bsbm", query)
    before = _messages()
    assert coordinator.answer("bsbm", query).answers
    after = _messages()
    assert after["query"] == before["query"] + 1
    assert {op: after[op] - before[op] for op in after if op != "query"} == dict.fromkeys(
        ("load", "delta", "drop", "ping", "shutdown"), 0
    )

