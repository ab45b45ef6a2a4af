"""Trace propagation across the coordinator→worker pipe.

One traced cluster query must come back as a *single* span tree: the
coordinator's guard and route/scatter/gather spans with the one contacted
worker's evaluate subtree grafted under ``worker-<index>`` — together the
same guard/evaluate pair the serial service produces.  A pruned query's
tree is the guard alone: nothing crossed the pipe.
"""

import pytest

from repro.cluster import ClusterCoordinator
from repro.queries.parser import parse_query
from repro.service.catalog import GraphCatalog
from repro.service.service import QueryService
from repro.telemetry import QueryTrace


@pytest.fixture(scope="module")
def traced_pair(bsbm_small):
    catalog = GraphCatalog()
    catalog.register("bsbm", graph=bsbm_small)
    serial_catalog = GraphCatalog()
    serial_catalog.register("bsbm", graph=bsbm_small)
    service = QueryService(serial_catalog)
    coordinator = ClusterCoordinator(catalog, workers=2, heartbeat_seconds=0)
    yield coordinator, service
    coordinator.close()
    catalog.close()
    serial_catalog.close()


def _star_query(graph):
    triple = next(iter(graph))
    return parse_query(
        "SELECT ?s ?o WHERE { ?s <%s> ?o . ?s ?p ?x }" % triple.predicate.value
    )


def test_untraced_query_has_no_span_tree(traced_pair, bsbm_small):
    coordinator, _service = traced_pair
    answer = coordinator.answer("bsbm", _star_query(bsbm_small))
    assert answer.query_trace is None


def test_cluster_trace_is_one_tree(traced_pair, bsbm_small):
    coordinator, _service = traced_pair
    query = _star_query(bsbm_small)
    answer = coordinator.answer("bsbm", query, trace=True)
    trace = answer.query_trace
    assert trace is not None and trace.trace_id
    (worker,) = answer.cluster["workers"]

    root = trace.root
    assert root.name == "query"
    stages = [child.name for child in root.children]
    assert stages == ["guard", "route", "scatter", "gather"]

    scatter = root.find("scatter")
    # the one contacted worker contributed exactly one grafted subtree
    (span,) = scatter.children
    assert span.name == f"worker-{worker}"
    (worker_query,) = span.children
    assert worker_query.name == "query"
    # the guard ran on the coordinator: the worker only evaluated
    assert worker_query.find("guard") is None
    assert worker_query.find("evaluate") is not None

    route = root.find("route")
    assert route.attributes == {"mode": "full", "workers": [worker]}
    gather = root.find("gather")
    assert gather.attributes["answers"] == len(answer.answers)
    assert root.seconds > 0


def test_caller_supplied_trace_id_propagates(traced_pair, bsbm_small):
    coordinator, _service = traced_pair
    supplied = QueryTrace(trace_id="feedfacefeedface")
    answer = coordinator.answer(
        "bsbm", _star_query(bsbm_small), trace=supplied
    )
    assert answer.query_trace is supplied
    assert answer.query_trace.trace_id == "feedfacefeedface"
    # the worker only builds a subtree when the id crossed the pipe
    (worker,) = answer.cluster["workers"]
    assert answer.query_trace.root.find(f"worker-{worker}") is not None


def test_worker_subtrees_match_the_serial_shape(traced_pair, bsbm_small):
    coordinator, service = traced_pair
    query = _star_query(bsbm_small)
    serial = service.answer("bsbm", query, trace=True)
    clustered = coordinator.answer("bsbm", query, trace=True)
    assert clustered.answers == serial.answers

    serial_stages = [child.name for child in serial.query_trace.root.children]
    assert serial_stages == ["guard", "evaluate"]
    root = clustered.query_trace.root
    (span,) = root.find("scatter").children
    (worker_query,) = span.children
    # the coordinator's guard, then the worker's evaluate: the serial pair
    assert [root.children[0].name] + [
        child.name for child in worker_query.children
    ] == serial_stages


def test_pruned_query_traces_the_guard_alone(traced_pair):
    coordinator, _service = traced_pair
    query = parse_query(
        "SELECT ?s WHERE { ?s <http://nowhere/p> ?o . ?s <http://nowhere/q> ?x }"
    )
    answer = coordinator.answer("bsbm", query, trace=True)
    assert answer.pruned and answer.cluster["workers"] == []
    assert [child.name for child in answer.query_trace.root.children] == ["guard"]


def test_evaluation_seconds_include_the_round_trip(traced_pair, bsbm_small):
    """The front end times the remote evaluation on its own clock: an
    answered query's ``evaluation_seconds`` covers its ``scatter`` span —
    the pipe round trip and the worker's queueing included."""
    coordinator, _service = traced_pair
    answer = coordinator.answer("bsbm", _star_query(bsbm_small), trace=True)
    assert not answer.pruned and answer.cluster["workers"]
    scatter = answer.query_trace.root.find("scatter")
    assert answer.evaluation_seconds >= scatter.seconds > 0


def test_constant_subject_query_still_traces(traced_pair, bsbm_small):
    coordinator, _service = traced_pair
    triple = next(iter(bsbm_small))
    query = parse_query("SELECT ?p ?o WHERE { <%s> ?p ?o }" % triple.subject.value)
    answer = coordinator.answer("bsbm", query, trace=True)
    trace = answer.query_trace
    assert trace is not None
    assert [child.name for child in trace.root.children] == [
        "guard",
        "route",
        "scatter",
        "gather",
    ]
    worker_spans = [
        span for span in trace.root.find("scatter").children
        if span.name.startswith("worker-")
    ]
    assert len(worker_spans) == len(answer.cluster["workers"]) == 1


def test_consecutive_traces_name_the_round_robin_worker(traced_pair, bsbm_small):
    """Each traced query grafts the subtree of the worker it went to, and
    consecutive queries go to the workers in turn."""
    coordinator, _service = traced_pair
    query = _star_query(bsbm_small)
    grafted = []
    for _each_query in range(2 * coordinator.worker_count):
        trace = coordinator.answer("bsbm", query, trace=True).query_trace
        (span,) = trace.root.find("scatter").children
        grafted.append(int(span.name[len("worker-"):]))
    first = grafted[0]
    assert grafted == [(first + step) % coordinator.worker_count for step in range(len(grafted))]
