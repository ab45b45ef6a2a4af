"""Answers rendered from id rows, checked against the Term-sorted renderer.

The front end keeps an answer as its head id rows: the dictionary's
term-order rank sorts them and each cell's term is rendered straight from its
id, into the ``dispatch`` payload or into the body the socket gets.
``oracles/answer_rendering.py`` keeps the renderer that decoded every row,
sorted the ``Term`` tuples by ``term_sort_key`` and ``json.dumps``'d the
payload.  Both outputs must equal the oracle's, byte for byte, on memory and
sqlite backends, in process and on two workers, before and after batches
that mint terms sorting between the ones already ranked, and after a lone
``Dictionary.encode``; the answer's terms must be the reference evaluator's.
"""

import http.client
import itertools
import json

import pytest

from oracles.answer_rendering import render_body, render_rows
from repro.cluster import ClusterCoordinator
from repro.io.ntriples import serialize_ntriples
from repro.model.graph import RDFGraph
from repro.model.namespaces import EX, RDFS_DOMAIN, XSD
from repro.model.terms import BlankNode, Literal
from repro.model.triple import Triple
from repro.queries.evaluation import evaluate, evaluate_saturated
from repro.queries.generator import generate_rbgp_workload
from repro.queries.parser import parse_query
from repro.server import http as http_module
from repro.server.http import ServerApp, start_background
from repro.service.catalog import GraphCatalog
from repro.store.sqlite import SQLiteStore

LIMITS = (None, 1, 7, 100)

_LITERALS = [
    Literal('say "hi"'),
    Literal("back\\slash"),
    Literal("line\nbreak\ttab"),
    Literal("é"),
    Literal("\U0001f600"),
    Literal("x", language="en"),
    Literal("x", language="fr"),
    Literal("1", datatype=XSD.integer),
    Literal("1"),
    Literal(""),
]


def _name(number: int):
    return EX.term(f"s{number:02d}")


def _awkward_graph() -> RDFGraph:
    """Even-numbered subjects (later batches mint the odd ones, which sort
    between them), escapes, non-ASCII, tags, datatypes and blank nodes; a
    domain constraint and no type triple (``rdf:type`` is minted alone)."""
    triples = [Triple(EX.p, RDFS_DOMAIN, EX.Thing)]
    for index in range(12):
        subject = _name(2 * index)
        triples.append(Triple(subject, EX.p, _LITERALS[index % len(_LITERALS)]))
        triples.append(Triple(subject, EX.q, _name((10 * index + 4) % 24)))
        triples.append(Triple(BlankNode(f"b{index % 5}"), EX.q, subject))
    return RDFGraph(triples, name="awkward")


def _interleaving_batch(offset: int):
    """Odd-numbered subjects and new literals: each sorts between terms the
    rank already holds."""
    batch = []
    for index in range(offset, 24, 4):
        subject = _name(index)
        batch.append(Triple(subject, EX.p, Literal(f"say {index}")))
        batch.append(Triple(_name(index - 1), EX.q, subject))
    return batch


_AWKWARD_QUERIES = [
    ("SELECT ?s ?o WHERE { ?s <http://example.org/p> ?o }", False),
    ("SELECT ?o WHERE { ?s <http://example.org/p> ?o }", False),
    ("SELECT ?a ?c WHERE { ?a <http://example.org/q> ?b . ?b <http://example.org/p> ?c }", False),
    (
        "SELECT ?x ?y ?z WHERE { ?x <http://example.org/q> ?y . ?y <http://example.org/q> ?z }",
        False,
    ),
    ("ASK { ?s <http://example.org/q> ?o }", False),
    ("ASK { ?s <http://example.org/q> <http://example.org/nowhere> }", False),
    ("ASK { ?s <http://example.org/p> <http://example.org/s00> }", False),
    ("SELECT ?p ?o WHERE { <http://example.org/s00> ?p ?o }", True),
    ("SELECT ?s WHERE { ?s <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> ?c }", True),
]


def _bsbm_queries(graph):
    queries = generate_rbgp_workload(graph, count=8, size=2, seed=3)
    queries += generate_rbgp_workload(graph, count=4, size=3, seed=5)
    return [(query.to_sparql(), False) for query in queries]


@pytest.fixture(
    scope="module",
    params=[("memory", 0), ("sqlite", 0), ("memory", 2), ("sqlite", 2)],
    ids=["memory", "sqlite-sql", "memory-k2", "sqlite-k2"],
)
def app(request, tmp_path_factory):
    backend, workers = request.param
    if backend == "memory":
        catalog = GraphCatalog()
    else:
        directory, paths = tmp_path_factory.mktemp("stores"), itertools.count()
        catalog = GraphCatalog(
            store_factory=lambda: SQLiteStore(str(directory / f"store-{next(paths)}.db"))
        )
    cluster = ClusterCoordinator(catalog, workers=workers, heartbeat_seconds=0) if workers else None
    # in process on sqlite the join is pushed down: its rows are SQL rows
    strategy = "sql" if backend == "sqlite" else "hash"
    served = ServerApp(catalog, strategy=strategy, max_workers=2, cluster=cluster)
    yield served
    served.close()
    catalog.close()


def _register(app, name, graph):
    status, payload = app.dispatch(
        "POST", "/graphs", {"name": name, "triples": serialize_ntriples(graph)}
    )
    assert status == 201, payload


def _ingest(app, name, triples):
    status, payload = app.dispatch(
        "POST", f"/graphs/{name}/triples", {"triples": serialize_ntriples(triples)}
    )
    assert status == 200, payload


def _check(app, name, graph, text, saturated, limit):
    """One query: the socket body and the dispatch payload against the
    oracle, the decoded answer against the reference evaluator."""
    body = {"query": text, "limit": limit, "saturated": saturated}
    status, routed = app.route("POST", f"/graphs/{name}/query", body)
    assert status == 200, routed
    terms = routed["answers"].terms()
    assert set(routed["answers"]) == terms and len(routed["answers"]) == len(terms)
    assert "".join(http_module._json_body(routed)).encode("utf-8") == render_body(routed, terms)
    status, dispatched = app.dispatch("POST", f"/graphs/{name}/query", body)
    assert status == 200 and dispatched["answers"] == render_rows(terms)

    query = parse_query(text)
    reference = (evaluate_saturated if saturated else evaluate)(graph, query)
    if limit is None or query.is_boolean():
        assert terms == reference
    else:
        assert terms <= reference and len(terms) == min(limit, len(reference))


def _check_all(app, graphs, queries):
    for name, graph in graphs.items():
        for text, saturated in queries[name]:
            for limit in LIMITS:
                _check(app, name, graph, text, saturated, limit)


def test_rendered_answers_equal_the_term_sorted_oracle(app, bsbm_small):
    graphs = {"bsbm": bsbm_small, "awkward": _awkward_graph()}
    for name, graph in graphs.items():
        _register(app, name, graph)
    queries = {"bsbm": _bsbm_queries(bsbm_small), "awkward": _AWKWARD_QUERIES}
    _check_all(app, graphs, queries)

    # batches whose new terms sort between the ranked ones
    for offset in (1, 3):
        batch = _interleaving_batch(offset)
        _ingest(app, "awkward", batch)
        graphs["awkward"] = RDFGraph(list(graphs["awkward"]) + batch, name="awkward")
        _check_all(app, {"awkward": graphs["awkward"]}, queries)

    # a lone mint into a ranked dictionary, then rows that use it
    dictionary = app.catalog.entry("awkward").store.dictionary
    dictionary.encode(EX.term("s04a"))
    _check_all(app, {"awkward": graphs["awkward"]}, queries)
    batch = [Triple(EX.term("s04a"), EX.p, Literal("x", language="de"))]
    _ingest(app, "awkward", batch)
    graphs["awkward"] = RDFGraph(list(graphs["awkward"]) + batch, name="awkward")
    _check_all(app, {"awkward": graphs["awkward"]}, queries)


def test_the_socket_body_is_the_oracle_body(app):
    graph = _awkward_graph()
    _register(app, "wire", graph)
    server, _thread = start_background(app)
    connection = http.client.HTTPConnection("127.0.0.1", server.server_address[1], timeout=60)
    try:
        for text, saturated in _AWKWARD_QUERIES:
            request = {"query": text, "limit": None, "saturated": saturated}
            connection.request("POST", "/graphs/wire/query", body=json.dumps(request))
            response = connection.getresponse()
            raw = response.read()
            assert response.status == 200
            assert int(response.getheader("Content-Length")) == len(raw)
            query = parse_query(text)
            reference = (evaluate_saturated if saturated else evaluate)(graph, query)
            # the timings and routing are the body's own; the answers, their
            # order and every byte of the layout are the oracle's
            assert raw == render_body(json.loads(raw), reference)
    finally:
        connection.close()
        server.shutdown()
        server.server_close()
