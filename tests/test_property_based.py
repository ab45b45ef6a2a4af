"""Property-based tests (hypothesis) on the core invariants.

Random well-formed RDF graphs are generated from small pools of URIs,
literals and classes, with optional RDFS constraints; the paper's formal
propositions must hold on every one of them.
"""

from __future__ import annotations

import string

from hypothesis import given, settings, strategies as st

from repro.core.builders import strong_summary, summarize, weak_summary
from repro.core.cliques import compute_cliques
from repro.core.properties import check_fixpoint, has_unique_data_properties
from repro.core.shortcuts import completeness_holds
from repro.io.ntriples import parse_ntriples, serialize_ntriples
from repro.model.graph import RDFGraph
from repro.model.namespaces import (
    EX,
    RDF_TYPE,
    RDFS_DOMAIN,
    RDFS_RANGE,
    RDFS_SUBCLASSOF,
    RDFS_SUBPROPERTYOF,
)
from repro.model.terms import Literal, URI
from repro.model.triple import Triple
from repro.queries.bgp import BGPQuery, TriplePattern, Variable
from repro.queries.evaluation import has_answers
from repro.schema.saturation import saturate
from repro.service.catalog import GraphCatalog
from repro.utils.unionfind import UnionFind

from oracles.summary_checks import summary_homomorphism_holds
from oracles.term_partitions import strong_partition, weak_partition

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
_RESOURCES = [EX.term(f"r{i}") for i in range(12)]
_PROPERTIES = [EX.term(f"p{i}") for i in range(5)]
_CLASSES = [EX.term(f"C{i}") for i in range(4)]
_LITERALS = [Literal(f"v{i}") for i in range(5)]

_data_triple = st.builds(
    Triple,
    st.sampled_from(_RESOURCES),
    st.sampled_from(_PROPERTIES),
    st.one_of(st.sampled_from(_RESOURCES), st.sampled_from(_LITERALS)),
)
_type_triple = st.builds(
    Triple,
    st.sampled_from(_RESOURCES),
    st.just(RDF_TYPE),
    st.sampled_from(_CLASSES),
)
_schema_triple = st.one_of(
    st.builds(Triple, st.sampled_from(_CLASSES), st.just(RDFS_SUBCLASSOF), st.sampled_from(_CLASSES)),
    st.builds(
        Triple, st.sampled_from(_PROPERTIES), st.just(RDFS_SUBPROPERTYOF), st.sampled_from(_PROPERTIES)
    ),
    st.builds(Triple, st.sampled_from(_PROPERTIES), st.just(RDFS_DOMAIN), st.sampled_from(_CLASSES)),
    st.builds(Triple, st.sampled_from(_PROPERTIES), st.just(RDFS_RANGE), st.sampled_from(_CLASSES)),
)


def graphs(with_schema: bool = True, min_data: int = 1, max_data: int = 25):
    """Strategy producing random well-formed RDF graphs."""
    schema = st.lists(_schema_triple, max_size=5) if with_schema else st.just([])
    return st.builds(
        lambda data, types, schema_triples: RDFGraph([*data, *types, *schema_triples]),
        st.lists(_data_triple, min_size=min_data, max_size=max_data),
        st.lists(_type_triple, max_size=10),
        schema,
    )


COMMON_SETTINGS = settings(max_examples=40, deadline=None)


# ----------------------------------------------------------------------
# clique and partition invariants
# ----------------------------------------------------------------------
@COMMON_SETTINGS
@given(graphs(with_schema=False))
def test_cliques_partition_data_properties(graph):
    cliques = compute_cliques(graph)
    assert cliques.is_partition_of(graph.data_properties())


@COMMON_SETTINGS
@given(graphs(with_schema=False))
def test_every_data_node_has_at_most_one_clique_pair(graph):
    cliques = compute_cliques(graph)
    for triple in graph.data_triples:
        assert triple.predicate in cliques.source_clique_of(triple.subject)
        assert triple.predicate in cliques.target_clique_of(triple.object)


@COMMON_SETTINGS
@given(graphs(with_schema=False))
def test_strong_equivalence_refines_weak(graph):
    weak = weak_partition(graph)
    strong = strong_partition(graph)
    for node in graph.data_nodes():
        # nodes of one strong block are all in the same weak block
        strong_members = strong.members(strong.key_of(node))
        weak_key = weak.key_of(node)
        assert all(weak.key_of(member) == weak_key for member in strong_members)


# ----------------------------------------------------------------------
# summary invariants (Propositions 2-4)
# ----------------------------------------------------------------------
@COMMON_SETTINGS
@given(graphs())
def test_weak_summary_unique_data_properties(graph):
    assert has_unique_data_properties(weak_summary(graph))


@COMMON_SETTINGS
@given(graphs())
def test_weak_summary_size_bounds(graph):
    summary = weak_summary(graph)
    distinct_properties = len(graph.data_properties())
    assert len(summary.graph.data_triples) == distinct_properties
    assert len(summary.summary_data_nodes()) <= 2 * distinct_properties + 1  # +1 for Nτ


@COMMON_SETTINGS
@given(graphs(), st.sampled_from(["weak", "strong", "typed_weak", "typed_strong"]))
def test_summary_is_homomorphic_image(graph, kind):
    assert summary_homomorphism_holds(graph, summarize(graph, kind))


@COMMON_SETTINGS
@given(graphs(), st.sampled_from(["weak", "strong"]))
def test_summary_fixpoint(graph, kind):
    assert check_fixpoint(summarize(graph, kind))


@COMMON_SETTINGS
@given(graphs())
def test_summary_never_larger_than_graph(graph):
    for kind in ("weak", "strong"):
        assert len(summarize(graph, kind).graph) <= len(graph)


# ----------------------------------------------------------------------
# the guard lemma: whatever the weak summary refutes, the strong one does
# ----------------------------------------------------------------------
_VARIABLES = [Variable(f"x{i}") for i in range(3)]
_rbgp_pattern = st.one_of(
    st.builds(
        TriplePattern,
        st.sampled_from(_VARIABLES),
        st.sampled_from(_PROPERTIES),
        st.sampled_from(_VARIABLES),
    ),
    st.builds(
        TriplePattern, st.sampled_from(_VARIABLES), st.just(RDF_TYPE), st.sampled_from(_CLASSES)
    ),
)
_rbgp_queries = st.lists(_rbgp_pattern, min_size=1, max_size=3).map(BGPQuery)


@settings(max_examples=60, deadline=None)
@given(graphs(), st.lists(_rbgp_queries, min_size=1, max_size=6), st.data())
def test_weak_refutation_implies_strong_refutation(graph, queries, data):
    """``H_strong → H_weak`` is a homomorphism fixing every class and
    property, so an RBGP query embedding in the strong summary (or its
    saturation) embeds in the weak one: the strong guard alone prunes
    whatever the old ``weak+strong`` cascade did — at registration and
    after an ingest, plain and saturated."""
    triples = sorted(graph, key=str)
    split = data.draw(st.integers(0, len(triples)), label="registered prefix")
    with GraphCatalog() as catalog:
        entry = catalog.register("g", graph=RDFGraph(triples[:split]))
        for ingest in (False, True):
            if ingest:
                catalog.add_triples("g", triples[split:])
            for saturated in (False, True):
                weak = entry.pruning_graph("weak", saturated=saturated)
                strong = entry.pruning_graph("strong", saturated=saturated)
                for query in queries:
                    assert query.is_rbgp()
                    assert has_answers(weak, query) or not has_answers(strong, query), (
                        query,
                        ingest,
                        saturated,
                    )


# ----------------------------------------------------------------------
# saturation and completeness invariants (Propositions 5 and 8)
# ----------------------------------------------------------------------
@COMMON_SETTINGS
@given(graphs())
def test_saturation_is_monotone_and_idempotent(graph):
    saturated = saturate(graph)
    assert set(graph) <= set(saturated)
    assert set(saturate(saturated)) == set(saturated)


@settings(max_examples=20, deadline=None)
@given(graphs())
def test_weak_completeness_shortcut(graph):
    assert completeness_holds(graph, "weak").equivalent


@settings(max_examples=20, deadline=None)
@given(graphs())
def test_strong_completeness_shortcut(graph):
    assert completeness_holds(graph, "strong").equivalent


# ----------------------------------------------------------------------
# serialization roundtrip
# ----------------------------------------------------------------------
@COMMON_SETTINGS
@given(graphs())
def test_ntriples_roundtrip(graph):
    assert set(parse_ntriples(serialize_ntriples(graph))) == set(graph)


_literal_text = st.text(
    alphabet=string.ascii_letters + string.digits + ' .,;:!?"\\\n\t-_()[]{}éüπ', max_size=40
)


@COMMON_SETTINGS
@given(_literal_text)
def test_literal_escaping_roundtrip(text):
    graph = RDFGraph([Triple(EX.s, EX.p, Literal(text))])
    parsed = parse_ntriples(serialize_ntriples(graph))
    assert set(parsed) == set(graph)


# ----------------------------------------------------------------------
# union-find invariants
# ----------------------------------------------------------------------
@COMMON_SETTINGS
@given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)), max_size=50))
def test_unionfind_groups_partition(pairs):
    union = UnionFind(range(21))
    for first, second in pairs:
        union.union(first, second)
    groups = union.groups()
    seen = set()
    for group in groups:
        assert not (seen & group)
        seen |= group
    assert seen == set(range(21))
    assert union.set_count == len(groups)
