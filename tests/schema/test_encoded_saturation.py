"""Delta-vs-full equivalence of the encoded incremental saturator.

The contract: however data / type / schema rows are interleaved into an
:class:`IncrementalSaturator`, the maintained target store must decode to
exactly ``saturate()`` of the final graph — including late-arriving schema
triples that retroactively derive from old data.
"""

from __future__ import annotations

import random

import pytest

from repro.model.graph import RDFGraph
from repro.model.namespaces import (
    EX,
    RDF_TYPE,
    RDFS_DOMAIN,
    RDFS_RANGE,
    RDFS_SUBCLASSOF,
    RDFS_SUBPROPERTYOF,
)
from repro.model.terms import Literal
from repro.model.triple import Triple, TripleKind
from repro.schema.encoded_saturation import IncrementalSaturator
from repro.schema.saturation import saturate
from repro.service.statistics import CardinalityStatistics
from repro.store.memory import MemoryStore


def _build_over(graph: RDFGraph) -> IncrementalSaturator:
    store = MemoryStore()
    store.load_graph(graph)
    saturator = IncrementalSaturator(store)
    saturator.build()
    return saturator


def _ingest_in_order(triples, batch_size=1) -> IncrementalSaturator:
    store = MemoryStore()
    saturator = IncrementalSaturator(store)
    triples = list(triples)
    for start in range(0, len(triples), batch_size):
        rows = store.insert_triples(triples[start : start + batch_size], skip_existing=True)
        saturator.ingest_rows(rows)
    return saturator


class TestFullBuildEquivalence:
    @pytest.mark.parametrize(
        "fixture", ["book_graph", "fig2", "bsbm_small", "lubm_small", "bibliography_small"]
    )
    def test_build_matches_saturate(self, fixture, request):
        graph = request.getfixturevalue(fixture)
        saturator = _build_over(graph)
        assert set(saturator.snapshot()) == set(saturate(graph))

    def test_literal_range_values_are_typed(self):
        # the generalized type triples with literal subjects must survive
        # the encoded path exactly as they do the Term path
        graph = RDFGraph(
            [
                Triple(EX.title, RDFS_RANGE, EX.Name),
                Triple(EX.doc, EX.title, Literal("Le Port des Brumes")),
            ]
        )
        saturator = _build_over(graph)
        expected = {t for t in saturate(graph) if isinstance(t.subject, Literal)}
        assert expected
        got = {t for t in saturator.snapshot() if isinstance(t.subject, Literal)}
        assert got == expected

    def test_subclass_cycle_reaches_fixpoint(self):
        graph = RDFGraph(
            [
                Triple(EX.A, RDFS_SUBCLASSOF, EX.B),
                Triple(EX.B, RDFS_SUBCLASSOF, EX.A),
                Triple(EX.x, RDF_TYPE, EX.A),
            ]
        )
        saturator = _build_over(graph)
        assert set(saturator.snapshot()) == set(saturate(graph))


class TestIncrementalEquivalence:
    def test_one_by_one_matches_batch(self, book_graph):
        saturator = _ingest_in_order(sorted(book_graph))
        assert set(saturator.snapshot()) == set(saturate(book_graph))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_random_interleavings_converge(self, lubm_small, seed):
        triples = sorted(lubm_small)
        expected = set(saturate(lubm_small))
        shuffled = list(triples)
        rng = random.Random(seed)
        rng.shuffle(shuffled)
        saturator = _ingest_in_order(shuffled, batch_size=rng.randint(1, 9))
        assert set(saturator.snapshot()) == expected

    @pytest.mark.parametrize("seed", range(8))
    def test_adversarial_special_schema_interleavings(self, seed):
        # mixes type-valued and constraint-valued superproperties, a
        # subclass chain, domains/ranges and explicit typings — every
        # shuffle must still match the batch saturation exactly
        triples = [
            Triple(EX.p, RDFS_SUBPROPERTYOF, RDF_TYPE),
            Triple(EX.q, RDFS_SUBPROPERTYOF, EX.p),
            Triple(EX.r, RDFS_DOMAIN, EX.C),
            Triple(EX.r, RDFS_RANGE, EX.D),
            Triple(EX.C, RDFS_SUBCLASSOF, EX.D),
            Triple(EX.D, RDFS_SUBCLASSOF, EX.E),
            Triple(EX.x, EX.p, EX.C),
            Triple(EX.x, EX.q, EX.D),
            Triple(EX.x, RDF_TYPE, EX.C),
            Triple(EX.y, EX.r, EX.x),
            Triple(EX.y, RDF_TYPE, EX.E),
            Triple(EX.z, EX.r, Literal("leaf")),
        ]
        rng = random.Random(seed)
        shuffled = list(triples)
        rng.shuffle(shuffled)
        saturator = _ingest_in_order(shuffled, batch_size=rng.randint(1, 5))
        assert set(saturator.snapshot()) == set(saturate(RDFGraph(triples)))

    def test_schema_last_retroactively_derives(self, book_graph):
        # every constraint arrives after every instance triple: the delta
        # path must re-derive from the old data exactly what the batch
        # saturation of the full graph contains
        triples = sorted(book_graph)
        instance = [t for t in triples if not t.is_schema()]
        schema = [t for t in triples if t.is_schema()]
        saturator = _ingest_in_order(instance + schema)
        assert set(saturator.snapshot()) == set(saturate(book_graph))

    def test_late_subproperty_of_subproperty(self):
        # p ≺sp q arrives long after the p-rows, then q ≺sp r even later:
        # the second delta must reach the old p-rows through q's closure
        data = [Triple(EX.term(f"s{i}"), EX.p, EX.term(f"o{i}")) for i in range(5)]
        first_schema = Triple(EX.p, RDFS_SUBPROPERTYOF, EX.q)
        second_schema = Triple(EX.q, RDFS_SUBPROPERTYOF, EX.r)
        domain_late = Triple(EX.r, RDFS_DOMAIN, EX.C)
        sequence = data + [first_schema, second_schema, domain_late]
        saturator = _ingest_in_order(sequence)
        final = RDFGraph(sequence)
        assert set(saturator.snapshot()) == set(saturate(final))
        # and concretely: old subjects got typed through the whole chain
        assert Triple(EX.term("s0"), RDF_TYPE, EX.C) in saturator.snapshot()

    def test_late_superclass_reaches_derived_typings(self):
        # x τ C was *derived* (via domain), then C ≺sc D arrives: the
        # re-derivation must retype x although no explicit type row exists
        sequence = [
            Triple(EX.p, RDFS_DOMAIN, EX.C),
            Triple(EX.x, EX.p, EX.y),
            Triple(EX.C, RDFS_SUBCLASSOF, EX.D),
        ]
        saturator = _ingest_in_order(sequence)
        assert Triple(EX.x, RDF_TYPE, EX.D) in saturator.snapshot()
        assert set(saturator.snapshot()) == set(saturate(RDFGraph(sequence)))

    def test_type_valued_superproperty_routes_to_the_type_table(self):
        # p ≺sp rdf:type: the rdfs7 copy (x, τ, C) is a *type* row and must
        # land in the type table, or saturated type queries will miss it
        sequence = [
            Triple(EX.p, RDFS_SUBPROPERTYOF, RDF_TYPE),
            Triple(EX.x, EX.p, EX.C),
        ]
        for ordering in (sequence, list(reversed(sequence))):
            saturator = _ingest_in_order(ordering)
            assert set(saturator.snapshot()) == set(saturate(RDFGraph(ordering)))
            derived = list(
                saturator.target.select(TripleKind.TYPE, None, None, None)
            )
            assert len(derived) == 1  # (x, rdf:type, C) in the TYPE table

        # end-to-end: the saturated service path must answer the type query
        from repro.queries.parser import parse_query
        from repro.service.catalog import GraphCatalog
        from repro.service.service import QueryService

        query = parse_query(
            "SELECT ?s WHERE { ?s <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
            "<http://example.org/C> . }"
        )
        with GraphCatalog() as catalog:
            catalog.register("g", graph=RDFGraph(sequence, name="g"))
            # prune=False: a type-valued superproperty makes the graph
            # ill-behaved in the paper's sense, so the summary guard is
            # not sound here — the routing fix under test lives in the
            # saturated evaluator behind it
            answer = QueryService(catalog, prune=False).answer("g", query, saturated=True)
            assert answer.answers == {(EX.x,)}

    def test_explicit_type_row_behind_a_type_valued_copy_still_derives(self):
        # (x, τ, C) is first materialized as the rdfs7 copy of (x, p, C)
        # with p ≺sp τ — which, matching the batch semantics, gets no
        # rdfs9 pass.  The *explicit* (x, τ, C) arriving afterwards must
        # still derive its superclass typings despite the dedup skip.
        sequence = [
            Triple(EX.p, RDFS_SUBPROPERTYOF, RDF_TYPE),
            Triple(EX.C, RDFS_SUBCLASSOF, EX.D),
            Triple(EX.x, EX.p, EX.C),
            Triple(EX.x, RDF_TYPE, EX.C),
        ]
        expected = set(saturate(RDFGraph(sequence)))
        assert Triple(EX.x, RDF_TYPE, EX.D) in expected
        for batch_size in (1, 2, 4):
            saturator = _ingest_in_order(sequence, batch_size=batch_size)
            assert set(saturator.snapshot()) == expected
        assert set(_build_over(RDFGraph(sequence)).snapshot()) == expected

    def test_constraint_valued_superproperty_routes_to_the_schema_table(self):
        # p ≺sp rdfs:domain: the copy (x, ←d, y) is a schema row in the
        # batch saturation's result — table placement must match
        sequence = [
            Triple(EX.q, RDFS_DOMAIN, EX.D),  # makes rdfs:domain's id known
            Triple(EX.p, RDFS_SUBPROPERTYOF, RDFS_DOMAIN),
            Triple(EX.x, EX.p, EX.y),
        ]
        saturator = _ingest_in_order(sequence)
        assert set(saturator.snapshot()) == set(saturate(RDFGraph(sequence)))
        schema_rows = set(saturator.target.select(TripleKind.SCHEMA, None, None, None))
        decoded = {saturator.target.decode_triple(row) for row in schema_rows}
        assert Triple(EX.x, RDFS_DOMAIN, EX.y) in decoded

    def test_range_types_late_literals(self):
        sequence = [
            Triple(EX.s, EX.p, Literal("leaf")),
            Triple(EX.p, RDFS_RANGE, EX.Leaf),
        ]
        saturator = _ingest_in_order(sequence)
        assert Triple(Literal("leaf"), RDF_TYPE, EX.Leaf) in saturator.snapshot()

    def test_ingest_returns_exactly_the_target_delta(self, book_graph):
        store = MemoryStore()
        saturator = IncrementalSaturator(store)
        statistics = CardinalityStatistics.from_store(saturator.target)
        for triple in sorted(book_graph):
            rows = store.insert_triples([triple], skip_existing=True)
            statistics.ingest_rows(saturator.ingest_rows(rows))
        # folding every returned delta into a profile reproduces a full
        # scan of the target — the catalog's in-place maintenance contract
        assert statistics == CardinalityStatistics.from_store(saturator.target)


class TestDerivedCount:
    """``derived_count()`` is the size of ``G∞`` minus ``G``: the target holds
    every base row once, so it equals the set difference of the two graphs."""

    @staticmethod
    def _difference(saturator):
        return len(set(saturator.snapshot()) - set(saturator.store.to_graph()))

    def test_after_a_build(self, lubm_small):
        saturator = _build_over(lubm_small)
        assert saturator.derived_count() == self._difference(saturator) > 0

    def test_after_a_schema_row_batch(self):
        store = MemoryStore()
        saturator = IncrementalSaturator(store)
        batches = [
            [Triple(EX.a, EX.p, EX.b), Triple(EX.c, EX.p, EX.d), Triple(EX.a, RDF_TYPE, EX.C)],
            # schema rows only: closure rows plus retroactive derivations
            [Triple(EX.p, RDFS_DOMAIN, EX.C), Triple(EX.C, RDFS_SUBCLASSOF, EX.D)],
            # a base row that was derived before: no longer counted as derived
            [Triple(EX.c, RDF_TYPE, EX.C)],
        ]
        for batch in batches:
            saturator.ingest_rows(store.insert_triples(batch, skip_existing=True))
            assert saturator.derived_count() == self._difference(saturator)
        assert saturator.derived_count() == 3  # a τ D, c τ D and the closure row p ←d D
