"""Adversarial insertion-order tests for the summarization pipelines.

Summaries are quotients, so they must not depend on the order triples are
fed in.  The summary maintainer signs nodes and unions cliques as batches
arrive (its signature codes and clique roots *do* depend on the order), and
the encoded engine scans store rows in insertion order — both must still
land on graphs isomorphic to the declarative ``Term``-level oracle for every
shuffle.
"""

from __future__ import annotations

import random

import pytest

from repro.core.encoded import encoded_summarize
from repro.core.incremental import CliqueSummarizer
from repro.core.isomorphism import canonical_signature, graphs_isomorphic
from repro.model.graph import RDFGraph
from repro.model.namespaces import EX, RDF_TYPE
from repro.model.terms import Literal
from repro.model.triple import Triple
from repro.store.memory import MemoryStore

from oracles.term_partitions import term_summary

#: A graph engineered to make weak nodes coincide late, both ways: property
#: chains discovered before and after their connecting resources, plus
#: resources that are typed before (or without ever) carrying a property.
_ADVERSARIAL_TRIPLES = [
    Triple(EX.term("r1"), EX.term("p1"), EX.term("v1")),
    Triple(EX.term("r1"), EX.term("p2"), EX.term("v2")),
    Triple(EX.term("r2"), EX.term("p2"), EX.term("v3")),
    Triple(EX.term("r2"), EX.term("p3"), EX.term("v4")),
    Triple(EX.term("r3"), EX.term("p3"), Literal("leaf")),
    Triple(EX.term("v1"), EX.term("p4"), EX.term("v4")),
    Triple(EX.term("r4"), EX.term("p5"), EX.term("r1")),
    Triple(EX.term("r5"), EX.term("p5"), EX.term("r2")),
    Triple(EX.term("r1"), RDF_TYPE, EX.term("C1")),
    Triple(EX.term("r6"), RDF_TYPE, EX.term("C1")),
    Triple(EX.term("r6"), RDF_TYPE, EX.term("C2")),
]


def _store_in_order(triples):
    store = MemoryStore()
    store.load_triples(list(triples))
    return store


def _shuffles(triples, count, seed=13):
    rng = random.Random(seed)
    for _ in range(count):
        shuffled = list(triples)
        rng.shuffle(shuffled)
        yield shuffled


def _fed_in_batches(triples, kind, batch=3):
    """The *kind* summary of a maintainer fed *triples* a few rows at a time,
    in the order given (each batch stored first, as an ingest does)."""
    with MemoryStore() as store:
        maintainer = CliqueSummarizer(store)
        for start in range(0, len(triples), batch):
            fresh = store.insert_triples(triples[start : start + batch], skip_existing=True)
            maintainer.ingest_rows(fresh)
        return maintainer.snapshot(kind=kind)


@pytest.mark.parametrize("kind", ["weak", "strong"])
class TestIncrementalOrderRobustness:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_adversarial_graph_any_order(self, kind, seed):
        reference = term_summary(RDFGraph(_ADVERSARIAL_TRIPLES), kind)
        for shuffled in _shuffles(_ADVERSARIAL_TRIPLES, count=6, seed=seed):
            incremental = _fed_in_batches(shuffled, kind)
            assert graphs_isomorphic(incremental.graph, reference.graph)

    def test_bsbm_shuffled(self, kind, bsbm_small):
        reference = term_summary(bsbm_small, kind)
        for shuffled in _shuffles(list(bsbm_small), count=3):
            incremental = _fed_in_batches(shuffled, kind, batch=50)
            assert graphs_isomorphic(incremental.graph, reference.graph)

    def test_one_summary_in_every_order(self, kind):
        signatures = set()
        for shuffled in _shuffles(_ADVERSARIAL_TRIPLES, count=8, seed=99):
            signatures.add(canonical_signature(_fed_in_batches(shuffled, kind).graph))
        assert len(signatures) == 1


class TestEncodedOrderRobustness:
    @pytest.mark.parametrize("kind", ["weak", "strong", "type", "typed_weak", "typed_strong"])
    def test_adversarial_graph_any_order(self, kind):
        reference = term_summary(RDFGraph(_ADVERSARIAL_TRIPLES), kind)
        for shuffled in _shuffles(_ADVERSARIAL_TRIPLES, count=5, seed=7):
            with _store_in_order(shuffled) as store:
                encoded = encoded_summarize(store, kind)
            assert graphs_isomorphic(encoded.graph, reference.graph)

    def test_encoded_signature_is_order_invariant(self, bsbm_small):
        """Min-id union-find roots make the block structure reproducible."""
        signatures = set()
        for shuffled in _shuffles(list(bsbm_small), count=3, seed=5):
            with _store_in_order(shuffled) as store:
                encoded = encoded_summarize(store, "weak")
            signatures.add(canonical_signature(encoded.graph))
        assert len(signatures) == 1
