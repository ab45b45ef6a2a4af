"""Adversarial insertion-order tests for the summarization pipelines.

Summaries are quotients, so they must not depend on the order triples are
fed in.  The incremental weak summarizer merges nodes greedily as rows
arrive (its internal node ids *do* depend on the order), and the encoded
engine scans store rows in insertion order — both must still land on graphs
isomorphic to the declarative ``Term``-level oracle for every shuffle,
and the incremental merge tie-break must be deterministic.
"""

from __future__ import annotations

import random
from array import array

import pytest

from repro.core.encoded import encoded_summarize
from repro.core.incremental import IncrementalWeakSummarizer, incremental_weak_summary
from repro.core.isomorphism import canonical_signature, graphs_isomorphic
from repro.model.graph import RDFGraph
from repro.model.namespaces import EX, RDF_TYPE
from repro.model.terms import Literal
from repro.core.naming import SummaryNamer
from repro.model.triple import Triple, TripleKind
from repro.store.memory import MemoryStore

from oracles.term_partitions import term_summary

#: A graph engineered to trigger MERGEDATANODES both ways: property chains
#: discovered before and after their connecting resources, plus ties where
#: candidate nodes have equal edge counts.
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


class TestIncrementalOrderRobustness:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_adversarial_graph_any_order(self, seed):
        reference = term_summary(RDFGraph(_ADVERSARIAL_TRIPLES), "weak")
        for shuffled in _shuffles(_ADVERSARIAL_TRIPLES, count=6, seed=seed):
            with _store_in_order(shuffled) as store:
                incremental = incremental_weak_summary(store)
            assert graphs_isomorphic(incremental.graph, reference.graph)

    def test_bsbm_shuffled(self, bsbm_small):
        reference = term_summary(bsbm_small, "weak")
        for shuffled in _shuffles(list(bsbm_small), count=3):
            with _store_in_order(shuffled) as store:
                incremental = incremental_weak_summary(store)
            assert graphs_isomorphic(incremental.graph, reference.graph)

    def test_merge_tie_break_is_deterministic(self):
        """Equal-edge-count merges keep the older node in every order."""
        signatures = set()
        for shuffled in _shuffles(_ADVERSARIAL_TRIPLES, count=8, seed=99):
            with _store_in_order(shuffled) as store:
                incremental = incremental_weak_summary(store)
            signatures.add(canonical_signature(incremental.graph))
        assert len(signatures) == 1


def _dict_and_sets_representatives(rows):
    """The maintainer's pre-array bookkeeping, kept as the naming oracle:
    ``rd`` a dict, ``dr`` member sets, and a merge that relabels every member
    of the dropped node.  Returns ``{resource: summary node id}``."""
    rd, dr, dp_src, dp_targ, src_dps, targ_dps = {}, {}, {}, {}, {}, {}

    def merge(first, second):
        first_edges = len(src_dps.get(first, ())) + len(targ_dps.get(first, ()))
        second_edges = len(src_dps.get(second, ())) + len(targ_dps.get(second, ()))
        if first_edges != second_edges:
            keep, drop = (first, second) if first_edges > second_edges else (second, first)
        else:
            keep, drop = (first, second) if first < second else (second, first)
        for resource in dr.pop(drop):
            rd[resource] = keep
            dr[keep].add(resource)
        for prop in src_dps.pop(drop, ()):
            dp_src[prop] = keep
            src_dps.setdefault(keep, set()).add(prop)
        for prop in targ_dps.pop(drop, ()):
            dp_targ[prop] = keep
            targ_dps.setdefault(keep, set()).add(prop)
        return keep

    def endpoint(resource, of_property):
        node = rd.get(resource)
        if node is None:
            if of_property is None:
                node = len(rd_minted)
                rd_minted.append(node)
                dr[node] = set()
            else:
                node = of_property
            rd[resource] = node
            dr[node].add(resource)
            return node
        if of_property is None or of_property == node:
            return node
        return merge(node, of_property)

    rd_minted = []
    for kind, (subject, prop, obj) in rows:
        if kind is not TripleKind.DATA:
            continue
        endpoint(subject, dp_src.get(prop))
        endpoint(obj, dp_targ.get(prop))
        source = endpoint(subject, dp_src.get(prop))
        target = endpoint(obj, dp_targ.get(prop))
        if prop not in dp_src:
            dp_src[prop], dp_targ[prop] = source, target
            src_dps.setdefault(source, set()).add(prop)
            targ_dps.setdefault(target, set()).add(prop)
    return rd


class TestArrayMaintainerKeepsTheOldNames:
    """The array / union-find maintainer picks the same surviving node in
    every merge as the dict-and-sets maps did, so summary node names (minted
    from node ids) and the summary graph are unchanged."""

    @staticmethod
    def _both(triples):
        store = MemoryStore()
        rows = store.insert_triples(list(triples))
        summarizer = IncrementalWeakSummarizer(store)
        summarizer.ingest_rows(rows)
        return store, rows, summarizer

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 99])
    def test_adversarial_graph_any_order(self, seed):
        for shuffled in _shuffles(_ADVERSARIAL_TRIPLES, count=6, seed=seed):
            store, rows, summarizer = self._both(shuffled)
            expected = _dict_and_sets_representatives(rows)
            assert {r: summarizer._node_of(r) for r in expected} == expected
            namer = SummaryNamer()
            summary = summarizer.snapshot()
            for resource, node in expected.items():
                assert summary.representative(store.decode_term(resource)) == namer.for_key(
                    ("incremental", node), hint="N"
                )
            assert graphs_isomorphic(
                summary.graph, term_summary(RDFGraph(_ADVERSARIAL_TRIPLES), "weak").graph
            )
            store.close()

    def test_bsbm_shuffled(self, bsbm_small):
        reference = term_summary(bsbm_small, "weak")
        for shuffled in _shuffles(list(bsbm_small), count=3):
            store, rows, summarizer = self._both(shuffled)
            expected = _dict_and_sets_representatives(rows)
            assert {r: summarizer._node_of(r) for r in expected} == expected
            assert graphs_isomorphic(summarizer.snapshot().graph, reference.graph)
            store.close()

    def test_state_is_arrays_and_summary_sized_maps(self, bsbm_small):
        store, _rows, summarizer = self._both(bsbm_small)
        state = summarizer.state_dict()
        assert "dr" not in state
        assert isinstance(state["rd"], array) and isinstance(state["parent"], array)
        assert len(state["rd"]) <= len(store.dictionary)
        # every dict is keyed by property or by summary node, never by resource
        properties = set(store.distinct_properties(TripleKind.DATA))
        nodes = set(range(len(state["parent"])))
        for name in ("dp_src", "dp_targ", "dtp"):
            assert set(state[name]) <= properties
        for name in ("src_dps", "targ_dps", "dcls"):
            assert set(state[name]) <= nodes
        store.close()


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
