"""Tests for the store-driven incremental weak summarizer (Algorithms 1-3)."""

import pytest

from repro.core.builders import weak_summary
from repro.core.incremental import IncrementalWeakSummarizer, incremental_weak_summary
from repro.core.isomorphism import graphs_isomorphic
from repro.core.properties import has_unique_data_properties
from repro.store.memory import MemoryStore
from repro.store.sqlite import SQLiteStore


def _store_with(graph, backend):
    store = backend()
    store.load_graph(graph)
    return store


@pytest.fixture(params=[MemoryStore, SQLiteStore], ids=["memory", "sqlite"])
def backend(request):
    return request.param


class TestEquivalenceWithQuotientConstruction:
    def test_fig2(self, fig2, backend):
        with _store_with(fig2, backend) as store:
            incremental = incremental_weak_summary(store)
        declarative = weak_summary(fig2)
        assert graphs_isomorphic(incremental.graph, declarative.graph)

    def test_bsbm(self, bsbm_small, backend):
        with _store_with(bsbm_small, backend) as store:
            incremental = incremental_weak_summary(store)
        declarative = weak_summary(bsbm_small)
        assert len(incremental.graph) == len(declarative.graph)
        assert graphs_isomorphic(incremental.graph, declarative.graph)

    def test_bibliography(self, bibliography_small, backend):
        with _store_with(bibliography_small, backend) as store:
            incremental = incremental_weak_summary(store)
        declarative = weak_summary(bibliography_small)
        assert graphs_isomorphic(incremental.graph, declarative.graph)

    def test_book_graph_schema_copied(self, book_graph, backend):
        with _store_with(book_graph, backend) as store:
            incremental = incremental_weak_summary(store)
        assert incremental.graph.schema_triples == book_graph.schema_triples


class TestAlgorithmInvariants:
    def test_unique_data_properties(self, bsbm_small):
        with _store_with(bsbm_small, MemoryStore) as store:
            summary = incremental_weak_summary(store)
        assert has_unique_data_properties(summary)

    def test_every_data_node_represented(self, fig2):
        with _store_with(fig2, MemoryStore) as store:
            summary = incremental_weak_summary(store)
        for node in fig2.data_nodes():
            assert summary.representative(node) is not None

    def test_typed_only_resources_share_one_node(self, fig2):
        from repro.datasets.sample import FIG2

        with _store_with(fig2, MemoryStore) as store:
            summary = incremental_weak_summary(store)
        ntau = summary.representative(FIG2.r6)
        assert summary.graph.types_of(ntau) == {FIG2.Spec}

    def test_merge_keeps_node_with_more_edges(self):
        # white-box check of MERGEDATANODES' union-by-size behaviour
        summarizer = IncrementalWeakSummarizer(MemoryStore())
        big = summarizer._create_data_node(resource=1)
        small = summarizer._create_data_node(resource=2)
        summarizer.src_dps[big] = {10, 11}
        summarizer.dp_src[10] = big
        summarizer.dp_src[11] = big
        summarizer.dtp[10] = (big, 10, small)
        summarizer.dtp[11] = (big, 11, small)
        summarizer.targ_dps[small] = {10, 11}
        summarizer.dp_targ[10] = small
        summarizer.dp_targ[11] = small
        kept = summarizer._merge_data_nodes(big, small)
        assert kept == big
        # no member is relabelled: resource 2 follows the union-find link
        assert summarizer._node_of(2) == big

    def test_idempotent_on_empty_store(self):
        with MemoryStore() as store:
            summary = incremental_weak_summary(store)
        assert len(summary.graph) == 0


class TestOnlineIngestion:
    """ingest_data / ingest_type in arbitrary arrival order + snapshot."""

    def _ingest_shuffled(self, graph, seed):
        import random

        store = MemoryStore()
        rows = store.insert_triples(sorted(graph))
        random.Random(seed).shuffle(rows)
        summarizer = IncrementalWeakSummarizer(store)
        summarizer.ingest_rows(rows)
        return summarizer

    def test_snapshot_matches_batch_build_any_order(self, fig2):
        declarative = weak_summary(fig2)
        for seed in (0, 5, 9):
            summarizer = self._ingest_shuffled(fig2, seed)
            assert graphs_isomorphic(summarizer.snapshot().graph, declarative.graph)

    def test_types_before_data_promotes_resources(self, fig2):
        # feed every type row first, then the data rows: resources first
        # parked in the typed-only buffer must end on proper data nodes
        store = MemoryStore()
        rows = store.insert_triples(sorted(fig2))
        types_first = [r for r in rows if r[0].name == "TYPE"] + [
            r for r in rows if r[0].name != "TYPE"
        ]
        summarizer = IncrementalWeakSummarizer(store)
        summarizer.ingest_rows(types_first)
        declarative = weak_summary(fig2)
        assert graphs_isomorphic(summarizer.snapshot().graph, declarative.graph)

    def test_snapshot_does_not_mutate_state(self, bibliography_small):
        store = MemoryStore()
        rows = store.insert_triples(sorted(bibliography_small))
        summarizer = IncrementalWeakSummarizer(store)
        half = len(rows) // 2
        summarizer.ingest_rows(rows[:half])
        first = summarizer.snapshot()
        assert graphs_isomorphic(summarizer.snapshot().graph, first.graph)
        summarizer.ingest_rows(rows[half:])
        declarative = weak_summary(bibliography_small)
        assert graphs_isomorphic(summarizer.snapshot().graph, declarative.graph)
