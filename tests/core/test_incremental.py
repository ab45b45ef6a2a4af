"""The store-driven summary maintainer against the quotient construction:
the weak summary read off :class:`CliqueSummarizer` (Section 6)."""

import random

import pytest

from repro.core.builders import weak_summary
from repro.core.incremental import CliqueSummarizer
from repro.core.isomorphism import graphs_isomorphic
from repro.core.properties import has_unique_data_properties
from repro.store.memory import MemoryStore
from repro.store.sqlite import SQLiteStore


def _store_with(graph, backend):
    store = backend()
    store.load_graph(graph)
    return store


def _weak(store):
    maintainer = CliqueSummarizer(store)
    maintainer.prime()
    return maintainer.snapshot(kind="weak")


@pytest.fixture(params=[MemoryStore, SQLiteStore], ids=["memory", "sqlite"])
def backend(request):
    return request.param


class TestEquivalenceWithQuotientConstruction:
    def test_fig2(self, fig2, backend):
        with _store_with(fig2, backend) as store:
            incremental = _weak(store)
        declarative = weak_summary(fig2)
        assert graphs_isomorphic(incremental.graph, declarative.graph)

    def test_bsbm(self, bsbm_small, backend):
        with _store_with(bsbm_small, backend) as store:
            incremental = _weak(store)
        declarative = weak_summary(bsbm_small)
        assert len(incremental.graph) == len(declarative.graph)
        assert graphs_isomorphic(incremental.graph, declarative.graph)

    def test_bibliography(self, bibliography_small, backend):
        with _store_with(bibliography_small, backend) as store:
            incremental = _weak(store)
        declarative = weak_summary(bibliography_small)
        assert graphs_isomorphic(incremental.graph, declarative.graph)

    def test_book_graph_schema_copied(self, book_graph, backend):
        with _store_with(book_graph, backend) as store:
            incremental = _weak(store)
        assert incremental.graph.schema_triples == book_graph.schema_triples


class TestAlgorithmInvariants:
    def test_unique_data_properties(self, bsbm_small):
        with _store_with(bsbm_small, MemoryStore) as store:
            summary = _weak(store)
        assert has_unique_data_properties(summary)

    def test_every_data_node_represented(self, fig2):
        with _store_with(fig2, MemoryStore) as store:
            summary = _weak(store)
        for node in fig2.data_nodes():
            assert summary.representative(node) is not None

    def test_typed_only_resources_share_one_node(self, fig2):
        from repro.datasets.sample import FIG2

        with _store_with(fig2, MemoryStore) as store:
            summary = _weak(store)
        ntau = summary.representative(FIG2.r6)
        assert summary.graph.types_of(ntau) == {FIG2.Spec}

    def test_idempotent_on_empty_store(self):
        with MemoryStore() as store:
            summary = _weak(store)
        assert len(summary.graph) == 0


class TestOnlineIngestion:
    """``ingest_rows`` in arbitrary arrival order + ``snapshot``."""

    def _ingest_shuffled(self, graph, seed):
        store = MemoryStore()
        rows = store.insert_triples(sorted(graph))
        random.Random(seed).shuffle(rows)
        summarizer = CliqueSummarizer(store)
        summarizer.ingest_rows(rows)
        return summarizer

    def test_snapshot_matches_batch_build_any_order(self, fig2):
        declarative = weak_summary(fig2)
        for seed in (0, 5, 9):
            summarizer = self._ingest_shuffled(fig2, seed)
            assert graphs_isomorphic(summarizer.snapshot(kind="weak").graph, declarative.graph)

    def test_types_before_data_promotes_resources(self, fig2):
        # every type row is stored and fed first, the data rows in a later
        # batch: resources that start out typed-only (sharing Nτ) must end
        # on proper data nodes, their type edges re-keyed along
        store = MemoryStore()
        summarizer = CliqueSummarizer(store)
        ordered = sorted(fig2)
        for batch in (
            [t for t in ordered if t.is_type()],
            [t for t in ordered if not t.is_type()],
        ):
            summarizer.ingest_rows(store.insert_triples(batch, skip_existing=True))
        declarative = weak_summary(fig2)
        assert graphs_isomorphic(summarizer.snapshot(kind="weak").graph, declarative.graph)

    def test_snapshot_does_not_mutate_state(self, bibliography_small):
        store = MemoryStore()
        summarizer = CliqueSummarizer(store)
        ordered = sorted(bibliography_small)
        half = len(ordered) // 2
        summarizer.ingest_rows(store.insert_triples(ordered[:half], skip_existing=True))
        first = summarizer.snapshot(kind="weak")
        assert set(summarizer.snapshot(kind="weak").graph) == set(first.graph)
        summarizer.ingest_rows(store.insert_triples(ordered[half:], skip_existing=True))
        declarative = weak_summary(bibliography_small)
        assert graphs_isomorphic(summarizer.snapshot(kind="weak").graph, declarative.graph)
