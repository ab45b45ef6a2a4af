"""Tests for the integer-encoded summarization engine (`repro.core.encoded`).

The engine must be observationally equivalent to the ``Term``-level
oracle (``tests/oracles/term_partitions.py``): for every summary kind and
every store backend the two produce isomorphic summary graphs, the same size statistics and a complete
``representative_of`` / ``extents`` provenance.
"""

from __future__ import annotations

import pytest

from repro.core.builders import SUMMARY_KINDS, summarize
from repro.core.encoded import EncodedSummaryEngine, encoded_summarize
from repro.core.isomorphism import graphs_isomorphic
from repro.core.properties import has_unique_data_properties, summary_homomorphism_holds
from repro.errors import UnknownSummaryKindError
from repro.model.graph import RDFGraph
from repro.model.namespaces import EX, RDF_TYPE
from repro.model.terms import Literal
from repro.model.triple import Triple, TripleKind
from repro.store.memory import MemoryStore
from repro.store.sqlite import SQLiteStore

from oracles.term_partitions import term_summary

ALL_KINDS = sorted(SUMMARY_KINDS)


@pytest.fixture(params=[MemoryStore, SQLiteStore], ids=["memory", "sqlite"])
def backend(request):
    return request.param


def _loaded(graph, backend):
    store = backend()
    store.load_graph(graph)
    return store


# ----------------------------------------------------------------------
# encoded vs Term-oracle isomorphism, all kinds, both backends
# ----------------------------------------------------------------------
class TestEncodedMatchesLegacy:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_fig2(self, fig2, backend, kind):
        with _loaded(fig2, backend) as store:
            encoded = encoded_summarize(store, kind)
        legacy = term_summary(fig2, kind)
        assert graphs_isomorphic(encoded.graph, legacy.graph)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_bsbm(self, bsbm_small, backend, kind):
        with _loaded(bsbm_small, backend) as store:
            encoded = encoded_summarize(store, kind)
        legacy = term_summary(bsbm_small, kind)
        assert len(encoded.graph) == len(legacy.graph)
        assert graphs_isomorphic(encoded.graph, legacy.graph)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_bibliography(self, bibliography_small, kind):
        with _loaded(bibliography_small, MemoryStore) as store:
            encoded = encoded_summarize(store, kind)
        legacy = term_summary(bibliography_small, kind)
        assert graphs_isomorphic(encoded.graph, legacy.graph)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_random_graph(self, random_graph, kind):
        legacy = term_summary(random_graph, kind)
        encoded = summarize(random_graph, kind)
        assert graphs_isomorphic(encoded.graph, legacy.graph)

    def test_schema_triples_copied_verbatim(self, book_graph, backend):
        with _loaded(book_graph, backend) as store:
            encoded = encoded_summarize(store, "weak")
        assert encoded.graph.schema_triples == book_graph.schema_triples


# ----------------------------------------------------------------------
# provenance and statistics
# ----------------------------------------------------------------------
class TestProvenance:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_summary_is_homomorphic_image(self, fig2, kind):
        encoded = summarize(fig2, kind)
        assert summary_homomorphism_holds(fig2, encoded)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_every_data_node_represented(self, bsbm_small, kind):
        encoded = summarize(bsbm_small, kind)
        for node in bsbm_small.data_nodes():
            assert encoded.representative(node) is not None

    def test_extents_invert_representatives(self, fig2):
        encoded = summarize(fig2, "weak")
        for node, summary_node in encoded.representative_of.items():
            assert node in encoded.extent(summary_node)

    def test_statistics_match_legacy(self, bsbm_small):
        for kind in ALL_KINDS:
            encoded = summarize(bsbm_small, kind).statistics()
            legacy = term_summary(bsbm_small, kind).statistics()
            assert encoded.as_dict() == legacy.as_dict()

    def test_weak_unique_data_properties(self, bsbm_small):
        assert has_unique_data_properties(summarize(bsbm_small, "weak"))


# ----------------------------------------------------------------------
# the engine facade
# ----------------------------------------------------------------------
class TestEngineSelection:
    def test_summarize_is_encoded_and_isomorphic(self, fig2):
        default = summarize(fig2, "weak")
        assert graphs_isomorphic(default.graph, term_summary(fig2, "weak").graph)

    def test_engine_parameter_is_gone(self, fig2):
        """There is one engine: naming one — any one — is a TypeError."""
        with pytest.raises(TypeError):
            summarize(fig2, "weak", engine="term")

    def test_unknown_kind_raises_on_engine(self):
        with MemoryStore() as store:
            with pytest.raises(UnknownSummaryKindError):
                EncodedSummaryEngine(store).summarize("bogus")

    def test_empty_graph(self):
        summary = summarize(RDFGraph(), "weak")
        assert len(summary.graph) == 0
        assert summary.summary_data_nodes() == set()

    def test_empty_store(self, backend):
        with backend() as store:
            summary = encoded_summarize(store, "strong")
        assert len(summary.graph) == 0


# ----------------------------------------------------------------------
# edge cases the Term pipeline handles implicitly
# ----------------------------------------------------------------------
class TestEdgeCases:
    def test_typed_only_resources_share_ntau(self, backend):
        graph = RDFGraph(
            [
                Triple(EX.term("a"), RDF_TYPE, EX.term("C")),
                Triple(EX.term("b"), RDF_TYPE, EX.term("C")),
                Triple(EX.term("c"), RDF_TYPE, EX.term("D")),
            ]
        )
        with _loaded(graph, backend) as store:
            encoded = encoded_summarize(store, "weak")
        representatives = {encoded.representative(node) for node in graph.data_nodes()}
        assert len(representatives) == 1
        assert "Ntau" in next(iter(representatives)).value

    def test_equal_literals_share_a_node(self, backend):
        graph = RDFGraph(
            [
                Triple(EX.term("a"), EX.term("p"), Literal("v")),
                Triple(EX.term("b"), EX.term("p"), Literal("v")),
            ]
        )
        with _loaded(graph, backend) as store:
            encoded = encoded_summarize(store, "weak")
        legacy = term_summary(graph, "weak")
        assert graphs_isomorphic(encoded.graph, legacy.graph)
        assert len(encoded.graph.data_triples) == 1

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_mixed_typed_untyped_chains(self, kind, backend):
        graph = RDFGraph(
            [
                Triple(EX.term("a"), EX.term("p"), EX.term("b")),
                Triple(EX.term("b"), EX.term("q"), EX.term("c")),
                Triple(EX.term("c"), EX.term("r"), Literal("leaf")),
                Triple(EX.term("b"), RDF_TYPE, EX.term("C")),
                Triple(EX.term("d"), RDF_TYPE, EX.term("C")),
            ]
        )
        with _loaded(graph, backend) as store:
            encoded = encoded_summarize(store, kind)
        legacy = term_summary(graph, kind)
        assert graphs_isomorphic(encoded.graph, legacy.graph)


# ----------------------------------------------------------------------
# batched scans and index pass
# ----------------------------------------------------------------------
class TestStoreSupport:
    def test_scan_batches_cover_scan(self, bsbm_small, backend):
        with _loaded(bsbm_small, backend) as store:
            row_wise = [tuple(row) for row in store.scan_data()]
            batched = [
                tuple(row)
                for batch in store.scan_batches(TripleKind.DATA, batch_size=17)
                for row in batch
            ]
        assert batched == row_wise

    def test_scan_batches_rejects_bad_batch_size(self, backend):
        with backend() as store:
            with pytest.raises(Exception):
                list(store.scan_batches(TripleKind.DATA, batch_size=0))

    def test_small_batch_size_same_summary(self, fig2):
        with _loaded(fig2, MemoryStore) as store:
            tiny = encoded_summarize(store, "weak", batch_size=1)
        with _loaded(fig2, MemoryStore) as store:
            large = encoded_summarize(store, "weak", batch_size=100_000)
        assert graphs_isomorphic(tiny.graph, large.graph)

    def test_sqlite_index_pass_is_idempotent(self, fig2):
        with _loaded(fig2, SQLiteStore) as store:
            store.ensure_summarization_indexes()
            store.ensure_summarization_indexes()
            names = {
                row[0]
                for row in store._conn().execute(
                    "SELECT name FROM sqlite_master WHERE type = 'index'"
                )
            }
            assert {"idx_data_spo", "idx_data_ps"} <= names
            summary = encoded_summarize(store, "weak")
        assert graphs_isomorphic(summary.graph, term_summary(fig2, "weak").graph)
