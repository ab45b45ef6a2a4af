"""Tests for the representation functions (naming) and the quotient builder."""

from repro.core.equivalence import NodePartition
from repro.core.naming import SUMMARY_NS, SummaryNamer
from repro.core.quotient import build_quotient_summary, default_block_namer
from repro.model.graph import RDFGraph
from repro.model.namespaces import EX, RDF_TYPE
from repro.model.terms import URI
from repro.model.triple import Triple

from oracles.term_partitions import weak_partition


class TestSummaryNamer:
    def test_representation_is_injective_and_stable(self):
        namer = SummaryNamer()
        first = namer.representation(frozenset({EX.a}), frozenset({EX.b}))
        again = namer.representation(frozenset({EX.a}), frozenset({EX.b}))
        other = namer.representation(frozenset({EX.a}), frozenset({EX.c}))
        assert first == again
        assert first != other

    def test_empty_cliques_named_ntau(self):
        namer = SummaryNamer()
        ntau = namer.representation(frozenset(), frozenset())
        assert "Ntau" in ntau.value
        assert namer.representation(frozenset(), frozenset()) == ntau

    def test_class_set_naming(self):
        namer = SummaryNamer()
        node = namer.class_set(frozenset({EX.Book, EX.Journal}))
        assert node.value.startswith(SUMMARY_NS.prefix)
        assert "Book" in node.value and "Journal" in node.value

    def test_class_set_empty_is_fresh_each_time(self):
        namer = SummaryNamer()
        assert namer.class_set(frozenset()) != namer.class_set(frozenset())

    def test_fresh_never_collides(self):
        namer = SummaryNamer()
        minted = {namer.fresh("x") for _ in range(50)}
        assert len(minted) == 50

    def test_label_collision_resolved(self):
        namer = SummaryNamer()
        # two distinct keys whose readable label would collide
        first = namer.representation(frozenset(), frozenset({EX.term("ns1/p")}))
        second = namer.representation(frozenset(), frozenset({EX.term("ns2/p")}))
        assert first != second

    def test_many_properties_label_truncated(self):
        namer = SummaryNamer()
        properties = frozenset(EX.term(f"p{i}") for i in range(10))
        node = namer.representation(frozenset(), properties)
        assert "more" in node.value

    def test_for_key_fallback(self):
        namer = SummaryNamer()
        first = namer.for_key(("anything", 1))
        second = namer.for_key(("anything", 1))
        third = namer.for_key(("anything", 2))
        assert first == second != third


class TestQuotientBuilder:
    def test_nodes_in_same_block_share_summary_node(self):
        graph = RDFGraph(
            [
                Triple(EX.x1, EX.p, EX.y1),
                Triple(EX.x2, EX.p, EX.y2),
            ]
        )
        partition = weak_partition(graph)
        summary = build_quotient_summary(graph, partition, kind="weak")
        assert summary.representative(EX.x1) == summary.representative(EX.x2)
        assert summary.representative(EX.y1) == summary.representative(EX.y2)
        assert len(summary.graph.data_triples) == 1

    def test_extents_invert_representatives(self, fig2):
        partition = weak_partition(fig2)
        summary = build_quotient_summary(fig2, partition, kind="weak")
        for node, representative in summary.representative_of.items():
            assert node in summary.extent(representative)

    def test_summary_nodes_minted_in_summary_namespace(self, fig2):
        summary = build_quotient_summary(fig2, weak_partition(fig2), kind="weak")
        for node in summary.summary_data_nodes():
            assert isinstance(node, URI)
            assert node in SUMMARY_NS

    def test_type_triples_keep_class_objects(self, fig2):
        summary = build_quotient_summary(fig2, weak_partition(fig2), kind="weak")
        classes = {t.object for t in summary.graph.type_triples}
        assert classes == fig2.class_nodes()

    def test_custom_block_namer(self):
        graph = RDFGraph([Triple(EX.x, EX.p, EX.y), Triple(EX.x, RDF_TYPE, EX.C)])
        partition = weak_partition(graph)
        counter = iter(range(100))

        def namer(_key):
            return EX.term(f"block{next(counter)}")

        summary = build_quotient_summary(graph, partition, kind="weak", block_namer=namer)
        assert all(node.value.startswith(EX.prefix) for node in summary.summary_data_nodes())

    def test_default_block_namer_dispatch(self):
        namer = SummaryNamer()
        name_block = default_block_namer(namer)
        weak_key = (frozenset({EX.a}), frozenset({EX.b}))
        type_key = ("types", frozenset({EX.Book}))
        untyped_key = ("untyped", (frozenset({EX.a}), frozenset()))
        fallback_key = ("something", EX.x)
        minted = {name_block(k) for k in (weak_key, type_key, untyped_key, fallback_key)}
        assert len(minted) == 4
        assert "Book" in name_block(type_key).value
