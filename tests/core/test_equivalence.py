"""Tests for the node equivalence relations (Definitions 7, 8, 13, 16) —
the ``Term``-level oracle the encoded engine is checked against."""

from repro.datasets.sample import FIG2
from repro.model.graph import RDFGraph
from repro.model.namespaces import EX, RDF_TYPE
from repro.model.triple import Triple

from oracles.term_partitions import (
    strong_partition,
    type_partition,
    untyped_strong_partition,
    untyped_weak_partition,
    weak_partition,
)


class TestWeakPartition:
    def test_publications_are_weakly_equivalent(self, fig2):
        partition = weak_partition(fig2)
        for resource in (FIG2.r2, FIG2.r3, FIG2.r4, FIG2.r5):
            assert partition.equivalent(FIG2.r1, resource)

    def test_titles_are_weakly_equivalent(self, fig2):
        partition = weak_partition(fig2)
        assert partition.equivalent(FIG2.t1, FIG2.t2)
        assert partition.equivalent(FIG2.t1, FIG2.t4)

    def test_authors_grouped(self, fig2):
        partition = weak_partition(fig2)
        assert partition.equivalent(FIG2.a1, FIG2.a2)

    def test_editors_grouped(self, fig2):
        partition = weak_partition(fig2)
        assert partition.equivalent(FIG2.e1, FIG2.e2)

    def test_authors_not_equivalent_to_titles(self, fig2):
        partition = weak_partition(fig2)
        assert not partition.equivalent(FIG2.a1, FIG2.t1)

    def test_block_count_matches_figure4(self, fig2):
        # N^{a,t,e,c}_{r,p}, N_a^r, N_t, N_e^p, N_c, Nτ  -> 6 blocks
        partition = weak_partition(fig2)
        assert len(partition) == 6

    def test_typed_only_node_in_empty_block(self, fig2):
        partition = weak_partition(fig2)
        assert partition.key_of(FIG2.r6) == (frozenset(), frozenset())

    def test_strong_implies_weak(self, fig2):
        weak = weak_partition(fig2)
        strong = strong_partition(fig2)
        nodes = list(fig2.data_nodes())
        for first in nodes:
            for second in nodes:
                if strong.equivalent(first, second):
                    assert weak.equivalent(first, second)

    def test_partition_is_valid(self, fig2):
        assert weak_partition(fig2).is_valid_partition()

    def test_chain_relatedness_through_shared_clique(self):
        # x1 -p-> y, x2 -p-> y2, x2 -q-> z : x1 and x2 share source clique {p,q}
        graph = RDFGraph(
            [
                Triple(EX.x1, EX.p, EX.y1),
                Triple(EX.x2, EX.p, EX.y2),
                Triple(EX.x2, EX.q, EX.z),
            ]
        )
        partition = weak_partition(graph)
        assert partition.equivalent(EX.x1, EX.x2)


class TestStrongPartition:
    def test_r4_separated_from_other_publications(self, fig2):
        partition = strong_partition(fig2)
        assert not partition.equivalent(FIG2.r1, FIG2.r4)

    def test_r1_r2_r3_r5_together(self, fig2):
        partition = strong_partition(fig2)
        for resource in (FIG2.r2, FIG2.r3, FIG2.r5):
            assert partition.equivalent(FIG2.r1, resource)

    def test_a1_and_a2_separated(self, fig2):
        # a1 has source clique {reviewed}, a2 has none
        partition = strong_partition(fig2)
        assert not partition.equivalent(FIG2.a1, FIG2.a2)

    def test_e1_and_e2_separated(self, fig2):
        partition = strong_partition(fig2)
        assert not partition.equivalent(FIG2.e1, FIG2.e2)

    def test_titles_still_grouped(self, fig2):
        partition = strong_partition(fig2)
        assert partition.equivalent(FIG2.t1, FIG2.t3)

    def test_block_count_matches_figure9(self, fig2):
        # Na,t,e,c ; Na,t,e,c/r,p ; Nar ; Na ; Nt ; Npe ; Ne ; Nc ; Nτ -> 9
        partition = strong_partition(fig2)
        assert len(partition) == 9

    def test_strong_key_is_clique_pair(self, fig2):
        partition = strong_partition(fig2)
        target, source = partition.key_of(FIG2.r4)
        assert {p.local_name for p in target} == {"reviewed", "published"}
        assert {p.local_name for p in source} == {"author", "title", "editor", "comment"}


class TestTypePartition:
    def test_same_type_sets_grouped(self, fig2):
        partition = type_partition(fig2)
        assert partition.equivalent(FIG2.r1, FIG2.r2)

    def test_different_types_separated(self, fig2):
        partition = type_partition(fig2)
        assert not partition.equivalent(FIG2.r1, FIG2.r3)

    def test_untyped_nodes_are_singletons(self, fig2):
        partition = type_partition(fig2)
        assert not partition.equivalent(FIG2.r4, FIG2.r5)
        assert not partition.equivalent(FIG2.t1, FIG2.t2)

    def test_multi_type_resource(self):
        graph = RDFGraph(
            [
                Triple(EX.x, RDF_TYPE, EX.A),
                Triple(EX.x, RDF_TYPE, EX.B),
                Triple(EX.y, RDF_TYPE, EX.A),
                Triple(EX.y, RDF_TYPE, EX.B),
                Triple(EX.z, RDF_TYPE, EX.A),
            ]
        )
        partition = type_partition(graph)
        assert partition.equivalent(EX.x, EX.y)
        assert not partition.equivalent(EX.x, EX.z)


class TestUntypedPartitions:
    def test_typed_nodes_grouped_by_type_set(self, fig2):
        for partition in (untyped_weak_partition(fig2), untyped_strong_partition(fig2)):
            assert partition.equivalent(FIG2.r1, FIG2.r2)   # both Book
            assert not partition.equivalent(FIG2.r1, FIG2.r3)  # Book vs Journal

    def test_untyped_nodes_merged_weakly(self, fig2):
        partition = untyped_weak_partition(fig2)
        assert partition.equivalent(FIG2.r4, FIG2.r5)

    def test_untyped_nodes_strong_separation(self, fig2):
        partition = untyped_strong_partition(fig2)
        # r4 has target clique {reviewed, published}, r5 has none
        assert not partition.equivalent(FIG2.r4, FIG2.r5)

    def test_typed_never_merged_with_untyped(self, fig2):
        partition = untyped_weak_partition(fig2)
        assert not partition.equivalent(FIG2.r1, FIG2.r4)

    def test_every_data_node_partitioned(self, fig2):
        partition = untyped_weak_partition(fig2)
        assert set(partition.block_of) == fig2.data_nodes()
