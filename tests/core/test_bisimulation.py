"""Tests for the bisimulation-baseline summaries (related work, Section 8)."""

import pytest

from repro.core.bisimulation import (
    backward_bisimulation_partition,
    bisimulation_summary,
    forward_bisimulation_partition,
    full_bisimulation_partition,
)
from repro.core.builders import weak_summary
from repro.datasets.sample import FIG2
from repro.model.graph import RDFGraph
from repro.model.namespaces import EX, RDF_TYPE
from repro.model.triple import Triple

from oracles.summary_checks import summary_homomorphism_holds


class TestPartitions:
    def test_forward_groups_nodes_with_same_outgoing_structure(self, fig2):
        partition = forward_bisimulation_partition(fig2)
        # t1..t4 are all sinks with no types: forward-bisimilar
        assert partition.equivalent(FIG2.t1, FIG2.t2)
        assert partition.equivalent(FIG2.t1, FIG2.t4)

    def test_forward_separates_different_outgoing_properties(self, fig2):
        partition = forward_bisimulation_partition(fig2)
        # r1 (author,title) vs r3 (editor,comment) differ on outgoing labels
        assert not partition.equivalent(FIG2.r1, FIG2.r3)

    def test_backward_groups_nodes_with_same_incoming_structure(self, fig2):
        partition = backward_bisimulation_partition(fig2)
        # t1 and t2 are the titles of r1 and r2, which are backward-bisimilar
        # (both typed Book, no incoming data edges), so t1 ~ t2.
        assert partition.equivalent(FIG2.t1, FIG2.t2)
        # t3 is the title of r4, whose incoming edges (reviewed, published)
        # distinguish it from r5; backward refinement therefore separates
        # t3 from t4.
        assert not partition.equivalent(FIG2.t3, FIG2.t4)

    def test_full_refines_forward_and_backward(self, fig2):
        forward = forward_bisimulation_partition(fig2)
        backward = backward_bisimulation_partition(fig2)
        full = full_bisimulation_partition(fig2)
        assert len(full) >= len(forward)
        assert len(full) >= len(backward)

    def test_bounded_refinement_is_coarser(self, bsbm_small):
        bounded = full_bisimulation_partition(bsbm_small, max_rounds=1)
        unbounded = full_bisimulation_partition(bsbm_small)
        assert len(bounded) <= len(unbounded)

    def test_types_respected_from_round_zero(self):
        graph = RDFGraph(
            [
                Triple(EX.a, RDF_TYPE, EX.C1),
                Triple(EX.b, RDF_TYPE, EX.C2),
                Triple(EX.a, EX.p, EX.x),
                Triple(EX.b, EX.p, EX.x),
            ]
        )
        partition = forward_bisimulation_partition(graph)
        assert not partition.equivalent(EX.a, EX.b)


class TestBisimulationSummary:
    def test_summary_is_homomorphic_image(self, fig2):
        for direction in ("forward", "backward", "full"):
            summary = bisimulation_summary(fig2, direction)
            assert summary_homomorphism_holds(fig2, summary)

    def test_unknown_direction_rejected(self, fig2):
        with pytest.raises(ValueError):
            bisimulation_summary(fig2, "sideways")

    def test_kind_label(self, fig2):
        assert bisimulation_summary(fig2, "forward").kind == "bisim_forward"

    def test_bisimulation_much_larger_than_weak_summary(self, bsbm_small):
        """The paper's Section 8 argument: bisimulation summaries can be as
        large as the input, unlike the clique-based summaries."""
        bisim = bisimulation_summary(bsbm_small, "full")
        weak = weak_summary(bsbm_small)
        assert len(bisim.graph) > 5 * len(weak.graph)
        assert len(bisim.graph) > 0.5 * len(bsbm_small)

    def test_bisimulation_still_smaller_or_equal_to_input(self, bsbm_small):
        bisim = bisimulation_summary(bsbm_small, "full")
        assert len(bisim.graph) <= len(bsbm_small)

    def test_schema_copied(self, book_graph):
        summary = bisimulation_summary(book_graph, "forward")
        assert summary.graph.schema_triples == book_graph.schema_triples
