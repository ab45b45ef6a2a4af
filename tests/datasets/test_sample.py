"""Tests for the paper's example graphs."""

from oracles.sample_graphs import book_example_graph, strong_completeness_graph, weak_completeness_graph
from repro.datasets.sample import FIG2, figure2_graph, typed_weak_counterexample_graph
from repro.model.namespaces import EX


class TestFigure2:
    def test_size(self):
        graph = figure2_graph()
        assert len(graph) == 16
        assert len(graph.data_triples) == 12
        assert len(graph.type_triples) == 4
        assert len(graph.schema_triples) == 0

    def test_data_properties_match_paper(self):
        graph = figure2_graph()
        names = {p.local_name for p in graph.data_properties()}
        assert names == {"author", "title", "editor", "comment", "reviewed", "published"}

    def test_classes(self):
        graph = figure2_graph()
        assert {c.local_name for c in graph.class_nodes()} == {"Book", "Journal", "Spec"}

    def test_r6_is_typed_only(self):
        graph = figure2_graph()
        assert graph.has_type(FIG2.r6)
        assert not list(graph.triples(subject=FIG2.r6, predicate=FIG2.title))

    def test_well_behaved(self):
        assert figure2_graph().is_well_behaved()

    def test_deterministic(self):
        assert set(figure2_graph()) == set(figure2_graph())


class TestBookExample:
    def test_with_schema(self):
        graph = book_example_graph()
        assert len(graph.schema_triples) == 4
        assert EX.doi1 in graph.typed_resources()

    def test_without_schema(self):
        graph = book_example_graph(with_schema=False)
        assert len(graph.schema_triples) == 0
        assert len(graph) == 5

    def test_literals_present(self):
        graph = book_example_graph()
        assert len(graph.literals()) == 3


class TestAuxiliaryGraphs:
    def test_weak_completeness_graph_has_subproperties(self):
        graph = weak_completeness_graph()
        assert len(graph.schema_triples) == 2

    def test_strong_completeness_graph_structure(self):
        graph = strong_completeness_graph()
        assert len(graph.data_triples) == 5
        assert len(graph.schema_triples) == 2

    def test_typed_weak_counterexample_has_domain_constraint(self):
        graph = typed_weak_counterexample_graph()
        assert len(graph.schema_triples) == 1
        assert len(graph.typed_resources()) == 0
