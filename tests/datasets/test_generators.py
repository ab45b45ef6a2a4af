"""Tests for the synthetic dataset generators (BSBM, LUBM, bibliography, random)."""

import pytest

from repro.datasets.bibliography import BIB, generate_bibliography
from repro.datasets.bsbm import BSBM, BSBMGenerator, generate_bsbm, graph_for_target_triples
from repro.datasets.lubm import LUBM, generate_lubm
from oracles.random_graph import RandomGraphConfig, generate_random_graph


class TestBSBM:
    def test_deterministic_for_seed(self):
        assert set(generate_bsbm(scale=20, seed=3)) == set(generate_bsbm(scale=20, seed=3))

    def test_different_seeds_differ(self):
        assert set(generate_bsbm(scale=20, seed=1)) != set(generate_bsbm(scale=20, seed=2))

    def test_scale_grows_triples(self):
        small = generate_bsbm(scale=20, seed=0)
        large = generate_bsbm(scale=80, seed=0)
        assert len(large) > 2 * len(small)

    def test_expected_entity_types_present(self, bsbm_small):
        classes = {c.local_name for c in bsbm_small.class_nodes()}
        for expected in ("Product", "Producer", "Offer", "Review", "Person", "Vendor"):
            assert expected in classes

    def test_product_type_tree_in_schema(self, bsbm_small):
        assert len(bsbm_small.schema_triples) >= 10

    def test_products_have_two_types(self, bsbm_small):
        product0 = BSBM.term("Product0")
        assert len(bsbm_small.types_of(product0)) == 2

    def test_heterogeneity_optional_properties(self, bsbm_small):
        # rating3 is generated for ~25% of reviews only
        reviews = bsbm_small.subjects(predicate=BSBM.rating1)
        with_rating3 = bsbm_small.subjects(predicate=BSBM.rating3)
        assert 0 < len(with_rating3) < len(reviews)

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            BSBMGenerator(scale=0)

    def test_graph_for_target_triples(self):
        graph = graph_for_target_triples(3000, seed=0)
        assert 1200 < len(graph) < 8000

    def test_well_behaved(self, bsbm_small):
        assert bsbm_small.is_well_behaved()


class TestLUBM:
    def test_deterministic(self):
        first = generate_lubm(universities=1, departments_per_university=1, seed=5)
        second = generate_lubm(universities=1, departments_per_university=1, seed=5)
        assert set(first) == set(second)

    def test_schema_richness(self, lubm_small):
        assert len(lubm_small.schema_triples) >= 20

    def test_expected_classes(self, lubm_small):
        classes = {c.local_name for c in lubm_small.class_nodes()}
        assert "Department" in classes
        assert "University" in classes
        assert classes & {"FullProfessor", "AssociateProfessor", "AssistantProfessor", "Lecturer"}

    def test_university_count_scales_size(self):
        one = generate_lubm(universities=1, departments_per_university=2, seed=0)
        two = generate_lubm(universities=2, departments_per_university=2, seed=0)
        assert len(two) > len(one)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            generate_lubm(universities=0)

    def test_saturation_adds_triples(self, lubm_small):
        from repro.schema.saturation import saturate

        assert len(saturate(lubm_small)) > len(lubm_small)


class TestBibliography:
    def test_deterministic(self):
        assert set(generate_bibliography(40, seed=2)) == set(generate_bibliography(40, seed=2))

    def test_untyped_fraction_respected(self):
        fully_typed = generate_bibliography(100, untyped_fraction=0.0, seed=1)
        untyped_publications = [
            node
            for node in fully_typed.subjects(predicate=BIB.hasTitle)
            if not fully_typed.has_type(node)
        ]
        assert untyped_publications == []

        partially_typed = generate_bibliography(100, untyped_fraction=0.5, seed=1)
        untyped_publications = [
            node
            for node in partially_typed.subjects(predicate=BIB.hasTitle)
            if not partially_typed.has_type(node)
        ]
        assert untyped_publications

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            generate_bibliography(0)
        with pytest.raises(ValueError):
            generate_bibliography(10, untyped_fraction=1.5)

    def test_schema_constraints_present(self, bibliography_small):
        assert len(bibliography_small.schema_triples) >= 8


class TestRandomGraph:
    def test_deterministic(self):
        config = RandomGraphConfig()
        assert set(generate_random_graph(config, seed=4)) == set(generate_random_graph(config, seed=4))

    def test_respects_sizes(self):
        config = RandomGraphConfig(resources=10, properties=3, data_triples=25, schema_constraints=0)
        graph = generate_random_graph(config, seed=1)
        assert len(graph.data_properties()) <= 3
        assert len(graph.schema_triples) == 0

    def test_schema_less_configuration(self):
        config = RandomGraphConfig(schema_constraints=0, typed_fraction=0.0)
        graph = generate_random_graph(config, seed=2)
        assert len(graph.type_triples) == 0

    def test_literal_fraction_zero_gives_no_literals(self):
        config = RandomGraphConfig(literal_fraction=0.0)
        graph = generate_random_graph(config, seed=3)
        assert graph.literals() == set()

    def test_all_kinds_summarize_random_graphs(self):
        from repro.core.builders import summarize

        graph = generate_random_graph(RandomGraphConfig(), seed=6)
        for kind in ("weak", "strong", "type", "typed_weak", "typed_strong"):
            summary = summarize(graph, kind)
            assert len(summary.graph) <= len(graph)
