"""Tests for Triple construction, classification and rendering."""

import pytest

from repro.errors import MalformedTripleError
from repro.model.namespaces import EX, RDF_TYPE, RDFS_DOMAIN, RDFS_SUBCLASSOF
from repro.model.terms import BlankNode, Literal, URI
from repro.model.triple import Triple, TripleKind, classify_property


class TestConstruction:
    def test_valid_triple(self):
        triple = Triple(EX.s, EX.p, EX.o)
        assert triple.subject == EX.s
        assert triple.predicate == EX.p
        assert triple.object == EX.o

    def test_blank_subject_allowed(self):
        Triple(BlankNode("b"), EX.p, Literal("x"))

    def test_literal_subject_rejected_for_data_properties(self):
        with pytest.raises(MalformedTripleError):
            Triple(Literal("x"), EX.p, EX.o)

    def test_literal_subject_allowed_for_type_triples(self):
        # generalized type triples produced by saturation (range rule on
        # literal values) are accepted
        triple = Triple(Literal("1932"), RDF_TYPE, EX.Year)
        assert triple.is_type()

    def test_literal_predicate_rejected(self):
        with pytest.raises(MalformedTripleError):
            Triple(EX.s, Literal("p"), EX.o)

    def test_blank_predicate_rejected(self):
        with pytest.raises(MalformedTripleError):
            Triple(EX.s, BlankNode("p"), EX.o)

    def test_invalid_object_rejected(self):
        with pytest.raises(MalformedTripleError):
            Triple(EX.s, EX.p, 42)


class TestClassification:
    def test_data_triple(self):
        assert Triple(EX.s, EX.p, EX.o).kind is TripleKind.DATA

    def test_type_triple(self):
        assert Triple(EX.s, RDF_TYPE, EX.Book).kind is TripleKind.TYPE

    def test_schema_triple_subclass(self):
        assert Triple(EX.Book, RDFS_SUBCLASSOF, EX.Publication).kind is TripleKind.SCHEMA

    def test_schema_triple_domain(self):
        assert Triple(EX.p, RDFS_DOMAIN, EX.Book).kind is TripleKind.SCHEMA

    def test_kind_predicates(self):
        assert Triple(EX.s, EX.p, EX.o).is_data()
        assert Triple(EX.s, RDF_TYPE, EX.Book).is_type()
        assert Triple(EX.Book, RDFS_SUBCLASSOF, EX.Publication).is_schema()

    def test_classify_function_matches_property(self):
        triple = Triple(EX.s, RDF_TYPE, EX.Book)
        assert classify_property(triple.predicate) is triple.kind


class TestValueSemantics:
    def test_equality_and_hash(self):
        first = Triple(EX.s, EX.p, Literal("x"))
        second = Triple(EX.s, EX.p, Literal("x"))
        assert first == second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1

    def test_inequality(self):
        assert Triple(EX.s, EX.p, EX.o) != Triple(EX.s, EX.p, EX.o2)

    def test_iteration_unpacks_terms(self):
        subject, predicate, obj = Triple(EX.s, EX.p, EX.o)
        assert (subject, predicate, obj) == (EX.s, EX.p, EX.o)

    def test_sorting_is_deterministic(self):
        triples = [Triple(EX.b, EX.p, EX.o), Triple(EX.a, EX.p, EX.o)]
        assert sorted(triples)[0].subject == EX.a

    def test_n3_line(self):
        line = Triple(EX.s, EX.p, Literal("x")).n3()
        assert line.endswith(" .")
        assert "<http://example.org/s>" in line

    def test_as_tuple(self):
        assert Triple(EX.s, EX.p, EX.o).as_tuple() == (EX.s, EX.p, EX.o)
