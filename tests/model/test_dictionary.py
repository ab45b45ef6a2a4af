"""Tests for dictionary encoding and the encoded graph view."""

import pytest

from repro.errors import DictionaryError, UnknownTermError
from repro.model import dictionary as dictionary_module
from repro.model.dictionary import Dictionary, EncodedGraphView, EncodedTriple
from repro.model.graph import RDFGraph
from repro.model.namespaces import EX, RDF_TYPE, RDFS_SUBCLASSOF
from repro.model.terms import Literal
from repro.model.triple import Triple


class TestDictionary:
    def test_encode_is_idempotent(self):
        dictionary = Dictionary()
        first = dictionary.encode(EX.a)
        second = dictionary.encode(EX.a)
        assert first == second
        assert len(dictionary) == 1

    def test_ids_are_dense_and_ordered(self):
        dictionary = Dictionary()
        assert dictionary.encode(EX.a) == 0
        assert dictionary.encode(EX.b) == 1
        assert dictionary.encode(Literal("x")) == 2

    def test_decode_roundtrip(self):
        dictionary = Dictionary()
        identifier = dictionary.encode(Literal("1932"))
        assert dictionary.decode(identifier) == Literal("1932")

    def test_decode_unknown_raises(self):
        with pytest.raises(UnknownTermError):
            Dictionary().decode(5)

    def test_try_decode_unknown_returns_none(self):
        assert Dictionary().try_decode(3) is None

    def test_encode_existing_raises_on_unknown(self):
        with pytest.raises(UnknownTermError):
            Dictionary().encode_existing(EX.a)

    def test_contains(self):
        dictionary = Dictionary()
        dictionary.encode(EX.a)
        assert EX.a in dictionary
        assert EX.b not in dictionary

    def test_triple_roundtrip(self):
        dictionary = Dictionary()
        triple = Triple(EX.s, EX.p, Literal("x"))
        assert dictionary.decode_triple(dictionary.encode_triple(triple)) == triple

    def test_items_ordered_by_id(self):
        dictionary = Dictionary()
        dictionary.encode(EX.a)
        dictionary.encode(EX.b)
        items = list(dictionary.items())
        assert items[0] == (EX.a, 0)
        assert items[1] == (EX.b, 1)


class TestEncodedGraphView:
    def _graph(self):
        return RDFGraph(
            [
                Triple(EX.r1, EX.author, EX.a1),
                Triple(EX.r1, RDF_TYPE, EX.Book),
                Triple(EX.Book, RDFS_SUBCLASSOF, EX.Publication),
            ]
        )

    def test_rows_split_by_component(self):
        view = EncodedGraphView(self._graph())
        assert len(view.data_rows) == 1
        assert len(view.type_rows) == 1
        assert len(view.schema_rows) == 1
        assert len(view) == 3

    def test_all_rows_roundtrip_through_dictionary(self):
        graph = self._graph()
        view = EncodedGraphView(graph)
        decoded = set(view.decode_rows(view.all_rows()))
        assert decoded == set(graph)

    def test_type_property_id_matches_dictionary(self):
        view = EncodedGraphView(self._graph())
        assert view.dictionary.decode(view.type_property_id) == RDF_TYPE

    def test_shared_dictionary_reused(self):
        shared = Dictionary()
        shared.encode(EX.r1)
        view = EncodedGraphView(self._graph(), dictionary=shared)
        assert view.dictionary is shared
        assert shared.encode(EX.r1) == 0

    def test_rows_are_sorted_for_determinism(self):
        view = EncodedGraphView(self._graph())
        assert view.data_rows == sorted(view.data_rows)
        assert all(isinstance(row, EncodedTriple) for row in view.data_rows)


class TestIdLimit:
    """Ids live in 4-byte columns: a batch that would mint an id past
    ``ID_LIMIT`` is refused whole, its terms forgotten again."""

    @pytest.fixture
    def full_at_four(self, monkeypatch):
        monkeypatch.setattr(dictionary_module, "ID_LIMIT", 4)
        dictionary = Dictionary()
        dictionary.extend([EX.term("t0"), EX.term("t1")])
        return dictionary

    def test_encode(self, full_at_four):
        dictionary = full_at_four
        assert [dictionary.encode(EX.term(f"t{i}")) for i in range(4)] == [0, 1, 2, 3]
        with pytest.raises(DictionaryError, match="full"):
            dictionary.encode(EX.term("t4"))
        assert len(dictionary) == 4 and EX.term("t4") not in dictionary
        assert dictionary.encode(EX.term("t3")) == 3  # known terms still encode

    def test_encode_triples_rolls_the_batch_back(self, full_at_four):
        dictionary = full_at_four
        crossing = [
            Triple(EX.term("t0"), EX.term("n0"), EX.term("t1")),
            Triple(EX.term("t1"), EX.term("n1"), EX.term("n2")),
        ]
        with pytest.raises(DictionaryError, match="full"):
            dictionary.encode_triples(crossing)
        assert len(dictionary) == 2
        assert not any(EX.term(f"n{i}") in dictionary for i in range(3))
        assert dictionary.encode_triples(crossing[:1]) == [EncodedTriple(0, 2, 1)]
        assert dictionary.encode_triples([Triple(EX.term("n0"), EX.term("n0"), EX.term("x"))]) == [
            EncodedTriple(2, 2, 3)
        ]

    def test_extend_rolls_the_batch_back(self, full_at_four):
        dictionary = full_at_four
        with pytest.raises(DictionaryError, match="full"):
            dictionary.extend([EX.term("n0"), EX.term("n1"), EX.term("n2")])
        assert len(dictionary) == 2 and EX.term("n0") not in dictionary
        assert dictionary.extend([EX.term("n0"), EX.term("n1")]) == 4
        assert dictionary.decode(3) == EX.term("n1")
