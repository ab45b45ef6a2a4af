"""Tests for dictionary encoding, the term-order rank and the term codecs."""

import pickle
import zlib
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.bsbm import generate_bsbm
from repro.errors import DictionaryError, PersistenceError, UnknownTermError
from repro.model import dictionary as dictionary_module
from repro.model.dictionary import (
    Dictionary,
    EncodedTriple,
    pack_term,
    pack_term_chunks,
    pack_terms,
    unpack_terms,
)
from repro.model.namespaces import EX
from repro.model.terms import URI, BlankNode, Literal, term_sort_key
from repro.model.triple import Triple
from repro.service.catalog import GraphCatalog


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


class TestExtend:
    """``extend`` appends a receiver's texts in order, or nothing at all."""

    def test_a_divergent_extend_appends_nothing(self):
        dictionary = Dictionary()
        dictionary.encode(EX.a)
        with pytest.raises(DictionaryError, match="divergence"):
            dictionary.extend([EX.b.n3(), EX.c.n3(), EX.a.n3()])
        assert len(dictionary) == 1 and EX.b not in dictionary and EX.c not in dictionary
        assert dictionary._settled == 1
        assert dictionary.extend([EX.b.n3(), EX.c.n3()]) == 3
        assert dictionary.decode(2) == EX.c

    def test_a_divergent_chunk_appends_nothing(self):
        source = _dictionary_of([EX.b, EX.c, EX.a])
        target = _dictionary_of([EX.a])
        with pytest.raises(DictionaryError, match="divergence"):
            unpack_terms(pack_terms(source), target)
        assert target.texts == [EX.a.n3()]


class TestIdLimit:
    """Ids live in 4-byte columns: a batch that would mint an id past
    ``ID_LIMIT`` is refused whole, its terms forgotten again."""

    @pytest.fixture
    def full_at_four(self, monkeypatch):
        monkeypatch.setattr(dictionary_module, "ID_LIMIT", 4)
        dictionary = Dictionary()
        dictionary.extend([EX.term("t0").n3(), EX.term("t1").n3()])
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
            dictionary.extend([EX.term("n0").n3(), EX.term("n1").n3(), EX.term("n2").n3()])
        assert len(dictionary) == 2 and EX.term("n0") not in dictionary
        assert dictionary.extend([EX.term("n0").n3(), EX.term("n1").n3()]) == 4
        assert dictionary.decode(3) == EX.term("n1")


class TestTermCodec:
    """The structural term codec of the catalog file's term chunks: a
    receiver re-encodes the packed terms in order and gets identical ids."""

    def test_pack_unpack_terms_round_trip(self):
        source = Dictionary()
        terms = [
            URI("http://example.org/a"),
            BlankNode("b0"),
            Literal("plain"),
            Literal("12", datatype=URI("http://www.w3.org/2001/XMLSchema#integer")),
            Literal("chat", language="en"),
            URI("http://example.org/b"),
        ]
        for term in terms:
            source.encode(term)
        target = Dictionary()
        assert unpack_terms(pack_terms(source), target) == len(source)
        for term in terms:
            assert target.encode_existing(term) == source.encode_existing(term)

    def test_pack_terms_tail_only(self):
        source = Dictionary()
        source.encode(URI("http://example.org/a"))
        mark = len(source)
        source.encode(URI("http://example.org/b"))
        source.encode(Literal("x"))
        tail = pack_terms(source, mark)
        assert tail == ("ul", bytes([0, 0]), ["http://example.org/b", "x"], [(None, None)])
        target = Dictionary()
        target.encode(URI("http://example.org/a"))
        unpack_terms(tail, target)
        assert target.encode_existing(Literal("x")) == source.encode_existing(Literal("x"))

    def test_unpack_terms_detects_divergence(self):
        """A term that would land on the wrong id is an error, not a mis-key."""
        target = Dictionary()
        target.encode(URI("http://example.org/a"))  # already present: id 0 != 1
        with pytest.raises(DictionaryError):
            unpack_terms(("u", b"\0", ["http://example.org/a"], []), target)

    def test_unpack_terms_rejects_unknown_kind(self):
        with pytest.raises(PersistenceError, match="unreadable"):
            unpack_terms(("z", b"\0", ["x"], []), Dictionary())

    def test_a_shared_prefix_is_capped_at_255(self):
        """Values sharing 300 characters store 255 of them as shared and the
        rest in the suffix."""
        stem = "http://example.org/" + "p" * 281
        source = Dictionary()
        source.extend([URI(stem + "a").n3(), URI(stem + "b").n3()])
        chunk = pack_terms(source)
        assert chunk[1] == bytes([0, 255]) and chunk[2][1] == stem[255:] + "b"
        target = Dictionary()
        unpack_terms(chunk, target)
        assert list(target.decode_table) == list(source.decode_table)

    def test_pack_term_chunks_round_trip(self):
        """The chunks reassemble, in order, into the exact same id
        assignment, and none exceeds the chunk size."""
        source = Dictionary()
        for i in range(150):
            source.encode(URI(f"http://example.org/term/{i}"))
        chunks = pack_term_chunks(source, chunk=64)
        assert [len(chunk[0]) for chunk in chunks] == [64, 64, 22]
        target = Dictionary()
        for chunk in chunks:
            unpack_terms(chunk, target)
        assert len(target) == len(source)
        for i in (0, 63, 64, 149):
            term = URI(f"http://example.org/term/{i}")
            assert target.encode_existing(term) == source.encode_existing(term)

    def test_pack_term_chunks_tail_only(self):
        """Chunks packed from a dictionary mark splice onto a target already
        holding the prefix."""
        source = Dictionary()
        source.encode(URI("http://example.org/a"))
        mark = len(source)
        for i in range(5):
            source.encode(URI(f"http://example.org/tail/{i}"))
        chunks = pack_term_chunks(source, start=mark, chunk=2)
        assert [len(chunk[0]) for chunk in chunks] == [2, 2, 1]
        target = Dictionary()
        target.encode(URI("http://example.org/a"))
        for chunk in chunks:
            unpack_terms(chunk, target)
        probe = URI("http://example.org/tail/4")
        assert target.encode_existing(probe) == source.encode_existing(probe)

    def test_pack_term_chunks_empty_and_bad_size(self):
        assert pack_term_chunks(Dictionary()) == []
        with pytest.raises(DictionaryError):
            pack_term_chunks(Dictionary(), chunk=0)

    def test_a_front_coded_chunk_of_a_bsbm_graph_is_smaller_than_its_term_tuples(self):
        """Ids minted in term order put shared prefixes side by side: the
        chunk, through the catalog file's pickle + zlib, is smaller than the
        same terms as ``pack_term`` tuples."""
        dictionary = Dictionary()
        dictionary.encode_triples(generate_bsbm(scale=40, seed=7))

        def packed_size(value):
            return len(zlib.compress(pickle.dumps(value, protocol=4), 6))

        tuples = packed_size([pack_term(term) for term in dictionary.decode_table])
        assert packed_size(pack_terms(dictionary)) < tuples


#: Stems that neighbouring values share, one longer than a shared length's cap.
_STEMS = ["", "http://example.org/", "http://example.org/" + "s" * 250, "x" * 300]
#: Suffix characters: newlines, NULs, accents and non-BMP characters included.
_CHARS = st.one_of(
    st.sampled_from("ab/\n\0é\U0001f600"), st.characters(exclude_categories=("Cs",))
)
_VALUES = st.builds(str.__add__, st.sampled_from(_STEMS), st.text(_CHARS, max_size=6))
_NAMES = _VALUES.filter(bool)
_TERMS = st.one_of(
    st.builds(URI, _NAMES),
    st.builds(BlankNode, _NAMES),
    st.builds(Literal, _VALUES),
    st.builds(lambda value, datatype: Literal(value, datatype=URI(datatype)), _VALUES, _NAMES),
    st.builds(
        lambda value, language: Literal(value, language=language),
        _VALUES,
        st.sampled_from(["en", "fr-CA"]),
    ),
)


def _dictionary_of(terms):
    dictionary = Dictionary()
    for term in terms:
        dictionary.encode(term)
    return dictionary


class TestTermChunkProperties:
    """Generated round trips and damage for the front-coded term chunk."""

    @settings(max_examples=150, deadline=None)
    @given(terms=st.lists(_TERMS, max_size=30), cut=st.integers(0, 30), size=st.integers(1, 7))
    def test_chunks_of_any_tail_reproduce_the_ids_exactly(self, terms, cut, size):
        source = _dictionary_of(terms)
        mark = min(cut, len(source))
        target = Dictionary()
        target.extend(source.texts[:mark])
        for chunk in pack_term_chunks(source, start=mark, chunk=size):
            unpack_terms(pickle.loads(pickle.dumps(chunk, protocol=4)), target)
        assert len(target) == len(source)
        for restored, original in zip(target.decode_table, source.decode_table):
            assert type(restored) is type(original) and restored == original
        for term, identifier in source.items():
            assert target.encode_existing(term) == identifier

    @settings(max_examples=150, deadline=None)
    @given(
        terms=st.lists(_TERMS, min_size=1, max_size=12),
        damage=st.sampled_from(
            ["kinds", "shared", "suffixes", "typed", "past-value", "past-start"]
        ),
        at=st.integers(0, 11),
    )
    def test_a_malformed_chunk_is_unreadable_and_appends_nothing(self, terms, damage, at):
        kinds, shared, suffixes, typed = pack_terms(_dictionary_of(terms))
        at %= len(kinds)
        if damage == "kinds":
            kinds = kinds[:at] + kinds[at + 1 :]
        elif damage == "shared":
            shared = shared + b"\0"
        elif damage == "suffixes":
            suffixes = suffixes[:at] + suffixes[at + 1 :]
        elif damage == "typed":
            typed = typed[1:] if typed else [(None, None)]
        else:
            values, value = [], ""
            for length, suffix in zip(shared, suffixes):
                value = value[:length] + suffix
                values.append(value)
            # a shared length one past the previous value (or past the
            # chunk's start, where a byte cannot hold one past that value)
            if damage == "past-start" or len(values[at - 1]) >= 255:
                at = 0
            longer = len(values[at - 1]) + 1 if at else 1
            shared = shared[:at] + bytes([longer]) + shared[at + 1 :]
        target = Dictionary()
        target.encode(URI("http://example.org/kept"))
        with pytest.raises(PersistenceError, match="unreadable"):
            unpack_terms((kinds, shared, suffixes, typed), target)
        assert len(target) == 1


class TestSortRows:
    """``sort_rows`` orders id rows as their decoded terms sort by
    ``term_sort_key``, from a rank extended once per batch that minted ids."""

    @staticmethod
    def _term_sorted(dictionary, rows):
        table = dictionary.decode_table
        return sorted(rows, key=lambda row: tuple(term_sort_key(table[cell]) for cell in row))

    @settings(max_examples=100, deadline=None)
    @given(
        batches=st.lists(
            st.tuples(st.sampled_from(["batch", "encode", "extend"]), st.lists(_TERMS, max_size=10)),
            min_size=1,
            max_size=6,
        ),
        width=st.integers(0, 3),
        data=st.data(),
    )
    def test_the_order_is_term_order_after_every_kind_of_mint(self, batches, width, data):
        dictionary = Dictionary()
        dictionary.encode(EX.s)
        for mint, terms in batches:
            if mint == "batch":
                dictionary.encode_triples([Triple(EX.s, EX.p, term) for term in terms])
            elif mint == "encode":
                for term in terms:
                    dictionary.encode(term)
            else:
                dictionary.extend(dict.fromkeys(t.n3() for t in terms if t not in dictionary))
            if data.draw(st.booleans()):  # renders between some mints, not all
                cell = st.integers(0, len(dictionary) - 1)
                rows = data.draw(st.lists(st.tuples(*[cell] * width), unique=True, max_size=40))
                assert dictionary.sort_rows(rows) == self._term_sorted(dictionary, rows)

    def test_the_rank_is_extended_once_per_minting_batch(self, monkeypatch):
        dictionary = Dictionary()
        dictionary.encode_triples(generate_bsbm(scale=5, seed=1))
        rows = [(identifier,) for identifier in reversed(range(len(dictionary)))]
        keys, text_sort_key = [], dictionary_module.text_sort_key
        monkeypatch.setattr(
            dictionary_module, "text_sort_key", lambda text: keys.append(text) or text_sort_key(text)
        )
        # an answer of few cells sorts by its terms' keys, building nothing
        assert dictionary.sort_rows(rows[:3]) == self._term_sorted(dictionary, rows[:3])
        assert len(keys) == 3
        keys.clear()
        # one batch is one ascending run: one key per term, no bisection
        assert dictionary.sort_rows(rows) == self._term_sorted(dictionary, rows)
        assert len(keys) == len(dictionary)
        keys.clear()
        dictionary.sort_rows(rows)
        assert keys == []  # kept, not rebuilt per call
        dictionary.encode(EX.term("a lone mint"))
        rows.append((len(dictionary) - 1,))
        assert dictionary.sort_rows(rows) == self._term_sorted(dictionary, rows)
        assert 0 < len(keys) <= 2 + len(dictionary).bit_length()

    def test_runs_merge_from_the_back_into_the_term_order(self):
        order = array("i", [10, 20, 30, 40])
        dictionary_module._merge_run(order, 1, array("i", [0, 2, 2, 4]))
        assert list(order) == [1, 10, 20, 2, 3, 30, 40, 4]

    def test_several_runs_pending_at_one_render(self):
        dictionary = Dictionary()
        dictionary.encode_triples([Triple(EX.term(f"m{n}"), EX.p, EX.o) for n in range(0, 40, 4)])
        rows = [(identifier,) for identifier in range(len(dictionary))]
        assert dictionary.sort_rows(rows) == self._term_sorted(dictionary, rows)
        # descending lone mints, then an ascending batch: three runs at once
        for name in ("m9", "m5", "m1"):
            dictionary.encode(EX.term(name))
        dictionary.encode_triples([Triple(EX.term(f"m{n}"), EX.p, EX.o) for n in (3, 7, 99)])
        rows = [(identifier,) for identifier in range(len(dictionary))]
        assert dictionary.sort_rows(rows) == self._term_sorted(dictionary, rows)

    def test_a_batch_still_being_numbered_is_not_ranked(self, monkeypatch):
        dictionary = Dictionary()
        dictionary.encode_triples([Triple(EX.m, EX.p, EX.n)])
        old = [(0,), (1,), (2,)]
        dictionary.sort_rows(old)
        during = []

        def key(term):
            if not during:  # a render on another thread, mid-batch
                during.append(None)
                during[0] = dictionary.sort_rows(old)
            return term_sort_key(term)

        monkeypatch.setattr(dictionary_module, "term_sort_key", key)
        batch = [Triple(EX.z, EX.p, EX.y), Triple(EX.x, EX.p, EX.a)]  # first seen: not term order
        dictionary.encode_triples(batch)
        assert during == [self._term_sorted(dictionary, old)]
        rows = [(identifier,) for identifier in range(len(dictionary))]
        assert dictionary.sort_rows(rows) == self._term_sorted(dictionary, rows)


#: Characters the text form has to survive: quotes, backslashes, the escapes
#: ``Literal.n3`` writes (LF, CR, TAB) and the ones it leaves raw (``\b``,
#: ``\f``), the delimiters of the other parts, and non-ASCII.
_AWKWARD = st.text(
    st.one_of(
        st.sampled_from(' >"\\\n\r\t\b\f<@^_:é\U0001f600'),
        st.characters(exclude_categories=("Cs",)),
    ),
    max_size=8,
)
_TEXT_TERMS = st.one_of(
    st.builds(URI, _AWKWARD.filter(bool)),
    st.builds(BlankNode, _AWKWARD.filter(bool)),
    st.builds(Literal, _AWKWARD),
    st.builds(lambda v, tag: Literal(v, language=tag), _AWKWARD, _AWKWARD.filter(bool)),
    st.builds(lambda v, iri: Literal(v, datatype=URI(iri)), _AWKWARD, _AWKWARD.filter(bool)),
)


class TestTextForm:
    """The dictionary keeps each term as its N-Triples text: decoding mints
    the same term, the text's sort key is the term's, and the chunk codec
    reads the texts off and writes them back unchanged."""

    @settings(max_examples=300, deadline=None)
    @given(terms=st.lists(_TEXT_TERMS, max_size=12), size=st.integers(1, 5))
    def test_any_term_survives_the_text_form(self, terms, size):
        dictionary = Dictionary()
        for term in terms:
            identifier = dictionary.encode(term)
            text = dictionary.texts[identifier]
            decoded = dictionary.decode(identifier)
            assert type(decoded) is type(term) and decoded == term
            assert text == term.n3()
            assert dictionary_module.text_sort_key(text) == term_sort_key(term)
        target = Dictionary()
        for chunk in pack_term_chunks(dictionary, chunk=size):
            unpack_terms(pickle.loads(pickle.dumps(chunk, protocol=4)), target)
        assert target.texts == dictionary.texts

    def test_a_warm_started_dictionary_keeps_only_strings(self, tmp_path):
        path = str(tmp_path / "catalog.db")
        with GraphCatalog.open(path) as catalog:
            catalog.register("g", graph=generate_bsbm(scale=5, seed=3))
        with GraphCatalog.open(path) as reopened:
            dictionary = reopened.entry("g").store.dictionary
            assert len(dictionary) > 100
            assert all(type(text) is str for text in dictionary.texts)
            assert all(type(text) is str for text in dictionary._ids)
            assert all(type(identifier) is int for identifier in dictionary._ids.values())
