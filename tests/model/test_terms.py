"""Tests for RDF terms (URI, Literal, BlankNode)."""

import pytest

from repro.errors import MalformedTripleError
from repro.model.namespaces import XSD
from repro.model.terms import (
    URI,
    BlankNode,
    Literal,
    is_blank,
    is_literal,
    is_uri,
    term_sort_key,
)


class TestURI:
    def test_equality_and_hash(self):
        assert URI("http://example.org/a") == URI("http://example.org/a")
        assert hash(URI("http://example.org/a")) == hash(URI("http://example.org/a"))
        assert URI("http://example.org/a") != URI("http://example.org/b")

    def test_not_equal_to_other_kinds(self):
        assert URI("http://example.org/a") != Literal("http://example.org/a")
        assert URI("x") != BlankNode("x")

    def test_empty_value_rejected(self):
        with pytest.raises(MalformedTripleError):
            URI("")

    def test_non_string_rejected(self):
        with pytest.raises(MalformedTripleError):
            URI(42)

    def test_n3_rendering(self):
        assert URI("http://example.org/a").n3() == "<http://example.org/a>"

    def test_local_name_after_hash(self):
        assert URI("http://example.org/vocab#Book").local_name == "Book"

    def test_local_name_after_slash(self):
        assert URI("http://example.org/Book").local_name == "Book"

    def test_local_name_without_separator(self):
        assert URI("urn-like-value").local_name == "urn-like-value"

    def test_ordering(self):
        assert URI("http://a") < URI("http://b")


class TestLiteral:
    def test_plain_literal_equality(self):
        assert Literal("abc") == Literal("abc")
        assert Literal("abc") != Literal("abd")

    def test_datatype_distinguishes(self):
        assert Literal("1", datatype=XSD.term("integer")) != Literal("1")

    def test_language_distinguishes(self):
        assert Literal("chat", language="fr") != Literal("chat", language="en")

    def test_datatype_and_language_exclusive(self):
        with pytest.raises(MalformedTripleError):
            Literal("x", datatype=XSD.term("string"), language="en")

    def test_empty_language_tag_is_malformed(self):
        # it would be unequal to the plain literal yet share its sort key,
        # so no order over terms could tell the two apart
        with pytest.raises(MalformedTripleError):
            Literal("a", language="")

    def test_non_string_lexical_coerced(self):
        assert Literal(1932).lexical == "1932"

    def test_datatype_string_coerced_to_uri(self):
        literal = Literal("1", datatype="http://www.w3.org/2001/XMLSchema#integer")
        assert isinstance(literal.datatype, URI)

    def test_n3_plain(self):
        assert Literal("abc").n3() == '"abc"'

    def test_n3_escaping(self):
        assert Literal('say "hi"\n').n3() == '"say \\"hi\\"\\n"'

    def test_n3_language(self):
        assert Literal("chat", language="fr").n3() == '"chat"@fr'

    def test_n3_datatype(self):
        rendered = Literal("1", datatype=XSD.term("integer")).n3()
        assert rendered.startswith('"1"^^<')

    def test_hashable(self):
        assert len({Literal("a"), Literal("a"), Literal("b")}) == 2


class TestBlankNode:
    def test_label_equality(self):
        assert BlankNode("b1") == BlankNode("b1")
        assert BlankNode("b1") != BlankNode("b2")

    def test_auto_label_unique(self):
        assert BlankNode() != BlankNode()

    def test_empty_label_rejected(self):
        with pytest.raises(MalformedTripleError):
            BlankNode("")

    def test_n3(self):
        assert BlankNode("b1").n3() == "_:b1"


class TestPredicates:
    def test_kind_predicates(self):
        assert is_uri(URI("http://a"))
        assert is_literal(Literal("x"))
        assert is_blank(BlankNode("b"))
        assert not is_uri(Literal("x"))
        assert not is_literal(BlankNode("b"))
        assert not is_blank(URI("http://a"))

    def test_sort_key_total_order(self):
        terms = [Literal("z"), URI("http://a"), BlankNode("m"), Literal("a", language="en")]
        ordered = sorted(terms, key=term_sort_key)
        assert isinstance(ordered[0], URI)
        assert isinstance(ordered[-1], Literal)
        # total over distinct terms: no two share a key
        alike = [
            URI("http://a"),
            BlankNode("http://a"),
            Literal("http://a"),
            Literal("http://a", language="en"),
            Literal("http://a", datatype=XSD.term("string")),
        ]
        assert len({term_sort_key(term) for term in alike}) == len(set(alike)) == 5

    def test_sort_key_rejects_non_terms(self):
        with pytest.raises(TypeError):
            term_sort_key("not a term")


class TestHashMemoization:
    """Terms memoize their hash (hot path of dictionary encoding)."""

    def test_equal_terms_hash_equal(self):
        assert hash(URI("http://e/a")) == hash(URI("http://e/a"))
        assert hash(Literal("v", datatype=URI("http://e/t"))) == hash(
            Literal("v", datatype=URI("http://e/t"))
        )
        assert hash(BlankNode("b")) == hash(BlankNode("b"))

    def test_distinct_kinds_hash_differently(self):
        # a URI and a literal with the same lexical form must not collide
        assert hash(URI("x")) != hash(Literal("x"))

    def test_memoized_hash_is_stable(self):
        term = URI("http://e/stable")
        assert hash(term) == hash(term) == term._hash

    def test_terms_usable_as_dict_keys_across_instances(self):
        mapping = {URI("http://e/k"): 1}
        assert mapping[URI("http://e/k")] == 1
