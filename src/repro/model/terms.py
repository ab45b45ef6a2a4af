"""RDF terms: URIs (IRIs), literals and blank nodes.

The paper (Section 2.1) considers well-formed triples built from uniform
resource identifiers, typed or un-typed literals, and blank nodes.  This
module provides small immutable value objects for each of the three kinds of
term, plus helpers to classify and render them.

Terms are deliberately lightweight (``__slots__``-based, hashable, totally
ordered within their kind) because graphs routinely contain millions of them
and they are used as dictionary keys throughout the library.  Since terms
are immutable, every class memoizes its hash in a dedicated slot: during
dictionary-encoding a term is hashed several times (set membership, id
lookup, index maintenance), and recomputing a tuple hash over the lexical
value each time dominated the load phase of the encoded pipeline.
"""

from __future__ import annotations

from typing import Union

from repro.errors import MalformedTripleError

__all__ = [
    "URI",
    "Literal",
    "BlankNode",
    "Term",
    "is_uri",
    "is_literal",
    "is_blank",
    "literal_n3",
    "term_sort_key",
]


class URI:
    """A URI reference (IRI) identifying a resource.

    Parameters
    ----------
    value:
        The URI string, e.g. ``"http://example.org/book/doi1"``.
    """

    __slots__ = ("value", "_hash")

    def __init__(self, value: str):
        if not isinstance(value, str) or not value:
            raise MalformedTripleError(f"URI value must be a non-empty string, got {value!r}")
        self.value = value
        self._hash = hash(("uri", value))

    def __eq__(self, other):
        return isinstance(other, URI) and self.value == other.value

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        if not isinstance(other, URI):
            return NotImplemented
        return self.value < other.value

    def __repr__(self):
        return f"URI({self.value!r})"

    def __str__(self):
        return self.value

    def n3(self) -> str:
        """Render in N-Triples syntax: ``<uri>``."""
        return f"<{self.value}>"

    @property
    def local_name(self) -> str:
        """Heuristic local name: the fragment after the last ``#`` or ``/``."""
        value = self.value
        for separator in ("#", "/"):
            if separator in value:
                candidate = value.rsplit(separator, 1)[1]
                if candidate:
                    return candidate
        return value


class Literal:
    """An RDF literal: a lexical value with an optional datatype or language tag.

    Parameters
    ----------
    lexical:
        The lexical form, e.g. ``"Le Port des Brumes"`` or ``"1932"``.
    datatype:
        Optional datatype :class:`URI`.
    language:
        Optional BCP-47 language tag, e.g. ``"en"``.  A literal cannot carry
        both a datatype and a language tag.
    """

    __slots__ = ("lexical", "datatype", "language", "_hash")

    def __init__(self, lexical: str, datatype: "URI | None" = None, language: "str | None" = None):
        if not isinstance(lexical, str):
            lexical = str(lexical)
        if datatype is not None and language is not None:
            raise MalformedTripleError("a literal cannot have both a datatype and a language tag")
        if language == "":
            raise MalformedTripleError("a language tag cannot be empty")
        if datatype is not None and not isinstance(datatype, URI):
            datatype = URI(str(datatype))
        self.lexical = lexical
        self.datatype = datatype
        self.language = language
        # "" stands in for None: before CPython 3.12 hash(None) is the
        # object's address, which no PYTHONHASHSEED fixes across processes
        self._hash = hash(("literal", lexical, datatype or "", language or ""))

    def __eq__(self, other):
        return (
            isinstance(other, Literal)
            and self.lexical == other.lexical
            and self.datatype == other.datatype
            and self.language == other.language
        )

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        if not isinstance(other, Literal):
            return NotImplemented
        return self._sort_tuple() < other._sort_tuple()

    def _sort_tuple(self):
        datatype = self.datatype.value if self.datatype else ""
        return (self.lexical, datatype, self.language or "")

    def __repr__(self):
        extra = ""
        if self.datatype is not None:
            extra = f", datatype={self.datatype.value!r}"
        elif self.language is not None:
            extra = f", language={self.language!r}"
        return f"Literal({self.lexical!r}{extra})"

    def __str__(self):
        return self.lexical

    def n3(self) -> str:
        """Render in N-Triples syntax with escaping."""
        datatype = self.datatype.value if self.datatype is not None else None
        return literal_n3(self.lexical, datatype, self.language)


class BlankNode:
    """A blank node: an unknown URI or literal token (labelled null).

    Blank nodes are identified by a local label; two blank nodes with the same
    label inside the same graph denote the same unknown resource.
    """

    __slots__ = ("label", "_hash")

    _counter = 0

    def __init__(self, label: "str | None" = None):
        if label is None:
            BlankNode._counter += 1
            label = f"b{BlankNode._counter}"
        if not isinstance(label, str) or not label:
            raise MalformedTripleError(f"blank node label must be a non-empty string, got {label!r}")
        self.label = label
        self._hash = hash(("blank", label))

    def __eq__(self, other):
        return isinstance(other, BlankNode) and self.label == other.label

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        if not isinstance(other, BlankNode):
            return NotImplemented
        return self.label < other.label

    def __repr__(self):
        return f"BlankNode({self.label!r})"

    def __str__(self):
        return f"_:{self.label}"

    def n3(self) -> str:
        """Render in N-Triples syntax: ``_:label``."""
        return f"_:{self.label}"


Term = Union[URI, Literal, BlankNode]


def is_uri(term) -> bool:
    """Return ``True`` when *term* is a :class:`URI`."""
    return isinstance(term, URI)


def is_literal(term) -> bool:
    """Return ``True`` when *term* is a :class:`Literal`."""
    return isinstance(term, Literal)


def is_blank(term) -> bool:
    """Return ``True`` when *term* is a :class:`BlankNode`."""
    return isinstance(term, BlankNode)


def term_sort_key(term: Term):
    """A total order over heterogeneous terms (URIs < blanks < literals).

    Useful to produce deterministic serializations and canonical forms.
    """
    if isinstance(term, URI):
        return (0, term.value, "", "")
    if isinstance(term, BlankNode):
        return (1, term.label, "", "")
    if isinstance(term, Literal):
        datatype = term.datatype.value if term.datatype else ""
        return (2, term.lexical, datatype, term.language or "")
    raise TypeError(f"not an RDF term: {term!r}")


def literal_n3(lexical: str, datatype: "str | None", language: "str | None") -> str:
    """The N-Triples text of a literal: *lexical* escaped and quoted, then
    ``@language`` or else ``^^<datatype>`` (the IRI's value)."""
    escaped = (
        lexical.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\r", "\\r")
        .replace("\t", "\\t")
    )
    if language is not None:
        return f'"{escaped}"@{language}'
    if datatype is not None:
        return f'"{escaped}"^^<{datatype}>'
    return f'"{escaped}"'

