"""Dictionary encoding of RDF terms into dense integer identifiers.

The paper's prototype (Section 6) encodes every resource of the input graph
into an integer through a PostgreSQL ``dictionary`` table and performs all
summarization on integers, decoding only at the end.  This module provides
the equivalent component: a bidirectional mapping between
:class:`~repro.model.terms.Term` objects and dense non-negative integers.

Encoded graphs are represented by :class:`EncodedTriple` tuples, and
:class:`EncodedGraphView` offers the split of encoded triples into data /
type / schema tables used by the algorithms of Section 6.2.

The **term codec** lives here too (:func:`pack_term` / :func:`unpack_term`
and their id-range forms :func:`pack_terms` / :func:`unpack_terms`): the one
structural ``(kind, value, datatype, language)`` rendering of a term that
leaves the process — in the persistent catalog's term chunks and summary
artifacts (the cluster ships no term: a worker holds integers only).  Term
objects themselves never do: their memoized hashes are salted per process.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from repro.errors import DictionaryError, UnknownTermError
from repro.model.graph import RDFGraph
from repro.model.namespaces import RDF_TYPE, SCHEMA_PROPERTIES
from repro.model.terms import BlankNode, Literal, Term, URI
from repro.model.triple import Triple

__all__ = [
    "Dictionary",
    "EncodedTriple",
    "ID_LIMIT",
    "ID_TYPECODE",
    "EncodedGraphView",
    "PackedTerm",
    "TERM_CHUNK",
    "pack_term",
    "pack_terms",
    "pack_term_chunks",
    "unpack_term",
    "unpack_terms",
]

#: One term as plain values: ``(kind, value, datatype, language)`` with kind
#: ``'u'`` (URI) | ``'b'`` (blank node) | ``'l'`` (literal).
PackedTerm = Tuple[str, str, Optional[str], Optional[str]]

#: Terms per packed chunk: a multi-million-entry dictionary leaves as a
#: sequence of bounded slices instead of one giant list in a single pickle.
TERM_CHUNK = 65_536

#: The one id layout: every id column, posting run and row position of the
#: memory store, the cluster's graph image and the checkpoint's columns is an
#: ``array`` of this typecode — a 4-byte signed int in native byte order.
ID_TYPECODE = "i"
#: One past the largest id a :class:`Dictionary` mints: one more would tear
#: the column it is appended to.  No batch may cross it.
ID_LIMIT = 1 << (8 * array(ID_TYPECODE).itemsize - 1)


class EncodedTriple(NamedTuple):
    """An integer-encoded triple ``(subject_id, predicate_id, object_id)``."""

    subject: int
    predicate: int
    object: int


class Dictionary:
    """A bidirectional term ↔ integer-id dictionary.

    Identifiers are assigned densely, starting at 0, in first-seen order,
    which keeps encoded structures compact and reproducible.
    """

    def __init__(self):
        self._term_to_id: Dict[Term, int] = {}
        self._id_to_term: List[Term] = []

    def __len__(self) -> int:
        return len(self._id_to_term)

    def __contains__(self, term: Term) -> bool:
        return term in self._term_to_id

    def encode(self, term: Term) -> int:
        """Return the id of *term*, assigning a fresh one when unseen."""
        existing = self._term_to_id.get(term)
        if existing is not None:
            return existing
        new_id = len(self._id_to_term)
        self._term_to_id[term] = new_id
        self._id_to_term.append(term)
        self._check_limit(new_id)
        return new_id

    def _check_limit(self, start: int) -> None:
        """Forget the batch that minted ids ``[start, len)`` and raise
        :class:`DictionaryError` if it crossed :data:`ID_LIMIT`."""
        if len(self._id_to_term) > ID_LIMIT:
            for term in self._id_to_term[start:]:
                del self._term_to_id[term]
            del self._id_to_term[start:]
            raise DictionaryError(f"the dictionary is full: no id past {ID_LIMIT - 1}")

    def extend(self, terms: Iterable[Term]) -> int:
        """Append *terms* as the next dense ids, in order; return the new size.

        The bulk path of a receiver of packed terms (a catalog file's
        chunks).  A term already present would
        land on an id other than the next one — the sender's and the
        receiver's id streams diverged — and raises
        :class:`DictionaryError` rather than silently mis-keying every
        later row.
        """
        term_to_id = self._term_to_id
        id_to_term = self._id_to_term
        start = len(id_to_term)
        for term in terms:
            expected = len(id_to_term)
            if term_to_id.setdefault(term, expected) != expected:
                raise DictionaryError(
                    f"dictionary divergence: term {term!r} already had an id below {expected}"
                )
            id_to_term.append(term)
        self._check_limit(start)
        return len(id_to_term)

    def encode_existing(self, term: Term) -> int:
        """Return the id of *term*; raise :class:`UnknownTermError` if unseen."""
        existing = self._term_to_id.get(term)
        if existing is None:
            raise UnknownTermError(f"term not in dictionary: {term!r}")
        return existing

    def decode(self, identifier: int) -> Term:
        """Return the term with id *identifier*."""
        if not 0 <= identifier < len(self._id_to_term):
            raise UnknownTermError(f"unknown term id: {identifier}")
        return self._id_to_term[identifier]

    @property
    def decode_table(self) -> List[Term]:
        """The id-indexed term list, for bulk decoding of known-valid ids.

        Treat as read-only: indexing it directly skips the per-call bounds
        check and method dispatch of :meth:`decode`, which matters when a
        query projection decodes hundreds of thousands of ids.  Ids not
        produced by this dictionary raise a plain :class:`IndexError`
        instead of :class:`UnknownTermError` (negative ids would silently
        alias — callers hold store-produced ids, which are non-negative).
        """
        return self._id_to_term

    def try_decode(self, identifier: int) -> Optional[Term]:
        """Return the term with id *identifier*, or ``None`` when unknown."""
        if 0 <= identifier < len(self._id_to_term):
            return self._id_to_term[identifier]
        return None

    def encode_triple(self, triple: Triple) -> EncodedTriple:
        """Encode the three terms of *triple*."""
        return EncodedTriple(
            self.encode(triple.subject),
            self.encode(triple.predicate),
            self.encode(triple.object),
        )

    def encode_triples(self, triples: Iterable[Triple]) -> List[EncodedTriple]:
        """Encode an iterable of triples in one batched pass.

        This is the bulk-load path of the stores: the per-call overhead of
        :meth:`encode_triple` (three bound-method dispatches per triple) is
        replaced by direct dict probes on locals, which measurably cuts the
        dictionary-encoding share of store loading.
        """
        term_to_id = self._term_to_id
        id_to_term = self._id_to_term
        append = id_to_term.append
        start = len(id_to_term)
        rows: List[EncodedTriple] = []
        for triple in triples:
            subject = triple.subject
            subject_id = term_to_id.get(subject)
            if subject_id is None:
                subject_id = len(id_to_term)
                term_to_id[subject] = subject_id
                append(subject)
            predicate = triple.predicate
            predicate_id = term_to_id.get(predicate)
            if predicate_id is None:
                predicate_id = len(id_to_term)
                term_to_id[predicate] = predicate_id
                append(predicate)
            obj = triple.object
            object_id = term_to_id.get(obj)
            if object_id is None:
                object_id = len(id_to_term)
                term_to_id[obj] = object_id
                append(obj)
            rows.append(EncodedTriple(subject_id, predicate_id, object_id))
        self._check_limit(start)
        return rows

    def decode_triple(self, encoded: EncodedTriple) -> Triple:
        """Decode an :class:`EncodedTriple` back into a :class:`Triple`."""
        return Triple(
            self.decode(encoded.subject),
            self.decode(encoded.predicate),
            self.decode(encoded.object),
        )

    def items(self) -> Iterator[Tuple[Term, int]]:
        """Iterate over ``(term, id)`` pairs in id order."""
        for identifier, term in enumerate(self._id_to_term):
            yield term, identifier


def pack_term(term: Term) -> PackedTerm:
    """*term* as its structural ``(kind, value, datatype, language)`` tuple."""
    if isinstance(term, URI):
        return ("u", term.value, None, None)
    if isinstance(term, BlankNode):
        return ("b", term.label, None, None)
    if isinstance(term, Literal):
        datatype = term.datatype.value if term.datatype is not None else None
        return ("l", term.lexical, datatype, term.language)
    raise DictionaryError(f"not a packable RDF term: {term!r}")


def unpack_term(packed: PackedTerm) -> Term:
    """Re-mint the term a :func:`pack_term` tuple describes."""
    kind, value, datatype, language = packed
    if kind == "u":
        return URI(value)
    if kind == "b":
        return BlankNode(value)
    if kind == "l":
        return Literal(value, datatype=URI(datatype) if datatype else None, language=language)
    raise DictionaryError(f"unknown packed term kind {kind!r}")


def pack_terms(
    dictionary: Dictionary, start: int = 0, stop: Optional[int] = None
) -> List[PackedTerm]:
    """The dictionary's id range ``[start, stop)``, one tuple per term in id
    order — the receiving side re-encodes them in sequence and gets
    identical ids."""
    return [pack_term(term) for term in dictionary.decode_table[start:stop]]


def pack_term_chunks(
    dictionary: Dictionary,
    start: int = 0,
    stop: Optional[int] = None,
    chunk: int = TERM_CHUNK,
) -> List[List[PackedTerm]]:
    """The id range ``[start, stop)`` as a list of :func:`pack_terms` slices.

    Identical id assignment to one flat :func:`pack_terms` call —
    unpacking the chunks in order reproduces the dictionary exactly — but
    no single list ever exceeds *chunk* terms.
    """
    if chunk <= 0:
        raise DictionaryError("term chunk size must be positive")
    if stop is None:
        stop = len(dictionary)
    return [
        pack_terms(dictionary, lo, min(lo + chunk, stop)) for lo in range(start, stop, chunk)
    ]


def unpack_terms(packed: Iterable[PackedTerm], dictionary: Dictionary) -> int:
    """Append *packed* terms to *dictionary* in order; return the new size.

    Ids are assigned densely in append order (:meth:`Dictionary.extend`),
    so feeding a receiver the sender's packed term list (or its tail, for a
    delta) reproduces the sender's id assignment exactly; a term that would
    land on an unexpected id raises :class:`DictionaryError`.
    """
    return dictionary.extend(map(unpack_term, packed))


class EncodedGraphView:
    """Integer-encoded view of a graph, split into the three triple tables.

    This mirrors the storage layout of the paper's prototype: one encoded
    *data* table, one encoded *type* table and one encoded *schema* table,
    plus the dictionary.

    Parameters
    ----------
    graph:
        The graph to encode.
    dictionary:
        Optional pre-populated dictionary to reuse (ids are shared).
    """

    def __init__(self, graph: RDFGraph, dictionary: Optional[Dictionary] = None):
        self.dictionary = dictionary if dictionary is not None else Dictionary()
        self.data_rows: List[EncodedTriple] = []
        self.type_rows: List[EncodedTriple] = []
        self.schema_rows: List[EncodedTriple] = []
        self.type_property_id = self.dictionary.encode(RDF_TYPE)
        self.schema_property_ids = frozenset(
            self.dictionary.encode(p) for p in sorted(SCHEMA_PROPERTIES)
        )
        for triple in graph:
            encoded = self.dictionary.encode_triple(triple)
            if triple.is_schema():
                self.schema_rows.append(encoded)
            elif triple.is_type():
                self.type_rows.append(encoded)
            else:
                self.data_rows.append(encoded)
        # deterministic order for reproducible summarization traces
        self.data_rows.sort()
        self.type_rows.sort()
        self.schema_rows.sort()

    def __len__(self) -> int:
        return len(self.data_rows) + len(self.type_rows) + len(self.schema_rows)

    def all_rows(self) -> Iterator[EncodedTriple]:
        """Iterate over every encoded triple (data, then type, then schema)."""
        yield from self.data_rows
        yield from self.type_rows
        yield from self.schema_rows

    def decode_rows(self, rows: Iterable[EncodedTriple]) -> Iterator[Triple]:
        """Decode an iterable of encoded triples back to :class:`Triple`."""
        for row in rows:
            yield self.dictionary.decode_triple(row)
