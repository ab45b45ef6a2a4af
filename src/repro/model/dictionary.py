"""Dictionary encoding of RDF terms into dense integer identifiers.

The paper's prototype (Section 6) encodes every resource of the input graph
into an integer through a PostgreSQL ``dictionary`` table and performs all
summarization on integers, decoding only at the end.  This module provides
the equivalent component: a bidirectional mapping between RDF terms and
dense non-negative integers that, like that table, holds each term once as
a string — its N-Triples text, the wire form of the API.  A
:class:`~repro.model.terms.Term` is minted from the text only when a caller
decodes an id; a renderer reads the text itself (:attr:`Dictionary.texts`).

Encoded graphs are represented by :class:`EncodedTriple` tuples; answers
stay id rows, ordered by the dictionary's term-order rank
(:meth:`Dictionary.sort_rows`).

The **term codecs** live here too: :func:`pack_term` / :func:`unpack_term`,
one term as ``(kind, value, datatype, language)`` (the persistent catalog's
summary artifacts), and :func:`pack_terms` / :func:`unpack_terms`, an id range
as one front-coded :data:`TermChunk` (its dictionary chunks), read off and
written back as texts.  The cluster ships no term.
"""

from __future__ import annotations

import re
import threading
from array import array
from bisect import bisect_right
from collections.abc import Sequence as SequenceABC
from itertools import repeat
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import DictionaryError, PersistenceError, UnknownTermError
from repro.model.terms import BlankNode, Literal, Term, URI, literal_n3, term_sort_key
from repro.model.triple import Triple

__all__ = [
    "Dictionary",
    "EncodedTriple",
    "ID_LIMIT",
    "ID_TYPECODE",
    "PackedTerm",
    "TERM_CHUNK",
    "TermChunk",
    "pack_term",
    "pack_terms",
    "pack_term_chunks",
    "text_sort_key",
    "unpack_term",
    "unpack_terms",
]

#: One term as plain values: ``(kind, value, datatype, language)`` with kind
#: ``'u'`` (URI) | ``'b'`` (blank node) | ``'l'`` (literal).
PackedTerm = Tuple[str, str, Optional[str], Optional[str]]

#: Consecutive terms as four columns: the kinds; per term one byte, the length
#: (at most 255) of the prefix its value shares with the previous value; the
#: suffixes past it; ``(datatype, language)`` of the literals only.
TermChunk = Tuple[str, bytes, List[str], List[Tuple[Optional[str], Optional[str]]]]

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

#: A literal's text: the escaped lexical up to the first unescaped quote,
#: then ``@language``, ``^^<datatype>`` or nothing.
_LITERAL = re.compile(r'"([^"\\]*(?:\\.[^"\\]*)*)"(?:@(.+)|\^\^<(.+)>)?\Z', re.S)


def text_sort_key(text: str) -> Tuple[int, str, str, str]:
    """:func:`~repro.model.terms.term_sort_key` of the term whose N-Triples
    text is *text*, read off the text: a slice for an IRI or a blank node,
    one unescape for a literal."""
    if text[0] == "<":
        return (0, text[1:-1], "", "")
    if text[0] == "_":
        return (1, text[2:], "", "")
    lexical, language, datatype = _LITERAL.match(text).groups()
    return (2, _unescaped(lexical), datatype or "", language or "")


def _term_of_text(text: str) -> Term:
    """Mint the term whose N-Triples text is *text*."""
    if text[0] == "<":
        return URI(text[1:-1])
    if text[0] == "_":
        return BlankNode(text[2:])
    lexical, language, datatype = _LITERAL.match(text).groups()
    return Literal(_unescaped(lexical), URI(datatype) if datatype else None, language)


def _unescaped(lexical: str) -> str:
    """*lexical* with the escapes of :func:`~repro.model.terms.literal_n3`
    undone by the N-Triples decoder, imported on first need: a cluster
    worker, which decodes nothing, imports no parser."""
    if "\\" not in lexical:
        return lexical
    from repro.io.ntriples import _unescape

    return _unescape(lexical)


class EncodedTriple(NamedTuple):
    """An integer-encoded triple ``(subject_id, predicate_id, object_id)``."""

    subject: int
    predicate: int
    object: int


class Dictionary:
    """A bidirectional term ↔ integer-id dictionary of N-Triples texts.

    Identifiers are assigned densely, starting at 0.  :meth:`encode` mints
    the next id; :meth:`encode_triples` numbers a batch's new terms in
    :func:`~repro.model.terms.term_sort_key` order, so a batch gets the same
    ids whatever order (or hash seed) it was iterated in.
    """

    def __init__(self):
        self._ids: Dict[str, int] = {}
        self._texts: List[str] = []
        #: Ids below it are final (a batch settles them once numbered).
        self._settled = 0
        #: The settled ids in term order and ``rank[id]``, each id's position
        #: in it; guarded by self._rank_lock
        self._order, self._rank = array(ID_TYPECODE), array(ID_TYPECODE)
        self._rank_lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._texts)

    def __contains__(self, term: Term) -> bool:
        return term.n3() in self._ids

    def encode(self, term: Term) -> int:
        """Return the id of *term*, assigning a fresh one when unseen."""
        text = term.n3()
        existing = self._ids.get(text)
        if existing is not None:
            return existing
        new_id = len(self._texts)
        self._ids[text] = new_id
        self._texts.append(text)
        self._settle(new_id)
        return new_id

    def _settle(self, start: int, error: Optional[str] = None) -> None:
        """Settle the ids ``[start, len)`` a batch minted, or forget them and
        raise :class:`DictionaryError` — with *error*, or if they crossed
        :data:`ID_LIMIT`."""
        if error is None and len(self._texts) > ID_LIMIT:
            error = f"the dictionary is full: no id past {ID_LIMIT - 1}"
        if error is not None:
            for text in self._texts[start:]:
                del self._ids[text]
            del self._texts[start:]
            raise DictionaryError(error)
        self._settled = len(self._texts)

    def extend(self, texts: Iterable[str]) -> int:
        """Append the terms of N-Triples *texts* as the next dense ids, in
        order; return the new size.

        The bulk path of a receiver of packed terms (a catalog file's
        chunks).  A term already present would land on an id other than the
        next one — the sender's and the receiver's id streams diverged — and
        raises :class:`DictionaryError`, with every term of the call
        forgotten again, rather than silently mis-keying every later row.
        """
        ids, table = self._ids, self._texts
        start = len(table)
        for text in texts:
            expected = len(table)
            if ids.setdefault(text, expected) != expected:
                self._settle(start, f"dictionary divergence: {text} has an id below {expected}")
            table.append(text)
        self._settle(start)
        return len(table)

    def encode_existing(self, term: Term) -> int:
        """Return the id of *term*; raise :class:`UnknownTermError` if unseen."""
        existing = self._ids.get(term.n3())
        if existing is None:
            raise UnknownTermError(f"term not in dictionary: {term!r}")
        return existing

    def decode(self, identifier: int) -> Term:
        """Mint the term with id *identifier*."""
        if not 0 <= identifier < len(self._texts):
            raise UnknownTermError(f"unknown term id: {identifier}")
        return _term_of_text(self._texts[identifier])

    @property
    def texts(self) -> List[str]:
        """The id-indexed N-Triples texts, what a renderer writes.  Treat as
        read-only; the list grows in place as ids are minted."""
        return self._texts

    @property
    def decode_table(self) -> "TermTable":
        """The id-indexed terms, minted on access, for bulk decoding of
        store-produced ids: no bounds check (an unknown id is a plain
        :class:`IndexError`, a negative one aliases) and no method dispatch."""
        return TermTable(self._texts)

    def try_decode(self, identifier: int) -> Optional[Term]:
        """Return the term with id *identifier*, or ``None`` when unknown."""
        if 0 <= identifier < len(self._texts):
            return _term_of_text(self._texts[identifier])
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

        This is the bulk-load path of the stores.  The batch's terms are
        numbered first in a batch-local ``Term`` → index dict, dropped on
        return; each distinct term is then rendered once and looked up by its
        text, and the batch's new terms get the ids ``[start, len)`` in
        :func:`~repro.model.terms.term_sort_key` order — one remap over the
        id columns — so the batch is numbered as a set, not as a sequence.
        """
        local: Dict[Term, int] = {}
        index, size = local.setdefault, local.__len__
        rows = [
            (index(t.subject, size()), index(t.predicate, size()), index(t.object, size()))
            for t in triples
        ]
        terms = list(local)
        texts = [term.n3() for term in terms]
        ids = list(map(self._ids.get, texts))
        fresh = [position for position, known in enumerate(ids) if known is None]
        fresh.sort(key=lambda position: term_sort_key(terms[position]))
        start = len(self._texts)
        for new_id, position in enumerate(fresh, start):
            ids[position] = new_id
        self._texts.extend(map(texts.__getitem__, fresh))
        self._ids.update(zip(self._texts[start:], range(start, len(self._texts))))
        self._settle(start)
        columns = [map(ids.__getitem__, column) for column in zip(*rows)]
        # tuple.__new__ names the rows at C speed; EncodedTriple() is a Python call
        return list(map(tuple.__new__, repeat(EncodedTriple), zip(*columns)))

    def sort_rows(self, rows: Iterable[Sequence[int]]) -> List[Sequence[int]]:
        """*rows* of settled ids as their terms sort by ``term_sort_key``,
        column by column, on the ids' rank.  The term order and the rank are
        kept in place, brought up to date once per batch that minted ids: a
        batch's new ids ascend in term order, so each costs one bisection
        (O(log n) keys), each run of them one merge and the rank one pass.
        An answer whose key tuples (72 bytes a cell) would weigh less than
        the rank (8 bytes a term) sorts by its terms' keys instead.  Every
        key is read off a text (:func:`text_sort_key`); no term is minted."""
        rows, texts = list(rows), self._texts
        if len(rows) < 2 or len(rows) * len(rows[0]) * 9 < len(texts):
            return sorted(rows, key=lambda row: tuple(text_sort_key(texts[c]) for c in row))
        with self._rank_lock:
            order, rank, settled = self._order, self._rank, self._settled
            if len(rank) < settled:
                start, positions, previous = len(rank), array(ID_TYPECODE), ()
                for identifier in range(len(rank), settled):
                    term_key = text_sort_key(texts[identifier])
                    if term_key < previous:  # a run ended
                        _merge_run(order, start, positions)
                        start, positions = identifier, array(ID_TYPECODE)
                    low = positions[-1] if positions else 0
                    positions.append(
                        bisect_right(order, term_key, low, key=lambda i: text_sort_key(texts[i]))
                    )
                    previous = term_key
                _merge_run(order, start, positions)
                rank.frombytes(bytes(rank.itemsize * (settled - len(rank))))
                for position, identifier in enumerate(order):
                    rank[identifier] = position
            for column in reversed(range(len(rows[0]))):
                rows.sort(key=lambda row, column=column: rank[row[column]])
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
        for identifier, text in enumerate(self._texts):
            yield _term_of_text(text), identifier


class TermTable(SequenceABC):
    """A dictionary's terms by id (:attr:`Dictionary.decode_table`), each
    minted from its text when read; it sees ids minted after it was made."""

    __slots__ = ("_texts",)

    def __init__(self, texts: List[str]):
        self._texts = texts

    def __len__(self) -> int:
        return len(self._texts)

    def __getitem__(self, identifier: int) -> Term:
        return _term_of_text(self._texts[identifier])


def _merge_run(order: array, start: int, positions: array) -> None:
    """Insert the ascending run of ids ``start, start + 1, …`` into *order*,
    each before the entries from its position on, from the back: every
    entry moves once."""
    end = len(order)
    order.extend(range(start, start + len(positions)))
    for index in reversed(range(len(positions))):
        position = positions[index]
        order[position + index + 1 : end + index + 1] = order[position:end]
        order[position + index] = start + index
        end = position


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
        return Literal(value, URI(datatype) if datatype else None, language)
    raise DictionaryError(f"unknown packed term kind {kind!r}")


def pack_terms(dictionary: Dictionary, start: int = 0, stop: Optional[int] = None) -> TermChunk:
    """The dictionary's id range ``[start, stop)`` as one :data:`TermChunk`
    in id order, read off the texts — the receiving side re-encodes it in
    sequence and gets identical ids."""
    kinds, shared, suffixes, typed, previous = [], bytearray(), [], [], ""
    datatypes: Dict[str, str] = {}
    for text in dictionary.texts[start:stop]:
        kind, value, datatype, language = text_sort_key(text)
        kinds.append("ubl"[kind])
        if kind == 2:  # one string per datatype, which the pickle then shares
            typed.append((datatypes.setdefault(datatype, datatype) or None, language or None))
        common, length = min(len(previous), len(value), 255), 0
        while length + 8 <= common and previous[length : length + 8] == value[length : length + 8]:
            length += 8  # a slice compare per 8 characters: half the time of 8 index compares
        while length < common and previous[length] == value[length]:
            length += 1
        shared.append(length)
        suffixes.append(value[length:])
        previous = value
    return "".join(kinds), bytes(shared), suffixes, typed


def pack_term_chunks(
    dictionary: Dictionary,
    start: int = 0,
    stop: Optional[int] = None,
    chunk: int = TERM_CHUNK,
) -> List[TermChunk]:
    """The id range ``[start, stop)`` as a list of :func:`pack_terms` chunks.

    Identical id assignment to one flat :func:`pack_terms` call —
    unpacking the chunks in order reproduces the dictionary exactly — but
    no single chunk ever exceeds *chunk* terms.
    """
    if chunk <= 0:
        raise DictionaryError("term chunk size must be positive")
    if stop is None:
        stop = len(dictionary)
    return [
        pack_terms(dictionary, lo, min(lo + chunk, stop)) for lo in range(start, stop, chunk)
    ]


def unpack_terms(chunk: TermChunk, dictionary: Dictionary) -> int:
    """Append the terms of a :func:`pack_terms` *chunk* to *dictionary* in
    order, ids assigned densely (:meth:`Dictionary.extend`: a term that would
    land on an unexpected id raises :class:`DictionaryError` and appends
    nothing); return the new size.  The texts are built from the columns,
    minting no term.  A chunk whose columns disagree in length, or that names
    a shared prefix longer than the previous value or a term no constructor
    accepts, is a :class:`~repro.errors.PersistenceError` and appends nothing."""
    try:
        kinds, shared, suffixes, typed = chunk
        if not len(kinds) == len(shared) == len(suffixes) or len(typed) != kinds.count("l"):
            raise ValueError("its columns disagree in length")
        typed, texts, value = iter(typed), [], ""
        for kind, length, suffix in zip(kinds, shared, suffixes):
            if length > len(value):
                raise ValueError(f"a {length}-character prefix of {value!r}")
            value = value[:length] + suffix
            if kind == "l":
                datatype, language = next(typed)
                if language == "" or datatype and language:
                    raise ValueError(f"a literal typed {datatype!r} tagged {language!r}")
                texts.append(literal_n3(value, datatype or None, language))
            elif kind in ("u", "b") and value:
                texts.append(f"<{value}>" if kind == "u" else "_:" + value)
            else:
                raise ValueError(f"a term of kind {kind!r} and value {value!r}")
    except (TypeError, ValueError) as error:
        raise PersistenceError(f"a term chunk is unreadable: {error}")
    return dictionary.extend(texts)
