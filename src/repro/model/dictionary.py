"""Dictionary encoding of RDF terms into dense integer identifiers.

The paper's prototype (Section 6) encodes every resource of the input graph
into an integer through a PostgreSQL ``dictionary`` table and performs all
summarization on integers, decoding only at the end.  This module provides
the equivalent component: a bidirectional mapping between
:class:`~repro.model.terms.Term` objects and dense non-negative integers.

Encoded graphs are represented by :class:`EncodedTriple` tuples; answers
stay id rows, ordered by the dictionary's term-order rank
(:meth:`Dictionary.sort_rows`).

The **term codecs** live here too: :func:`pack_term` / :func:`unpack_term`,
one term as ``(kind, value, datatype, language)`` (the persistent catalog's
summary artifacts), and :func:`pack_terms` / :func:`unpack_terms`, an id range
as one front-coded :data:`TermChunk` (its dictionary chunks).  The cluster
ships no term, and Term objects never leave the process: their memoized
hashes are salted per process.
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_right
from itertools import repeat
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import DictionaryError, MalformedTripleError, PersistenceError, UnknownTermError
from repro.model.terms import BlankNode, Literal, Term, URI, term_sort_key
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


class EncodedTriple(NamedTuple):
    """An integer-encoded triple ``(subject_id, predicate_id, object_id)``."""

    subject: int
    predicate: int
    object: int


class Dictionary:
    """A bidirectional term ↔ integer-id dictionary.

    Identifiers are assigned densely, starting at 0.  :meth:`encode` mints
    the next id; :meth:`encode_triples` numbers a batch's new terms in
    :func:`~repro.model.terms.term_sort_key` order, so a batch gets the same
    ids whatever order (or hash seed) it was iterated in.
    """

    def __init__(self):
        self._term_to_id: Dict[Term, int] = {}
        self._id_to_term: List[Term] = []
        #: Ids below it are final (a batch settles them once numbered).
        self._settled = 0
        #: The settled ids in term order and ``rank[id]``, each id's position
        #: in it; guarded by self._rank_lock
        self._order, self._rank = array(ID_TYPECODE), array(ID_TYPECODE)
        self._rank_lock = threading.Lock()

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
        self._settle(new_id)
        return new_id

    def _settle(self, start: int) -> None:
        """Settle the ids ``[start, len)`` a batch minted, or forget them and
        raise :class:`DictionaryError` if they crossed :data:`ID_LIMIT`."""
        if len(self._id_to_term) > ID_LIMIT:
            for term in self._id_to_term[start:]:
                del self._term_to_id[term]
            del self._id_to_term[start:]
            raise DictionaryError(f"the dictionary is full: no id past {ID_LIMIT - 1}")
        self._settled = len(self._id_to_term)

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
        self._settle(start)
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

        This is the bulk-load path of the stores: direct dict probes on
        locals instead of three bound-method dispatches per triple.  The ids
        ``[start, len)`` the batch minted are then renumbered in
        :func:`~repro.model.terms.term_sort_key` order — one remap over the
        id columns — so the batch is numbered as a set, not as a sequence.
        """
        term_to_id = self._term_to_id
        id_to_term = self._id_to_term
        append = id_to_term.append
        start = len(id_to_term)
        rows: List[Tuple[int, int, int]] = []
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
            rows.append((subject_id, predicate_id, object_id))
        if len(id_to_term) - start > 1:
            minted = id_to_term[start:]
            order = sorted(range(len(minted)), key=list(map(term_sort_key, minted)).__getitem__)
            new_ids = range(start, len(id_to_term))
            id_to_term[start:] = map(minted.__getitem__, order)
            term_to_id.update(zip(id_to_term[start:], new_ids))
            remap = dict(zip(map(start.__add__, order), new_ids)).get
            rows = zip(*(map(remap, column, column) for column in zip(*rows)))
        self._settle(start)
        # tuple.__new__ names the rows at C speed; EncodedTriple() is a Python call
        return list(map(tuple.__new__, repeat(EncodedTriple), rows))

    def sort_rows(self, rows: Iterable[Sequence[int]]) -> List[Sequence[int]]:
        """*rows* of settled ids as their terms sort by ``term_sort_key``,
        column by column, on the ids' rank.  The term order and the rank are
        kept in place, brought up to date once per batch that minted ids: a
        batch's new ids ascend in term order, so each costs one bisection
        (O(log n) keys), each run of them one merge and the rank one pass.
        An answer whose key tuples (72 bytes a cell) would weigh less than
        the rank (8 bytes a term) sorts by its terms' keys instead."""
        rows, table = list(rows), self._id_to_term
        if len(rows) < 2 or len(rows) * len(rows[0]) * 9 < len(table):
            return sorted(rows, key=lambda row: tuple(term_sort_key(table[c]) for c in row))
        with self._rank_lock:
            order, rank, settled = self._order, self._rank, self._settled
            if len(rank) < settled:
                start, positions, previous = len(rank), array(ID_TYPECODE), ()
                for identifier in range(len(rank), settled):
                    term_key = term_sort_key(table[identifier])
                    if term_key < previous:  # a run ended
                        _merge_run(order, start, positions)
                        start, positions = identifier, array(ID_TYPECODE)
                    low = positions[-1] if positions else 0
                    positions.append(
                        bisect_right(order, term_key, low, key=lambda i: term_sort_key(table[i]))
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
        for identifier, term in enumerate(self._id_to_term):
            yield term, identifier


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
    in id order — the receiving side re-encodes it in sequence and gets
    identical ids."""
    kinds, shared, suffixes, typed, previous = [], bytearray(), [], [], ""
    for term in dictionary.decode_table[start:stop]:
        kind, value, datatype, language = pack_term(term)
        kinds.append(kind)
        if kind == "l":
            typed.append((datatype, language))
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
    land on an unexpected id raises :class:`DictionaryError`); return the new
    size.  A chunk whose columns disagree in length, or that names a shared
    prefix longer than the previous value or an unknown kind, is a
    :class:`~repro.errors.PersistenceError` and appends nothing."""
    try:
        kinds, shared, suffixes, typed = chunk
        if not len(kinds) == len(shared) == len(suffixes) or len(typed) != kinds.count("l"):
            raise ValueError("its columns disagree in length")
        typed, terms, value = iter(typed), [], ""
        for kind, length, suffix in zip(kinds, shared, suffixes):
            if length > len(value):
                raise ValueError(f"a {length}-character prefix of {value!r}")
            value = value[:length] + suffix
            terms.append(unpack_term((kind, value) + (next(typed) if kind == "l" else (None, None))))
    except (DictionaryError, TypeError, ValueError, MalformedTripleError) as error:
        raise PersistenceError(f"a term chunk is unreadable: {error}")
    return dictionary.extend(terms)

