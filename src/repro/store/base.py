"""The :class:`TripleStore` interface.

The paper's prototype (Section 6) stores the encoded input graph in three
relational tables — data triples, type triples and schema triples — plus a
dictionary table, and drives summarization by scanning / selecting over
those tables.  :class:`TripleStore` captures exactly that contract so the
summarization algorithms can run against any backend:

* :class:`repro.store.memory.MemoryStore` — default, pure in-memory;
* :class:`repro.store.sqlite.SQLiteStore` — SQL-backed, mirroring the
  PostgreSQL architecture of the original system.
"""

from __future__ import annotations

import abc
import sys
from array import array
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.model.dictionary import ID_TYPECODE, Dictionary, EncodedTriple
from repro.model.graph import RDFGraph
from repro.model.terms import Term
from repro.model.triple import Triple, TripleKind, classify_property

__all__ = ["TripleStore", "StoreStatistics", "ColumnView", "ID_TYPECODE", "ID_BYTES"]

#: Bytes per id of the one id layout, :data:`repro.model.dictionary.ID_TYPECODE`.
ID_BYTES = array(ID_TYPECODE).itemsize


class ColumnView:
    """One id column backed by a borrowed buffer plus a private tail.

    The zero-copy half of the shared-memory data plane: ``base`` is a
    ``memoryview`` cast to :data:`ID_TYPECODE` over an *externally owned*
    buffer (a slice of a mapped :mod:`repro.cluster.shm` segment) and is
    never copied, while ``tail`` is an ordinary ``array`` of the same
    typecode absorbing every append — exactly the sorted-run/pending-tail
    split the columnar store already uses, lifted to the storage level.  The
    view quacks like the ``array`` column it replaces for every read path of
    :class:`repro.store.memory.MemoryStore` (integer indexing, slicing,
    iteration, ``tobytes``) and funnels all growth into the tail, so
    deltas stay process-private while the bulk of the graph stays one
    mapping shared by every worker on the host.

    The buffer's owner outlives the view; :meth:`release` drops the
    exported ``memoryview`` so the owner's segment can be closed without
    :class:`BufferError` (the store calls it from ``close()``).
    """

    __slots__ = ("base", "base_length", "tail")

    def __init__(self, base: memoryview):
        if base.format != ID_TYPECODE:
            base = base.cast(ID_TYPECODE)
        self.base = base
        self.base_length = len(base)
        self.tail = array(ID_TYPECODE)

    def __len__(self) -> int:
        return self.base_length + len(self.tail)

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step == 1:
                out = array(ID_TYPECODE)
                base_stop = min(stop, self.base_length)
                if start < base_stop:
                    out.frombytes(self.base[start:base_stop].tobytes())
                tail_start = max(start - self.base_length, 0)
                tail_stop = stop - self.base_length
                if tail_stop > tail_start:
                    out.extend(self.tail[tail_start:tail_stop])
                return out
            return array(ID_TYPECODE, (self[i] for i in range(start, stop, step)))
        if index < 0:
            index += len(self)
        if 0 <= index < self.base_length:
            return self.base[index]
        tail_index = index - self.base_length
        if 0 <= tail_index < len(self.tail):
            return self.tail[tail_index]
        raise IndexError("column index out of range")

    def __iter__(self) -> Iterator[int]:
        yield from self.base
        yield from self.tail

    def cells(self) -> Sequence[int]:
        """The column as an integer-indexable read at C speed.

        While nothing was appended that is the borrowed ``memoryview``
        itself, so a fetch loop indexing it pays no Python call per cell; a
        view with a private tail has to splice and reads through itself.
        """
        return self if self.tail else self.base

    def append(self, value: int) -> None:
        self.tail.append(value)

    def extend(self, values: Iterable[int]) -> None:
        self.tail.extend(values)

    def tobytes(self) -> bytes:
        return self.base.tobytes() + self.tail.tobytes()

    @property
    def base_nbytes(self) -> int:
        """Bytes of the borrowed (shared) buffer region."""
        return self.base_length * ID_BYTES

    @property
    def tail_nbytes(self) -> int:
        """Bytes of the process-private tail."""
        return len(self.tail) * ID_BYTES

    def release(self) -> None:
        """Drop the borrowed buffer (the view keeps only its tail).

        After release the base region reads as empty — the owner is about
        to unmap the segment, and a half-closed store must fail shut
        rather than fault on a dead mapping.
        """
        self.base.release()
        self.base = memoryview(b"").cast(ID_TYPECODE)
        self.base_length = 0


class StoreStatistics:
    """Row counts of the three encoded triple tables plus the dictionary."""

    __slots__ = ("data_rows", "type_rows", "schema_rows", "dictionary_size")

    def __init__(self, data_rows: int, type_rows: int, schema_rows: int, dictionary_size: int):
        self.data_rows = data_rows
        self.type_rows = type_rows
        self.schema_rows = schema_rows
        self.dictionary_size = dictionary_size

    @property
    def total_rows(self) -> int:
        return self.data_rows + self.type_rows + self.schema_rows

    def as_dict(self) -> dict:
        return {
            "data_rows": self.data_rows,
            "type_rows": self.type_rows,
            "schema_rows": self.schema_rows,
            "dictionary_size": self.dictionary_size,
            "total_rows": self.total_rows,
        }

    def __repr__(self):
        return (
            f"StoreStatistics(data={self.data_rows}, type={self.type_rows}, "
            f"schema={self.schema_rows}, dict={self.dictionary_size})"
        )


class TripleStore(abc.ABC):
    """Abstract encoded triple store with data / type / schema tables."""

    #: ``True`` when :meth:`property_cardinalities` is a live O(properties)
    #: read that already reflects every insert (the backend counts distinct
    #: keys as it indexes); otherwise a statistics profile keeps its own
    #: counters exact with :meth:`count_rows` probes.
    counts_distinct_keys = False

    def __init__(self):
        self.dictionary = Dictionary()

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def load_graph(self, graph: RDFGraph) -> int:
        """Encode and load every triple of *graph*; return the row count."""
        return len(self.insert_triples(graph))

    def load_triples(self, triples: Iterable[Triple]) -> int:
        """Encode and load an arbitrary iterable of triples."""
        return self.load_graph(RDFGraph(triples))

    def insert_triples(
        self, triples: Iterable[Triple], skip_existing: bool = False
    ) -> List[Tuple[TripleKind, EncodedTriple]]:
        """Encode *triples* in one batched pass, insert them, return the rows.

        A batch is a set: its new terms are numbered in term order
        (:meth:`~repro.model.dictionary.Dictionary.encode_triples`) and its
        rows stored in ``(p, o, s)`` order, whatever order they came in.  The
        returned ``(kind, encoded_row)`` list (stored order) lets callers that
        maintain derived state — e.g. the summary maintainer and the
        saturator of :class:`repro.service.catalog.CatalogEntry` — consume
        the freshly assigned ids without re-encoding.

        With ``skip_existing=False`` (the bulk-load default) callers are
        expected not to hand in triples already present: backends may or may
        not deduplicate (:class:`~repro.store.memory.MemoryStore` does, the
        SQLite backend inserts plain rows).  ``skip_existing=True`` filters
        both within the batch and against the stored rows (one indexed
        ``select`` probe per triple) and returns only the rows actually
        inserted — the contract incremental updaters need.
        """
        rows = self.dictionary.encode_triples(triples)
        rows.sort(key=itemgetter(1, 2, 0))
        predicates = list(map(itemgetter(1), rows))
        decode = self.dictionary.decode_table
        kind_of = {p: classify_property(decode[p]) for p in set(predicates)}
        return self.insert_encoded_rows(
            list(zip(map(kind_of.__getitem__, predicates), rows)), skip_existing=skip_existing
        )

    def insert_encoded_rows(
        self,
        rows: Iterable[Tuple[TripleKind, EncodedTriple]],
        skip_existing: bool = True,
    ) -> List[Tuple[TripleKind, EncodedTriple]]:
        """Insert already-encoded ``(kind, row)`` pairs; return the fresh ones.

        The encoded twin of :meth:`insert_triples` for callers that mint
        rows directly at the integer level — the incremental saturator
        derives ``G∞`` rows this way and needs the freshly-inserted subset
        back to know which derivations actually extended the store.  With
        ``skip_existing=True`` (the default here — derived rows routinely
        repeat) rows already present, and in-batch duplicates, are
        filtered; the ids must come from this store's dictionary.
        """
        rows = list(rows)
        if skip_existing:
            rows = list(dict.fromkeys(rows))
            existing = {
                kind: self._existing_rows(kind, [row for row_kind, row in rows if row_kind is kind])
                for kind in {kind for kind, _row in rows}
            }
            rows = [(kind, row) for kind, row in rows if row not in existing[kind]]
        self._insert_rows(rows)
        return rows

    def _existing_rows(
        self, kind: TripleKind, rows: List[EncodedTriple]
    ) -> "set[Tuple[int, int, int]]":
        """Which of *rows* the *kind* table already holds — one batched
        probe, so :meth:`insert_encoded_rows` deduplication stays O(1)
        round-trips per batch.  Abstract for every backend that does not
        replace :meth:`insert_encoded_rows` outright."""
        raise NotImplementedError

    @abc.abstractmethod
    def _insert_rows(self, rows: Iterable[Tuple[TripleKind, EncodedTriple]]) -> None:
        """Insert encoded rows tagged with the table they belong to."""

    # ------------------------------------------------------------------
    # scans (the SELECTs issued by the summarization algorithms)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def scan_data(self) -> Iterator[EncodedTriple]:
        """Scan the data-triples table (``SELECT s, p, o FROM D_G``)."""

    @abc.abstractmethod
    def scan_types(self) -> Iterator[EncodedTriple]:
        """Scan the type-triples table (``SELECT s, c FROM T_G`` with the
        type property id in the middle position)."""

    @abc.abstractmethod
    def scan_schema(self) -> Iterator[EncodedTriple]:
        """Scan the schema-triples table."""

    @abc.abstractmethod
    def scan_batches(
        self, kind: TripleKind, batch_size: int = 50_000
    ) -> Iterator[List[EncodedTriple]]:
        """Scan the *kind* table in chunks of up to *batch_size* rows.

        The encoded summarization engine iterates these batches instead of
        single rows so per-row iterator overhead stays off the hot path
        (the ``fetchmany`` discipline of the paper's JDBC experiments).
        Rows are ``(s, p, o)`` integer tuples (:class:`EncodedTriple` or
        any 3-tuple); a non-positive *batch_size* is a ``ValueError``.
        """

    def scan_columns(
        self, kind: TripleKind, batch_size: int = 65_536
    ) -> Iterator[Tuple[Sequence[int], Sequence[int], Sequence[int]]]:
        """Scan the *kind* table as ``(s, p, o)`` column batches.

        The columnar twin of :meth:`scan_batches`: each yielded item is a
        triple of parallel integer sequences (one value per row), which
        lets consumers bulk-update sets and dicts at C speed
        (``seen.update(s_column)``) instead of looping per row.  The
        memory backend yields its array slices directly; this default
        transposes :meth:`scan_batches` rows once per batch, so every
        backend supports the columnar consumers unmodified.
        """
        for batch in self.scan_batches(kind, batch_size):
            if not batch:
                continue
            yield tuple(array(ID_TYPECODE, column) for column in zip(*batch))

    def column_bytes(self, kind: TripleKind) -> Tuple[int, bytes, bytes, bytes]:
        """``(row_count, s_bytes, p_bytes, o_bytes)``: the *kind* table as
        three packed :data:`ID_TYPECODE` columns in native byte order.

        The one packer: the cluster's graph image lays these bytes out and
        the checkpoint stores their byte planes through ``zlib``.  This default gathers
        :meth:`scan_columns`; the memory store hands over its arrays.
        """
        columns = [array(ID_TYPECODE) for _column in "spo"]
        for batch in self.scan_columns(kind):
            for column, part in zip(columns, batch):
                column.extend(part)
        return (len(columns[0]), *(column.tobytes() for column in columns))

    def load_column_bytes(
        self,
        kind: TripleKind,
        s_bytes: bytes,
        p_bytes: bytes,
        o_bytes: bytes,
        byteorder: str = sys.byteorder,
    ) -> int:
        """Load :meth:`column_bytes` blobs into the *kind* table; return the
        rows: one ``frombytes`` per column (a ``byteswap`` when *byteorder*
        is not this host's), then :meth:`_load_columns`."""
        columns = []
        for blob in (s_bytes, p_bytes, o_bytes):
            column = array(ID_TYPECODE)
            column.frombytes(blob)
            if byteorder != sys.byteorder:
                column.byteswap()
            columns.append(column)
        return self._load_columns(kind, *columns)

    def _load_columns(self, kind: TripleKind, s_col, p_col, o_col) -> int:
        """Take three id columns as rows of the *kind* table; this default
        inserts them row by row (the memory store adopts the columns)."""
        if not len(s_col) == len(p_col) == len(o_col):
            raise ValueError("columns disagree on row count")
        self._insert_rows([(kind, EncodedTriple(*row)) for row in zip(s_col, p_col, o_col)])
        return len(s_col)

    def __len__(self) -> int:
        """Total rows across the three tables."""
        return (
            self.count(TripleKind.DATA)
            + self.count(TripleKind.TYPE)
            + self.count(TripleKind.SCHEMA)
        )

    def __bool__(self) -> bool:
        # an empty store is still a store: never let ``__len__`` leak into
        # truthiness checks on store references
        return True

    @abc.abstractmethod
    def select(
        self,
        kind: TripleKind,
        subject: Optional[int] = None,
        predicate: Optional[int] = None,
        obj: Optional[int] = None,
    ) -> Iterator[EncodedTriple]:
        """Select rows of the *kind* table matching the given id pattern."""

    @abc.abstractmethod
    def select_many(
        self,
        kind: TripleKind,
        subjects: Optional[Iterable[int]] = None,
        predicate: Optional[int] = None,
        objects: Optional[Iterable[int]] = None,
    ) -> Iterable[EncodedTriple]:
        """Batched selection: rows matching *predicate* (scalar, optional)
        whose subject is in *subjects* and object is in *objects* (each an
        optional id collection).

        The batched fetch of the evaluator's hash path: one call per
        (pattern, table), not one :meth:`select` per binding.  A stored row
        comes back once however often its id repeats in *subjects* /
        *objects*.  Rows are ``(s, p, o)`` integer triples; callers must
        not rely on their order.
        """

    @abc.abstractmethod
    def count(self, kind: TripleKind) -> int:
        """Number of rows in the *kind* table."""

    def count_rows(
        self,
        kind: TripleKind,
        subject: Optional[int] = None,
        predicate: Optional[int] = None,
        obj: Optional[int] = None,
    ) -> int:
        """How many rows of the *kind* table match the id pattern.

        The counting twin of :meth:`select`, answered from the same indexes:
        it is the probe :class:`~repro.service.statistics.CardinalityStatistics`
        keeps its distinct counts exact with ("is this ``(p, s)`` new?") and
        reads class-membership counts through.  This default walks
        :meth:`select`; backends override it with a posting-range length or
        a ``COUNT(*)``.
        """
        return sum(1 for _row in self.select(kind, subject, predicate, obj))

    def property_cardinalities(self, kind: TripleKind) -> Dict[int, Tuple[int, int, int]]:
        """The shape of the *kind* table's properties: ``{property: (rows,
        distinct subjects, distinct objects)}`` — all the planner needs for
        a pattern whose property is bound.

        This default counts in one :meth:`scan_columns` pass over transient
        id sets; the memory store reads the numbers off its posting runs and
        the SQLite store asks its engine.
        """
        by_property: Dict[int, list] = {}
        for s_batch, p_batch, o_batch in self.scan_columns(kind):
            for subject, predicate, obj in zip(s_batch, p_batch, o_batch):
                entry = by_property.get(predicate)
                if entry is None:
                    entry = by_property[predicate] = [0, set(), set()]
                entry[0] += 1
                entry[1].add(subject)
                entry[2].add(obj)
        return {
            predicate: (rows, len(property_subjects), len(property_objects))
            for predicate, (rows, property_subjects, property_objects) in by_property.items()
        }

    def distinct_keys(self, kind: TripleKind) -> Tuple[int, int]:
        """``(distinct subjects, distinct objects)`` of the *kind* table —
        what a pattern with an unbound property is estimated by.  This
        default counts in one :meth:`scan_columns` pass."""
        subjects: set = set()
        objects: set = set()
        for s_batch, _p_batch, o_batch in self.scan_columns(kind):
            subjects.update(s_batch)
            objects.update(o_batch)
        return len(subjects), len(objects)

    @abc.abstractmethod
    def distinct_properties(self, kind: TripleKind) -> List[int]:
        """Distinct property ids occurring in the *kind* table."""

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release backend resources.  Idempotent."""

    def __enter__(self) -> "TripleStore":
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.close()
        return False

    # ------------------------------------------------------------------
    # decoding helpers
    # ------------------------------------------------------------------
    def decode_term(self, identifier: int) -> Term:
        """Decode an integer id back to an RDF term."""
        return self.dictionary.decode(identifier)

    def decode_triple(self, row: EncodedTriple) -> Triple:
        """Decode an encoded row back to a :class:`Triple`."""
        return self.dictionary.decode_triple(row)

    def to_graph(self, name: str = "") -> RDFGraph:
        """Decode the whole store back into an :class:`RDFGraph`."""
        graph = RDFGraph(name=name)
        for row in self.scan_data():
            graph.add(self.decode_triple(row))
        for row in self.scan_types():
            graph.add(self.decode_triple(row))
        for row in self.scan_schema():
            graph.add(self.decode_triple(row))
        return graph

    def statistics(self) -> StoreStatistics:
        """Return row counts per table and dictionary size."""
        return StoreStatistics(
            data_rows=self.count(TripleKind.DATA),
            type_rows=self.count(TripleKind.TYPE),
            schema_rows=self.count(TripleKind.SCHEMA),
            dictionary_size=len(self.dictionary),
        )
