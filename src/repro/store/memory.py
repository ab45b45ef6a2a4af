"""In-memory encoded triple store over contiguous columnar arrays.

This is the default backend, refactored from dicts-of-tuples to a columnar
core: each table (data, type, schema) holds three id columns — subjects,
predicates, objects, ``array`` of :data:`~repro.model.dictionary.ID_TYPECODE`
(4 bytes per id) — plus *sorted posting runs* per ``(p, s)`` and ``(p, o)``
composite key and per bare subject / object column, at the same width.  A
run is a pair of parallel arrays ``(keys, positions)`` sorted by
``(key, position)`` with an unsorted *pending tail* that absorbs
incremental inserts; the **writer** folds a tail back into its sorted run
at the end of the batch that let it outgrow :data:`TAIL_MERGE_LIMIT` (one
bisect per tail pair plus slice copies) — no read path assigns to a run.
Selection shapes become binary-search range scans over the runs, which
the evaluator's join stages read in place (:meth:`MemoryStore.postings`,
:meth:`MemoryStore.posting_run`); ``scan_columns`` yields the column arrays
in slices.  Every index is built on demand — a warm start from a
column-blob snapshot is three ``frombytes`` per table and nothing else: a
table's first read groups its positions by property, a property's first
read or append builds its two runs, and only a predicate-unbound read
builds the whole-table runs.  Concurrent readers may add an index, never
change one, and publish a property's two runs in one assignment.
Inserts deduplicate by probing the row's ``(p, s)`` run: the store keeps no
second copy of its rows to look them up in.

A run also *is* the distinct set of its key column, so each one carries a
``distinct`` key count — set when the run is built, bumped by an append of
a key it has not seen — and the table shapes the query planner needs
(:meth:`MemoryStore.property_cardinalities`) are O(1) reads per property of
the very index queries are answered from; a property nobody has read yet
has its keys counted once instead.  Nobody keeps a second copy of the ids
to count them.

Because row positions grow monotonically and every pending position is
larger than every merged one, a run sorted by ``(key, position)`` yields
positions in ascending — i.e. insertion — order for any single key, which
preserves the deterministic iteration order the evaluator and the
order-robustness tests rely on.  The same fact builds a run: ascending
positions stably ordered by their key *are* ``(key, position)`` order, so no
per-row tuple is ever made (:func:`_sort_by`).
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left, bisect_right
from itertools import islice
from operator import ne
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro import telemetry
from repro.errors import StoreClosedError
from repro.model.dictionary import EncodedTriple
from repro.model.triple import TripleKind
from repro.store.base import ID_BYTES, ID_TYPECODE, ColumnView, TripleStore

__all__ = ["MemoryStore", "TAIL_MERGE_LIMIT", "BULK_REBUILD_THRESHOLD"]

_EMPTY = array(ID_TYPECODE)

#: Pending-tail length beyond which the writer folds a posting run's tail
#: back into its sorted part when the batch is in.  Below it, lookups scan
#: the tail linearly — bounded work that keeps single-row ingest O(1) amortized.
TAIL_MERGE_LIMIT = 128

#: An insert batch larger than this (and than half the resident rows)
#: drops the table's indexes, to be rebuilt as reads need them, instead of
#: appending row by row — the bulk-load path.
BULK_REBUILD_THRESHOLD = 4096


class _Run:
    """One posting index as a (sorted-run, pending-tail) pair.

    ``keys``/``positions`` are parallel arrays sorted by ``(key, position)``;
    ``tail_keys``/``tail_positions`` hold unmerged appends in arrival order.
    All tail positions exceed all merged positions (positions only grow),
    so per-key position order stays ascending through a merge.

    ``distinct`` is the number of different keys in the run, tail included.
    """

    __slots__ = (
        "keys",
        "positions",
        "tail_keys",
        "tail_positions",
        "distinct",
        "tail_fresh",
    )

    def __init__(self, keys: Optional[array] = None, positions: Optional[array] = None):
        """A run adopting parallel *keys* / *positions* arrays in run order."""
        self.keys = keys = array(ID_TYPECODE) if keys is None else keys
        self.positions = array(ID_TYPECODE) if positions is None else positions
        self.tail_keys = array(ID_TYPECODE)
        self.tail_positions = array(ID_TYPECODE)
        # sorted keys: one more than the places where neighbours differ
        self.distinct = sum(map(ne, keys, islice(keys, 1, None))) + 1 if keys else 0
        #: The keys only the tail holds — what lets an append tell a new key
        #: in O(1) however long the tail has grown; emptied by a merge.
        self.tail_fresh: Set[int] = set()

    def append(self, key: int, position: int) -> None:
        keys = self.keys
        index = bisect_left(keys, key)
        if (index == len(keys) or keys[index] != key) and key not in self.tail_fresh:
            self.tail_fresh.add(key)
            self.distinct += 1
        self.tail_keys.append(key)
        self.tail_positions.append(position)

    def merged(self) -> Tuple[array, array]:
        """``(keys, positions)`` with the tail folded in — new arrays when
        there is a tail, the run itself untouched (any reader may call it).

        Every tail position exceeds every merged one, so a tail pair lands
        right after its key's last merged entry: one ``bisect`` per tail
        pair plus slice copies, no per-row tuple.
        """
        keys, positions = self.keys, self.positions
        if not self.tail_keys:
            return keys, positions
        merged_keys, merged_positions = array(ID_TYPECODE), array(ID_TYPECODE)
        start = 0
        for key, position in sorted(zip(self.tail_keys, self.tail_positions)):
            cut = bisect_right(keys, key, start)
            if cut > start:
                merged_keys.extend(keys[start:cut])
                merged_positions.extend(positions[start:cut])
                start = cut
            merged_keys.append(key)
            merged_positions.append(position)
        merged_keys.extend(keys[start:])
        merged_positions.extend(positions[start:])
        return merged_keys, merged_positions

    def merge(self) -> None:
        """Fold the pending tail into the sorted run.  Writers only: a
        reader assigning ``keys`` and then ``positions`` could hand another
        reader a mismatched pair (see :meth:`_Table.append_batch`)."""
        if not self.tail_keys:
            return
        self.keys, self.positions = self.merged()
        del self.tail_keys[:]
        del self.tail_positions[:]
        self.tail_fresh.clear()

    def positions_for(self, key: int) -> Sequence[int]:
        """Row positions holding *key*, in ascending (insertion) order.

        Assigns nothing: the tail — at most :data:`TAIL_MERGE_LIMIT` long
        once a batch is in — is scanned.
        """
        keys = self.keys
        lo = bisect_left(keys, key)
        matched = self.positions[lo : bisect_right(keys, key, lo)]
        tail_keys = self.tail_keys
        if tail_keys and key in tail_keys:
            matched.extend(
                [position for tail_key, position in zip(tail_keys, self.tail_positions) if tail_key == key]
            )
        return matched

    def __len__(self) -> int:
        return len(self.keys) + len(self.tail_keys)


def _sort_by(column: Sequence[int], positions: Iterable[int]) -> Tuple[array, array]:
    """``(keys, positions)`` of ascending *positions* sorted by *column*.

    A stable sort of the positions by their key is ``(key, position)``
    order — the positions ascend already — so the build holds one int per
    row, never a ``(key, position)`` tuple.
    """
    order = array(ID_TYPECODE, sorted(positions, key=column.__getitem__))
    return array(ID_TYPECODE, map(column.__getitem__, order)), order


def _groups(keys: Sequence[int]) -> Iterator[Tuple[int, int, int]]:
    """``(key, start, stop)`` for each run of equal *keys* (sorted): one
    bisect per distinct key, not a step per row."""
    start, total = 0, len(keys)
    while start < total:
        key = keys[start]
        stop = bisect_right(keys, key, start)
        yield key, start, stop
        start = stop


class _Table:
    """One encoded triple table: three columns plus posting indexes, each
    built on the first read that needs it (and dropped by bulk loads):

    * ``by_predicate[p]`` — row positions of property *p* in insertion
      order (the full-property fetch of the hash join); ``None`` until the
      table's first read groups every position by property in one sort;
    * ``runs[p]`` — ``(ps, po)``, the runs keyed by subject / by object over
      the rows of *p*, built on the property's first read or append;
    * ``whole`` — ``(s_run, o_run)``, runs keyed by subject / object over
      every row, built on the first predicate-unbound read of a table of
      more than one property (a one-property table serves those reads from
      that property's runs);
    * ``counts[p]`` — distinct subjects / objects of a property whose runs
      are unbuilt, counted once for the statistics.

    Readers run concurrently: a reader may add an index, never change one,
    and publishes each pair of runs in one assignment, so no reader sees
    half a pair.  A writer holds the table exclusively.
    """

    __slots__ = ("s_col", "p_col", "o_col", "by_predicate", "runs", "whole", "counts", "index_builds")

    def __init__(self):
        self.s_col = array(ID_TYPECODE)
        self.p_col = array(ID_TYPECODE)
        self.o_col = array(ID_TYPECODE)
        self.by_predicate: Optional[Dict[int, array]] = {}  # an empty table is grouped
        self.runs: Dict[int, Tuple[_Run, _Run]] = {}
        self.whole: Optional[Tuple[_Run, _Run]] = None
        self.counts: Dict[int, Tuple[int, int]] = {}
        #: Table-wide index passes — the grouping by property and the
        #: whole-table runs — for the zero-rebuild warm-start guarantee.
        self.index_builds = 0

    def __len__(self) -> int:
        return len(self.s_col)

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------
    def append_batch(self, rows: Sequence[Tuple[int, int, int]]) -> None:
        start = len(self.s_col)
        subjects, predicates, objects = zip(*rows)
        self.s_col.extend(subjects)
        self.p_col.extend(predicates)
        self.o_col.extend(objects)
        by_predicate = self.by_predicate
        if by_predicate is None:
            return
        if len(rows) > BULK_REBUILD_THRESHOLD and len(rows) * 2 >= start:
            # bulk load: cheaper to regroup everything once, lazily
            self._drop_indexes()
            return
        runs, whole = self.runs, self.whole
        touched = set(predicates)
        for predicate in touched:
            # the runs hold every earlier row before the batch's, so the
            # appends below keep their distinct counts exact (the dedup
            # probe has built them already, unless the property is new)
            if predicate not in by_predicate:
                by_predicate[predicate] = array(ID_TYPECODE)
            self.property_runs(predicate)
        for position, (subject, predicate, obj) in enumerate(rows, start):
            ps_run, po_run = runs[predicate]
            ps_run.append(subject, position)
            po_run.append(obj, position)
            by_predicate[predicate].append(position)
            if whole is not None:
                whole[0].append(subject, position)
                whole[1].append(obj, position)
        # the writer folds: whoever appends holds the table exclusively (the
        # entry's write lock when served), so no reader ever sees a tail past
        # the limit — or has to assign to a run to get rid of one
        folded = [
            run
            for run in (*(whole or ()), *(run for predicate in touched for run in runs[predicate]))
            if len(run.tail_keys) > TAIL_MERGE_LIMIT
        ]
        for run in folded:
            run.merge()
        if folded:
            telemetry.counter("store.tail.folds").inc(len(folded))

    def _drop_indexes(self) -> None:
        """Defer index building to the first read or insert that needs it
        (bulk loads, and column loads on warm start)."""
        self.by_predicate = None
        self.runs = {}
        self.whole = None
        self.counts = {}

    # ------------------------------------------------------------------
    # indexes, built on first need
    # ------------------------------------------------------------------
    def grouped(self) -> Dict[int, array]:
        """``by_predicate``: the positions stably ordered by property on the
        table's first read, each group in ascending (insertion) order."""
        by_predicate = self.by_predicate
        if by_predicate is None:
            predicates, positions = _sort_by(self._cells()[1], range(len(self)))
            by_predicate = {key: positions[start:stop] for key, start, stop in _groups(predicates)}
            self.by_predicate = by_predicate
            self.index_builds += 1
        return by_predicate

    def property_runs(self, predicate: int) -> Optional[Tuple[_Run, _Run]]:
        """``(ps, po)`` runs of *predicate*, sorts of its ``by_predicate``
        group built on first need; ``None`` when no row has the property."""
        pair = self.runs.get(predicate)
        if pair is None:
            positions = self.grouped().get(predicate)
            if positions is None:
                return None
            s_col, _p_col, o_col = self._cells()
            built = (_Run(*_sort_by(s_col, positions)), _Run(*_sort_by(o_col, positions)))
            # a concurrent reader may have built the same pair: keep the first
            pair = self.runs.setdefault(predicate, built)
            telemetry.counter("store.runs.built").inc()
        return pair

    def whole_runs(self) -> Tuple[_Run, _Run]:
        """``(s_run, o_run)`` for the predicate-unbound reads: a one-property
        table's runs of that property, else whole-table runs built on first
        need."""
        whole = self.whole
        if whole is None:
            by_predicate = self.grouped()
            if len(by_predicate) == 1:
                return self.property_runs(next(iter(by_predicate)))
            s_col, _p_col, o_col = self._cells()
            everything = range(len(self))
            whole = self.whole = (_Run(*_sort_by(s_col, everything)), _Run(*_sort_by(o_col, everything)))
            self.index_builds += 1
            telemetry.counter("store.runs.built").inc()
        return whole

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    @property
    def rows(self) -> List[Tuple[int, int, int]]:
        """The table rows as ``(s, p, o)`` tuples (materialized; test aid)."""
        return list(zip(self.s_col, self.p_col, self.o_col))

    def _cells(self) -> Tuple[Sequence[int], Sequence[int], Sequence[int]]:
        """The three columns as what a fetch loop should index by position:
        the arrays themselves, or an adopted view's C-speed read."""
        s_col, p_col, o_col = self.s_col, self.p_col, self.o_col
        if type(s_col) is ColumnView:
            return s_col.cells(), p_col.cells(), o_col.cells()
        return s_col, p_col, o_col

    def _candidate_positions(
        self,
        subject: Optional[int],
        predicate: Optional[int],
        obj: Optional[int],
    ) -> Optional[Sequence[int]]:
        """The most selective posting run's positions for the given shape.

        Returns ``None`` only for the fully unbound shape (a genuine table
        scan).  Composite shapes hit the per-predicate runs directly; the
        ``(s, o)`` shape picks the shorter of the two whole-table ranges.
        """
        if predicate is not None:
            if subject is None and obj is None:
                return self.grouped().get(predicate, _EMPTY)
            pair = self.property_runs(predicate)
            if pair is None:
                return _EMPTY
            return pair[0].positions_for(subject) if subject is not None else pair[1].positions_for(obj)
        if subject is None and obj is None:
            return None
        s_run, o_run = self.whole_runs()
        if subject is not None:
            if obj is not None:
                subject_positions = s_run.positions_for(subject)
                object_positions = o_run.positions_for(obj)
                return (
                    subject_positions
                    if len(subject_positions) <= len(object_positions)
                    else object_positions
                )
            return s_run.positions_for(subject)
        return o_run.positions_for(obj)

    def matching_positions(
        self, subject: Optional[int], predicate: Optional[int], obj: Optional[int]
    ) -> Sequence[int]:
        """Positions of the rows matching the id pattern, ascending for any
        one posting key: the most selective run's range, filtered only where
        no one run covers the shape — subject *and* object bound."""
        positions = self._candidate_positions(subject, predicate, obj)
        if positions is None:
            return range(len(self))
        if subject is None or obj is None:
            return positions
        s_col, _p_col, o_col = self._cells()
        return [
            position
            for position in positions
            if s_col[position] == subject and o_col[position] == obj
        ]

    def holds(self, subject: int, predicate: int, obj: int) -> bool:
        """Whether the row is stored: a probe of the ``(p, s)`` run."""
        return bool(self.matching_positions(subject, predicate, obj))

    def property_cardinalities(self) -> Dict[int, Tuple[int, int, int]]:
        """``{property: (rows, distinct subjects, distinct objects)}``: read
        off a property's runs, or — runs unbuilt — counted once into
        ``counts`` (a property's first append builds its runs first)."""
        runs, counts = self.runs, self.counts
        s_col, _p_col, o_col = self._cells()
        shapes = {}
        for predicate, positions in self.grouped().items():
            pair = runs.get(predicate)
            if pair is not None:
                shapes[predicate] = (len(positions), pair[0].distinct, pair[1].distinct)
                continue
            distinct = counts.get(predicate)
            if distinct is None:
                distinct = counts[predicate] = (
                    len(set(map(s_col.__getitem__, positions))),
                    len(set(map(o_col.__getitem__, positions))),
                )
            shapes[predicate] = (len(positions), *distinct)
        return shapes

    def distinct_keys(self) -> Tuple[int, int]:
        """``(distinct subjects, distinct objects)``: the counts of the runs
        that serve predicate-unbound reads — built on first ask, and kept
        exact by every append after it."""
        s_run, o_run = self.whole_runs()
        return s_run.distinct, o_run.distinct

    def distinct_properties(self) -> List[int]:
        # derived from the raw column: no index build forced by a scan-only
        # consumer (the statistics pass runs before any select)
        return sorted(set(self.p_col))


class MemoryStore(TripleStore):
    """Pure in-memory :class:`TripleStore` backend (columnar)."""

    def __init__(self):
        super().__init__()
        self._tables: Dict[TripleKind, _Table] = {
            TripleKind.DATA: _Table(),
            TripleKind.TYPE: _Table(),
            TripleKind.SCHEMA: _Table(),
        }
        self._closed = False

    def _check_open(self) -> None:
        if self._closed:
            raise StoreClosedError("the store has been closed")

    def _insert_rows(self, rows: Iterable[Tuple[TripleKind, EncodedTriple]]) -> None:
        self.insert_encoded_rows(rows)

    def insert_encoded_rows(
        self,
        rows: Iterable[Tuple[TripleKind, EncodedTriple]],
        skip_existing: bool = True,
    ) -> List[Tuple[TripleKind, EncodedTriple]]:
        """Deduplicated encoded insert; returns the rows **actually inserted**.

        Whatever *skip_existing* says, the store deduplicates physically —
        consistent with the SQLite store, which physically inserts (and
        therefore returns) every row it was handed under the no-duplicates
        bulk contract.  A row is a duplicate when the batch already brought
        it (``dict.fromkeys`` keeps its first copy, in order) or its table's
        ``(p, s)`` run holds it: two bisects of the index queries are
        answered from, not a second copy of the rows.  A table that was
        empty when the batch arrived — the cold load — is not probed at all.
        Rows are appended in the order given: a replayed batch keeps its
        logged order.
        """
        self._check_open()
        tables = self._tables
        fresh = list(dict.fromkeys(rows))
        probed = {kind: table.holds for kind, table in tables.items() if len(table)}
        if probed:
            fresh = [(kind, row) for kind, row in fresh if kind not in probed or not probed[kind](*row)]
        for kind, table in tables.items():
            buffer = [row for row_kind, row in fresh if row_kind is kind]
            if buffer:
                table.append_batch(buffer)
        return fresh

    # ------------------------------------------------------------------
    # scans
    # ------------------------------------------------------------------
    def _scan(self, kind: TripleKind) -> Iterator[EncodedTriple]:
        self._check_open()
        table = self._tables[kind]
        return iter(list(map(EncodedTriple, table.s_col, table.p_col, table.o_col)))

    def scan_data(self) -> Iterator[EncodedTriple]:
        return self._scan(TripleKind.DATA)

    def scan_types(self) -> Iterator[EncodedTriple]:
        return self._scan(TripleKind.TYPE)

    def scan_schema(self) -> Iterator[EncodedTriple]:
        return self._scan(TripleKind.SCHEMA)

    def scan_batches(
        self, kind: TripleKind, batch_size: int = 50_000
    ) -> Iterator[List[Tuple[int, int, int]]]:
        """Yield row-tuple batches zipped straight off the column slices."""
        self._check_open()
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        table = self._tables[kind]
        s_col, p_col, o_col = table.s_col, table.p_col, table.o_col
        for start in range(0, len(s_col), batch_size):
            end = start + batch_size
            yield list(zip(s_col[start:end], p_col[start:end], o_col[start:end]))

    def scan_columns(
        self, kind: TripleKind, batch_size: int = 65_536
    ) -> Iterator[Tuple[array, array, array]]:
        """Yield ``(s, p, o)`` column slices directly — the zero-copy-ish
        scan of the summarization and statistics passes (an ``array`` slice
        is one C-level copy; no per-row tuple is ever built)."""
        self._check_open()
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        table = self._tables[kind]
        s_col, p_col, o_col = table.s_col, table.p_col, table.o_col
        for start in range(0, len(s_col), batch_size):
            end = start + batch_size
            yield s_col[start:end], p_col[start:end], o_col[start:end]

    # ------------------------------------------------------------------
    # selection
    # ------------------------------------------------------------------
    def select(
        self,
        kind: TripleKind,
        subject: Optional[int] = None,
        predicate: Optional[int] = None,
        obj: Optional[int] = None,
    ) -> Iterator[EncodedTriple]:
        positions, (s_col, p_col, o_col) = self._postings(kind, subject, predicate, obj)
        return (EncodedTriple(s_col[i], p_col[i], o_col[i]) for i in positions)

    def select_many(
        self,
        kind: TripleKind,
        subjects: Optional[Iterable[int]] = None,
        predicate: Optional[int] = None,
        objects: Optional[Iterable[int]] = None,
    ) -> List[Tuple[int, int, int]]:
        """One :meth:`postings` range per distinct subject (the objects then
        filter) or per distinct object, or one for the predicate alone: a
        repeated id cannot yield a row twice."""
        object_set = None if subjects is None or objects is None else set(objects)
        if subjects is not None:
            shapes = [(subject, None) for subject in dict.fromkeys(subjects)]
        else:
            shapes = [(None, obj) for obj in dict.fromkeys((None,) if objects is None else objects)]
        out: List[Tuple[int, int, int]] = []
        for subject, obj in shapes:
            positions, (s_col, p_col, o_col) = self._postings(kind, subject, predicate, obj)
            rows = [(s_col[i], p_col[i], o_col[i]) for i in positions]
            out.extend(rows if object_set is None else [r for r in rows if r[2] in object_set])
        return out

    def postings(
        self,
        kind: TripleKind,
        subject: Optional[int] = None,
        predicate: Optional[int] = None,
        obj: Optional[int] = None,
    ) -> Tuple[Sequence[int], Tuple[Sequence[int], Sequence[int], Sequence[int]]]:
        """``(positions, (s, p, o) columns)``: the *kind* table's rows that
        match the id pattern, as positions into its columns — the join's
        streamed scan, which reads cells and builds no row tuple."""
        self._check_open()
        table = self._tables[kind]
        return table.matching_positions(subject, predicate, obj), table._cells()

    _postings = postings  # the store's own reads: a subclass's postings() sees the join's

    def posting_run(
        self, kind: TripleKind, predicate: int, column: int
    ) -> Tuple[Optional[_Run], Sequence[int]]:
        """``(run, other column)``: the ``(p, s)`` (*column* 0) or ``(p, o)``
        (2) run of *predicate*, ``None`` if absent, that a probe stage reads."""
        self._check_open()
        table = self._tables[kind]
        pair = table.property_runs(predicate)
        run = None if pair is None else pair[0 if column == 0 else 1]
        return run, table._cells()[2 - column]

    def count(self, kind: TripleKind) -> int:
        self._check_open()
        return len(self._tables[kind])

    def count_rows(
        self,
        kind: TripleKind,
        subject: Optional[int] = None,
        predicate: Optional[int] = None,
        obj: Optional[int] = None,
    ) -> int:
        """A posting-range length wherever one run covers the shape, i.e.
        unless subject *and* object are both bound."""
        return len(self._postings(kind, subject, predicate, obj)[0])

    #: :meth:`property_cardinalities` is a live O(properties) read of the
    #: posting runs — the runs count their own distinct keys as rows are
    #: appended — so a statistics profile re-reads it after an ingest
    #: instead of probing.
    counts_distinct_keys = True

    def property_cardinalities(self, kind: TripleKind) -> Dict[int, Tuple[int, int, int]]:
        self._check_open()
        return self._tables[kind].property_cardinalities()

    def distinct_keys(self, kind: TripleKind) -> Tuple[int, int]:
        self._check_open()
        return self._tables[kind].distinct_keys()

    def distinct_properties(self, kind: TripleKind) -> List[int]:
        self._check_open()
        return self._tables[kind].distinct_properties()

    # ------------------------------------------------------------------
    # column-blob snapshots (the persistence layer's zero-copy path)
    # ------------------------------------------------------------------
    def column_bytes(self, kind: TripleKind) -> Tuple[int, bytes, bytes, bytes]:
        """``(row_count, s_bytes, p_bytes, o_bytes)`` — the columns' own bytes."""
        self._check_open()
        table = self._tables[kind]
        return len(table), table.s_col.tobytes(), table.p_col.tobytes(), table.o_col.tobytes()

    def _load_columns(self, kind: TripleKind, s_col, p_col, o_col) -> int:
        """Adopt the columns — arrays, or views over borrowed buffers — as
        the (empty) *kind* table's.  The warm-start path: **no** index build
        — that is deferred to the first read or insert that needs it."""
        self._check_open()
        table = self._tables[kind]
        if len(table):
            raise ValueError(f"{kind.name} table is not empty")
        if not len(s_col) == len(p_col) == len(o_col):
            raise ValueError("columns disagree on row count")
        table.s_col, table.p_col, table.o_col = s_col, p_col, o_col
        table._drop_indexes()
        return len(table)

    def adopt_column_buffers(
        self,
        kind: TripleKind,
        s_buffer,
        p_buffer,
        o_buffer,
        byteorder: str = sys.byteorder,
    ) -> int:
        """Adopt externally owned id column buffers for an empty table.

        The zero-copy twin of :meth:`load_column_bytes`: instead of copying
        the blobs into private ``array`` columns, the table's base columns
        become :class:`~repro.store.base.ColumnView` objects —
        ``memoryview.cast`` windows over buffers someone else owns
        (a shared-memory segment), with private tails absorbing every later
        insert.  Zero bytes copied, zero index built (deferred exactly like
        the blob path); posting runs, sorted runs and scans behave
        identically.  A foreign *byteorder* cannot alias the buffer (the
        rows need a byteswap), so it degrades to the copying
        :meth:`load_column_bytes` path — correctness first, sharing when
        the bytes allow it.

        The buffers must outlive the store; :meth:`close` releases the
        adopted views so the owner can unmap the backing segment.
        """
        self._check_open()
        if byteorder != sys.byteorder:
            return self.load_column_bytes(
                kind,
                bytes(s_buffer),
                bytes(p_buffer),
                bytes(o_buffer),
                byteorder=byteorder,
            )
        views = []
        try:
            for buffer in (s_buffer, p_buffer, o_buffer):
                view = memoryview(buffer)
                if view.nbytes % ID_BYTES:
                    raise ValueError(f"column buffer is not a whole number of {ID_BYTES}-byte ids")
                views.append(ColumnView(view))
            return self._load_columns(kind, *views)
        except BaseException:
            for view in views:
                view.release()
            raise

    def column_memory(self) -> Dict[str, int]:
        """Deterministic column-byte accounting: private vs adopted.

        ``private_bytes`` counts process-owned column storage (plain
        ``array`` columns plus the tails of adopted views);
        ``adopted_bytes`` counts borrowed base buffers (shared segments —
        one physical copy per host however many stores adopt them).  The
        cluster reports replica memory from this, not from RSS: RSS
        attributes every touched shared page to every process and would
        hide exactly the sharing being measured.
        """
        self._check_open()
        private = 0
        adopted = 0
        for table in self._tables.values():
            for column in (table.s_col, table.p_col, table.o_col):
                if isinstance(column, ColumnView):
                    adopted += column.base_nbytes
                    private += column.tail_nbytes
                else:
                    private += len(column) * column.itemsize
        return {"private_bytes": private, "adopted_bytes": adopted}

    def index_build_count(self) -> int:
        """Table-wide index passes across the three tables (observability):
        a table's grouping by property on its first read, and its
        whole-table runs on its first predicate-unbound read.  A property's
        own runs are not counted here but in the ``store.runs.built``
        registry counter, which also counts each whole-table build."""
        self._check_open()
        return sum(table.index_builds for table in self._tables.values())

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # drop adopted views: the segment owner cannot close its mapping
        # while exported memoryviews are alive (BufferError)
        for table in self._tables.values():
            for column in (table.s_col, table.p_col, table.o_col):
                if isinstance(column, ColumnView):
                    column.release()
