"""The pre-columnar dict-of-tuples memory store, kept as a test oracle.

This module preserves the PR 1–5 :class:`MemoryStore` implementation —
three Python lists of :class:`EncodedTriple` rows with dict posting lists
per column and per ``(p, s)`` / ``(p, o)`` composite key — exactly as it
behaved before the columnar refactor.  It exists **only** so the test
suite can check the columnar :class:`repro.store.memory.MemoryStore` (and
everything derived from a store's rows) for observational equivalence.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.errors import StoreClosedError
from repro.model.dictionary import EncodedTriple
from repro.model.triple import TripleKind
from repro.store.base import TripleStore

__all__ = ["DictReferenceStore"]

_EMPTY: Tuple[int, ...] = ()


class _DictTable:
    """One encoded triple table with per-column and composite dict indexes.

    All index posting lists hold row positions in insertion order, so every
    selection shape iterates rows in the deterministic order they were
    inserted — whichever index serves it.
    """

    __slots__ = ("rows", "by_subject", "by_predicate", "by_object", "by_ps", "by_po")

    def __init__(self):
        self.rows: List[EncodedTriple] = []
        self.by_subject: Dict[int, List[int]] = defaultdict(list)
        self.by_predicate: Dict[int, List[int]] = defaultdict(list)
        self.by_object: Dict[int, List[int]] = defaultdict(list)
        self.by_ps: Dict[Tuple[int, int], List[int]] = defaultdict(list)
        self.by_po: Dict[Tuple[int, int], List[int]] = defaultdict(list)

    def insert(self, row: EncodedTriple) -> None:
        position = len(self.rows)
        self.rows.append(row)
        self.by_subject[row.subject].append(position)
        self.by_predicate[row.predicate].append(position)
        self.by_object[row.object].append(position)
        self.by_ps[(row.predicate, row.subject)].append(position)
        self.by_po[(row.predicate, row.object)].append(position)

    def _candidate_positions(
        self,
        subject: Optional[int],
        predicate: Optional[int],
        obj: Optional[int],
    ) -> Optional[Iterable[int]]:
        if predicate is not None:
            if subject is not None:
                return self.by_ps.get((predicate, subject), _EMPTY)
            if obj is not None:
                return self.by_po.get((predicate, obj), _EMPTY)
            return self.by_predicate.get(predicate, _EMPTY)
        if subject is not None:
            if obj is not None:
                subject_positions = self.by_subject.get(subject, _EMPTY)
                object_positions = self.by_object.get(obj, _EMPTY)
                return (
                    subject_positions
                    if len(subject_positions) <= len(object_positions)
                    else object_positions
                )
            return self.by_subject.get(subject, _EMPTY)
        if obj is not None:
            return self.by_object.get(obj, _EMPTY)
        return None

    def select(
        self,
        subject: Optional[int],
        predicate: Optional[int],
        obj: Optional[int],
    ) -> Iterator[EncodedTriple]:
        candidate_positions = self._candidate_positions(subject, predicate, obj)
        rows = self.rows
        if candidate_positions is None:
            candidates: Iterable[EncodedTriple] = rows
        else:
            candidates = (rows[position] for position in candidate_positions)
        for row in candidates:
            if subject is not None and row.subject != subject:
                continue
            if predicate is not None and row.predicate != predicate:
                continue
            if obj is not None and row.object != obj:
                continue
            yield row

    def select_many(
        self,
        subjects: Optional[Iterable[int]],
        predicate: Optional[int],
        objects: Optional[Iterable[int]],
    ) -> List[EncodedTriple]:
        rows = self.rows
        out: List[EncodedTriple] = []
        if subjects is not None:
            object_set = None if objects is None else set(objects)
            if predicate is not None:
                by_ps = self.by_ps
                for subject in dict.fromkeys(subjects):
                    for position in by_ps.get((predicate, subject), _EMPTY):
                        row = rows[position]
                        if object_set is None or row.object in object_set:
                            out.append(row)
            else:
                by_subject = self.by_subject
                for subject in dict.fromkeys(subjects):
                    for position in by_subject.get(subject, _EMPTY):
                        row = rows[position]
                        if object_set is None or row.object in object_set:
                            out.append(row)
            return out
        if objects is not None:
            if predicate is not None:
                by_po = self.by_po
                for obj in dict.fromkeys(objects):
                    out.extend(rows[position] for position in by_po.get((predicate, obj), _EMPTY))
            else:
                by_object = self.by_object
                for obj in dict.fromkeys(objects):
                    out.extend(rows[position] for position in by_object.get(obj, _EMPTY))
            return out
        if predicate is not None:
            return [rows[position] for position in self.by_predicate.get(predicate, _EMPTY)]
        return list(rows)

    def distinct_properties(self) -> List[int]:
        return sorted(self.by_predicate.keys())


class DictReferenceStore(TripleStore):
    """The pre-refactor dict-backed :class:`TripleStore` (test oracle only)."""

    def __init__(self):
        super().__init__()
        self._tables: Dict[TripleKind, _DictTable] = {
            TripleKind.DATA: _DictTable(),
            TripleKind.TYPE: _DictTable(),
            TripleKind.SCHEMA: _DictTable(),
        }
        self._seen: Set[Tuple[TripleKind, EncodedTriple]] = set()
        self._closed = False

    def _check_open(self) -> None:
        if self._closed:
            raise StoreClosedError("the store has been closed")

    def _insert_rows(self, rows: Iterable[Tuple[TripleKind, EncodedTriple]]) -> None:
        self._check_open()
        for kind, row in rows:
            if not isinstance(row, EncodedTriple):
                row = EncodedTriple(row[0], row[1], row[2])
            key = (kind, row)
            if key in self._seen:
                continue
            self._seen.add(key)
            self._tables[kind].insert(row)

    def insert_encoded_rows(
        self,
        rows: Iterable[Tuple[TripleKind, EncodedTriple]],
        skip_existing: bool = True,
    ) -> List[Tuple[TripleKind, EncodedTriple]]:
        """Deduplicated encoded insert returning only the fresh rows."""
        self._check_open()
        seen = self._seen
        tables = self._tables
        fresh: List[Tuple[TripleKind, EncodedTriple]] = []
        for kind, row in rows:
            if not isinstance(row, EncodedTriple):
                row = EncodedTriple(row[0], row[1], row[2])
            key = (kind, row)
            if key in seen:
                continue
            seen.add(key)
            tables[kind].insert(row)
            fresh.append((kind, row))
        return fresh

    def scan_data(self) -> Iterator[EncodedTriple]:
        self._check_open()
        return iter(list(self._tables[TripleKind.DATA].rows))

    def scan_types(self) -> Iterator[EncodedTriple]:
        self._check_open()
        return iter(list(self._tables[TripleKind.TYPE].rows))

    def scan_schema(self) -> Iterator[EncodedTriple]:
        self._check_open()
        return iter(list(self._tables[TripleKind.SCHEMA].rows))

    def scan_batches(
        self, kind: TripleKind, batch_size: int = 50_000
    ) -> Iterator[List[EncodedTriple]]:
        self._check_open()
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        rows = self._tables[kind].rows
        for start in range(0, len(rows), batch_size):
            yield rows[start : start + batch_size]

    def select(
        self,
        kind: TripleKind,
        subject: Optional[int] = None,
        predicate: Optional[int] = None,
        obj: Optional[int] = None,
    ) -> Iterator[EncodedTriple]:
        self._check_open()
        return self._tables[kind].select(subject, predicate, obj)

    def select_many(
        self,
        kind: TripleKind,
        subjects: Optional[Iterable[int]] = None,
        predicate: Optional[int] = None,
        objects: Optional[Iterable[int]] = None,
    ) -> List[EncodedTriple]:
        self._check_open()
        return self._tables[kind].select_many(subjects, predicate, objects)

    def count(self, kind: TripleKind) -> int:
        self._check_open()
        return len(self._tables[kind].rows)

    def distinct_properties(self, kind: TripleKind) -> List[int]:
        self._check_open()
        return self._tables[kind].distinct_properties()

    def close(self) -> None:
        self._closed = True
