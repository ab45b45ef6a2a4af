"""Store-level cardinality statistics behind the query planner.

The paper's prototype keeps the encoded graph in three relational tables;
any cost-based decision about a query over those tables — the join order —
needs the table shapes: how many rows each table holds, how many of them
carry each property, and how many *distinct* subjects/objects each property
touches (the classic selectivity denominators).  This module
holds exactly that, one profile per store:

* per-table row counts and distinct subject / object counts;
* per-property row counts and distinct subject / object counts, per table;
* class-membership counts (rows of the type table per class id).

A profile is **integers only** — O(properties) of them, whatever the row
count — and gets its exactness from the store's own indexes, never from a
private copy of the ids.  :meth:`CardinalityStatistics.from_store` reads
:meth:`TripleStore.cardinalities <repro.store.base.TripleStore.cardinalities>`
(for the memory store an O(1) read per property off the posting runs, no
scan); :meth:`CardinalityStatistics.ingest_rows` — fed the ``(kind, row)``
batches :meth:`TripleStore.insert_triples` returns, after the insert — either
re-reads those counts, when the store keeps them live
(``counts_distinct_keys``), or decides "was this ``(p, s)`` / ``(p, o)`` /
``s`` / ``o`` new" with one :meth:`TripleStore.count_rows
<repro.store.base.TripleStore.count_rows>` probe per key of the batch.  Either
way the profile stays equal to a fresh :meth:`from_store` in O(batch · log n),
so there is nothing worth persisting or shipping: every process derives it
from the rows it already holds.  Class-membership counts are not stored at
all — :meth:`class_count` is a ``count_rows`` probe of the type table's
object index.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Tuple

from repro.model.dictionary import EncodedTriple
from repro.model.triple import TripleKind
from repro.store.base import TripleStore

__all__ = ["PredicateStatistics", "CardinalityStatistics"]

_ALL_KINDS = (TripleKind.DATA, TripleKind.TYPE, TripleKind.SCHEMA)


class PredicateStatistics:
    """Shape of one property within one triple table."""

    __slots__ = ("rows", "distinct_subjects", "distinct_objects")

    def __init__(self, rows: int = 0, distinct_subjects: int = 0, distinct_objects: int = 0):
        self.rows = rows
        self.distinct_subjects = distinct_subjects
        self.distinct_objects = distinct_objects

    def as_dict(self) -> Dict[str, int]:
        return {
            "rows": self.rows,
            "distinct_subjects": self.distinct_subjects,
            "distinct_objects": self.distinct_objects,
        }

    def __eq__(self, other):
        if not isinstance(other, PredicateStatistics):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self):
        return (
            f"PredicateStatistics(rows={self.rows}, subjects={self.distinct_subjects}, "
            f"objects={self.distinct_objects})"
        )


class CardinalityStatistics:
    """Cardinality profile of one :class:`TripleStore`'s three tables.

    Build with :meth:`from_store` and keep fresh with :meth:`ingest_rows`
    after every insert batch; a profile kept fresh that way and a profile
    built anew over the same rows are identical, which is what lets
    :class:`~repro.service.catalog.CatalogEntry` update in place after
    incremental ingest.  The profile stays bound to its store: that is where
    :meth:`ingest_rows` and :meth:`class_count` look things up.
    """

    __slots__ = ("_store", "_rows", "_subjects", "_objects", "_predicates")

    def __init__(self, store: TripleStore):
        self._store = store
        self._rows: Dict[TripleKind, int] = {kind: 0 for kind in _ALL_KINDS}
        self._subjects: Dict[TripleKind, int] = {kind: 0 for kind in _ALL_KINDS}
        self._objects: Dict[TripleKind, int] = {kind: 0 for kind in _ALL_KINDS}
        self._predicates: Dict[TripleKind, Dict[int, PredicateStatistics]] = {
            kind: {} for kind in _ALL_KINDS
        }

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_store(cls, store: TripleStore) -> "CardinalityStatistics":
        """Profile *store* from its own account of its tables' shapes."""
        statistics = cls(store)
        for kind in _ALL_KINDS:
            statistics._read_table(kind)
        return statistics

    def _read_table(self, kind: TripleKind) -> None:
        subjects, objects, by_property = self._store.cardinalities(kind)
        self._subjects[kind] = subjects
        self._objects[kind] = objects
        self._predicates[kind] = {
            predicate: PredicateStatistics(*counts) for predicate, counts in by_property.items()
        }
        self._rows[kind] = sum(counts[0] for counts in by_property.values())

    def ingest_rows(self, rows: Iterable[Tuple[TripleKind, EncodedTriple]]) -> None:
        """Fold ``(kind, row)`` pairs the store has just inserted into the profile.

        Callers must hand in exactly the rows actually inserted (the
        ``skip_existing=True`` contract of :meth:`TripleStore.insert_triples`),
        after the insert — the store's indexes are what tells a new key from
        a known one.
        """
        by_kind: Dict[TripleKind, List[EncodedTriple]] = {}
        for kind, row in rows:
            by_kind.setdefault(kind, []).append(row)
        for kind, batch in by_kind.items():
            if self._store.counts_distinct_keys:
                self._read_table(kind)
            else:
                self._probe_batch(kind, batch)

    def _probe_batch(self, kind: TripleKind, batch: List[EncodedTriple]) -> None:
        """Count *batch* (already inserted) into the *kind* table's profile.

        A key is new exactly when the store holds no more rows with it than
        the batch brought: one indexed count per distinct key of the batch.
        """
        count_rows = self._store.count_rows
        predicates = self._predicates[kind]
        self._rows[kind] += len(batch)
        for predicate, rows in Counter(row[1] for row in batch).items():
            entry = predicates.get(predicate)
            if entry is None:
                entry = predicates[predicate] = PredicateStatistics()
            entry.rows += rows
        for (predicate, subject), rows in Counter((row[1], row[0]) for row in batch).items():
            if count_rows(kind, subject=subject, predicate=predicate) == rows:
                predicates[predicate].distinct_subjects += 1
        for (predicate, obj), rows in Counter((row[1], row[2]) for row in batch).items():
            if count_rows(kind, predicate=predicate, obj=obj) == rows:
                predicates[predicate].distinct_objects += 1
        for subject, rows in Counter(row[0] for row in batch).items():
            if count_rows(kind, subject=subject) == rows:
                self._subjects[kind] += 1
        for obj, rows in Counter(row[2] for row in batch).items():
            if count_rows(kind, obj=obj) == rows:
                self._objects[kind] += 1

    # ------------------------------------------------------------------
    # lookups (the planner's vocabulary)
    # ------------------------------------------------------------------
    def table_rows(self, kind: TripleKind) -> int:
        """Total rows of the *kind* table."""
        return self._rows[kind]

    @property
    def total_rows(self) -> int:
        return sum(self._rows.values())

    def predicate(self, kind: TripleKind, predicate: int) -> Optional[PredicateStatistics]:
        """Per-property profile, or ``None`` when the table never saw it."""
        return self._predicates[kind].get(predicate)

    def predicate_rows(self, kind: TripleKind, predicate: int) -> int:
        entry = self._predicates[kind].get(predicate)
        return entry.rows if entry is not None else 0

    def distinct_predicates(self, kind: TripleKind) -> int:
        return len(self._predicates[kind])

    def distinct_subjects(self, kind: TripleKind, predicate: Optional[int] = None) -> int:
        """Distinct subject ids, per property or per table."""
        if predicate is None:
            return self._subjects[kind]
        entry = self._predicates[kind].get(predicate)
        return entry.distinct_subjects if entry is not None else 0

    def distinct_objects(self, kind: TripleKind, predicate: Optional[int] = None) -> int:
        """Distinct object ids, per property or per table."""
        if predicate is None:
            return self._objects[kind]
        entry = self._predicates[kind].get(predicate)
        return entry.distinct_objects if entry is not None else 0

    def class_count(self, class_id: int) -> int:
        """Type-table rows whose object is *class_id* (class membership)."""
        return self._store.count_rows(TripleKind.TYPE, obj=class_id)

    def class_counts(self) -> Dict[int, int]:
        """All class-membership counts (one pass over the type table)."""
        counts: Counter = Counter()
        for _subjects, _predicates, objects in self._store.scan_columns(TripleKind.TYPE):
            counts.update(objects)
        return dict(counts)

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly rendering (per-table rows and property profiles)."""
        tables: Dict[str, object] = {}
        for kind in _ALL_KINDS:
            tables[kind.name.lower()] = {
                "rows": self._rows[kind],
                "distinct_subjects": self._subjects[kind],
                "distinct_objects": self._objects[kind],
                "predicates": {
                    str(predicate): entry.as_dict()
                    for predicate, entry in sorted(self._predicates[kind].items())
                },
            }
        return {
            "tables": tables,
            "class_rows": {
                str(class_id): count for class_id, count in sorted(self.class_counts().items())
            },
            "total_rows": self.total_rows,
        }

    def __eq__(self, other):
        if not isinstance(other, CardinalityStatistics):
            return NotImplemented
        return (
            self._rows == other._rows
            and self._subjects == other._subjects
            and self._objects == other._objects
            and self._predicates == other._predicates
            and self.class_counts() == other.class_counts()
        )

    def __repr__(self):
        per_kind = ", ".join(
            f"{kind.name.lower()}={self._rows[kind]}" for kind in _ALL_KINDS
        )
        return f"CardinalityStatistics({per_kind})"
