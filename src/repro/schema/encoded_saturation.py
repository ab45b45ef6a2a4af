"""Incremental, store-driven RDFS saturation over encoded integer rows.

:func:`repro.schema.saturation.saturate` computes ``G∞`` in one pass over a
decoded :class:`~repro.model.graph.RDFGraph`.  That is the right tool for a
one-shot batch job, but the serving layer maintains a *live* saturated
store: rebuilding ``G∞`` from scratch after every ``add_triples`` batch
costs ``O(|G∞|)`` decode + saturate + re-encode work per update, however
small the delta.  :class:`IncrementalSaturator` applies the same four
instance-level rules —

* rdfs7 — ``x p y`` and ``p ≺sp q``    entail ``x q y``;
* rdfs2 — ``x p y`` and ``p ←d c``     entail ``x τ c``;
* rdfs3 — ``x p y`` and ``p →r c``     entail ``y τ c``;
* rdfs9 — ``x τ c`` and ``c ≺sc d``    entail ``x τ d``;

— directly over the *encoded* rows of a :class:`~repro.store.base.TripleStore`,
fed the way :class:`~repro.core.incremental.CliqueSummarizer` is
(:meth:`build` once, :meth:`ingest_rows` per batch, :meth:`snapshot`), so
:class:`~repro.service.catalog.CatalogEntry` maintains it in the same
ingest routine.  Like the summary maintainer it is derived state: never
checkpointed or shipped — a restarted process builds it again on its first
saturated query.

Delta algebra
-------------
The schema relations are kept *closed* (the integer mirror of
:class:`~repro.schema.rdfs.RDFSchema`), so every instance row derives in
one step from the closed maps and derived rows never need re-processing:
a superproperty copy ``x q y`` of ``x p y`` can only entail rows the
closed maps of ``p`` already produced (closure is transitive and
domain/range are inherited downward).  Semi-naive maintenance therefore
reduces to three cases per freshly inserted row:

* **data row** ``(s, p, o)`` — insert it, then its superproperty copies
  and the (closed) domain / range typings of ``p``;
* **type row** ``(s, τ, c)`` — insert it, then the (closed) superclass
  typings of ``c``;
* **schema row** — re-close the (small) schema, insert the new closure
  rows, and re-derive *only* the base rows of properties / classes whose
  closed entries actually changed — a targeted, retroactive re-derivation
  that makes late-arriving schema triples entail from old data.

Every insertion into the saturated target store is deduplicated
(``skip_existing`` semantics), so each derived row is materialized exactly
once and the cost of a delta is proportional to its *derivations*, never
to ``|G∞|``.  The rules never decode a term: they read the ids of
``rdf:type`` and the four constraint properties off a small *vocabulary*
map (:func:`vocabulary_ids`) their owner keeps current — which is how a
cluster worker, whose store holds no term, maintains ``G∞`` too.
``rdf:type`` is the single term the saturator may have to mint, for a graph
whose explicit triples never used it (in process: a cluster coordinator
mints it before a graph ships).  The target holds every base row once, so
what was derived is the difference of the two stores' sizes
(:meth:`derived_count`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.model.dictionary import Dictionary, EncodedTriple
from repro.model.graph import RDFGraph
from repro.model.namespaces import (
    RDF_TYPE,
    RDFS_DOMAIN,
    RDFS_RANGE,
    RDFS_SUBCLASSOF,
    RDFS_SUBPROPERTYOF,
)
from repro.model.triple import TripleKind
from repro.schema.rdfs import _transitive_closure
from repro.store.base import TripleStore
from repro.store.memory import MemoryStore

__all__ = ["IncrementalSaturator", "vocabulary_ids"]

#: The four constraint relations, keyed by the names used in the state dict.
_SUBCLASS = "subclass"
_SUBPROPERTY = "subproperty"
_DOMAIN = "domain"
_RANGE = "range"
_TYPE = "type"

#: The terms the rules read by id, under their names in a vocabulary map.
_VOCABULARY = {
    RDF_TYPE: _TYPE,
    RDFS_SUBCLASSOF: _SUBCLASS,
    RDFS_SUBPROPERTYOF: _SUBPROPERTY,
    RDFS_DOMAIN: _DOMAIN,
    RDFS_RANGE: _RANGE,
}


def vocabulary_ids(dictionary: Dictionary) -> Dict[str, int]:
    """The vocabulary map of *dictionary*: ``name -> id`` of ``rdf:type``
    and of each RDFS constraint property it holds."""
    return {
        name: dictionary.encode_existing(term)
        for term, name in _VOCABULARY.items()
        if term in dictionary
    }


class IncrementalSaturator:
    """Maintains the saturation ``G∞`` of a :class:`TripleStore` in a second store.

    Parameters
    ----------
    store:
        The base store holding the explicit triples.  Rows handed to
        :meth:`ingest_rows` must already be inserted there (the output of
        :meth:`TripleStore.insert_triples` with ``skip_existing=True`` —
        the same contract as the summary maintainer), because a
        schema delta re-derives from the base store's tables.

    vocabulary:
        The vocabulary map (:func:`vocabulary_ids`) to read and keep — the
        caller's object, not a copy.  Every :meth:`build` and
        :meth:`ingest_rows` first adds what the store's dictionary holds, so
        in process it follows the dictionary; a store without terms (a
        cluster worker's) needs its owner to put an id there before the
        batch that first uses it.

    ``G∞`` is kept in :attr:`target`, a :class:`MemoryStore` that *shares*
    the base store's dictionary, so its rows stay id-compatible with the
    base rows and evaluators over it compile queries identically.
    """

    def __init__(self, store: TripleStore, vocabulary: Optional[Dict[str, int]] = None):
        self.store = store
        self.vocabulary = {} if vocabulary is None else vocabulary
        self.target = MemoryStore()
        self.target.dictionary = store.dictionary
        #: Direct (declared) constraint pairs, one ``id -> {id}`` map per
        #: relation, straight from the schema rows seen so far.
        self._direct: Dict[str, Dict[int, Set[int]]] = {
            _SUBCLASS: {},
            _SUBPROPERTY: {},
            _DOMAIN: {},
            _RANGE: {},
        }
        #: Closed relations (the integer mirror of
        #: :meth:`RDFSchema._ensure_closure`): transitive ≺sc / ≺sp,
        #: domain / range inherited from superproperties and propagated up
        #: the subclass hierarchy.
        self._super_classes: Dict[int, Set[int]] = {}
        self._super_properties: Dict[int, Set[int]] = {}
        self._domains: Dict[int, Set[int]] = {}
        self._ranges: Dict[int, Set[int]] = {}
        #: The constraint relation of each constraint-property id (the
        #: vocabulary inverted, ``rdf:type`` aside; see :meth:`_refresh`).
        self._relation_of: Dict[int, str] = {}

    # ------------------------------------------------------------------
    # schema bookkeeping
    # ------------------------------------------------------------------
    def _refresh(self) -> None:
        """Take in the vocabulary ids the store's dictionary holds."""
        self.vocabulary.update(vocabulary_ids(self.store.dictionary))
        self._relation_of = {
            identifier: name for name, identifier in self.vocabulary.items() if name != _TYPE
        }

    def _register_schema_row(self, row: Tuple[int, int, int]) -> bool:
        """Fold one schema row into the direct maps; ``True`` when new."""
        subject, predicate, obj = row[0], row[1], row[2]
        relation = self._relation_of.get(predicate)
        if relation is None:  # not one of the four constraints: inert
            return False
        targets = self._direct[relation].setdefault(subject, set())
        if obj in targets:
            return False
        targets.add(obj)
        return True

    def _kind_for_property(self, property_id: int) -> TripleKind:
        """The target table a row with this property id belongs to.

        Mirrors :func:`~repro.model.triple.classify_property` at the id
        level, so a derived row whose (super)property is ``rdf:type`` or a
        constraint property lands where the evaluator's table routing will
        look for it.
        """
        if property_id == self.vocabulary.get(_TYPE):
            return TripleKind.TYPE
        if property_id in self._relation_of:
            return TripleKind.SCHEMA
        return TripleKind.DATA

    def _reclose(self) -> None:
        """Recompute the closed relations from the direct maps.

        The integer mirror of :meth:`RDFSchema._ensure_closure`; schemas
        are small (tens to hundreds of constraints), so a full re-close per
        schema delta is negligible next to one instance-rule application.
        """
        self._super_classes = _transitive_closure(self._direct[_SUBCLASS])
        self._super_properties = _transitive_closure(self._direct[_SUBPROPERTY])
        direct_domain = self._direct[_DOMAIN]
        direct_range = self._direct[_RANGE]
        properties = (
            set(direct_domain)
            | set(direct_range)
            | set(self._direct[_SUBPROPERTY])
            | set(self._super_properties)
        )
        domains: Dict[int, Set[int]] = {}
        ranges: Dict[int, Set[int]] = {}
        for prop in properties:
            related = {prop} | self._super_properties.get(prop, set())
            domain_classes: Set[int] = set()
            range_classes: Set[int] = set()
            for candidate in related:
                domain_classes |= direct_domain.get(candidate, set())
                range_classes |= direct_range.get(candidate, set())
            for cls in list(domain_classes):
                domain_classes |= self._super_classes.get(cls, set())
            for cls in list(range_classes):
                range_classes |= self._super_classes.get(cls, set())
            if domain_classes:
                domains[prop] = domain_classes
            if range_classes:
                ranges[prop] = range_classes
        self._domains = domains
        self._ranges = ranges

    def _insert_closure_rows(self, out: List[Tuple[TripleKind, Tuple[int, int, int]]]) -> None:
        """Insert every closed-schema row missing from the target."""
        rows: List[Tuple[TripleKind, Tuple[int, int, int]]] = []
        for relation, closed in (
            (_SUBCLASS, self._super_classes),
            (_SUBPROPERTY, self._super_properties),
            (_DOMAIN, self._domains),
            (_RANGE, self._ranges),
        ):
            property_id = self.vocabulary.get(relation)
            if property_id is None:
                continue
            for subject, objects in closed.items():
                for obj in objects:
                    rows.append((TripleKind.SCHEMA, (subject, property_id, obj)))
        out.extend(self.target.insert_encoded_rows(rows))

    # ------------------------------------------------------------------
    # the instance-level rules (one-step, over the closed maps)
    # ------------------------------------------------------------------
    def _type_identifier(self) -> int:
        type_id = self.vocabulary.get(_TYPE)
        if type_id is None:
            type_id = self.vocabulary[_TYPE] = self.store.dictionary.encode(RDF_TYPE)
        return type_id

    def _derive_data(
        self, subject: int, prop: int, obj: int, rows: List[Tuple[TripleKind, Tuple[int, int, int]]]
    ) -> None:
        """Append the rdfs7 superproperty copies and the rdfs2/3 domain and
        range typings of one data row to *rows* (candidates: the caller
        inserts them in one deduplicating batch)."""
        for super_property in self._super_properties.get(prop, ()):
            rows.append(
                (self._kind_for_property(super_property), (subject, super_property, obj))
            )
        domains = self._domains.get(prop)
        ranges = self._ranges.get(prop)
        if domains or ranges:
            type_id = self._type_identifier()
            for cls in domains or ():
                rows.append((TripleKind.TYPE, (subject, type_id, cls)))
            for cls in ranges or ():
                rows.append((TripleKind.TYPE, (obj, type_id, cls)))

    def _derive_type(
        self, subject: int, cls: int, rows: List[Tuple[TripleKind, Tuple[int, int, int]]]
    ) -> None:
        """Append the rdfs9 superclass typings of one type row to *rows* (the
        closed domains/ranges already include superclasses, so data-row
        typings never re-enter here)."""
        super_classes = self._super_classes.get(cls)
        if super_classes:
            type_id = self._type_identifier()
            rows.extend((TripleKind.TYPE, (subject, type_id, super_class)) for super_class in super_classes)

    # ------------------------------------------------------------------
    # schema deltas: re-close + targeted re-derivation
    # ------------------------------------------------------------------
    def _apply_schema_delta(
        self,
        schema_rows: List[EncodedTriple],
        out: List[Tuple[TripleKind, EncodedTriple]],
    ) -> None:
        """Fold new schema rows in and re-derive exactly what they affect.

        Only base rows are re-derived: every derived data row is a
        superproperty copy of a base row, and closure monotonicity makes
        the *base* predicate's closed entry change whenever any of its
        generalizations' does — so scanning the base tables for the
        affected properties / classes reaches every row a new constraint
        can retroactively entail from.
        """
        out.extend(
            self.target.insert_encoded_rows([(TripleKind.SCHEMA, row) for row in schema_rows])
        )
        # only genuinely new constraint pairs force a re-close
        changed = False
        for row in schema_rows:
            if self._register_schema_row(row):
                changed = True
        if not changed:
            return
        old_super_classes = self._super_classes
        old_super_properties = self._super_properties
        old_domains = self._domains
        old_ranges = self._ranges
        self._reclose()
        self._insert_closure_rows(out)

        def changed_keys(old: Dict[int, Set[int]], new: Dict[int, Set[int]]) -> Set[int]:
            return {
                key
                for key in old.keys() | new.keys()
                if old.get(key, set()) != new.get(key, set())
            }

        affected_properties = (
            changed_keys(old_super_properties, self._super_properties)
            | changed_keys(old_domains, self._domains)
            | changed_keys(old_ranges, self._ranges)
        )
        affected_classes = changed_keys(old_super_classes, self._super_classes)
        derived: List[Tuple[TripleKind, Tuple[int, int, int]]] = []
        for prop in sorted(affected_properties):
            for row in self.store.select(TripleKind.DATA, None, prop, None):
                self._derive_data(row[0], row[1], row[2], derived)
        for cls in sorted(affected_classes):
            for row in self.store.select(TripleKind.TYPE, None, None, cls):
                self._derive_type(row[0], cls, derived)
        out.extend(self.target.insert_encoded_rows(derived))

    # ------------------------------------------------------------------
    # ingest API (mirrors CliqueSummarizer)
    # ------------------------------------------------------------------
    def ingest_rows(
        self, rows: Iterable[Tuple[TripleKind, EncodedTriple]]
    ) -> List[Tuple[TripleKind, EncodedTriple]]:
        """Apply one ``add_triples`` batch of ``(kind, row)`` pairs.

        Returns every row the batch added to the *target* — the base rows
        themselves plus their derivations — in insertion order, so callers
        maintaining derived state over ``G∞`` (the catalog's saturated
        statistics profile) can fold the delta in without a re-scan.

        Schema rows are applied first whatever the batch order (several
        re-close once), so data/type rows of the same batch derive under
        the already-extended closure; the re-derivation pass covers the
        rest, and deduplication makes the overlap free.
        """
        self._refresh()
        fresh: List[Tuple[TripleKind, Tuple[int, int, int]]] = []
        instance_rows: List[Tuple[TripleKind, Tuple[int, int, int]]] = []
        schema_rows: List[Tuple[int, int, int]] = []
        for kind, row in rows:
            if not isinstance(row, tuple):
                row = (row[0], row[1], row[2])
            if kind is TripleKind.SCHEMA:
                schema_rows.append(row)
            else:
                instance_rows.append((kind, row))
        if schema_rows:
            self._apply_schema_delta(schema_rows, fresh)
        # one batched insert for the whole delta.  A *data* row already
        # present is skipped with its derivations: it can only have been
        # materialized as an rdfs7 copy, whose one-step closure is a subset
        # of what produced it (see the module docstring).  A *type* row is
        # derived unconditionally — an rdfs7 copy over a type-valued
        # superproperty lands in the type table *without* an rdfs9 pass
        # (matching the batch semantics), so an explicit type row arriving
        # afterwards still owes its superclass typings.
        inserted = self.target.insert_encoded_rows(instance_rows)
        fresh.extend(inserted)
        fresh_data = {row for kind, row in inserted if kind is TripleKind.DATA}
        derived: List[Tuple[TripleKind, Tuple[int, int, int]]] = []
        for kind, row in instance_rows:
            if kind is TripleKind.DATA:
                if row in fresh_data:
                    self._derive_data(row[0], row[1], row[2], derived)
            else:
                self._derive_type(row[0], row[2], derived)
        # one deduplicating insert for the batch's derivations: the first
        # occurrence of a row wins, as it did when each base row inserted its own
        fresh.extend(self.target.insert_encoded_rows(derived))
        return fresh

    # ------------------------------------------------------------------
    def build(self) -> int:
        """Seed the target with the full saturation of the base store.

        One batched pass per table — the ``O(|G∞|)`` cost paid exactly
        once per graph and process (the catalog counts these as
        ``saturation_builds``); afterwards every update goes through
        :meth:`ingest_rows`.  Returns the number of target rows.
        """
        self._refresh()
        sink: List[Tuple[TripleKind, Tuple[int, int, int]]] = []
        schema_rows = [
            (row[0], row[1], row[2]) for row in self.store.scan_schema()
        ]
        if schema_rows:
            # close the schema up front (no targeted re-derivation pass —
            # the instance tables are ingested in full right below)
            for row in schema_rows:
                self._register_schema_row(row)
            self.target.insert_encoded_rows(
                [(TripleKind.SCHEMA, row) for row in schema_rows]
            )
            self._reclose()
            self._insert_closure_rows(sink)
        for kind in (TripleKind.DATA, TripleKind.TYPE):
            for subjects, predicates, objects in self.store.scan_columns(kind):
                self.ingest_rows(
                    [(kind, row) for row in zip(subjects, predicates, objects)]
                )
        return self.target.statistics().total_rows

    def snapshot(self, name: str = "") -> RDFGraph:
        """Decode the maintained ``G∞`` into a fresh :class:`RDFGraph`."""
        return self.target.to_graph(name=name or "saturated")

    def derived_count(self) -> int:
        """Rows of the target beyond the base rows: the target holds every
        base row once, so this is the size of ``G∞`` minus ``G``."""
        return len(self.target) - len(self.store)
