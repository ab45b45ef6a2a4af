"""Incremental, store-driven weak summarization (Section 6.2, Algorithms 1-3).

The paper's prototype builds the weak summary in a single pass over the
encoded data-triples table followed by a pass over the type-triples table,
maintaining the maps described in Section 6.1:

* ``rd`` / ``dr`` — input node → summary node, and its inverse;
* ``dpSrc`` / ``dpTarg`` — data property → its (unique, Prop. 4) summary
  source / target node;
* ``srcDps`` / ``targDps`` — summary node → the data properties it is the
  source / target of;
* ``dcls`` — summary node → its class set;
* ``dtp`` — data property → the single summary data triple it labels.

Whenever a new data triple reveals that two previously distinct summary
nodes must coincide (the subject is already represented *and* the property
already has a source, but they differ), the two nodes are merged —
``MERGEDATANODES`` — keeping the one with more *data* edges (class
memberships do not count, and ties go to the older node so the result is
deterministic across insertion orders).  This mirrors the union-by-size
policy of the underlying equivalence computation and keeps the overall pass
linear in the number of data triples.

The resulting summary is isomorphic to the quotient-based
:func:`repro.core.builders.weak_summary`; the test suite asserts this.

Beyond the one-shot :meth:`IncrementalWeakSummarizer.build` pass, the maps
are maintainable *online*: :meth:`ingest_data` / :meth:`ingest_type` /
:meth:`ingest_row` apply one encoded triple each, in any arrival order, and
:meth:`snapshot` decodes the current state into a :class:`Summary` without
mutating it — so a long-lived summarizer (the weak-summary maintenance of
:class:`repro.service.catalog.GraphCatalog`) can serve a fresh summary after
every batch of additions at cost proportional to the *summary*, never
re-scanning the store.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.naming import SUMMARY_NS, SummaryNamer
from repro.core.summary import Summary
from repro.model.dictionary import EncodedTriple
from repro.model.graph import RDFGraph
from repro.model.namespaces import RDF_TYPE
from repro.model.terms import URI
from repro.model.triple import Triple, TripleKind
from repro.store.base import TripleStore

__all__ = ["IncrementalWeakSummarizer", "incremental_weak_summary"]


class IncrementalWeakSummarizer:
    """Builds the weak summary of the graph loaded in a :class:`TripleStore`."""

    def __init__(self, store: TripleStore):
        self.store = store
        # paper's maps (integer-encoded summary nodes, negative of nothing —
        # summary node ids are plain consecutive ints minted locally)
        self._next_node = 0
        self.rd: Dict[int, int] = {}
        self.dr: Dict[int, Set[int]] = {}
        self.dp_src: Dict[int, int] = {}
        self.dp_targ: Dict[int, int] = {}
        self.src_dps: Dict[int, Set[int]] = {}
        self.targ_dps: Dict[int, Set[int]] = {}
        self.dcls: Dict[int, Set[int]] = {}
        self.dtp: Dict[int, Tuple[int, int, int]] = {}
        # resources seen only as subjects of type triples so far, with their
        # class ids.  They are *not* pooled into the shared ``Nτ`` node
        # eagerly: a data triple may still arrive for them (in which case the
        # classes move to the proper data node), and pooling them early would
        # wrongly glue unrelated resources together.  The pooling of the
        # batch algorithm (Algorithm 3's trailing step) happens at
        # :meth:`snapshot` time instead, on the decoded output only.
        self._typed_only: Dict[int, Set[int]] = {}

    # ------------------------------------------------------------------
    # node management
    # ------------------------------------------------------------------
    def _create_data_node(self, resource: Optional[int] = None) -> int:
        node = self._next_node
        self._next_node += 1
        self.dr[node] = set()
        if resource is not None:
            self.rd[resource] = node
            self.dr[node].add(resource)
        return node

    def _edge_count(self, node: int) -> int:
        """Number of summary *data* edges the node is an endpoint of.

        Class memberships (``dcls``) deliberately do not count: the paper's
        union-by-size policy sizes a node by the data edges that must be
        rewritten when it is dropped, and counting classes would skew the
        keep/drop choice toward heavily-typed nodes whose merge is no
        cheaper.
        """
        return len(self.src_dps.get(node, ())) + len(self.targ_dps.get(node, ()))

    def _merge_data_nodes(self, first: int, second: int) -> int:
        """Merge two summary nodes, keeping the one with more data edges.

        Ties are broken toward the node minted first (smaller id), so the
        summary structure is reproducible regardless of dict iteration or
        triple insertion order.
        """
        if first == second:
            return first
        first_edges = self._edge_count(first)
        second_edges = self._edge_count(second)
        if first_edges != second_edges:
            keep, drop = (first, second) if first_edges > second_edges else (second, first)
        else:
            keep, drop = (first, second) if first < second else (second, first)
        for resource in self.dr.pop(drop, set()):
            self.rd[resource] = keep
            self.dr.setdefault(keep, set()).add(resource)
        for prop in self.src_dps.pop(drop, set()):
            self.dp_src[prop] = keep
            self.src_dps.setdefault(keep, set()).add(prop)
            subject, predicate, obj = self.dtp[prop]
            self.dtp[prop] = (keep, predicate, obj)
        for prop in self.targ_dps.pop(drop, set()):
            self.dp_targ[prop] = keep
            self.targ_dps.setdefault(keep, set()).add(prop)
            subject, predicate, obj = self.dtp[prop]
            self.dtp[prop] = (subject, predicate, keep)
        if drop in self.dcls:
            self.dcls.setdefault(keep, set()).update(self.dcls.pop(drop))
        return keep

    # ------------------------------------------------------------------
    # Algorithm 2: representing subjects and objects of data triples
    # ------------------------------------------------------------------
    def _get_source(self, subject: int, prop: int) -> int:
        source_of_property = self.dp_src.get(prop)
        source_of_subject = self.rd.get(subject)
        if source_of_property is None and source_of_subject is None:
            return self._create_data_node(subject)
        if source_of_property is not None and source_of_subject is None:
            self.rd[subject] = source_of_property
            self.dr.setdefault(source_of_property, set()).add(subject)
            return source_of_property
        if source_of_property is None:
            return source_of_subject
        if source_of_property == source_of_subject:
            return source_of_subject
        return self._merge_data_nodes(source_of_subject, source_of_property)

    def _get_target(self, obj: int, prop: int) -> int:
        target_of_property = self.dp_targ.get(prop)
        target_of_object = self.rd.get(obj)
        if target_of_property is None and target_of_object is None:
            return self._create_data_node(obj)
        if target_of_property is not None and target_of_object is None:
            self.rd[obj] = target_of_property
            self.dr.setdefault(target_of_property, set()).add(obj)
            return target_of_property
        if target_of_property is None:
            return target_of_object
        if target_of_property == target_of_object:
            return target_of_object
        return self._merge_data_nodes(target_of_object, target_of_property)

    # ------------------------------------------------------------------
    # Algorithm 1: summarizing data triples
    # ------------------------------------------------------------------
    def ingest_data(self, subject: int, prop: int, obj: int) -> None:
        """Apply one encoded data triple to the summary maps (Algorithm 1).

        Safe in any arrival order: a resource previously known only from
        type triples is promoted to a proper data node here, carrying its
        pending classes along.
        """
        pending_subject = self._typed_only.pop(subject, None)
        pending_object = self._typed_only.pop(obj, None)
        self._get_source(subject, prop)
        self._get_target(obj, prop)
        # GETTARGET may have merged the node GETSOURCE returned (and
        # vice-versa), so both are re-resolved before creating the edge.
        source = self._get_source(subject, prop)
        target = self._get_target(obj, prop)
        if prop not in self.dtp:
            self.dtp[prop] = (source, prop, target)
            self.dp_src[prop] = source
            self.src_dps.setdefault(source, set()).add(prop)
            self.dp_targ[prop] = target
            self.targ_dps.setdefault(target, set()).add(prop)
        if pending_subject:
            self.dcls.setdefault(self.rd[subject], set()).update(pending_subject)
        if pending_object:
            self.dcls.setdefault(self.rd[obj], set()).update(pending_object)

    # ------------------------------------------------------------------
    # Algorithm 3: summarizing type triples
    # ------------------------------------------------------------------
    def ingest_type(self, subject: int, class_id: int) -> None:
        """Apply one encoded type triple (Algorithm 3, order-independent)."""
        node = self.rd.get(subject)
        if node is None:
            self._typed_only.setdefault(subject, set()).add(class_id)
        else:
            self.dcls.setdefault(node, set()).add(class_id)

    def ingest_row(self, kind: TripleKind, row: EncodedTriple) -> None:
        """Apply one encoded store row of any kind.

        Schema rows carry no summarization state — they are copied from the
        store at decode time — so they are accepted and ignored here, which
        lets callers feed the raw output of
        :meth:`repro.store.base.TripleStore.insert_triples` straight through.
        """
        if kind is TripleKind.DATA:
            self.ingest_data(row[0], row[1], row[2])
        elif kind is TripleKind.TYPE:
            self.ingest_type(row[0], row[2])

    def ingest_rows(self, rows: Iterable[Tuple[TripleKind, EncodedTriple]]) -> None:
        """Apply a batch of ``(kind, row)`` pairs (insert-order preserved)."""
        for kind, row in rows:
            self.ingest_row(kind, row)

    # ------------------------------------------------------------------
    # durable state (the persistent-catalog warm-start path)
    # ------------------------------------------------------------------
    #: The attributes that fully determine the summarizer's state.  Every
    #: one is a pure-integer structure (dicts / sets / tuples of term ids),
    #: so a state dict serializes safely across processes — unlike
    #: :class:`~repro.model.terms.Term` objects, whose memoized hashes are
    #: salted per process and must never be persisted.
    _STATE_KEYS = (
        "rd",
        "dr",
        "dp_src",
        "dp_targ",
        "src_dps",
        "targ_dps",
        "dcls",
        "dtp",
        "_typed_only",
        "_next_node",
    )

    def state_dict(self) -> Dict[str, object]:
        """The summarizer's maps as one plain dictionary of integer structures.

        The returned dict *references* the live maps (no copy): serialize or
        deep-copy it before the summarizer ingests anything further.  This is
        what the persistent catalog checkpoints, so a restarted process can
        :meth:`load_state` and keep maintaining the weak summary without
        re-scanning the store.
        """
        return {key: getattr(self, key) for key in self._STATE_KEYS}

    def load_state(self, state: Dict[str, object]) -> None:
        """Adopt a :meth:`state_dict` (ownership transfers to the summarizer).

        The summarizer behaves exactly as if it had ingested the rows the
        state was built from — :meth:`snapshot` decodes the same summary, and
        further ``ingest_*`` calls continue from there.
        """
        missing = [key for key in self._STATE_KEYS if key not in state]
        if missing:
            raise ValueError(f"incomplete summarizer state: missing {missing}")
        for key in self._STATE_KEYS:
            setattr(self, key, state[key])

    # ------------------------------------------------------------------
    def build(self) -> Summary:
        """Run the two summarization passes over the store and decode."""
        for row in self.store.scan_data():
            self.ingest_data(row[0], row[1], row[2])
        for row in self.store.scan_types():
            self.ingest_type(row[0], row[2])
        return self.snapshot()

    def snapshot(self) -> Summary:
        """Decode the current maps into a :class:`Summary` without mutating.

        Resources still waiting in the typed-only buffer are pooled into one
        shared ``Nτ`` node *of the output only* — exactly the trailing step
        of the batch Algorithm 3 — so the snapshot matches the from-scratch
        weak summary of the triples ingested so far, while the live maps stay
        ready for further :meth:`ingest_data` / :meth:`ingest_type` calls.
        """
        namer = SummaryNamer()
        summary_nodes: List[URI] = []
        position_of: Dict[int, int] = {}  # summarizer node -> index in summary_nodes

        def position(node: int) -> int:
            existing = position_of.get(node)
            if existing is None:
                properties = self.src_dps.get(node, set()) | self.targ_dps.get(node, set())
                label = "Ntau" if not properties else "N"
                existing = position_of[node] = len(summary_nodes)
                summary_nodes.append(namer.for_key(("incremental", node), hint=label))
            return existing

        def uri_of(node: int) -> URI:
            return summary_nodes[position(node)]

        summary_graph = RDFGraph(name="incremental_weak")
        for row in self.store.scan_schema():
            summary_graph.add(self.store.decode_triple(row))
        for prop, (source, predicate, target) in self.dtp.items():
            summary_graph.add(
                Triple(uri_of(source), self.store.decode_term(predicate), uri_of(target))
            )
        for node, classes in self.dcls.items():
            for class_id in classes:
                class_term = self.store.decode_term(class_id)
                summary_graph.add(Triple(uri_of(node), RDF_TYPE, class_term))

        # the rd map leaves as it is held — resource ids and the position of
        # each one's summary node — with no resource decoded
        node_ids = array("i", self.rd)
        block_indexes = array("i", map(position, self.rd.values()))

        if self._typed_only:
            ntau_position = len(summary_nodes)
            ntau_uri = namer.for_key(("incremental", "typed-only"), hint="Ntau")
            summary_nodes.append(ntau_uri)
            class_ids: Set[int] = set()
            for classes in self._typed_only.values():
                class_ids |= classes
            node_ids.extend(self._typed_only)
            block_indexes.extend([ntau_position] * len(self._typed_only))
            for class_id in class_ids:
                summary_graph.add(Triple(ntau_uri, RDF_TYPE, self.store.decode_term(class_id)))

        return Summary.from_ids(
            "weak",
            summary_graph,
            node_ids,
            block_indexes,
            summary_nodes,
            self.store.dictionary.decode_table,
            source_name="store",
        )


def incremental_weak_summary(store: TripleStore) -> Summary:
    """Convenience wrapper around :class:`IncrementalWeakSummarizer`."""
    return IncrementalWeakSummarizer(store).build()
