"""Incremental, store-driven weak summarization (Section 6.2, Algorithms 1-3).

The paper's prototype builds the weak summary in a single pass over the
encoded data-triples table followed by a pass over the type-triples table,
maintaining the maps described in Section 6.1:

* ``rd`` / ``dr`` — input node → summary node, and its inverse.  Here
  ``rd`` is an ``array('i')`` indexed by the dense dictionary id, and ``dr``
  is not materialised: a union-find forest over summary nodes (``parent``)
  records which node a merged one went into, so a merge costs its
  summary-sized edges, never a relabelling of the members — and no process
  holds a per-resource dict entry or set for the weak summary;
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
are maintainable *online*: :meth:`ingest_data` / :meth:`ingest_type` apply
one encoded triple each (:meth:`ingest_rows` a batch), in any arrival order, and
:meth:`snapshot` decodes the current state into a :class:`Summary` without
mutating it — so a long-lived summarizer (the weak-summary maintenance of
:class:`repro.service.catalog.GraphCatalog`) can serve a fresh summary after
every batch of additions at cost proportional to the *summary*, never
re-scanning the store.  :class:`CliqueSummarizer` does the same for the
strong summary, from the property-clique state both summaries are defined on.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import compress, repeat
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.naming import SummaryNamer
from repro.core.summary import Summary
from repro.model.dictionary import EncodedTriple
from repro.model.graph import RDFGraph
from repro.model.namespaces import RDF_TYPE
from repro.model.terms import URI
from repro.model.triple import Triple, TripleKind
from repro.store.base import TripleStore
from repro.utils.unionfind import IntUnionFind

__all__ = [
    "CliqueSummarizer",
    "IncrementalWeakSummarizer",
    "incremental_weak_summary",
]

#: ``rd`` code of a resource no triple has mentioned yet.
_UNSEEN = -1
#: ``rd`` codes from here down mark a resource known from type triples only:
#: ``_TYPED_ONLY - k`` carries the interned class set ``k``.
_TYPED_ONLY = -2
_NO_CLASSES: FrozenSet[int] = frozenset()


class IncrementalWeakSummarizer:
    """Builds the weak summary of the graph loaded in a :class:`TripleStore`."""

    def __init__(self, store: TripleStore):
        self.store = store
        #: Input node -> summary node, as a dense array indexed by dictionary
        #: id: the summary node the resource was last seen on (resolve it
        #: through :meth:`_find`), :data:`_UNSEEN`, or a typed-only code.
        self.rd = array("i")
        #: The union-find forest over summary nodes (the paper's ``dr``,
        #: inverted): ``parent[node] == node`` for a live node, otherwise the
        #: node it was merged into.  Node ids are consecutive, so
        #: ``len(parent)`` is the next one to mint.
        self.parent = array("i")
        self.dp_src: Dict[int, int] = {}
        self.dp_targ: Dict[int, int] = {}
        self.src_dps: Dict[int, Set[int]] = {}
        self.targ_dps: Dict[int, Set[int]] = {}
        self.dcls: Dict[int, Set[int]] = {}
        self.dtp: Dict[int, Tuple[int, int, int]] = {}
        # resources seen only as subjects of type triples so far are *not*
        # pooled into the shared ``Nτ`` node eagerly: a data triple may
        # still arrive for them (in which case the classes move to the
        # proper data node), and pooling them early would wrongly glue
        # unrelated resources together.  Their class sets are interned here
        # (``rd`` holds the index, ``class_set_users`` how many resources
        # carry each), and the pooling of the batch algorithm (Algorithm 3's
        # trailing step) happens at :meth:`snapshot` time instead, on the
        # decoded output only.
        self.class_sets: List[FrozenSet[int]] = []
        self.class_set_users = array("i")
        self._class_set_ids: Dict[FrozenSet[int], int] = {}

    # ------------------------------------------------------------------
    # node management
    # ------------------------------------------------------------------
    def _assign(self, resource: int, code: int) -> None:
        rd = self.rd
        if resource >= len(rd):
            # exactly as far as needed: the state then depends on the rows
            # ingested alone, not on what else the dictionary holds
            rd.extend(array("i", (_UNSEEN,)) * (resource + 1 - len(rd)))
        rd[resource] = code

    def _find(self, node: int) -> int:
        """The live node *node* was merged into (path-compressing)."""
        parent = self.parent
        root = parent[node]
        if root == node:
            return node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    def _node_of(self, resource: int) -> Optional[int]:
        """The summary node representing *resource* (``None``: none yet)."""
        rd = self.rd
        if resource >= len(rd):
            return None
        node = rd[resource]
        if node < 0:
            return None
        if self.parent[node] != node:
            node = rd[resource] = self._find(node)
        return node

    def _create_data_node(self, resource: Optional[int] = None) -> int:
        node = len(self.parent)
        self.parent.append(node)
        if resource is not None:
            self._assign(resource, node)
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
        triple insertion order.  The dropped node's resources follow through
        the union-find link; only its (summary-sized) edges are rewritten.
        """
        if first == second:
            return first
        first_edges = self._edge_count(first)
        second_edges = self._edge_count(second)
        if first_edges != second_edges:
            keep, drop = (first, second) if first_edges > second_edges else (second, first)
        else:
            keep, drop = (first, second) if first < second else (second, first)
        self.parent[drop] = keep
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
    def _endpoint(self, resource: int, node_of_property: Optional[int]) -> int:
        """GETSOURCE / GETTARGET: the node standing for *resource* at one end
        of a property whose node at that end (if any) is *node_of_property*."""
        node_of_resource = self._node_of(resource)
        if node_of_resource is None:
            if node_of_property is None:
                return self._create_data_node(resource)
            self._assign(resource, node_of_property)
            return node_of_property
        if node_of_property is None or node_of_property == node_of_resource:
            return node_of_resource
        return self._merge_data_nodes(node_of_resource, node_of_property)

    # ------------------------------------------------------------------
    # Algorithm 1: summarizing data triples
    # ------------------------------------------------------------------
    def ingest_data(self, subject: int, prop: int, obj: int) -> None:
        """Apply one encoded data triple to the summary maps (Algorithm 1).

        Safe in any arrival order: a resource previously known only from
        type triples is promoted to a proper data node here, carrying its
        pending classes along.
        """
        rd = self.rd
        pending_subject = pending_object = _NO_CLASSES
        # (the common row finds both ends already on the property's own
        # nodes — which are live, and rule out a typed-only code)
        source = self.dp_src.get(prop)
        if source is None or subject >= len(rd) or rd[subject] != source:
            pending_subject = self._take_pending_classes(subject)
            source = self._endpoint(subject, source)
        target = self.dp_targ.get(prop)
        if target is None or obj >= len(rd) or rd[obj] != target:
            pending_object = self._take_pending_classes(obj)
            target = self._endpoint(obj, target)
            # GETTARGET may have merged the node GETSOURCE returned into another
            source = self._find(source)
        if prop not in self.dtp:
            self.dtp[prop] = (source, prop, target)
            self.dp_src[prop] = source
            self.src_dps.setdefault(source, set()).add(prop)
            self.dp_targ[prop] = target
            self.targ_dps.setdefault(target, set()).add(prop)
        if pending_subject:
            self.dcls.setdefault(self._node_of(subject), set()).update(pending_subject)
        if pending_object:
            self.dcls.setdefault(self._node_of(obj), set()).update(pending_object)

    # ------------------------------------------------------------------
    # Algorithm 3: summarizing type triples
    # ------------------------------------------------------------------
    def _take_pending_classes(self, resource: int) -> FrozenSet[int]:
        """Un-park a typed-only *resource*; the classes it was parked with."""
        rd = self.rd
        if resource >= len(rd) or rd[resource] > _TYPED_ONLY:
            return _NO_CLASSES
        index = _TYPED_ONLY - rd[resource]
        self.class_set_users[index] -= 1
        rd[resource] = _UNSEEN
        return self.class_sets[index]

    def _park_typed_only(self, resource: int, classes: FrozenSet[int]) -> None:
        index = self._class_set_ids.get(classes)
        if index is None:
            index = self._class_set_ids[classes] = len(self.class_sets)
            self.class_sets.append(classes)
            self.class_set_users.append(0)
        self.class_set_users[index] += 1
        self._assign(resource, _TYPED_ONLY - index)

    def ingest_type(self, subject: int, class_id: int) -> None:
        """Apply one encoded type triple (Algorithm 3, order-independent)."""
        node = self._node_of(subject)
        if node is None:
            self._park_typed_only(subject, self._take_pending_classes(subject) | {class_id})
        else:
            self.dcls.setdefault(node, set()).add(class_id)

    def ingest_rows(self, rows: Iterable[Tuple[TripleKind, EncodedTriple]]) -> None:
        """Apply a batch of ``(kind, row)`` pairs (insert-order preserved).

        Schema rows carry no summarization state — they are copied from the
        store at decode time — so they are accepted and ignored here, which
        lets callers feed the raw output of
        :meth:`repro.store.base.TripleStore.insert_triples` straight through.
        """
        for kind, row in rows:
            if kind is TripleKind.DATA:
                self.ingest_data(row[0], row[1], row[2])
            elif kind is TripleKind.TYPE:
                self.ingest_type(row[0], row[2])

    # ------------------------------------------------------------------
    # durable state (the persistent-catalog warm-start path)
    # ------------------------------------------------------------------
    #: The attributes that fully determine the summarizer's state.  Every
    #: one is a pure-integer structure — two ``array('i')`` sized by the
    #: dictionary and the node count, and summary-sized dicts / sets / tuples
    #: of term ids — so a state dict serializes safely across processes,
    #: unlike :class:`~repro.model.terms.Term` objects, whose memoized hashes
    #: are salted per process and must never be persisted.
    _STATE_KEYS = (
        "rd",
        "parent",
        "dp_src",
        "dp_targ",
        "src_dps",
        "targ_dps",
        "dcls",
        "dtp",
        "class_sets",
        "class_set_users",
    )

    def state_dict(self) -> Dict[str, object]:
        """The summarizer's maps as one plain dictionary of integer structures.

        The returned dict *references* the live maps (no copy): serialize or
        deep-copy it before the summarizer ingests anything further.  This is
        what the persistent catalog checkpoints and the cluster coordinator
        packs into a segment, so another process can :meth:`load_state` and
        keep maintaining the weak summary without re-scanning the store.
        """
        return {key: getattr(self, key) for key in self._STATE_KEYS}

    def load_state(self, state: Dict[str, object]) -> None:
        """Adopt a :meth:`state_dict` (ownership transfers to the summarizer).

        The summarizer behaves exactly as if it had ingested the rows the
        state was built from — :meth:`snapshot` decodes the same summary, and
        further ``ingest_*`` calls continue from there.  A state in the
        dict-and-sets shape older builds checkpointed (``rd`` a dict, a
        ``dr`` of member sets) is converted on the way in.
        """
        if "dr" in state:
            state = _arrays_from_maps(state)
        missing = [key for key in self._STATE_KEYS if key not in state]
        if missing:
            raise ValueError(f"incomplete summarizer state: missing {missing}")
        for key in self._STATE_KEYS:
            setattr(self, key, state[key])
        self._class_set_ids = {classes: index for index, classes in enumerate(self.class_sets)}

    # ------------------------------------------------------------------
    def prime(self) -> None:
        """Run the two summarization passes over the store."""
        for batch in self.store.scan_batches(TripleKind.DATA):
            for subject, prop, obj in batch:
                self.ingest_data(subject, prop, obj)
        for batch in self.store.scan_batches(TripleKind.TYPE):
            for subject, _prop, class_id in batch:
                self.ingest_type(subject, class_id)

    def build(self) -> Summary:
        """:meth:`prime` over the store, then :meth:`snapshot`."""
        self.prime()
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

        if any(self.class_set_users):
            ntau_position = len(summary_nodes)
            ntau_uri = namer.for_key(("incremental", "typed-only"), hint="Ntau")
            summary_nodes.append(ntau_uri)
            class_ids: Set[int] = set()
            for classes in compress(self.class_sets, self.class_set_users):
                class_ids |= classes
            for class_id in class_ids:
                summary_graph.add(Triple(ntau_uri, RDF_TYPE, self.store.decode_term(class_id)))
        else:
            ntau_position = -1

        # the rd map leaves as it is held — a C-level copy, no resource
        # decoded — beside what each of its codes stands for: a node's live
        # root (resolved once, on a copy: the forest stays as is), the shared
        # ``Nτ`` for every typed-only code, nothing for an unseen resource
        root_of = array("i", self.parent)
        for node in range(len(root_of)):
            root = node
            while root_of[root] != root:
                root = root_of[root]
            while root_of[node] != root:
                root_of[node], node = root, root_of[node]
        block_of_code = dict(enumerate(map(position, root_of)))
        block_of_code[_UNSEEN] = -1
        for index in range(len(self.class_sets)):
            block_of_code[_TYPED_ONLY - index] = ntau_position
        return Summary.from_codes(
            "weak",
            summary_graph,
            self.rd[:],
            block_of_code,
            summary_nodes,
            self.store.dictionary.decode_table,
            source_name="store",
        )


#: The summary-sized maps a pre-array state shares with today's.
_CARRIED_KEYS = ("dp_src", "dp_targ", "src_dps", "targ_dps", "dcls", "dtp")


def _arrays_from_maps(state: Dict[str, object]) -> Dict[str, object]:
    """A pre-array state — ``rd`` a dict, ``dr`` its inverse as member sets,
    ``_typed_only`` a dict of class sets, ``_next_node`` — in today's shape."""
    missing = [key for key in ("rd", "_typed_only", "_next_node", *_CARRIED_KEYS) if key not in state]
    if missing:
        raise ValueError(f"incomplete summarizer state: missing {missing}")
    nodes: Dict[int, int] = state["rd"]
    typed_only: Dict[int, Set[int]] = state["_typed_only"]
    rd = array("i", (_UNSEEN,)) * (max((*nodes, *typed_only), default=-1) + 1)
    for resource, node in nodes.items():
        rd[resource] = node
    index_of: Dict[FrozenSet[int], int] = {}
    class_set_users = array("i")
    for resource, classes in typed_only.items():
        index = index_of.setdefault(frozenset(classes), len(index_of))
        if index == len(class_set_users):
            class_set_users.append(0)
        class_set_users[index] += 1
        rd[resource] = _TYPED_ONLY - index
    upgraded = {key: state[key] for key in _CARRIED_KEYS}
    # every merge used to relabel the dropped node's members: each node the
    # old ``rd`` names is live, so the forest starts out flat
    upgraded.update(
        rd=rd,
        parent=array("i", range(state["_next_node"])),
        class_sets=list(index_of),
        class_set_users=class_set_users,
    )
    return upgraded


def incremental_weak_summary(store: TripleStore) -> Summary:
    """Convenience wrapper around :class:`IncrementalWeakSummarizer`."""
    return IncrementalWeakSummarizer(store).build()


class CliqueSummarizer:
    """Maintains the property-clique state of a store's graph from row
    deltas, and reads the strong (or weak) summary off it (Definition 7).

    A node's *signature* is the first property it was seen as the object of
    and the first it was seen as the subject of (``-1``: none yet); its
    strong block is the pair of cliques those two belong to, so a clique
    merge never relabels a node.  Signatures are interned: ``sig_of`` holds
    one code per dictionary id (``0``: not a node, ``1``: typed only),
    ``sig_in`` / ``sig_out`` what each code stands for.  Summary edges are
    kept per signature with a support count — ``(is_data, sig_s, p, sig_o or
    class) → rows`` — and mapped to blocks only at :meth:`snapshot`.

    :meth:`ingest_rows` takes a batch the store already holds: it signs the
    batch's endpoints and unions the cliques, re-keys the *earlier* rows of
    every node whose signature moved (read off the store — a node moves at
    most twice, and only while it still lacks a side), then counts the
    batch's own rows.  :meth:`prime` is the same over one scan of the store.
    The state is derived data: never checkpointed, never shipped.

    *exclude* keeps the given nodes out of both clique computations — the
    untyped relations of the typed summaries (Definitions 13 and 16).
    """

    def __init__(self, store: TripleStore, exclude: Optional[Set[int]] = None):
        self.store = store
        self.exclude = exclude
        self.source_cliques = IntUnionFind()
        self.target_cliques = IntUnionFind()
        self.properties: Set[int] = set()
        self.sig_of = array("i")
        self.sig_in: List[int] = [-1, -1]
        self.sig_out: List[int] = [-1, -1]
        #: Nodes carrying each code (slot 0 only absorbs the decrements).
        self.sig_users: List[int] = [0, 0]
        self._codes: Dict[Tuple[int, int], int] = {(-1, -1): 1}
        self.support: Counter = Counter()
        #: Earlier rows the last :meth:`ingest_rows` batch re-keyed.
        self.rekeyed_rows = 0

    # ------------------------------------------------------------------
    # phase one: signatures and cliques
    # ------------------------------------------------------------------
    def _move(
        self, node: int, old: int, first_in: int, first_out: int, moved: Optional[Dict[int, int]]
    ) -> None:
        code = self._codes.get((first_in, first_out))
        if code is None:
            code = self._codes[(first_in, first_out)] = len(self.sig_in)
            self.sig_in.append(first_in)
            self.sig_out.append(first_out)
            self.sig_users.append(0)
        self.sig_of[node] = code
        self.sig_users[code] += 1
        self.sig_users[old] -= 1
        if moved is not None:
            moved.setdefault(node, old)

    def _reserve(self, ids: Iterable[int]) -> None:
        grow = max(ids, default=-1) + 1 - len(self.sig_of)
        if grow > 0:
            self.sig_of.frombytes(bytes(self.sig_of.itemsize * grow))

    def sign_data(
        self,
        subjects: Sequence[int],
        predicates: Sequence[int],
        objects: Sequence[int],
        moved: Optional[Dict[int, int]] = None,
    ) -> None:
        """Give every endpoint of the data rows its first properties and
        union the properties each one relates (Definitions 5-6); *moved*
        collects ``node → code before the call`` for whoever changed."""
        self.properties.update(predicates)
        self._reserve(subjects)
        self._reserve(objects)
        sig_of, sig_in, sig_out = self.sig_of, self.sig_in, self.sig_out
        exclude, move = self.exclude, self._move
        union_out, union_in = self.source_cliques.union, self.target_cliques.union
        for subject, prop, obj in zip(subjects, predicates, objects):
            if exclude is None or subject not in exclude:
                code = sig_of[subject]
                known = sig_out[code]
                if known < 0:
                    move(subject, code, sig_in[code], prop, moved)
                elif known != prop:
                    union_out(known, prop)
            if exclude is None or obj not in exclude:
                code = sig_of[obj]
                known = sig_in[code]
                if known < 0:
                    move(obj, code, prop, sig_out[code], moved)
                elif known != prop:
                    union_in(known, prop)

    def sign_typed(
        self, subjects: Iterable[int], moved: Optional[Dict[int, int]] = None
    ) -> None:
        """Make a node of every type-row subject that is not one yet."""
        subjects = set(subjects)
        self._reserve(subjects)
        for subject in subjects:
            if not self.sig_of[subject]:
                self._move(subject, 0, -1, -1, moved)

    # ------------------------------------------------------------------
    # phases two and three: support counts
    # ------------------------------------------------------------------
    def _count(self, kind: TripleKind, subjects, predicates, objects) -> None:
        code_of = self.sig_of.__getitem__
        data = kind is TripleKind.DATA  # (a bool hashes in C; an Enum member does not)
        if data:
            objects = map(code_of, objects)
        self.support.update(zip(repeat(data), map(code_of, subjects), predicates, objects))

    def _shift(self, old_key: tuple, new_key: tuple) -> None:
        support = self.support
        remaining = support[old_key] - 1
        if remaining:
            support[old_key] = remaining
        else:
            del support[old_key]
        support[new_key] += 1
        self.rekeyed_rows += 1

    def _rekey(self, moved: Dict[int, int], batch: Set[Tuple[int, int, int]]) -> None:
        """Move the support of every row stored *before* the batch that
        touches a moved node from its old signature key to its new one."""
        sig_of, select, shift = self.sig_of, self.store.select, self._shift
        for node, old in moved.items():
            if not old:
                continue  # not a node before the batch: no earlier rows
            new = sig_of[node]
            for row in select(TripleKind.TYPE, subject=node):
                if row not in batch:
                    shift((False, old, row[1], row[2]), (False, new, row[1], row[2]))
            for row in select(TripleKind.DATA, subject=node):
                if row not in batch:
                    other = sig_of[row[2]]
                    shift(
                        (True, old, row[1], moved.get(row[2], other)),
                        (True, new, row[1], other),
                    )
            for row in select(TripleKind.DATA, obj=node):
                # a moved subject re-keys the row from its own side
                if row not in batch and row[0] not in moved:
                    other = sig_of[row[0]]
                    shift((True, other, row[1], old), (True, other, row[1], new))

    # ------------------------------------------------------------------
    def prime(self, batch_size: int = 65_536) -> None:
        """Absorb every row of the store: one signing scan, one counting scan."""
        scan = self.store.scan_columns
        for subjects, predicates, objects in scan(TripleKind.DATA, batch_size):
            self.sign_data(subjects, predicates, objects)
        for subjects, _predicates, _objects in scan(TripleKind.TYPE, batch_size):
            self.sign_typed(subjects)
        for kind in (TripleKind.DATA, TripleKind.TYPE):
            for subjects, predicates, objects in scan(kind, batch_size):
                self._count(kind, subjects, predicates, objects)

    def ingest_rows(self, rows: Iterable[Tuple[TripleKind, EncodedTriple]]) -> None:
        """Fold one batch of fresh ``(kind, row)`` pairs — already in the
        store, none of them stored before — into the state.  Schema rows
        carry no state: :meth:`snapshot` copies them from the store."""
        data: List[EncodedTriple] = []
        typed: List[EncodedTriple] = []
        for kind, row in rows:
            if kind is not TripleKind.SCHEMA:
                (data if kind is TripleKind.DATA else typed).append(row)
        moved: Dict[int, int] = {}
        if data:
            self.sign_data(*zip(*data), moved)
        self.sign_typed([row[0] for row in typed], moved)
        self.rekeyed_rows = 0
        self._rekey(moved, {*data, *typed})
        for kind, batch in ((TripleKind.DATA, data), (TripleKind.TYPE, typed)):
            if batch:
                self._count(kind, *zip(*batch))

    def blocks(self, namer: SummaryNamer, weak: bool = False) -> Tuple[List[int], List[URI]]:
        """``(block_of_code, block_uris)``: the block of every signature code
        some node carries (``-1`` for the others) and each block's
        ``N(TC, SC)`` name.  A strong block is one (target clique, source
        clique) pair; a *weak* block is a component of pairs chained through
        a shared clique.  Blocks are numbered — and named — in key order, so
        the result depends on the rows absorbed, not on their arrival order."""
        find_in, find_out = self.target_cliques.find, self.source_cliques.find
        members_in: Dict[int, List[int]] = {}
        members_out: Dict[int, List[int]] = {}
        for prop in self.properties:
            members_in.setdefault(find_in(prop), []).append(prop)
            members_out.setdefault(find_out(prop), []).append(prop)
        tokens = IntUnionFind()  # 2r + 1: the target clique rooted at r; 2r: the source one
        pair_of: Dict[int, Tuple[int, int]] = {}
        for code in range(1, len(self.sig_users)):
            if self.sig_users[code] > 0:
                first_in, first_out = self.sig_in[code], self.sig_out[code]
                pair = pair_of[code] = (
                    find_in(first_in) if first_in >= 0 else -1,
                    find_out(first_out) if first_out >= 0 else -1,
                )
                if weak and min(pair) >= 0:
                    tokens.union(2 * pair[0] + 1, 2 * pair[1])

        def key(pair: Tuple[int, int]):
            if not weak:
                return pair
            if pair[1] >= 0:
                return tokens.find(2 * pair[1])
            return tokens.find(2 * pair[0] + 1) if pair[0] >= 0 else -1

        pairs_of_key: Dict[object, List[Tuple[int, int]]] = {}
        for pair in set(pair_of.values()):
            pairs_of_key.setdefault(key(pair), []).append(pair)
        decode = self.store.dictionary.decode
        index_of: Dict[object, int] = {}
        block_uris: List[URI] = []
        for block_key in sorted(pairs_of_key):
            index_of[block_key] = len(block_uris)
            pairs = pairs_of_key[block_key]
            block_uris.append(
                namer.representation(
                    frozenset(decode(p) for pair in pairs for p in members_in.get(pair[0], ())),
                    frozenset(decode(p) for pair in pairs for p in members_out.get(pair[1], ())),
                )
            )
        block_of_code = [-1] * len(self.sig_users)
        for code, pair in pair_of.items():
            block_of_code[code] = index_of[key(pair)]
        return block_of_code, block_uris

    def snapshot(self, source_name: str = "store", kind: str = "strong") -> Summary:
        """The strong (or ``"weak"``) summary of the rows absorbed so far, at
        a cost proportional to the summary."""
        block_of_code, block_uris = self.blocks(SummaryNamer(), weak=kind == "weak")
        store = self.store
        decode = store.dictionary.decode
        graph = RDFGraph(name=f"{source_name}.{kind}" if source_name else kind)
        for row in store.scan_schema():
            graph.add(store.decode_triple(row))
        for data, subject, prop, third in self.support:
            graph.add(
                Triple(
                    block_uris[block_of_code[subject]],
                    decode(prop),
                    block_uris[block_of_code[third]] if data else decode(third),
                )
            )
        return Summary.from_codes(
            kind,
            graph,
            self.sig_of[:],
            block_of_code,
            block_uris,
            store.dictionary.decode_table,
            source_name=source_name,
        )

    def metrics(self) -> Dict[str, int]:
        """Sizes of the maintained state (the statistics endpoint's view)."""
        return {"nodes": sum(self.sig_users[1:]), "signature_edges": len(self.support)}
