"""Integer-encoded summarization engine (the paper's Section 6 fast path).

The paper's prototype never manipulates URIs or literals while summarizing:
the input graph is dictionary-encoded into integer triples stored in
relational tables, every map of Section 6.1 is keyed by integers, and the
summary is decoded back to RDF terms only once, at the very end.  This module
brings the quotient path (``cliques → equivalence → quotient → summary``) to
that same substrate: all five summary kinds run directly over the encoded
rows of a :class:`~repro.store.base.TripleStore` (memory or SQLite backend),
using an array-backed union-find over dense term ids and dict-of-int block
maps instead of ``Term``-keyed structures.

The engine is the one execution path of
:func:`repro.core.builders.summarize`.  The ``Term``-object definition of the
five partitions is a test-tree oracle (``tests/oracles/term_partitions.py``);
the test suite asserts that the two produce isomorphic summaries (same
structure, same minted-name scheme, same ``representative_of`` provenance)
for every kind on every backend.

Algorithms, per kind
--------------------
* one batched pass over the data table builds the source/target property
  cliques (two union-finds over property ids, Definitions 5-6);
* one pass over the type table collects the class sets (Definition 8);
* the partition of Definitions 7/13/16 is derived purely from integer clique
  roots (``weak`` unions clique *tokens*, ``strong`` pairs the two roots,
  the typed variants exclude typed resources from the clique pass; only the
  ``type`` summary needs an extra endpoint-collection scan);
* a final batched pass quotients the data and type rows into integer summary
  edges, which are decoded into a :class:`~repro.core.summary.Summary`.

Every pass is linear in the number of rows, and the constant factor is a few
int-keyed dict operations per row — no ``Term`` hashing anywhere on the hot
path.
"""

from __future__ import annotations

from array import array
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.naming import SummaryNamer
from repro.core.summary import Summary
from repro.errors import UnknownSummaryKindError
from repro.model.graph import GraphStatistics, RDFGraph
from repro.model.namespaces import RDF_TYPE
from repro.model.terms import URI
from repro.model.triple import Triple, TripleKind
from repro.store.base import TripleStore

__all__ = [
    "EncodedSummaryEngine",
    "encoded_summarize",
    "summarize_graph_encoded",
    "ENCODED_KINDS",
]

#: The five summary kinds the engine supports (canonical names).
ENCODED_KINDS = ("weak", "strong", "type", "typed_weak", "typed_strong")

#: Sentinel clique root for "no clique" (node has no outgoing/incoming data property).
_NO_CLIQUE = -1


class _IntUnionFind:
    """Union-find over integer ids, storing only the ids actually touched.

    The canonical representative of a set is its *smallest* element, which
    makes clique and block roots deterministic regardless of the order the
    rows were scanned in — a property the reproducibility tests rely on.
    Path compression keeps the amortized cost near-constant.  A dict parent
    map (not a dense array) bounds memory by the number of *distinct*
    elements seen — term ids are global across URIs and literals, so a
    late-interned property can carry an id in the millions while the graph
    only has a handful of properties.
    """

    __slots__ = ("_parent",)

    def __init__(self) -> None:
        self._parent: Dict[int, int] = {}

    def find(self, element: int) -> int:
        parent = self._parent
        root = parent.get(element)
        if root is None:
            parent[element] = element
            return element
        while parent[root] != root:
            root = parent[root]
        while parent[element] != root:
            parent[element], element = root, parent[element]
        return root

    def union(self, first: int, second: int) -> int:
        root_a = self.find(first)
        root_b = self.find(second)
        if root_a == root_b:
            return root_a
        if root_b < root_a:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        return root_a


class EncodedSummaryEngine:
    """Summarizes the encoded graph held in a :class:`TripleStore`.

    Parameters
    ----------
    store:
        The loaded triple store; its dictionary is used for final decoding.
    batch_size:
        Rows per scan batch (forwarded to :meth:`TripleStore.scan_batches`).
    """

    def __init__(self, store: TripleStore, batch_size: int = 50_000):
        self.store = store
        self.batch_size = batch_size

    # ------------------------------------------------------------------
    # scan passes
    # ------------------------------------------------------------------
    def _data_columns(self):
        return self.store.scan_columns(TripleKind.DATA, self.batch_size)

    def _type_columns(self):
        return self.store.scan_columns(TripleKind.TYPE, self.batch_size)

    def _typed_subject_ids(self) -> Set[int]:
        """Every type-triple subject id — one bulk set update per batch."""
        typed: Set[int] = set()
        for subjects, _predicates, _objects in self._type_columns():
            typed.update(subjects)
        return typed

    def _compute_cliques(
        self, exclude: Optional[Set[int]] = None
    ) -> Tuple[_IntUnionFind, _IntUnionFind, Dict[int, int], Dict[int, int], Set[int]]:
        """One pass over the data table: source/target property cliques.

        Returns the two union-finds over property ids, the per-node *first*
        outgoing/incoming property (whose root is the node's clique), and the
        set of distinct data-property ids.  Endpoints in *exclude* do not
        contribute to clique relatedness — the typed summaries exclude the
        typed resources, restricting both sides to untyped nodes
        (Section 6.1) without needing the untyped set materialized first.
        """
        source_union = _IntUnionFind()
        target_union = _IntUnionFind()
        first_out: Dict[int, int] = {}
        first_in: Dict[int, int] = {}
        properties: Set[int] = set()

        for subjects, predicates, objects in self._data_columns():
            # the distinct-property set is a bulk C-level update per column
            # slice; only the union-find maintenance still walks rows
            properties.update(predicates)
            for subject, prop, obj in zip(subjects, predicates, objects):
                if exclude is None or subject not in exclude:
                    known = first_out.get(subject)
                    if known is None:
                        first_out[subject] = prop
                    elif known != prop:
                        source_union.union(known, prop)
                if exclude is None or obj not in exclude:
                    known = first_in.get(obj)
                    if known is None:
                        first_in[obj] = prop
                    elif known != prop:
                        target_union.union(known, prop)
        return source_union, target_union, first_out, first_in, properties

    def _scan_type_info(self) -> Tuple[Set[int], Dict[int, Set[int]]]:
        """One pass over the type table.

        Returns ``(typed_subjects, uri_types_of)``: every type-triple subject
        id, and the subject → {class id} map restricted to URI classes (the
        only ones that count for type equivalence, mirroring
        :meth:`RDFGraph.types_of`).
        """
        typed_subjects: Set[int] = set()
        uri_types_of: Dict[int, Set[int]] = {}
        class_is_uri: Dict[int, bool] = {}
        decode = self.store.dictionary.decode
        for subjects, _predicates, objects in self._type_columns():
            typed_subjects.update(subjects)
            for subject, class_id in zip(subjects, objects):
                is_uri = class_is_uri.get(class_id)
                if is_uri is None:
                    is_uri = isinstance(decode(class_id), URI)
                    class_is_uri[class_id] = is_uri
                if is_uri:
                    uri_types_of.setdefault(subject, set()).add(class_id)
        return typed_subjects, uri_types_of

    # ------------------------------------------------------------------
    # naming helpers (decode clique/class ids into the legacy namer keys)
    # ------------------------------------------------------------------
    def _decoded_property_set(self, property_ids: Iterable[int]) -> FrozenSet[URI]:
        decode = self.store.dictionary.decode
        return frozenset(decode(identifier) for identifier in property_ids)

    @staticmethod
    def _clique_members(
        union: _IntUnionFind, properties: Iterable[int]
    ) -> Dict[int, List[int]]:
        """Group property ids by clique root."""
        members: Dict[int, List[int]] = {}
        for prop in properties:
            members.setdefault(union.find(prop), []).append(prop)
        return members

    # ------------------------------------------------------------------
    # block assignment, one method per equivalence relation
    # ------------------------------------------------------------------
    def _weak_blocks(
        self,
        namer: SummaryNamer,
        exclude: Optional[Set[int]] = None,
        extra_nodes: Iterable[int] = (),
    ) -> Tuple[Dict[int, int], List[URI]]:
        """Blocks of weak equivalence ``≡W`` (or ``≡UW`` when restricted).

        Nodes transitively sharing a non-empty source or target clique land
        in one block; clique-less nodes (including the *extra_nodes*, used
        for typed-only resources) share the single ``Nτ`` block.
        """
        source_union, target_union, first_out, first_in, properties = self._compute_cliques(
            exclude
        )

        # Union the clique *tokens* through every node carrying both a source
        # and a target clique: token 2r = source clique rooted at r, token
        # 2r+1 = target clique rooted at r.
        token_union = _IntUnionFind()
        for node, prop in first_out.items():
            incoming = first_in.get(node)
            if incoming is not None:
                token_union.union(
                    2 * source_union.find(prop), 2 * target_union.find(incoming) + 1
                )

        # Attach each clique's properties to the weak block its token is in.
        block_source_props: Dict[int, List[int]] = {}
        block_target_props: Dict[int, List[int]] = {}
        source_roots_with_members = {source_union.find(p) for p in first_out.values()}
        target_roots_with_members = {target_union.find(p) for p in first_in.values()}
        for root, props in self._clique_members(source_union, properties).items():
            if root in source_roots_with_members:
                block_source_props.setdefault(token_union.find(2 * root), []).extend(props)
        for root, props in self._clique_members(target_union, properties).items():
            if root in target_roots_with_members:
                block_target_props.setdefault(token_union.find(2 * root + 1), []).extend(props)

        block_of: Dict[int, int] = {}
        block_uris: List[URI] = []
        block_of_token: Dict[int, int] = {}
        ntau_block = -1

        def block_for_token(token_root: int) -> int:
            existing = block_of_token.get(token_root)
            if existing is not None:
                return existing
            uri = namer.representation(
                self._decoded_property_set(block_target_props.get(token_root, ())),
                self._decoded_property_set(block_source_props.get(token_root, ())),
            )
            block = len(block_uris)
            block_uris.append(uri)
            block_of_token[token_root] = block
            return block

        for node, prop in first_out.items():
            block_of[node] = block_for_token(token_union.find(2 * source_union.find(prop)))
        for node, prop in first_in.items():
            if node not in block_of:
                block_of[node] = block_for_token(
                    token_union.find(2 * target_union.find(prop) + 1)
                )
        for node in extra_nodes:
            if node not in block_of:
                if ntau_block < 0:
                    ntau_block = len(block_uris)
                    block_uris.append(namer.representation(frozenset(), frozenset()))
                block_of[node] = ntau_block
        return block_of, block_uris

    def _strong_blocks(
        self,
        namer: SummaryNamer,
        exclude: Optional[Set[int]] = None,
        extra_nodes: Iterable[int] = (),
    ) -> Tuple[Dict[int, int], List[URI]]:
        """Blocks of strong equivalence ``≡S`` (or ``≡US`` when restricted).

        The block key is the node's ``(TC(r), SC(r))`` pair of clique roots.
        """
        source_union, target_union, first_out, first_in, properties = self._compute_cliques(
            exclude
        )
        source_members = self._clique_members(source_union, properties)
        target_members = self._clique_members(target_union, properties)

        block_of: Dict[int, int] = {}
        block_uris: List[URI] = []
        block_of_pair: Dict[Tuple[int, int], int] = {}

        def block_for_pair(target_root: int, source_root: int) -> int:
            pair = (target_root, source_root)
            existing = block_of_pair.get(pair)
            if existing is not None:
                return existing
            target_props = target_members.get(target_root, ()) if target_root >= 0 else ()
            source_props = source_members.get(source_root, ()) if source_root >= 0 else ()
            uri = namer.representation(
                self._decoded_property_set(target_props),
                self._decoded_property_set(source_props),
            )
            block = len(block_uris)
            block_uris.append(uri)
            block_of_pair[pair] = block
            return block

        for node in set(first_out) | set(first_in) | set(extra_nodes):
            out_prop = first_out.get(node)
            in_prop = first_in.get(node)
            source_root = source_union.find(out_prop) if out_prop is not None else _NO_CLIQUE
            target_root = target_union.find(in_prop) if in_prop is not None else _NO_CLIQUE
            block_of[node] = block_for_pair(target_root, source_root)
        return block_of, block_uris

    def _type_blocks(self, namer: SummaryNamer) -> Tuple[Dict[int, int], List[URI]]:
        """Blocks of type equivalence ``≡T`` (Definition 8).

        Nodes with identical (non-empty) URI class sets share a block; every
        other data node is a singleton.
        """
        typed_subjects, uri_types_of = self._scan_type_info()

        block_of: Dict[int, int] = {}
        block_uris: List[URI] = []
        block_of_classes: Dict[FrozenSet[int], int] = {}
        mint_untyped = namer.fresh_minter("N_untyped")

        def typed_block(class_ids: FrozenSet[int]) -> int:
            existing = block_of_classes.get(class_ids)
            if existing is not None:
                return existing
            uri = namer.class_set(self._decoded_property_set(class_ids))
            block = len(block_uris)
            block_uris.append(uri)
            block_of_classes[class_ids] = block
            return block

        def singleton_block() -> int:
            # ``C(∅)`` behaviour: untyped nodes are copied.  The arena minter
            # skips the per-call namer dispatch — one string build and one
            # set probe per node, same injectivity guarantee.
            uri = mint_untyped()
            block = len(block_uris)
            block_uris.append(uri)
            return block

        for node in self._data_node_ids(typed_subjects):
            classes = uri_types_of.get(node)
            if classes:
                block_of[node] = typed_block(frozenset(classes))
            else:
                block_of[node] = singleton_block()
        return block_of, block_uris

    def _typed_blocks(
        self, namer: SummaryNamer, strong: bool
    ) -> Tuple[Dict[int, int], List[URI]]:
        """Blocks of the typed summaries ``TW_G`` / ``TS_G`` (Defs. 13-17).

        Typed resources (subjects of type triples) are grouped by exact URI
        class set; the untyped-weak / untyped-strong relation — with cliques
        restricted to untyped endpoints — partitions the rest.
        """
        typed_subjects, uri_types_of = self._scan_type_info()
        # Excluding the typed resources from the clique pass restricts it to
        # untyped endpoints without a dedicated scan to materialize the
        # untyped-node set (untyped = data endpoints minus typed subjects).
        if strong:
            block_of, block_uris = self._strong_blocks(namer, exclude=typed_subjects)
        else:
            block_of, block_uris = self._weak_blocks(namer, exclude=typed_subjects)

        block_of_classes: Dict[FrozenSet[int], int] = {}
        for node in typed_subjects:
            classes = frozenset(uri_types_of.get(node, ()))
            block = block_of_classes.get(classes)
            if block is None:
                uri = namer.class_set(self._decoded_property_set(classes))
                block = len(block_uris)
                block_uris.append(uri)
                block_of_classes[classes] = block
            block_of[node] = block
        return block_of, block_uris

    def _data_node_ids(self, typed_subjects: Optional[Set[int]] = None) -> Set[int]:
        """Every data-node id: data-triple endpoints plus type-triple subjects."""
        nodes: Set[int] = set()
        for subjects, _predicates, objects in self._data_columns():
            nodes.update(subjects)
            nodes.update(objects)
        if typed_subjects is None:
            typed_subjects = self._typed_subject_ids()
        nodes |= typed_subjects
        return nodes

    # ------------------------------------------------------------------
    # the facade
    # ------------------------------------------------------------------
    def summarize(
        self,
        kind: str,
        source_statistics: Optional[GraphStatistics] = None,
        source_name: str = "store",
    ) -> Summary:
        """Build the *kind* summary of the store's graph, decoding at the end."""
        namer = SummaryNamer()
        if kind == "weak":
            typed_subjects = self._typed_subject_ids()
            block_of, block_uris = self._weak_blocks(namer, extra_nodes=typed_subjects)
        elif kind == "strong":
            typed_subjects = self._typed_subject_ids()
            block_of, block_uris = self._strong_blocks(namer, extra_nodes=typed_subjects)
        elif kind == "type":
            block_of, block_uris = self._type_blocks(namer)
        elif kind == "typed_weak":
            block_of, block_uris = self._typed_blocks(namer, strong=False)
        elif kind == "typed_strong":
            block_of, block_uris = self._typed_blocks(namer, strong=True)
        else:
            supported = ", ".join(ENCODED_KINDS)
            raise UnknownSummaryKindError(
                f"unknown summary kind {kind!r}; supported: {supported}"
            )
        return self._quotient(kind, block_of, block_uris, source_statistics, source_name)

    def _quotient(
        self,
        kind: str,
        block_of: Dict[int, int],
        block_uris: List[URI],
        source_statistics: Optional[GraphStatistics],
        source_name: str,
    ) -> Summary:
        """Quotient the encoded rows through *block_of* and decode the summary graph."""
        data_edges: Set[Tuple[int, int, int]] = set()
        for subjects, predicates, objects in self._data_columns():
            for subject, prop, obj in zip(subjects, predicates, objects):
                data_edges.add((block_of[subject], prop, block_of[obj]))
        type_edges: Set[Tuple[int, int]] = set()
        for subjects, _predicates, objects in self._type_columns():
            for subject, class_id in zip(subjects, objects):
                type_edges.add((block_of[subject], class_id))

        decode = self.store.dictionary.decode
        name = f"{source_name}.{kind}" if source_name else kind
        summary_graph = RDFGraph(name=name)
        for row in self.store.scan_schema():
            summary_graph.add(self.store.decode_triple(row))
        for block_subject, prop, block_object in data_edges:
            summary_graph.add(
                Triple(block_uris[block_subject], decode(prop), block_uris[block_object])
            )
        for block_subject, class_id in type_edges:
            summary_graph.add(Triple(block_uris[block_subject], RDF_TYPE, decode(class_id)))

        # the provenance stays encoded: node ids and block indexes as they
        # are, decoded by the summary only if someone asks for the Term maps
        return Summary.from_ids(
            kind,
            summary_graph,
            array("i", block_of),
            array("i", block_of.values()),
            block_uris,
            self.store.dictionary.decode_table,
            source_statistics=source_statistics,
            source_name=source_name,
        )


def encoded_summarize(
    store: TripleStore,
    kind: str = "weak",
    source_statistics: Optional[GraphStatistics] = None,
    source_name: str = "store",
    batch_size: int = 50_000,
) -> Summary:
    """Summarize the graph loaded in *store* with the encoded engine."""
    engine = EncodedSummaryEngine(store, batch_size=batch_size)
    return engine.summarize(kind, source_statistics=source_statistics, source_name=source_name)


def summarize_graph_encoded(graph: RDFGraph, kind: str = "weak") -> Summary:
    """Encode *graph* into a transient memory store and summarize it.

    This is what :func:`repro.core.builders.summarize` runs by default: the
    dictionary-encoding cost is paid once, and every subsequent pass works on
    integers only.
    """
    from repro.store.memory import MemoryStore

    with MemoryStore() as store:
        store.load_graph(graph)
        return encoded_summarize(
            store,
            kind,
            source_statistics=graph.statistics(),
            source_name=graph.name,
        )
