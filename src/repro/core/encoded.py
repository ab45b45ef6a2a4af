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
  cliques and every node's first properties — the clique state of
  :class:`~repro.core.incremental.CliqueSummarizer`, the one implementation
  of that pass (Definitions 5-6);
* one pass over the type table collects the class sets (Definition 8);
* the partition of Definitions 7/13/16 is derived purely from integer clique
  roots (``weak`` chains clique *tokens*, ``strong`` pairs the two roots,
  the typed variants exclude typed resources from the clique pass; only the
  ``type`` summary needs an extra endpoint-collection scan);
* ``weak`` and ``strong`` are that state primed by one scan and read off at
  summary-sized cost — the same object a serving entry keeps alive and feeds
  its ingest batches; for the other kinds a final batched pass quotients the
  data and type rows into integer summary edges.

Every pass is linear in the number of rows, and the constant factor is a few
int-keyed operations per row — no ``Term`` hashing anywhere on the hot path.
"""

from __future__ import annotations

from array import array
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.incremental import CliqueSummarizer
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

    # ------------------------------------------------------------------
    # block assignment, one method per equivalence relation
    # ------------------------------------------------------------------
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
        cliques = CliqueSummarizer(self.store, exclude=typed_subjects)
        for subjects, predicates, objects in self._data_columns():
            cliques.sign_data(subjects, predicates, objects)
        block_of_code, block_uris = cliques.blocks(namer, weak=not strong)
        block_of = {node: block_of_code[code] for node, code in enumerate(cliques.sig_of) if code}

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

    def _data_node_ids(self, typed_subjects: Set[int]) -> Set[int]:
        """Every data-node id: data-triple endpoints plus type-triple subjects."""
        nodes = set(typed_subjects)
        for subjects, _predicates, objects in self._data_columns():
            nodes.update(subjects)
            nodes.update(objects)
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
        if kind in ("weak", "strong"):
            # the batch build is the maintainer fed one scan of the store
            maintainer = CliqueSummarizer(self.store)
            maintainer.prime(self.batch_size)
            summary = maintainer.snapshot(source_name, kind)
            summary.source_statistics = source_statistics
            return summary
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
