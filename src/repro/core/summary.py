"""The :class:`Summary` result object.

A summary is itself an RDF graph (Definition 9) but, to support the formal
property checks and exploration use-cases, the object also carries the
*provenance* of the quotient:

* ``representative_of`` — the mapping from each data node of the input graph
  ``G`` to the summary node standing for it (the paper's ``rd`` map);
* ``extents`` — the inverse multi-map, from each summary node to the set of
  input nodes it represents (the paper's ``dr`` map).

The integer engines hand the provenance over as dictionary ids
(:meth:`Summary.from_ids`); both maps are then decoded lazily, once.  The
provenance lives only in memory: a catalog checkpoint stores a summary's
``graph`` alone (what the guard reads), and a warm-started process builds a
``Summary`` — provenance included — only when one is asked for.
"""

from __future__ import annotations

from array import array
from typing import Dict, Optional, Sequence, Set, Tuple

from repro.model.graph import GraphStatistics, RDFGraph
from repro.model.terms import Literal, Term
from repro.utils.concurrency import named_lock

__all__ = ["Summary", "SummaryStatistics"]


class SummaryStatistics:
    """Size metrics of a summary, in the vocabulary of the paper's Section 7.

    ``data_node_count`` / ``all_node_count`` correspond to Figure 11, and
    ``data_edge_count`` / ``all_edge_count`` to Figure 12.
    """

    __slots__ = (
        "data_node_count",
        "class_node_count",
        "all_node_count",
        "data_edge_count",
        "type_edge_count",
        "schema_edge_count",
        "all_edge_count",
        "input_node_count",
        "input_edge_count",
    )

    def __init__(self, **values):
        for name in self.__slots__:
            setattr(self, name, values.get(name, 0))

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    @property
    def compression_ratio(self) -> float:
        """Summary edges divided by input edges (the paper's 0.028 figure).

        ``nan`` when the input edge count is unknown or zero — a ``0.0``
        here used to read as "perfect compression" in reports, which is the
        opposite of "no input to compress".
        """
        if not self.input_edge_count:
            return float("nan")
        return self.all_edge_count / self.input_edge_count

    def __repr__(self):
        return (
            f"SummaryStatistics(nodes={self.all_node_count}, edges={self.all_edge_count}, "
            f"ratio={self.compression_ratio:.6f})"
        )


class Summary:
    """The result of summarizing an RDF graph.

    The provenance is held **id-native** when the summary comes from the
    integer engines (:meth:`from_ids`): two parallel ``array('i')`` — input
    node id, index of its summary node — over the store's own dictionary,
    plus the short list of minted summary nodes.  ``representative_of`` and
    ``extents`` are then views materialised once, on first access; the
    serving path (guard, HTTP summary route, cluster) only reads ``graph``
    and never pays for them.  Only a summarizer makes one: a catalog
    checkpoint keeps the ``graph`` alone, never the provenance.

    Parameters
    ----------
    kind:
        The summary kind: ``"weak"``, ``"strong"``, ``"typed_weak"``,
        ``"typed_strong"`` or ``"type"``.
    graph:
        The summary RDF graph ``H_G``.
    representative_of:
        Mapping from input data nodes to their summary node.
    source_statistics:
        Statistics of the input graph, kept for compression reporting.
    """

    def __init__(
        self,
        kind: str,
        graph: RDFGraph,
        representative_of: Dict[Term, Term],
        source_statistics: Optional[GraphStatistics] = None,
        source_name: str = "",
    ):
        self.kind = kind
        self.graph = graph
        self.source_statistics = source_statistics
        self.source_name = source_name
        self._views_lock = named_lock("summary.views_lock")
        #: guarded by self._views_lock
        self._representative_of: Optional[Dict[Term, Term]] = dict(representative_of)
        #: guarded by self._views_lock
        self._extents: Optional[Dict[Term, Set[Term]]] = None
        #: ``(node_ids, block_indexes, summary_nodes, decode_table)`` of an
        #: id-native summary (see :meth:`from_ids`); immutable once set
        self._encoded: Optional[Tuple[array, array, Sequence[Term], Sequence[Term]]] = None
        #: ``(codes, block_of_code, summary_nodes, decode_table)`` of a
        #: maintainer's snapshot (see :meth:`from_codes`); immutable once set
        self._codes: Optional[tuple] = None

    @classmethod
    def from_ids(
        cls,
        kind: str,
        graph: RDFGraph,
        node_ids: array,
        block_indexes: array,
        summary_nodes: Sequence[Term],
        decode_table: Sequence[Term],
        source_statistics: Optional[GraphStatistics] = None,
        source_name: str = "",
    ) -> "Summary":
        """A summary whose provenance stays integer-encoded.

        Input node ``decode_table[node_ids[i]]`` is represented by
        ``summary_nodes[block_indexes[i]]``.  *decode_table* is the
        dictionary's id-indexed term list (append-only, so later interning
        never invalidates the ids held here).
        """
        if len(node_ids) != len(block_indexes):
            raise ValueError(
                f"{len(node_ids)} node ids but {len(block_indexes)} block indexes"
            )
        summary = cls(kind, graph, {}, source_statistics, source_name)
        summary._representative_of = None
        summary._encoded = (node_ids, block_indexes, summary_nodes, decode_table)
        return summary

    @classmethod
    def from_codes(
        cls,
        kind: str,
        graph: RDFGraph,
        codes: array,
        block_of_code: Sequence[int],
        summary_nodes: Sequence[Term],
        decode_table: Sequence[Term],
        source_name: str = "",
    ) -> "Summary":
        """An id-native summary over a maintainer's dense per-node state.

        *codes* is indexed by dictionary id (the caller's private copy):
        input node ``n`` is represented by
        ``summary_nodes[block_of_code[codes[n]]]``, or not a node of the graph
        when that index is negative.  The guard only reads ``graph``; the
        codes are decoded on first access to the provenance
        (``representative_of``, ``extents``).
        """
        summary = cls(kind, graph, {}, None, source_name)
        summary._representative_of = None
        summary._codes = (codes, block_of_code, summary_nodes, decode_table)
        return summary

    def _decoded(self) -> Dict[Term, Term]:
        """The id-native provenance (of :meth:`from_ids` or
        :meth:`from_codes`) as the ``Term`` map ``representative_of``."""
        if self._codes is not None:
            codes, block_of_code, summary_nodes, decode_table = self._codes
            pairs = ((node, block_of_code[code]) for node, code in enumerate(codes))
        else:
            node_ids, block_indexes, summary_nodes, decode_table = self._encoded
            pairs = zip(node_ids, block_indexes)
        return {decode_table[node]: summary_nodes[block] for node, block in pairs if block >= 0}

    def __repr__(self):
        return (
            f"<Summary kind={self.kind!r} nodes={len(self.graph.nodes())} "
            f"edges={len(self.graph)}>"
        )

    # ------------------------------------------------------------------
    # provenance
    # ------------------------------------------------------------------
    def _views(self) -> Tuple[Dict[Term, Term], Dict[Term, Set[Term]]]:
        """``(representative_of, extents)``, decoded on the first call only."""
        with self._views_lock:
            if self._extents is None:
                if self._representative_of is None:
                    self._representative_of = self._decoded()
                extents: Dict[Term, Set[Term]] = {}
                for input_node, summary_node in self._representative_of.items():
                    extents.setdefault(summary_node, set()).add(input_node)
                self._extents = extents
            return self._representative_of, self._extents

    @property
    def representative_of(self) -> Dict[Term, Term]:
        """Input data node → its summary node (the paper's ``rd`` map)."""
        return self._views()[0]

    @property
    def extents(self) -> Dict[Term, Set[Term]]:
        """Summary node → the input nodes it represents (the ``dr`` map)."""
        return self._views()[1]

    @property
    def views_materialised(self) -> bool:
        """``True`` once ``representative_of`` / ``extents`` were decoded."""
        with self._views_lock:
            return self._extents is not None

    def representative(self, input_node: Term) -> Optional[Term]:
        """The summary node representing *input_node* (``None`` when unknown)."""
        return self.representative_of.get(input_node)

    def represents(self, summary_node: Term) -> bool:
        """``True`` when *summary_node* represents at least one input node."""
        return summary_node in self.extents

    def extent(self, summary_node: Term) -> Set[Term]:
        """The set of input nodes represented by *summary_node*."""
        return set(self.extents.get(summary_node, set()))

    def summary_data_nodes(self) -> Set[Term]:
        """The data nodes of the summary graph (the quotient nodes)."""
        return set(self.extents.keys())

    def literal_only_nodes(self) -> Set[Term]:
        """Summary nodes whose extent contains only literals.

        Useful when exploring a summary: such nodes stand purely for literal
        values (titles, dates, ...) of the input graph.
        """
        return {
            node
            for node, members in self.extents.items()
            if members and all(isinstance(member, Literal) for member in members)
        }

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def statistics(self) -> SummaryStatistics:
        """Node/edge counts of the summary, in the paper's Figure 11/12 terms."""
        graph_statistics = self.graph.statistics()
        data_nodes = self.graph.data_nodes()
        class_nodes = self.graph.class_nodes()
        input_nodes = self.source_statistics.node_count if self.source_statistics else 0
        input_edges = self.source_statistics.edge_count if self.source_statistics else 0
        return SummaryStatistics(
            data_node_count=len(data_nodes),
            class_node_count=len(class_nodes),
            all_node_count=len(self.graph.nodes()),
            data_edge_count=graph_statistics.data_edge_count,
            type_edge_count=graph_statistics.type_edge_count,
            schema_edge_count=graph_statistics.schema_edge_count,
            all_edge_count=graph_statistics.edge_count,
            input_node_count=input_nodes,
            input_edge_count=input_edges,
        )

    def compression_report(self) -> Dict[str, float]:
        """Ratio of summary size to input size (nodes and edges)."""
        statistics = self.statistics()
        input_nodes = statistics.input_node_count or 1
        input_edges = statistics.input_edge_count or 1
        return {
            "node_ratio": statistics.all_node_count / input_nodes,
            "edge_ratio": statistics.all_edge_count / input_edges,
            "summary_nodes": statistics.all_node_count,
            "summary_edges": statistics.all_edge_count,
            "input_nodes": statistics.input_node_count,
            "input_edges": statistics.input_edge_count,
        }
