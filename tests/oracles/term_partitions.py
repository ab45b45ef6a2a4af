"""``Term``-level oracle for the five node partitions (Definitions 7, 8, 13, 16).

The executable specification the integer pipeline of
:mod:`repro.core.encoded` is checked against: each function partitions the
*data nodes* of an :class:`~repro.model.graph.RDFGraph` straight from the
paper's definitions, hashing ``Term`` objects and clique frozensets with no
regard for speed.

* **weak** ``≡W`` — nodes sharing a same non-empty source or target clique,
  directly or through a chain of other data nodes;
* **strong** ``≡S`` — nodes having the same source clique *and* the same
  target clique;
* **type-based** ``≡T`` — typed nodes having exactly the same set of types
  (untyped nodes are only equivalent to themselves);
* **untyped-weak** ``≡UW`` / **untyped-strong** ``≡US`` — the weak / strong
  relations restricted to untyped nodes (typed nodes stay untouched).

Block keys carry what the representation functions N and C need (the pair
of clique sets, or the type set), so :func:`term_summary` — the partition
fed to :func:`repro.core.quotient.build_quotient_summary` — mints the same
node names as the production engine.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, Hashable, Optional, Set

from repro.core.cliques import Clique, PropertyCliques, compute_cliques
from repro.core.equivalence import NodePartition
from repro.core.quotient import build_quotient_summary
from repro.core.summary import Summary
from repro.model.graph import RDFGraph
from repro.model.terms import Term, URI
from repro.utils.unionfind import UnionFind


# ----------------------------------------------------------------------
# weak equivalence  (Definition 7, second part)
# ----------------------------------------------------------------------
def weak_partition(
    graph: RDFGraph, cliques: Optional[PropertyCliques] = None
) -> NodePartition:
    """Partition the data nodes of *graph* by weak equivalence ``≡W``.

    Nodes sharing a non-empty source clique or a non-empty target clique are
    merged, transitively.  Data nodes with neither (typed-only resources) all
    share the block key ``(frozenset(), frozenset())`` — they are represented
    by the single node ``Nτ`` in the weak summary (Section 4.1).
    """
    if cliques is None:
        cliques = compute_cliques(graph)

    union = UnionFind()
    anchor_for_source: Dict[Clique, Term] = {}
    anchor_for_target: Dict[Clique, Term] = {}
    data_nodes = graph.data_nodes()

    for node in data_nodes:
        union.add(node)
        source = cliques.source_clique_of(node)
        target = cliques.target_clique_of(node)
        if source:
            anchor = anchor_for_source.setdefault(source, node)
            union.union(anchor, node)
        if target:
            anchor = anchor_for_target.setdefault(target, node)
            union.union(anchor, node)

    # Block key: the pair (union of member target cliques, union of member
    # source cliques) — exactly the input of the representation function N.
    members_of_root: Dict[Term, Set[Term]] = defaultdict(set)
    for node in data_nodes:
        members_of_root[union.find(node)].add(node)

    block_of: Dict[Term, Hashable] = {}
    for root, members in members_of_root.items():
        target_union: Set[URI] = set()
        source_union: Set[URI] = set()
        for member in members:
            target_union |= cliques.target_clique_of(member)
            source_union |= cliques.source_clique_of(member)
        key = (frozenset(target_union), frozenset(source_union))
        for member in members:
            block_of[member] = key
    return NodePartition(block_of)


# ----------------------------------------------------------------------
# strong equivalence  (Definition 7, first part)
# ----------------------------------------------------------------------
def strong_partition(
    graph: RDFGraph, cliques: Optional[PropertyCliques] = None
) -> NodePartition:
    """Partition the data nodes of *graph* by strong equivalence ``≡S``.

    The block key is the node's ``(TC(r), SC(r))`` pair.
    """
    if cliques is None:
        cliques = compute_cliques(graph)
    block_of: Dict[Term, Hashable] = {}
    for node in graph.data_nodes():
        block_of[node] = cliques.clique_pair_of(node)
    return NodePartition(block_of)


# ----------------------------------------------------------------------
# type-based equivalence  (Definition 8)
# ----------------------------------------------------------------------
def type_partition(graph: RDFGraph) -> NodePartition:
    """Partition the data nodes of *graph* by type equivalence ``≡T``.

    Typed nodes with identical type sets share a block whose key is that
    frozen type set; every untyped node forms its own singleton block (keyed
    by the node itself), since ``≡T`` only relates nodes that *have* types.
    """
    block_of: Dict[Term, Hashable] = {}
    for node in graph.data_nodes():
        types = graph.types_of(node)
        if types:
            block_of[node] = ("types", frozenset(types))
        else:
            block_of[node] = ("untyped", node)
    return NodePartition(block_of)


# ----------------------------------------------------------------------
# untyped-weak / untyped-strong  (Definitions 13 and 16)
# ----------------------------------------------------------------------
def _restricted_partition(graph: RDFGraph, strong: bool) -> NodePartition:
    """Partition for the typed weak / typed strong summaries.

    ``TW_G = UW(T_G)`` and ``TS_G = US(T_G)`` (Definitions 14 and 17): typed
    resources are first grouped by their exact type set (the type-based
    summary ``T_G``), and the untyped-weak / untyped-strong equivalence is
    then applied to the untyped resources.  As in the paper's prototype
    (Section 6.1), the clique structures only track *untyped* sources and
    targets of the data properties: a property occurrence with a typed
    endpoint never causes two untyped nodes to be merged through that
    endpoint.
    """
    typed = graph.typed_resources()
    untyped_nodes = {node for node in graph.data_nodes() if node not in typed}
    cliques = compute_cliques(graph, source_nodes=untyped_nodes, target_nodes=untyped_nodes)

    block_of: Dict[Term, Hashable] = {}
    for node in graph.data_nodes():
        if node in typed:
            block_of[node] = ("types", frozenset(graph.types_of(node)))

    if strong:
        for node in untyped_nodes:
            block_of[node] = ("untyped", cliques.clique_pair_of(node))
        return NodePartition(block_of)

    # weak case: union untyped nodes sharing a non-empty (untyped) clique
    union = UnionFind()
    anchor_for_source: Dict[Clique, Term] = {}
    anchor_for_target: Dict[Clique, Term] = {}
    for node in untyped_nodes:
        union.add(node)
        source = cliques.source_clique_of(node)
        target = cliques.target_clique_of(node)
        if source:
            union.union(anchor_for_source.setdefault(source, node), node)
        if target:
            union.union(anchor_for_target.setdefault(target, node), node)

    members_of_root: Dict[Term, Set[Term]] = defaultdict(set)
    for node in untyped_nodes:
        members_of_root[union.find(node)].add(node)

    for root, members in members_of_root.items():
        target_union: Set[URI] = set()
        source_union: Set[URI] = set()
        for member in members:
            target_union |= cliques.target_clique_of(member)
            source_union |= cliques.source_clique_of(member)
        key = ("untyped", (frozenset(target_union), frozenset(source_union)))
        for member in members:
            block_of[member] = key
    return NodePartition(block_of)


def untyped_weak_partition(graph: RDFGraph) -> NodePartition:
    """Partition by untyped-weak equivalence ``≡UW`` (Definition 13)."""
    return _restricted_partition(graph, strong=False)


def untyped_strong_partition(graph: RDFGraph) -> NodePartition:
    """Partition by untyped-strong equivalence ``≡US`` (Definition 16)."""
    return _restricted_partition(graph, strong=True)


#: Partition function behind each summary kind.
PARTITIONS: Dict[str, Callable[[RDFGraph], NodePartition]] = {
    "weak": weak_partition,
    "strong": strong_partition,
    "type": type_partition,
    "typed_weak": untyped_weak_partition,
    "typed_strong": untyped_strong_partition,
}


def term_summary(graph: RDFGraph, kind: str) -> Summary:
    """The reference summary of *graph*: partition ``Term`` nodes, then quotient."""
    return build_quotient_summary(graph, PARTITIONS[kind](graph), kind=kind)
