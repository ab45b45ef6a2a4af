"""The partition type node equivalence relations are expressed in.

A :class:`NodePartition` maps each *data node* of a graph to a *block key*
(class and property nodes are never quotiented); nodes with equal keys are
equivalent.  Block keys are chosen to carry the information the
representation functions N and C need (a pair of clique sets, or a type
set).  :func:`repro.core.quotient.build_quotient_summary` turns a partition
into a summary; the bisimulation baselines of :mod:`repro.core.bisimulation`
produce their partitions here, and the ``Term``-level weak / strong / typed
partitions of Definitions 7, 8, 13 and 16 live in the test tree as the
oracle the integer engine (:mod:`repro.core.encoded`) is checked against.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Hashable, Set

from repro.model.terms import Term

__all__ = ["NodePartition"]


class NodePartition:
    """A partition of data nodes into equivalence blocks.

    Attributes
    ----------
    block_of:
        Mapping from each data node to its block key.
    blocks:
        Mapping from block key to the set of member nodes.
    """

    def __init__(self, block_of: Dict[Term, Hashable]):
        self.block_of: Dict[Term, Hashable] = dict(block_of)
        self.blocks: Dict[Hashable, Set[Term]] = defaultdict(set)
        for node, key in self.block_of.items():
            self.blocks[key].add(node)

    def __len__(self) -> int:
        """Number of blocks."""
        return len(self.blocks)

    def __contains__(self, node: Term) -> bool:
        return node in self.block_of

    def key_of(self, node: Term) -> Hashable:
        """The block key of *node* (raises ``KeyError`` when unknown)."""
        return self.block_of[node]

    def equivalent(self, first: Term, second: Term) -> bool:
        """``True`` when both nodes belong to the same block."""
        return (
            first in self.block_of
            and second in self.block_of
            and self.block_of[first] == self.block_of[second]
        )

    def members(self, key: Hashable) -> Set[Term]:
        """The nodes of the block identified by *key*."""
        return set(self.blocks.get(key, set()))

    def node_count(self) -> int:
        """Total number of partitioned nodes."""
        return len(self.block_of)

    def is_valid_partition(self) -> bool:
        """Sanity check: blocks are disjoint and cover every node exactly once."""
        total = sum(len(members) for members in self.blocks.values())
        return total == len(self.block_of)
