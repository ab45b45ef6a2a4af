"""Disjoint-set (union-find) structure used by clique computation and
incremental node merging.

The paper's Algorithm 2 gradually merges summary data nodes whenever it
discovers that two nodes of ``G`` share a data property at the source or at
the target; that merging process is exactly a union-find over graph nodes
(respectively over data properties when computing cliques, Definition 5).
This implementation uses path compression and union by size, so a sequence of
``m`` operations over ``n`` elements runs in near-linear time — matching the
paper's claim that summarization stays linear in ``|G|_e``.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Set

__all__ = ["UnionFind", "IntUnionFind"]


class UnionFind:
    """A disjoint-set forest over arbitrary hashable elements."""

    def __init__(self, elements: Iterable[Hashable] = ()):
        self._parent: Dict[Hashable, Hashable] = {}
        self._size: Dict[Hashable, int] = {}
        self._set_count = 0
        for element in elements:
            self.add(element)

    def __len__(self) -> int:
        """Number of elements tracked."""
        return len(self._parent)

    def __contains__(self, element: Hashable) -> bool:
        return element in self._parent

    @property
    def set_count(self) -> int:
        """Number of disjoint sets currently tracked."""
        return self._set_count

    def add(self, element: Hashable) -> bool:
        """Register *element* as a singleton set if unseen; return whether new."""
        if element in self._parent:
            return False
        self._parent[element] = element
        self._size[element] = 1
        self._set_count += 1
        return True

    def find(self, element: Hashable) -> Hashable:
        """Return the canonical representative of *element*'s set.

        The element is registered on the fly when unseen.
        """
        if element not in self._parent:
            self.add(element)
            return element
        root = element
        while self._parent[root] != root:
            root = self._parent[root]
        # path compression
        while self._parent[element] != root:
            self._parent[element], element = root, self._parent[element]
        return root

    def union(self, first: Hashable, second: Hashable) -> Hashable:
        """Merge the sets containing *first* and *second*; return the new root."""
        root_a = self.find(first)
        root_b = self.find(second)
        if root_a == root_b:
            return root_a
        if self._size[root_a] < self._size[root_b]:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        self._size[root_a] += self._size[root_b]
        self._set_count -= 1
        return root_a

    def connected(self, first: Hashable, second: Hashable) -> bool:
        """``True`` when both elements are in the same set."""
        if first not in self._parent or second not in self._parent:
            return False
        return self.find(first) == self.find(second)

    def groups(self) -> List[Set[Hashable]]:
        """Return the current partition as a list of sets (deterministic order)."""
        buckets: Dict[Hashable, Set[Hashable]] = {}
        for element in self._parent:
            buckets.setdefault(self.find(element), set()).add(element)
        return [buckets[root] for root in sorted(buckets, key=repr)]

    def group_of(self, element: Hashable) -> Set[Hashable]:
        """Return the set containing *element* (empty set when unseen)."""
        if element not in self._parent:
            return set()
        root = self.find(element)
        return {other for other in self._parent if self.find(other) == root}

    def elements(self) -> Iterator[Hashable]:
        """Iterate over every registered element."""
        return iter(self._parent)


class IntUnionFind:
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
