"""Union-find (disjoint sets) with path compression and union by rank.

Used by the PDG builder when merging memory locations that may alias.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List


class UnionFind:
    """Classic disjoint-set forest keyed on arbitrary hashable objects."""

    def __init__(self) -> None:
        self._parent: Dict[Hashable, Hashable] = {}
        self._rank: Dict[Hashable, int] = {}

    def make_set(self, item: Hashable) -> None:
        """Register ``item`` as a singleton set if it is not known yet."""
        if item not in self._parent:
            self._parent[item] = item
            self._rank[item] = 0

    def __contains__(self, item: Hashable) -> bool:
        return item in self._parent

    def find(self, item: Hashable) -> Hashable:
        """Return the representative of the set containing ``item``.

        The item is registered on the fly if unknown, which keeps call sites
        simple ("find or create").
        """
        self.make_set(item)
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        # Path compression.
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: Hashable, b: Hashable) -> Hashable:
        """Merge the sets containing ``a`` and ``b``; return the new root."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1
        return ra

    def connected(self, a: Hashable, b: Hashable) -> bool:
        return self.find(a) == self.find(b)

    def members(self) -> Iterable[Hashable]:
        return self._parent.keys()

    def groups(self) -> List[List[Hashable]]:
        """Return the partition as a list of member lists (insertion order)."""
        by_root: Dict[Hashable, List[Hashable]] = {}
        for item in self._parent:
            by_root.setdefault(self.find(item), []).append(item)
        return list(by_root.values())

    def __len__(self) -> int:
        return len(self._parent)
