"""R-trees: the index substrate of the paper's "index on both relations"
related-work class.

[BKS 93] assumes both inputs are indexed by R*-trees and joins them by a
synchronized traversal.  This package provides that comparison class so
the library covers all three availability-of-index classes the paper's
introduction enumerates.

The tree here is a classic R-tree built by **STR bulk loading**
(sort-tile-recursive), the natural choice when an index is built solely
to execute a join.

Nodes hold at most ``fanout`` entries; a node is one disk page in the I/O
accounting of :class:`repro.rtree.join.RTreeJoin`.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Sequence, Tuple


class RTreeNode:
    """One R-tree node: an MBR over child nodes or data entries."""

    __slots__ = ("is_leaf", "entries", "xl", "yl", "xh", "yh", "page_id")

    def __init__(self, is_leaf: bool):
        self.is_leaf = is_leaf
        #: leaf: KPE tuples; inner: RTreeNode children
        self.entries: List = []
        self.xl = math.inf
        self.yl = math.inf
        self.xh = -math.inf
        self.yh = -math.inf
        self.page_id = -1

    def extend(self, xl: float, yl: float, xh: float, yh: float) -> None:
        if xl < self.xl:
            self.xl = xl
        if yl < self.yl:
            self.yl = yl
        if xh > self.xh:
            self.xh = xh
        if yh > self.yh:
            self.yh = yh

    def recompute_mbr(self) -> None:
        self.xl = self.yl = math.inf
        self.xh = self.yh = -math.inf
        if self.is_leaf:
            for k in self.entries:
                self.extend(k[1], k[2], k[3], k[4])
        else:
            for child in self.entries:
                self.extend(child.xl, child.yl, child.xh, child.yh)


class RTree:
    """An R-tree over KPEs, built by STR bulk loading."""

    def __init__(self, fanout: int = 64):
        if fanout < 4:
            raise ValueError("fanout must be at least 4")
        self.fanout = fanout
        self.root: RTreeNode = RTreeNode(is_leaf=True)
        self.size = 0
        self._next_page = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def bulk_load(cls, kpes: Sequence[Tuple], fanout: int = 64) -> "RTree":
        """Sort-tile-recursive bulk loading.

        Sorts by x into vertical slabs, each slab by y, packs leaves of
        ``fanout`` entries, then packs parent levels the same way.
        """
        tree = cls(fanout)
        if not kpes:
            return tree
        tree.size = len(kpes)

        def centre_x(k):
            return k[1] + k[3]

        def centre_y(k):
            return k[2] + k[4]

        n_leaves = -(-len(kpes) // fanout)
        n_slabs = max(1, math.ceil(math.sqrt(n_leaves)))
        per_slab = -(-len(kpes) // n_slabs)
        by_x = sorted(kpes, key=centre_x)
        leaves: List[RTreeNode] = []
        for slab_start in range(0, len(by_x), per_slab):
            slab = sorted(by_x[slab_start : slab_start + per_slab], key=centre_y)
            for start in range(0, len(slab), fanout):
                leaf = RTreeNode(is_leaf=True)
                leaf.entries = slab[start : start + fanout]
                leaf.recompute_mbr()
                leaves.append(leaf)
        tree.root = tree._pack_upward(leaves)
        tree._assign_page_ids()
        return tree

    def _pack_upward(self, nodes: List[RTreeNode]) -> RTreeNode:
        while len(nodes) > 1:
            parents: List[RTreeNode] = []
            ordered = sorted(nodes, key=lambda n: (n.xl + n.xh, n.yl + n.yh))
            for start in range(0, len(ordered), self.fanout):
                parent = RTreeNode(is_leaf=False)
                parent.entries = ordered[start : start + self.fanout]
                parent.recompute_mbr()
                parents.append(parent)
            nodes = parents
        return nodes[0]

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def _assign_page_ids(self) -> None:
        counter = 0
        for node in self.iter_nodes():
            node.page_id = counter
            counter += 1
        self._next_page = counter

    @property
    def node_count(self) -> int:
        return self._next_page if self._next_page else sum(1 for _ in self.iter_nodes())

    def iter_nodes(self) -> Iterator[RTreeNode]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack.extend(node.entries)

    def iter_kpes(self) -> Iterator[Tuple]:
        for node in self.iter_nodes():
            if node.is_leaf:
                yield from node.entries

    def height(self) -> int:
        height = 1
        node = self.root
        while not node.is_leaf:
            node = node.entries[0]
            height += 1
        return height

    def search(self, xl: float, yl: float, xh: float, yh: float) -> List[Tuple]:
        """Window query: all KPEs intersecting the closed rectangle."""
        found = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.xl > xh or xl > node.xh or node.yl > yh or yl > node.yh:
                continue
            if node.is_leaf:
                for k in node.entries:
                    if k[1] <= xh and xl <= k[3] and k[2] <= yh and yl <= k[4]:
                        found.append(k)
            else:
                stack.extend(node.entries)
        return found
