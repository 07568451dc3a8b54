"""R-tree substrate and the synchronized R-tree join [BKS 93].

The index-on-both-relations class of the paper's availability-of-index
taxonomy (``method="rtree"``).
"""

from repro.rtree.join import RTreeJoin
from repro.rtree.tree import RTree, RTreeNode

__all__ = [
    "RTree",
    "RTreeJoin",
    "RTreeNode",
]
