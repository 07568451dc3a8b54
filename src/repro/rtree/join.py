"""Synchronized R-tree join [BKS 93] — the "index on both relations"
comparison class.

Pairs of nodes whose MBRs intersect are traversed in tandem; at the
leaves, entries are joined with a local plane sweep (the same algorithm
PBSM borrowed for its partitions).  Trees of different heights are
handled by joining the shallower tree's leaf against the deeper subtree
("window" descent).  No replication, hence no duplicates.

I/O model: when ``prebuilt`` trees are given, the build is free (the
paper's premise: indices already exist); otherwise bulk loading charges
one sequential write of all nodes.  During the join every node visit
charges one page read — matched node pairs drive the cost, which is why
this method is hard to beat when the indices come for free.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.phases import PHASE_BUILD, PHASE_JOIN
from repro.core.result import JoinResult, JoinStats
from repro.core.stats import CpuCounters
from repro.internal import internal_algorithm
from repro.io.costmodel import CostModel
from repro.io.disk import Ledger, SimulatedDisk
from repro.obs.trace import KIND_RUN, NULL_TRACER
from repro.rtree.tree import RTree, RTreeNode

#: Node (page) size drives pages-per-node; one node = one page.
_NODE_PAGES = 1


class RTreeJoin:
    """Spatial join via synchronized traversal of two R-trees."""

    def __init__(
        self,
        fanout: int = 64,
        *,
        internal: str = "sweep_list",
        prebuilt: bool = False,
        cost_model: Optional[CostModel] = None,
        tracer=None,
    ):
        self.fanout = fanout
        self.internal_name = internal
        self.internal = internal_algorithm(internal)
        self.prebuilt = prebuilt
        self.cost_model = cost_model or CostModel()
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def run(
        self,
        left: Sequence[Tuple],
        right: Sequence[Tuple],
        tree_left: Optional[RTree] = None,
        tree_right: Optional[RTree] = None,
    ) -> JoinResult:
        """Join two relations (or two already-built trees)."""
        stats = JoinStats(
            algorithm=f"RTreeJoin({self.internal_name})",
            n_left=len(left),
            n_right=len(right),
        )
        ledger = Ledger(stats, (PHASE_BUILD, PHASE_JOIN), self.cost_model, self.tracer)
        disk = ledger.disk
        pairs: List[Tuple[int, int]] = []

        if left and right:
            with self.tracer.span(
                "rtree_join",
                kind=KIND_RUN,
                internal=self.internal_name,
                prebuilt=self.prebuilt,
            ):
                with ledger.phase(PHASE_BUILD):
                    if tree_left is None:
                        tree_left = RTree.bulk_load(left, self.fanout)
                        if not self.prebuilt:
                            disk.charge_write(
                                tree_left.node_count * _NODE_PAGES, 1
                            )
                    if tree_right is None:
                        tree_right = RTree.bulk_load(right, self.fanout)
                        if not self.prebuilt:
                            disk.charge_write(
                                tree_right.node_count * _NODE_PAGES, 1
                            )

                with ledger.phase(PHASE_JOIN):
                    self._join_nodes(
                        tree_left.root,
                        tree_right.root,
                        pairs,
                        ledger.cpu[PHASE_JOIN],
                        disk,
                    )

        stats.n_results = len(pairs)
        ledger.charge()
        return JoinResult(pairs=pairs, stats=stats)

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def _join_nodes(
        self,
        node_left: RTreeNode,
        node_right: RTreeNode,
        pairs: List[Tuple[int, int]],
        cpu: CpuCounters,
        disk: SimulatedDisk,
    ) -> None:
        disk.charge_read(2 * _NODE_PAGES, 2)
        stack = [(node_left, node_right)]
        visited = {id(node_left), id(node_right)}
        while stack:
            nl, nr = stack.pop()
            if nl.is_leaf and nr.is_leaf:
                self.internal(
                    nl.entries,
                    nr.entries,
                    lambda r, s: pairs.append((r[0], s[0])),
                    cpu,
                )
                continue
            if nl.is_leaf:
                # Descend the deeper right subtree against the left leaf.
                for child in nr.entries:
                    cpu.intersection_tests += 1
                    if _overlaps(nl, child):
                        self._charge_visit(child, visited, disk)
                        stack.append((nl, child))
                continue
            if nr.is_leaf:
                for child in nl.entries:
                    cpu.intersection_tests += 1
                    if _overlaps(child, nr):
                        self._charge_visit(child, visited, disk)
                        stack.append((child, nr))
                continue
            # Both inner: pair overlapping children (the BKS93 step, with
            # a restriction of the search to the joint intersection MBR).
            ixl = max(nl.xl, nr.xl)
            iyl = max(nl.yl, nr.yl)
            ixh = min(nl.xh, nr.xh)
            iyh = min(nl.yh, nr.yh)
            left_children = [
                c
                for c in nl.entries
                if c.xl <= ixh and ixl <= c.xh and c.yl <= iyh and iyl <= c.yh
            ]
            right_children = [
                c
                for c in nr.entries
                if c.xl <= ixh and ixl <= c.xh and c.yl <= iyh and iyl <= c.yh
            ]
            cpu.intersection_tests += len(nl.entries) + len(nr.entries)
            for cl in left_children:
                for cr in right_children:
                    cpu.intersection_tests += 1
                    if _overlaps(cl, cr):
                        self._charge_visit(cl, visited, disk)
                        self._charge_visit(cr, visited, disk)
                        stack.append((cl, cr))

    @staticmethod
    def _charge_visit(node: RTreeNode, visited: set, disk: SimulatedDisk) -> None:
        """Charge a node's page read the first time it is visited (an
        unbounded buffer — the best case for the index join)."""
        if id(node) not in visited:
            visited.add(id(node))
            disk.charge_read(_NODE_PAGES, 1)


def _overlaps(a: RTreeNode, b: RTreeNode) -> bool:
    return a.xl <= b.xh and b.xl <= a.xh and a.yl <= b.yh and b.yl <= a.yh
