"""Plane sweep with a CLR-style interval tree sweep-line status.

[APR+ 98] organised the sweep-line status in dynamic interval trees
[CLR 90]; the paper rejects them for PBSM because of the "expensive dynamic
reorganization of nodes" and uses interval tries instead.  To make that
design choice measurable, this module provides the interval-tree variant as
a comparison point: fixed midpoints (as in the trie) but with each node's
entries kept *sorted by interval start* so queries can stop scanning early.
The price is a shifted insertion (``bisect.insort``) per arriving
rectangle — the reorganisation cost the paper's argument is about, in its
mildest form.
"""

from __future__ import annotations

from bisect import insort
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.stats import CpuCounters
from repro.io.paper_io import ensure_sorted_by_xl

_MAX_DEPTH = 20


class _TreeNode:
    __slots__ = ("lo", "hi", "mid", "left", "right", "entries")

    def __init__(self, lo: float, hi: float):
        self.lo = lo
        self.hi = hi
        self.mid = (lo + hi) / 2.0
        self.left: Optional["_TreeNode"] = None
        self.right: Optional["_TreeNode"] = None
        #: entries sorted ascending by interval start: (lo, hi, expire_x, payload)
        self.entries: List[Tuple] = []


class IntervalTree:
    """Interval tree with start-sorted node lists and early-exit queries."""

    __slots__ = ("root", "max_depth", "ops", "size")

    def __init__(self, lo: float, hi: float, max_depth: int = _MAX_DEPTH):
        if lo == hi:
            hi = lo + 1.0
        self.root = _TreeNode(lo, hi)
        self.max_depth = max_depth
        self.ops = 0
        self.size = 0

    def insert(self, lo: float, hi: float, expire_x: float, payload) -> None:
        node = self.root
        ops = 1
        depth = 0
        while depth < self.max_depth:
            if hi < node.mid:
                if node.left is None:
                    node.left = _TreeNode(node.lo, node.mid)
                node = node.left
            elif lo > node.mid:
                if node.right is None:
                    node.right = _TreeNode(node.mid, node.hi)
                node = node.right
            else:
                break
            ops += 1
            depth += 1
        # The sorted insert is the "dynamic reorganisation" cost: charge the
        # shift as one structure op per displaced entry.
        entries = node.entries
        before = len(entries)
        insort(entries, (lo, hi, expire_x, payload))
        position = entries.index((lo, hi, expire_x, payload))
        ops += (before - position) + 1
        self.ops += ops
        self.size += 1

    def query(
        self,
        qlo: float,
        qhi: float,
        sweep_x: float,
        on_hit: Callable[[object], None],
        tests_out: List[int],
    ) -> None:
        """Report live entries overlapping ``[qlo, qhi]``; early exit on
        the sorted start coordinate once entry.lo > qhi."""
        ops = 0
        tests = tests_out[0]
        stack = [self.root]
        while stack:
            node = stack.pop()
            ops += 1
            entries = node.entries
            if entries:
                keep = 0
                stop = len(entries)
                for idx, entry in enumerate(entries):
                    if entry[0] > qhi:
                        stop = idx
                        break
                for entry in entries[:stop]:
                    if entry[2] < sweep_x:
                        self.size -= 1
                        continue
                    entries[keep] = entry
                    keep += 1
                    tests += 1
                    if qlo <= entry[1]:
                        on_hit(entry[3])
                # keep the (unexamined, still sorted) tail
                tail = entries[stop:]
                del entries[keep:]
                entries.extend(tail)
            if node.left is not None and qlo < node.mid:
                stack.append(node.left)
            if node.right is not None and qhi > node.mid:
                stack.append(node.right)
        tests_out[0] = tests
        self.ops += ops


def sweep_tree_join(
    left: Sequence[Tuple],
    right: Sequence[Tuple],
    emit: Callable[[Tuple, Tuple], None],
    counters: CpuCounters,
) -> None:
    """Join two KPE sets with the interval-tree plane sweep."""
    if not left or not right:
        return
    y_lo = min(min(k[2] for k in left), min(k[2] for k in right))
    y_hi = max(max(k[4] for k in left), max(k[4] for k in right))
    tree_left = IntervalTree(y_lo, y_hi)
    tree_right = IntervalTree(y_lo, y_hi)

    sorted_left = ensure_sorted_by_xl(left, counters)
    sorted_right = ensure_sorted_by_xl(right, counters)

    tests_out = [0]
    i = 0
    j = 0
    n_left = len(sorted_left)
    n_right = len(sorted_right)
    while i < n_left or j < n_right:
        take_left = j >= n_right or (
            i < n_left and sorted_left[i][1] <= sorted_right[j][1]
        )
        if take_left:
            r = sorted_left[i]
            i += 1
            tree_right.query(
                r[2], r[4], r[1], lambda s, _r=r: emit(_r, s), tests_out
            )
            if j < n_right:
                tree_left.insert(r[2], r[4], r[3], r)
        else:
            s = sorted_right[j]
            j += 1
            tree_left.query(
                s[2], s[4], s[1], lambda r, _s=s: emit(r, _s), tests_out
            )
            if i < n_left:
                tree_right.insert(s[2], s[4], s[3], s)
    counters.intersection_tests += tests_out[0]
    counters.structure_ops += tree_left.ops + tree_right.ops
