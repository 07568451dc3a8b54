"""Interval tries: the sweep-line status structure of PBSM (trie).

Section 3.2.2: for large partitions or high join selectivity the list-based
sweep status degrades, and [APR+ 98] suggested dynamic interval trees.  The
paper instead organises the sweep-line status in an *interval trie*
[Knu 70]: an interval tree whose node midpoints are fixed by recursive
binary subdivision of the data space, so no dynamic reorganisation of nodes
is ever needed — the property the paper cites as the trie's advantage.

An interval ``[lo, hi]`` is stored at the first node (walking from the
root) whose midpoint it straddles; intervals entirely inside one half
descend into that half.  A query for ``[qlo, qhi]`` visits the nodes whose
segment intersects the query and tests their stored entries.

Sweep-line expiry is *lazy*: each entry carries the x-coordinate at which
its rectangle leaves the sweep line, and queries compact expired entries
out of the node lists in passing.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

#: Deeper than this the segments are narrower than any realistic rectangle;
#: bounding the depth also bounds the cost of degenerate inputs.
DEFAULT_MAX_DEPTH = 20


class _TrieNode:
    """One node of the interval trie: a fixed segment plus stored entries."""

    __slots__ = ("lo", "hi", "mid", "left", "right", "entries")

    def __init__(self, lo: float, hi: float):
        self.lo = lo
        self.hi = hi
        self.mid = (lo + hi) / 2.0
        self.left: Optional[_TrieNode] = None
        self.right: Optional[_TrieNode] = None
        #: entries are tuples ``(lo, hi, expire_x, payload)``
        self.entries: List[Tuple] = []


class IntervalTrie:
    """A fixed-subdivision interval tree over ``[lo, hi]``.

    Entries are y-intervals of active rectangles, tagged with the sweep
    x-coordinate past which they expire.  ``ops`` counts structure
    operations (node visits and entry scans) for the CPU cost model.
    """

    __slots__ = ("root", "max_depth", "ops", "size")

    def __init__(self, lo: float, hi: float, max_depth: int = DEFAULT_MAX_DEPTH):
        if not lo <= hi:
            raise ValueError(f"invalid trie range [{lo}, {hi}]")
        if lo == hi:
            hi = lo + 1.0  # degenerate data space: one segment suffices
        self.root = _TrieNode(lo, hi)
        self.max_depth = max_depth
        self.ops = 0
        self.size = 0

    def insert(self, lo: float, hi: float, expire_x: float, payload) -> None:
        """Insert interval ``[lo, hi]`` expiring once the sweep passes
        ``expire_x``."""
        node = self.root
        ops = 1
        depth = 0
        while depth < self.max_depth:
            if hi < node.mid:
                child = node.left
                if child is None:
                    child = _TrieNode(node.lo, node.mid)
                    node.left = child
                node = child
            elif lo > node.mid:
                child = node.right
                if child is None:
                    child = _TrieNode(node.mid, node.hi)
                    node.right = child
                node = child
            else:
                break
            ops += 1
            depth += 1
        node.entries.append((lo, hi, expire_x, payload))
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
        """Report payloads of live entries overlapping ``[qlo, qhi]``.

        ``sweep_x`` is the current sweep position: entries with
        ``expire_x < sweep_x`` are compacted out of the visited nodes.
        ``tests_out[0]`` is incremented per interval-overlap test so the
        caller can charge intersection tests exactly like the other
        algorithms do.
        """
        ops = 0
        tests = tests_out[0]
        stack = [self.root]
        while stack:
            node = stack.pop()
            ops += 1
            entries = node.entries
            if entries:
                keep = 0
                for entry in entries:
                    if entry[2] < sweep_x:
                        self.size -= 1
                        continue
                    entries[keep] = entry
                    keep += 1
                    tests += 1
                    if entry[0] <= qhi and qlo <= entry[1]:
                        on_hit(entry[3])
                del entries[keep:]
            left = node.left
            if left is not None and qlo < node.mid:
                stack.append(left)
            right = node.right
            if right is not None and qhi > node.mid:
                stack.append(right)
        tests_out[0] = tests
        self.ops += ops
