"""Plane sweep with the sweep-line status organised in interval tries.

The paper's replacement internal algorithm for PBSM with large partitions
(Section 3.2.2): identical sweep skeleton to the list variant, but the
active sets are interval tries over the y-axis, so a probe visits only the
trie nodes whose segment overlaps the probe's y-interval instead of the
whole active set.  Superior for large partitions / high selectivity;
its setup and per-node overhead make it inferior for S3J's tiny
partitions (Section 4.4.1) — both effects are reproduced by the benchmarks.
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple

from repro.core.stats import CpuCounters
from repro.internal.interval_trie import DEFAULT_MAX_DEPTH, IntervalTrie
from repro.io.paper_io import ensure_sorted_by_xl


def sweep_trie_join(
    left: Sequence[Tuple],
    right: Sequence[Tuple],
    emit: Callable[[Tuple, Tuple], None],
    counters: CpuCounters,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> None:
    """Join two KPE sets with the trie-based plane sweep."""
    if not left or not right:
        return
    # The tries subdivide the joint y-extent of both inputs.
    y_lo = min(min(k[2] for k in left), min(k[2] for k in right))
    y_hi = max(max(k[4] for k in left), max(k[4] for k in right))
    trie_left = IntervalTrie(y_lo, y_hi, max_depth)
    trie_right = IntervalTrie(y_lo, y_hi, max_depth)

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
            trie_right.query(
                r[2], r[4], r[1], lambda s, _r=r: emit(_r, s), tests_out
            )
            if j < n_right:  # no point keeping status once probes ended
                trie_left.insert(r[2], r[4], r[3], r)
        else:
            s = sorted_right[j]
            j += 1
            trie_left.query(
                s[2], s[4], s[1], lambda r, _s=s: emit(r, _s), tests_out
            )
            if i < n_left:
                trie_right.insert(s[2], s[4], s[3], s)
    counters.intersection_tests += tests_out[0]
    counters.structure_ops += trie_left.ops + trie_right.ops
