"""Plane Sweep Intersection Test with a list-organised sweep-line status.

This is the internal algorithm PBSM adopted from [BKS 93]: both inputs are
sorted by their left edge, a vertical sweep line moves left to right, and
the rectangles currently straddling the sweep line ("active") are kept in a
plain list per relation.  When a rectangle enters the sweep, expired
entries of the *other* relation's active list are discarded in passing and
the survivors are tested for y-overlap.

The paper's analysis (Section 3.2.2): with ``O(sqrt(n))`` rectangles on the
sweep line the algorithm runs in ``O(n * sqrt(n))`` — fine for PBSM's
partition-sized inputs, poor when applied to a whole dataset in one go, and
(counter-intuitively) *worse* the more main memory PBSM gets, because
larger partitions mean longer active lists.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

from repro.core.stats import CpuCounters
from repro.io.paper_io import ensure_sorted_by_xl


def sweep_list_join(
    left: Sequence[Tuple],
    right: Sequence[Tuple],
    emit: Callable[[Tuple, Tuple], None],
    counters: CpuCounters,
) -> None:
    """Join two KPE sets with the list-based plane sweep of [BKS 93]."""
    if not left or not right:
        return
    sorted_left = ensure_sorted_by_xl(left, counters)
    sorted_right = ensure_sorted_by_xl(right, counters)

    tests = 0
    structure_ops = 0
    active_left: List[Tuple] = []
    active_right: List[Tuple] = []
    i = 0
    j = 0
    n_left = len(sorted_left)
    n_right = len(sorted_right)
    while i < n_left and j < n_right:
        r = sorted_left[i]
        s = sorted_right[j]
        if r[1] <= s[1]:
            tests, structure_ops = _step(
                r, active_right, emit, False, tests, structure_ops
            )
            active_left.append(r)
            structure_ops += 1
            i += 1
        else:
            tests, structure_ops = _step(
                s, active_left, emit, True, tests, structure_ops
            )
            active_right.append(s)
            structure_ops += 1
            j += 1
    # One input exhausted: the rest only probes the other active list.
    while i < n_left:
        tests, structure_ops = _step(
            sorted_left[i], active_right, emit, False, tests, structure_ops
        )
        i += 1
    while j < n_right:
        tests, structure_ops = _step(
            sorted_right[j], active_left, emit, True, tests, structure_ops
        )
        j += 1
    counters.intersection_tests += tests
    counters.structure_ops += structure_ops


def _step(
    rect: Tuple,
    other_active: List[Tuple],
    emit: Callable[[Tuple, Tuple], None],
    rect_is_right: bool,
    tests: int,
    structure_ops: int,
) -> Tuple[int, int]:
    """Probe *rect* against the other relation's active list.

    Entries whose right edge lies left of the sweep position (``rect.xl``)
    have left the sweep line and are compacted out in the same pass — the
    "implicit" status maintenance of the original formulation.
    """
    xl = rect[1]
    yl = rect[2]
    yh = rect[4]
    keep = 0
    for other in other_active:
        structure_ops += 1
        if other[3] < xl:
            continue  # expired: drop by not keeping
        other_active[keep] = other
        keep += 1
        tests += 1
        if other[2] <= yh and yl <= other[4]:
            if rect_is_right:
                emit(other, rect)
            else:
                emit(rect, other)
    del other_active[keep:]
    return tests, structure_ops
