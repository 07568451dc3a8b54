"""In-memory sorts with charged comparisons, and the sweeps' ``xl`` order.

A sort of ``n`` records is charged ``n * ceil(log2 n)`` comparisons
(deterministic, since Python's timsort does not expose its comparison
count).  The external merge sort of a file too large for memory is
priced from its run lengths in :mod:`repro.io.paper_io`.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, List, Sequence

from repro.core.stats import CpuCounters

#: The sweep algorithms' sort key (``kpe[1]``), shared module-wide so the
#: hot loops pay one C-level itemgetter instead of a per-call lambda.
BY_XL = operator.itemgetter(1)


class XlSorted(list):
    """A list of KPEs flagged as already sorted by ``xl``.

    Drivers that sort an input once (SSSJ's sorting phase, a columnar
    kernel handing records back) wrap the result in this type so the
    internal algorithms skip their own re-sort — and its comparison
    charge, which was already paid when the list was first sorted.
    """

    __slots__ = ()

    @property
    def sorted_by_xl(self) -> bool:
        return True


def ensure_sorted_by_xl(records: Sequence, counters: CpuCounters) -> Sequence:
    """*records* sorted by ``xl``, re-sorting (and charging) only if needed."""
    if getattr(records, "sorted_by_xl", False):
        return records
    return XlSorted(sort_in_memory(list(records), BY_XL, counters))


def count_sort_comparisons(counters: CpuCounters, n: int) -> None:
    """Charge a sort of *n* records its ``n * ceil(log2 n)`` comparisons."""
    if n > 1:
        counters.comparisons += n * max(1, math.ceil(math.log2(n)))


def sort_in_memory(
    records: List,
    key: Callable,
    counters: CpuCounters,
) -> List:
    """Sort a record list, charging ``n log n`` comparisons."""
    count_sort_comparisons(counters, len(records))
    return sorted(records, key=key)
