"""The paper's page I/O and sorts, charged from record counts.

The paper prices every algorithm in ``PT + n`` page transfers (Sec. 2):
PBSM's partitions and its sort-based duplicate removal (Sec. 3.1,
Fig. 3a), S³J's level files (Sec. 4), SSSJ's sorted runs and SHJ's
buckets.  The drivers keep their records in plain lists (PBSM its
partitions as int64 id runs), so no file stands behind any of them:
what a file costs on the paper's disk depends only on how many records
it holds and how they are buffered.  This module is the one place that
knows those charges; the run's :class:`~repro.io.disk.SimulatedDisk` is
only the ledger, per phase, that the spans snapshot.

Sorts in memory are charged the same way: a sort of ``n`` records costs
``n * ceil(log2 n)`` operations (:func:`sort_operations`; deterministic,
since Python's timsort does not expose its comparison count), whether
a tuple driver's comparisons or a columnar kernel's batch operations.
The sweeps' ``xl`` order (:data:`BY_XL`, :class:`XlSorted`) lives here
with the sort that charges it.
"""

from __future__ import annotations

import math
import operator
from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from repro.core.stats import CpuCounters
from repro.io.disk import SimulatedDisk

#: The sweep algorithms' sort key (``kpe[1]``), shared module-wide so the
#: hot loops pay one C-level itemgetter instead of a per-call lambda.
BY_XL = operator.itemgetter(1)


def sort_operations(n: int) -> int:
    """What a sort of *n* records is charged: ``n * ceil(log2 n)``
    operations, none below two records."""
    return n * max(1, math.ceil(math.log2(n))) if n > 1 else 0


def sort_in_memory(records: List, key: Callable, counters: CpuCounters) -> List:
    """Sort a record list, charging ``n log n`` comparisons."""
    counters.comparisons += sort_operations(len(records))
    return sorted(records, key=key)


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


def charge_write(
    disk: SimulatedDisk, n: int, record_bytes: int, buffer_pages: int = 0
) -> None:
    """Write *n* records through a buffer of *buffer_pages* pages: one
    request per flush, the last one partial.  ``0`` writes them all in
    one request."""
    _charge(disk.charge_write, disk, n, record_bytes, buffer_pages)


def charge_read(
    disk: SimulatedDisk, n: int, record_bytes: int, buffer_pages: int = 0
) -> None:
    """Read *n* records in chunks of *buffer_pages* pages, one request
    each.  ``0`` reads them all in one request."""
    _charge(disk.charge_read, disk, n, record_bytes, buffer_pages)


def _charge(
    charge: Callable[..., None],
    disk: SimulatedDisk,
    n: int,
    record_bytes: int,
    buffer_pages: int,
) -> None:
    if buffer_pages < 0:
        raise ValueError("buffer_pages must be >= 0")
    cost = disk.cost
    if n <= 0:
        return
    if not buffer_pages:
        charge(cost.pages_for(n, record_bytes), requests=1)
        return
    per_buffer = buffer_pages * cost.records_per_page(record_bytes)
    full, rest = divmod(n, per_buffer)
    charge(
        full * cost.pages_for(per_buffer, record_bytes)
        + cost.pages_for(rest, record_bytes),
        requests=full + (1 if rest else 0),
    )


def charge_partition(
    disk: SimulatedDisk, runs: Sequence[Any], record_bytes: int
) -> None:
    """Write *runs*, each through its own one-page buffer: every page
    flushed is one request."""
    pages = sum(disk.cost.pages_for(len(run), record_bytes) for run in runs)
    disk.charge_write(pages, requests=pages)


def charge_split(disk: SimulatedDisk, source: Any, runs: Sequence[Any]) -> None:
    """Read the split *source* in one request, then write its
    sub-partition *runs* like the initial partitioning's."""
    record_bytes = disk.cost.kpe_bytes
    charge_read(disk, len(source), record_bytes)
    charge_partition(disk, runs, record_bytes)


def charge_leaf(disk: SimulatedDisk, ids_left: Any, ids_right: Any) -> float:
    """Read both sides of a leaf, one request each; returns the units
    charged (``2 PT`` plus the pages), the leaf's I/O in the makespan."""
    cost = disk.cost
    pages = 0
    for ids in (ids_left, ids_right):
        side = cost.pages_for(len(ids), cost.kpe_bytes)
        disk.charge_read(side, requests=1)
        pages += side
    return cost.pt_ratio * 2 + pages


def charge_filled_pages(
    disk: SimulatedDisk, held: int, n: int, record_bytes: int
) -> None:
    """Append *n* records to a one-page-buffered file that already holds
    *held*: charge the pages they fill.  The last, partial page is
    charged when the file is closed (:func:`charge_write` of what is
    left over)."""
    per_page = disk.cost.records_per_page(record_bytes)
    filled = (held + n) // per_page - held // per_page
    charge_write(disk, filled * per_page, record_bytes, buffer_pages=1)


def charge_sort(
    disk: SimulatedDisk,
    n: int,
    record_bytes: int,
    memory_bytes: int,
    counters: CpuCounters,
) -> None:
    """Charge the external merge sort of a file of *n* records under
    *memory_bytes*.

    A file that fits in memory is read in one request, sorted and
    written back in one (the paper's best case for S³J's level files:
    each read and written once).  A larger one is read in memory-sized
    chunks, each sorted into a run written in one request; runs are then
    merged ``max(2, memory_pages - 1)`` at a time, one page per request
    on both sides, until one is left.  Each merge pass costs two heap
    operations per record.
    """
    if n == 0:
        return
    cost = disk.cost
    memory_pages = max(2, memory_bytes // cost.page_size)
    memory_records = memory_pages * cost.records_per_page(record_bytes)
    charge_read(disk, n, record_bytes, buffer_pages=memory_pages)
    full, rest = divmod(n, memory_records)
    runs = [memory_records] * full + ([rest] if rest else [])
    for run in runs:
        counters.comparisons += sort_operations(run)
        charge_write(disk, run, record_bytes)
    fan_in = max(2, memory_pages - 1)
    while len(runs) > 1:
        for run in runs:
            charge_read(disk, run, record_bytes, buffer_pages=1)
        runs = [sum(runs[i : i + fan_in]) for i in range(0, len(runs), fan_in)]
        for run in runs:
            charge_write(disk, run, record_bytes, buffer_pages=1)
        counters.heap_ops += 2 * n


def sort_records(
    disk: SimulatedDisk,
    records: Sequence[Any],
    key: Optional[Callable[[Any], Any]],
    record_bytes: int,
    memory_bytes: int,
    counters: CpuCounters,
) -> List[Any]:
    """*records* stably sorted by *key*, charged as the external merge
    sort of a file of them (:func:`charge_sort`).  Merging stably sorted
    runs, ties broken by run, is a stable sort, so the records are
    sorted in memory."""
    charge_sort(disk, len(records), record_bytes, memory_bytes, counters)
    return sorted(records, key=key)


def sort_based_dedup(
    disk: SimulatedDisk,
    left: Any,
    right: Any,
    record_bytes: int,
    memory_bytes: int,
    counters: CpuCounters,
) -> Any:
    """Original PBSM's duplicate removal (Sec. 3.1) over the candidate
    pairs ``(left[i], right[i])``, two int64 oid arrays: sort the
    candidate file (:func:`charge_sort`), then scan it through a
    one-page buffer, one comparison per record, keeping the first of
    each run of equal pairs.  Returns the positions of the kept
    candidates in sorted pair order: one stable sort, so each is its
    pair's first occurrence."""
    n = len(left)
    charge_sort(disk, n, record_bytes, memory_bytes, counters)
    charge_read(disk, n, record_bytes, buffer_pages=1)
    counters.comparisons += n
    _, first = np.unique(np.stack((left, right), 1), axis=0, return_index=True)
    return first
