"""Original PBSM's duplicate removal: sort the candidate pairs.

Section 3.1 / Figure 1, phase 4: because KPEs are replicated across
partitions, the join phase can report the same result pair several times;
the original algorithm materialises all candidate pairs, sorts them
(externally if necessary) and drops adjacent duplicates.  The I/O of this
phase — writing the temporary pair file, sorting it, re-reading it — is the
overhead the Reference Point Method eliminates (Figure 3a's upper boxes).
It is the one PBSM phase that stages real records through a paged file:
:class:`CandidateFile` is the driver's side of it.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.stats import CpuCounters
from repro.io.disk import SimulatedDisk
from repro.io.extsort import external_sort, sorted_dedup
from repro.io.pagefile import PageFile, PageWriter


class CandidateFile(PageWriter):
    """The join phase's candidate pairs, written through a one-page
    buffer as the leaves report them (``write_many``) and sorted out
    once the join phase is over; all I/O is charged to whatever phase
    of *disk* the caller has made current."""

    def __init__(self, disk: SimulatedDisk) -> None:
        super().__init__(PageFile(disk, disk.cost.result_bytes, "cands"), 1)

    def sort_out(
        self, memory_bytes: int, counters: CpuCounters
    ) -> Tuple[List[Tuple[int, int]], int]:
        """Flush the last page, then :func:`sort_based_dedup` the file."""
        self.close()
        return sort_based_dedup(self._file, memory_bytes, counters)


def sort_based_dedup(
    candidate_file: PageFile,
    memory_bytes: int,
    counters: CpuCounters,
) -> Tuple[List[Tuple[int, int]], int]:
    """Sort a pair file and drop duplicates.

    Returns ``(unique_pairs, duplicates_removed)``.  All I/O is charged to
    whatever disk phase the caller has made current.
    """
    total = candidate_file.n_records
    if total == 0:
        return [], 0
    sorted_file = external_sort(
        candidate_file,
        key=_identity,
        memory_bytes=memory_bytes,
        counters=counters,
        output_name=f"{candidate_file.name}.sorted",
    )
    unique: List[Tuple[int, int]] = []
    n_unique = sorted_dedup(sorted_file, counters, sink=unique.append)
    return unique, total - n_unique


def _identity(record: Tuple) -> Tuple:
    return record
