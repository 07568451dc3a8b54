"""PBSM's partitioning phase into ``PageFile`` objects: the frozen replay's.

The PBSM driver partitions to plain id runs
(:func:`repro.kernels.assign.partition_runs`) and charges their writes
from their lengths (:mod:`repro.io.paper_io`).  What is here serves
the frozen layer replay of ``benchmarks/e2e`` (``layers.py``), which
times :func:`partition_relation` and reads the files back through
:meth:`PageFile.read_all` and :func:`partition_csr`.  :class:`PageFile`
and its :class:`PageWriter` are the slice of the paged files the replay
still needs; no driver uses them.

Each partition gets a one-page output buffer (a real PBSM would hold P
page buffers in memory); a KPE is appended to every partition owning a
tile its rectangle overlaps.  Reading the input relation is free of
charge (the paper's model); the partition writes are charged per buffer
flush.  ``emit="records"`` writes the record tuples through one
:class:`PageWriter` per partition; ``emit="ids"``
wraps each of ``partition_runs``'s id runs in a file, charged exactly
what the one-page writers would have charged.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

from repro.core.stats import CpuCounters
from repro.io.disk import SimulatedDisk
from repro.io.paper_io import charge_partition, charge_read, charge_write
from repro.kernels.assign import partition_plan, partition_runs
from repro.pbsm.grid import TileGrid

#: What a partition file may hold: the record tuples themselves, or the
#: records' integer positions in the input sequence (CSR ids).
EMIT_MODES = ("records", "ids")


class PageFile:
    """A partition file: its records, and its charged whole read."""

    __slots__ = ("disk", "record_bytes", "name", "records")

    def __init__(self, disk: SimulatedDisk, record_bytes: int, name: str = "") -> None:
        self.disk = disk
        self.record_bytes = record_bytes
        self.name = name
        #: A list, or for ``emit="ids"`` a read-only int64 id run.
        self.records: Any = []

    def writer(self, buffer_pages: int = 1) -> "PageWriter":
        """A buffered writer flushing whole buffers as single requests."""
        return PageWriter(self, buffer_pages)

    def read_all(self) -> List[Any]:
        """Read the whole file as one contiguous request."""
        charge_read(self.disk, len(self.records), self.record_bytes)
        records = self.records
        return list(records) if isinstance(records, list) else records.tolist()


class PageWriter:
    """Accumulates records and flushes whole buffers as single requests:
    with one page, PBSM's per-partition output buffer."""

    __slots__ = ("_file", "_buffer_records", "_pending")

    def __init__(self, file: PageFile, buffer_pages: int) -> None:
        self._file = file
        self._buffer_records = buffer_pages * file.disk.cost.records_per_page(
            file.record_bytes
        )
        self._pending: List[Any] = []

    def write(self, record: Any) -> None:
        self._pending.append(record)
        if len(self._pending) >= self._buffer_records:
            self.flush()

    def flush(self) -> None:
        """Write the buffer out in one request (the last one partial)."""
        if self._pending:
            charge_write(self._file.disk, len(self._pending), self._file.record_bytes)
            self._file.records.extend(self._pending)
            self._pending = []


def partition_relation(
    kpes: Sequence[Tuple],
    grid: TileGrid,
    disk: SimulatedDisk,
    record_bytes: int,
    counters: CpuCounters,
    name_prefix: str = "part",
    buffer_pages: int = 1,
    emit: str = "records",
    by_xl: bool = False,
) -> Tuple[List[PageFile], int]:
    """Distribute *kpes* over ``grid.n_partitions`` partition files.

    Returns ``(files, records_written)`` where ``records_written`` counts
    every inserted copy (so ``records_written - len(kpes)`` is the number
    of replicas, the redundancy PBSM trades for partition independence).
    With ``emit="ids"`` each file holds input positions instead of
    record tuples — same write order, same charged costs, one-page
    buffers only; *by_xl* writes each file's positions in
    ``(xl, position)`` order instead, at the same charges.
    """
    if emit not in EMIT_MODES:
        raise ValueError(f"emit must be one of {EMIT_MODES}, got {emit!r}")
    files = [
        PageFile(disk, record_bytes, f"{name_prefix}.{pid}")
        for pid in range(grid.n_partitions)
    ]
    if emit == "ids":
        if buffer_pages != 1:
            raise ValueError("emit='ids' writes through one-page buffers")
        runs = partition_runs(kpes, grid, counters, by_xl)
        charge_partition(disk, runs, record_bytes)
        for file, run in zip(files, runs):
            file.records = run
        return files, sum(len(run) for run in runs)
    writers = [f.writer(buffer_pages=buffer_pages) for f in files]
    written = 0
    structure_ops = 0
    # Destinations of the whole relation in a few array operations; the
    # write order and charged structure ops are the scalar loop's
    # (``TileGrid.partitions_for_rect`` per record).
    for kpe, dest in zip(kpes, partition_plan(kpes, grid)):
        if type(dest) is int:
            writers[dest].write(kpe)
            structure_ops += 2
            written += 1
        else:
            structure_ops += len(dest) + 1
            for pid in dest:
                writers[pid].write(kpe)
            written += len(dest)
    for writer in writers:
        writer.flush()
    counters.structure_ops += structure_ops
    return files, written


def partition_csr(files: Sequence[PageFile]) -> Tuple[List[int], List[int]]:
    """Concatenate id-emitting partition files into CSR index arrays.

    Returns ``(offsets, ids)``: partition ``pid``'s record ids are
    ``ids[offsets[pid]:offsets[pid + 1]]``, in file write order.  Reads
    are charged through each file's own disk, exactly like
    ``read_all()``.
    """
    offsets = [0]
    ids: List[int] = []
    for file in files:
        ids.extend(file.read_all())
        offsets.append(len(ids))
    return offsets, ids
