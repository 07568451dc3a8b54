"""PBSM's partitioning phase: stream a relation into partition files.

Each partition gets a one-page output buffer (a real PBSM would hold P
page buffers in memory); a KPE is appended to every partition owning a tile
its rectangle overlaps.  Reading the input relation is free of charge (the
paper's model); the partition writes are charged per buffer flush.

``emit="ids"`` writes each record's *position* in the input sequence
instead of the record tuple itself — the partitioning mode of both PBSM
engines, sequential and parallel.  The files,
the flush pattern, the charged structure operations and the simulated
record size are identical either way (the cost model charges
``record_bytes`` per record regardless of what Python object stands in
for it), so the two modes are indistinguishable to the simulated-cost
accounting.  ``emit="records"`` stays for the frozen layer replay of
``benchmarks/e2e`` (``layers.py``), which times it.  Reading id-emitting
files back per partition yields exactly the CSR form (offsets + record
ids) the parallel join tasks slice; :func:`partition_csr` performs that
concatenation.

``emit="ids"`` runs no per-record loop at all: the CSR arrays come out
of one columnar kernel and the charges are computed from the
per-partition counts (:func:`_partition_ids`).  That kernel keeps its
result on a read-only relation, so re-partitioning one for the same
grid is a lookup — still charged in full, run lengths being all the
charges read.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.core.stats import CpuCounters
from repro.io.disk import SimulatedDisk
from repro.io.pagefile import PageFile
from repro.pbsm.grid import TileGrid

#: Below this size the columnar tile-assignment's fixed overhead loses to
#: the scalar loop; the charged costs are identical either way.
_VECTOR_MIN_RECORDS = 64

#: What a partition file may hold: the record tuples themselves, or the
#: records' integer positions in the input sequence (CSR ids).
EMIT_MODES = ("records", "ids")


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
    With ``emit="ids"`` (what the PBSM drivers run) each file holds input
    positions instead of record tuples — same write order, same charged
    costs; *by_xl* (the columnar engine's) writes each file's positions
    in ``(xl, position)`` order instead, at the same charges
    (``kernels.assign.partition_ids``).  ``emit="records"`` is kept for
    ``benchmarks/e2e/layers.py``, whose frozen replay (traced runs and
    CI's ``e2e-smoke``) still partitions records.
    """
    if emit not in EMIT_MODES:
        raise ValueError(f"emit must be one of {EMIT_MODES}, got {emit!r}")
    if emit == "ids":
        return _partition_ids(
            kpes, grid, disk, record_bytes, counters, name_prefix, buffer_pages,
            by_xl,
        )
    files = [
        PageFile(disk, record_bytes, f"{name_prefix}.{pid}")
        for pid in range(grid.n_partitions)
    ]
    writers = [f.writer(buffer_pages=buffer_pages) for f in files]
    written = 0
    structure_ops = 0
    if len(kpes) >= _VECTOR_MIN_RECORDS:
        # Columnar fast path: destinations of the whole relation in a few
        # array operations.  Write order and charged structure ops are
        # identical to the scalar loop — wall clock is the only change.
        from repro.kernels.assign import partition_plan

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
    else:
        partitions_for_rect = grid.partitions_for_rect
        for kpe in kpes:
            pids = partitions_for_rect(kpe)
            structure_ops += len(pids) + 1
            for pid in pids:
                writers[pid].write(kpe)
            written += len(pids)
    for writer in writers:
        writer.close()
    counters.structure_ops += structure_ops
    return files, written


def _partition_ids(
    kpes: Sequence[Tuple],
    grid: TileGrid,
    disk: SimulatedDisk,
    record_bytes: int,
    counters: CpuCounters,
    name_prefix: str,
    buffer_pages: int,
    by_xl: bool,
) -> Tuple[List[PageFile], int]:
    """``emit="ids"``: one kernel, charged by count.

    ``kernels.assign.partition_ids`` yields every partition's id run at
    once; each file takes its run as a read-only int64 array (a view into
    the one CSR buffer).  Nothing the scalar loop charges depends on the
    interleaving of its writes, only on how many records each file
    receives, so the charges are computed from the run lengths: a file
    of ``n`` records costs the ``ceil(n / buffer)`` flushes its
    :class:`~repro.io.pagefile.PageWriter` would have issued — full
    buffers of ``buffer_pages`` pages plus one final partial buffer —
    and every record costs one structure op per copy plus one for the
    lookup.
    """
    from repro.kernels.assign import partition_ids

    if buffer_pages < 1:
        raise ValueError("buffer_pages must be >= 1")
    offsets, ids = partition_ids(kpes, grid, by_xl)
    ids.flags.writeable = False
    buffer_records = buffer_pages * disk.cost.records_per_page(record_bytes)
    files: List[PageFile] = []
    bounds = offsets.tolist()
    for pid in range(grid.n_partitions):
        file = PageFile(disk, record_bytes, f"{name_prefix}.{pid}")
        file.records = ids[bounds[pid] : bounds[pid + 1]]
        full, rest = divmod(file.n_records, buffer_records)
        disk.charge_write(
            full * buffer_pages + disk.cost.pages_for(rest, record_bytes),
            requests=full + (1 if rest else 0),
        )
        files.append(file)
    written = len(ids)
    counters.structure_ops += written + len(kpes)
    return files, written


def partition_csr(files: Sequence[PageFile]) -> Tuple[List[int], List[int]]:
    """Concatenate id-emitting partition files into CSR index arrays.

    Returns ``(offsets, ids)``: partition ``pid``'s record ids are
    ``ids[offsets[pid]:offsets[pid + 1]]``, in file write order.  Reads
    are charged through each file's own disk, exactly like
    ``read_all()`` — callers that need per-partition I/O attribution
    (the parallel executor) read the files themselves instead.
    """
    offsets = [0]
    ids: List[int] = []
    for file in files:
        ids.extend(file.read_all())
        offsets.append(len(ids))
    return offsets, ids
