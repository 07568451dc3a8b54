"""S3J level files: one record list per quadtree level per relation.

A level-file record is ``(code, kpe)``.  Its on-disk size is level
dependent, as the paper points out: a locational code at level ``k`` needs
``2k`` bits on top of the 20-byte KPE (we round the code to whole bytes).
Level 0 stores no code at all.  The files are plain lists; their page
I/O is charged from their lengths (:mod:`repro.io.paper_io`).
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.core.rect import SIZEOF_KPE
from repro.core.stats import CpuCounters
from repro.io.disk import SimulatedDisk
from repro.io.paper_io import charge_write, sort_records


def record_bytes_for_level(level: int) -> int:
    """Bytes per level-file record: the KPE plus a 2*level-bit code."""
    if level == 0:
        return SIZEOF_KPE
    return SIZEOF_KPE + max(1, -(-2 * level // 8))


def build_level_files(
    entries: Iterable[Tuple[int, int, Tuple]],
    max_level: int,
    disk: SimulatedDisk,
    buffer_pages: int = 4,
) -> Tuple[List[List[Tuple[int, Tuple]]], int]:
    """Write assignment entries into per-level files (partitioning phase).

    Returns ``(files, records_written)``.  There are only ``max_level + 1``
    level files per relation (far fewer than PBSM's partitions), so each
    can afford a multi-page output buffer — this is how S3J "almost avoids"
    random I/O (Section 5.1).
    """
    files: List[List[Tuple[int, Tuple]]] = [[] for _ in range(max_level + 1)]
    for level, code, kpe in entries:
        files[level].append((code, kpe))
    for level, records in enumerate(files):
        charge_write(disk, len(records), record_bytes_for_level(level), buffer_pages)
    return files, sum(map(len, files))


def sort_level_files(
    files: List[List[Tuple[int, Tuple]]],
    disk: SimulatedDisk,
    memory_bytes: int,
    counters: CpuCounters,
) -> List[List[Tuple[int, Tuple]]]:
    """Sorting phase: order every level file by locational code.

    Level 0 holds a single cell, so it needs no sorting (and is not even
    read); deeper files are sorted in memory when they fit — one read and
    one write each, the paper's Table 3 bound — or externally otherwise
    (:func:`~repro.io.paper_io.sort_records`).
    """
    return [files[0]] + [
        sort_records(
            disk, records, _by_code, record_bytes_for_level(level), memory_bytes, counters
        )
        for level, records in enumerate(files[1:], 1)
    ]


def _by_code(record: Tuple) -> int:
    return record[0]
