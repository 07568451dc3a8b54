"""S3J's join phase: a synchronized, heap-driven scan of the level files.

The linear scan of the sorted level files simulates a synchronized
pre-order traversal of the two MX-CIF quadtrees (Section 4.2).  Following
Section 4.4.3, a heap ordered by (left-aligned) locational code holds the
front partition of every non-empty level file, so empty cells are skipped
entirely and the scan degenerates to a merge.

For each partition popped in pre-order, the partitions of the *other*
relation currently on the path stack are exactly its ancestor (or
same-cell) partitions — the pairs the MX-CIF join must process.  Two
intersecting rectangles always sit in cells related by containment, so
pairing along the path is complete; with replication the hierarchical
Reference Point Method filters the redundant detections.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterator, List, NamedTuple, Optional, Tuple

from repro.core.stats import CpuCounters
from repro.io.disk import SimulatedDisk
from repro.io.paper_io import charge_read
from repro.s3j.levelfile import record_bytes_for_level
from repro.sfc.locational import is_ancestor_code, preorder_key


class CellPartition(NamedTuple):
    """One non-empty quadtree cell of one relation: its KPEs plus identity."""

    level: int
    code: int
    ix: int
    iy: int
    kpes: tuple
    rel: int  # 0 = left, 1 = right

    @property
    def bytes(self) -> int:
        return len(self.kpes) * record_bytes_for_level(self.level)


def partition_stream(
    level_file: List[Tuple[int, Tuple]],
    level: int,
    rel: int,
    decoder: Callable[[int, int], Tuple[int, int]],
    disk: SimulatedDisk,
    buffer_pages: int = 4,
) -> Iterator[CellPartition]:
    """Group a sorted level file into per-cell partitions.

    Reading happens through a small multi-page buffer (each level file is
    scanned strictly sequentially): each chunk is charged, one request,
    to whatever disk phase is current when the stream reaches it.
    """
    record_bytes = record_bytes_for_level(level)
    per_chunk = buffer_pages * disk.cost.records_per_page(record_bytes)
    run_code: Optional[int] = None
    run: List = []
    for start in range(0, len(level_file), per_chunk):
        chunk = level_file[start : start + per_chunk]
        charge_read(disk, len(chunk), record_bytes)
        for code, kpe in chunk:
            if code != run_code and run:
                yield _make_partition(level, run_code, run, rel, decoder)
                run = []
            run_code = code
            run.append(kpe)
    if run:
        yield _make_partition(level, run_code, run, rel, decoder)


def _make_partition(
    level: int,
    code: int,
    kpes: List,
    rel: int,
    decoder: Callable[[int, int], Tuple[int, int]],
) -> CellPartition:
    if level == 0:
        ix = iy = 0
    else:
        ix, iy = decoder(code, level)
    return CellPartition(level, code, ix, iy, tuple(kpes), rel)


class ScanStats:
    """Mutable tallies the synchronized scan maintains."""

    __slots__ = ("peak_stack_bytes", "memory_overruns", "partition_pairs")

    def __init__(self) -> None:
        self.peak_stack_bytes = 0
        self.memory_overruns = 0
        self.partition_pairs = 0


def scan_pairs(
    files_left: List[List[Tuple[int, Tuple]]],
    files_right: List[List[Tuple[int, Tuple]]],
    max_level: int,
    decoder: Callable[[int, int], Tuple[int, int]],
    disk: SimulatedDisk,
    counters: CpuCounters,
    memory_bytes: int,
    scan_stats: ScanStats,
    buffer_pages: int = 4,
) -> Iterator[Tuple[CellPartition, CellPartition]]:
    """Yield every (left partition, right partition) pair to be joined.

    Pairs are emitted with the left relation's partition first regardless
    of which arrived later in the traversal.
    """
    streams: List[Iterator[CellPartition]] = []
    for rel, files in ((0, files_left), (1, files_right)):
        for level in range(max_level + 1):
            if files[level]:
                streams.append(
                    partition_stream(
                        files[level], level, rel, decoder, disk, buffer_pages
                    )
                )

    heap: List[Tuple[int, int, int, int, CellPartition]] = []
    heap_ops = 0
    for stream_idx, stream in enumerate(streams):
        first = next(stream, None)
        if first is not None:
            heapq.heappush(heap, _heap_item(first, max_level, stream_idx))
            heap_ops += 1

    stacks: Tuple[List[CellPartition], List[CellPartition]] = ([], [])
    stack_bytes = [0, 0]
    while heap:
        _, _, _, stream_idx, part = heapq.heappop(heap)
        heap_ops += 1
        nxt = next(streams[stream_idx], None)
        if nxt is not None:
            heapq.heappush(heap, _heap_item(nxt, max_level, stream_idx))
            heap_ops += 1

        # Unwind both stacks to the path of the new cell.
        for rel in (0, 1):
            stack = stacks[rel]
            while stack and not is_ancestor_code(
                stack[-1].code, stack[-1].level, part.code, part.level
            ):
                stack_bytes[rel] -= stack[-1].bytes
                stack.pop()

        # Join against every ancestor-or-equal partition of the other side.
        other = stacks[1 - part.rel]
        for ancestor in other:
            scan_stats.partition_pairs += 1
            if part.rel == 0:
                yield part, ancestor
            else:
                yield ancestor, part

        stacks[part.rel].append(part)
        stack_bytes[part.rel] += part.bytes
        total = stack_bytes[0] + stack_bytes[1]
        if total > scan_stats.peak_stack_bytes:
            scan_stats.peak_stack_bytes = total
        if total > memory_bytes:
            scan_stats.memory_overruns += 1
    counters.heap_ops += heap_ops


def _heap_item(
    part: CellPartition, max_level: int, stream_idx: int
) -> Tuple[int, int, int, int, CellPartition]:
    """Heap key: pre-order position, then level, then relation.

    The relation tie-break (left before right) makes same-cell pairing
    deterministic: the right relation's copy finds the left's already on
    the stack.
    """
    return (
        preorder_key(part.code, part.level, max_level),
        part.level,
        part.rel,
        stream_idx,
        part,
    )
