"""PBSM's repartitioning phase (Section 3.2.3).

The original paper left repartitioning untreated; Dittrich & Seeger's
strategy: when a pair of partitions does not fit in main memory,
re-partition the *larger* one with a finer grid and try each sub-partition
against the other side; recurse until every pair fits.  Because the other
side is joined against every sub-partition, replication across
sub-partitions introduces more duplicates — which the composed
Reference-Point region test (parent region AND sub-region) suppresses.
"""

from __future__ import annotations

import math
from typing import Any, List, Tuple

from repro.core.space import Space
from repro.core.stats import CpuCounters
from repro.io.disk import SimulatedDisk
from repro.kernels.assign import partition_runs
from repro.pbsm.grid import TileGrid
from repro.pbsm.paper_io import charge_split

#: Upper bound on the fan-out of one repartitioning step.
MAX_SPLIT = 64

#: How deep the recursion splits before a pair is joined over budget.
MAX_REPARTITION_DEPTH = 8


def choose_split(
    larger_bytes: int, smaller_bytes: int, memory_bytes: int, t_factor: float
) -> int:
    """How many sub-partitions to split the larger partition into.

    Aims for each (sub, other) pair to fit: the sub-partition may use the
    memory left over by the smaller side.  When the smaller side alone
    (nearly) exhausts memory, a modest split is used and recursion will
    split the other side next.
    """
    available = memory_bytes - smaller_bytes
    floor_avail = max(1, memory_bytes // 4)
    if available < floor_avail:
        available = floor_avail
    k = math.ceil(t_factor * larger_bytes / available)
    return max(2, min(MAX_SPLIT, k))


def split_partition_ids(
    source: Any,
    columns: Any,
    k: int,
    space: Space,
    disk: SimulatedDisk,
    counters: CpuCounters,
    tiles_per_partition: int,
) -> Tuple[List[Any], TileGrid]:
    """Re-partition the id run *source* into *k* sub-partitions with a
    finer grid.

    The partitions of both PBSM engines are int64 runs of positions in
    the input's :class:`~repro.kernels.columnar.ColumnarRelation`
    *columns*, not records: the source's rows are gathered, partitioned
    by the array kernel, and each sub-partition's local positions —
    ascending, so in the source's order (``(xl, position)`` for the
    columnar engine, ``position`` for the tuple engine) — mapped back to
    input positions, with nothing sorted.  The paper's I/O is charged
    from the run lengths (:func:`~repro.pbsm.paper_io.charge_split`).
    Returns the read-only sub-partition runs and the sub-grid (whose
    point map the composed RPM region test uses).

    The source is deliberately left intact: a partition can be the
    shared "smaller" side of several sub-pairs, and the recursion may
    split it again for a later sub-pair; consuming it here would
    silently drop those pairs.
    """
    subgrid = TileGrid.for_partitions(space, k, tiles_per_partition)
    runs: List[Any] = []
    for local in partition_runs(columns.rows(source), subgrid, counters):
        run = source[local]
        run.flags.writeable = False
        runs.append(run)
    charge_split(disk, source, runs)
    return runs, subgrid
