"""Vectorized tile assignment: PBSM's partitioning phase on arrays.

Partitioning asks, per record, which tiles its rectangle overlaps and
which partition owns each tile.  This module computes the tile ranges
of a whole relation in six array operations and offers three consumers
of them:

* :func:`partition_runs` — what the PBSM driver runs and carries:
  every partition's id run, a read-only int64 view into one CSR buffer
  (:mod:`repro.io.paper_io` charges its I/O from its length);
* :func:`partition_ids` — the same phase as CSR ``(offsets, ids)``, no
  per-record Python at all;
* :func:`partition_plan` — per-record destinations for the
  records-emitting partitioner of the frozen layer replay
  (``partition_relation(emit="records")``): single-tile records resolve
  array-wise, only genuinely multi-tile records fall back to the
  per-tile loop.

All preserve the scalar partitioner's exact semantics: per-partition
record order, replica counts, and the structure-op accounting all
match, so simulated costs are identical — the win is wall clock only.
(The columnar engine asks for the same runs in ``xl`` order, which no
charge depends on.)

A relation whose five columns are all read-only (a mapped ``.rcd``, a
registry dataset) keeps what ``partition_ids`` computed for it, per grid:
a server joining the same pinned datasets under the same budget
partitions each of them once (``docs/kernels.md``, "Partition memo").
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, List, Sequence, Tuple, Union

import numpy as np

from repro.core.stats import CpuCounters
from repro.kernels.columnar import ColumnarRelation, xl_order
from repro.kernels.rpm import point_tiles, tile_partitions
from repro.pbsm.grid import TileGrid

#: A record's destination: one partition id, or a tuple of several.
PartitionPlanEntry = Union[int, Tuple[int, ...]]

#: Grids whose partitioning one read-only relation keeps, least recently
#: used dropped first.
PARTITION_MEMO_GRIDS = 4

#: Guards every relation's memo; held for lookups and inserts, never
#: while a partitioning is computed.
_MEMO_LOCK = threading.Lock()


def tile_ranges(grid: TileGrid, kpes: Sequence[Tuple]) -> Any:
    """Clipped tile-index ranges ``(txl, tyl, txh, tyh)`` of every record.

    ``point_tiles`` (the one vectorized replay of
    ``TileGrid.tile_of_point``) on the low and high corners, so the
    ranges are bit-identical to the scalar path.
    A ``ColumnarRelation`` (an opened ``.rcd`` file among them) is read
    from its columns directly; only plain tuple sequences are converted.
    """
    cols = getattr(kpes, "columnar", None)
    if cols is not None:
        xl, yl, xh, yh = cols.xl, cols.yl, cols.xh, cols.yh
    else:
        table = np.asarray(kpes, dtype=np.float64)
        xl, yl, xh, yh = table[:, 1], table[:, 2], table[:, 3], table[:, 4]
    txl, tyl = point_tiles(grid, xl, yl)
    txh, tyh = point_tiles(grid, xh, yh)
    return txl, tyl, txh, tyh


def partition_plan(
    kpes: Sequence[Tuple], grid: TileGrid
) -> List[PartitionPlanEntry]:
    """Per-record destination partitions, computed array-wise.

    Returns a list aligned with *kpes*: an ``int`` partition id for
    single-tile records, a tuple of distinct ids for multi-tile records
    (same ids, same iteration order as ``TileGrid.partitions_for_rect``).
    """
    if not kpes:
        return []
    txl, tyl, txh, tyh = tile_ranges(grid, kpes)
    single = (txl == txh) & (tyl == tyh)
    plan: List[PartitionPlanEntry] = tile_partitions(grid, txl, tyl).tolist()
    multi = np.flatnonzero(~single)
    if multi.size:
        txl_l = txl.tolist()
        tyl_l = tyl.tolist()
        txh_l = txh.tolist()
        tyh_l = tyh.tolist()
        partition_of_tile = grid.partition_of_tile
        for i in multi.tolist():
            # Build the same set partitions_for_rect builds, so iteration
            # order (hence write order) matches the scalar path exactly.
            plan[i] = tuple(
                {
                    partition_of_tile(tx, ty)
                    for ty in range(tyl_l[i], tyh_l[i] + 1)
                    for tx in range(txl_l[i], txh_l[i] + 1)
                }
            )
    return plan


def partition_ids(
    kpes: Sequence[Tuple], grid: TileGrid, by_xl: bool = False
) -> Tuple[Any, Any]:
    """The id-emitting partition phase as one kernel: CSR ``(offsets, ids)``.

    Partition ``pid`` receives the input positions
    ``ids[offsets[pid]:offsets[pid + 1]]``, by default in ascending
    order — every
    record once per *distinct* partition owning a tile it overlaps,
    which is exactly what the scalar loop appends to partition file
    ``pid``.  Single-tile records resolve array-wise; multi-tile records
    are expanded to one entry per overlapped tile (``repeat``) and
    collapsed to distinct ``(partition, record)`` pairs after the one
    sort that orders everything.  Both arrays are int64; ``len(ids)`` is
    the partitioner's ``records_written``.

    *by_xl* (the columnar engine's partitioning) orders every run by
    ``(xl, position)`` instead: records are keyed by their rank in the
    input's one stable ``xl`` order, so each run is what a stable
    ``xl`` sort of the ascending run would give, and a leaf need not
    sort.  An input flagged ``sorted_by_xl`` is its own order.

    On a relation whose five columns are all read-only (its
    ``.columnar`` is :attr:`~repro.kernels.columnar.ColumnarRelation.read_only`)
    the result is kept on that relation, keyed by ``(grid.spec, by_xl)``,
    for at most :data:`PARTITION_MEMO_GRIDS` grids: a repeated call
    returns the same two arrays, read-only, without recomputing them.
    Writeable columns may change between calls and are never memoized.
    """
    rel = getattr(kpes, "columnar", None)
    if rel is None or not rel.read_only:
        return _partition_ids(kpes, grid, by_xl)
    key = (grid.spec, by_xl)
    with _MEMO_LOCK:
        memo = rel.partition_memo
        hit = memo.get(key) if memo is not None else None
        if hit is not None:
            memo.move_to_end(key)
            return hit
    offsets, ids = _partition_ids(rel, grid, by_xl)
    offsets.flags.writeable = False
    ids.flags.writeable = False
    with _MEMO_LOCK:
        if rel.partition_memo is None:
            rel.partition_memo = OrderedDict()
        memo = rel.partition_memo
        memo[key] = (offsets, ids)
        while len(memo) > PARTITION_MEMO_GRIDS:
            memo.popitem(last=False)
    return offsets, ids


def partition_runs(
    kpes: Sequence[Tuple], grid: TileGrid, counters: CpuCounters, by_xl: bool = False
) -> List[Any]:
    """Every partition's id run: PBSM's partitioning phase on arrays.

    Run ``pid`` is ``ids[offsets[pid]:offsets[pid + 1]]`` of
    :func:`partition_ids`, a read-only int64 view into the one CSR
    buffer.  *counters* is charged what the scalar loop charged: one
    structure op per copy written plus one lookup per record.
    """
    offsets, ids = partition_ids(kpes, grid, by_xl)
    ids.flags.writeable = False
    counters.structure_ops += len(ids) + len(kpes)
    bounds = offsets.tolist()
    return [ids[bounds[pid] : bounds[pid + 1]] for pid in range(grid.n_partitions)]


def partition_memoized(kpes: Sequence[Tuple], grid: TileGrid, by_xl: bool) -> bool:
    """Whether ``partition_ids(kpes, grid, by_xl)`` would be a memo hit now."""
    rel = getattr(kpes, "columnar", None)
    memo = getattr(rel, "partition_memo", None)
    with _MEMO_LOCK:
        return memo is not None and (grid.spec, by_xl) in memo


def _partition_ids(
    kpes: Sequence[Tuple], grid: TileGrid, by_xl: bool
) -> Tuple[Any, Any]:
    """:func:`partition_ids` computed, never memoized."""
    n = len(kpes)
    n_partitions = grid.n_partitions
    if n == 0:
        return np.zeros(n_partitions + 1, dtype=np.int64), np.empty(0, dtype=np.int64)
    order = None
    if by_xl:
        kpes = ColumnarRelation.from_kpes(kpes)
        if not kpes.sorted_by_xl:
            order = xl_order(kpes.xl)
    txl, tyl, txh, tyh = tile_ranges(grid, kpes)
    width = txh - txl + 1
    tiles = width * (tyh - tyl + 1)
    if order is None:
        record = np.arange(n, dtype=np.int64)
    else:
        record = np.empty(n, dtype=np.int64)
        record[order] = np.arange(n, dtype=np.int64)
    # (partition, record) packed into one sortable key: partition-major,
    # so sorted keys *are* the CSR layout.
    keys = tile_partitions(grid, txl, tyl) * n + record
    multi = np.flatnonzero(tiles > 1)
    if multi.size:
        counts = tiles[multi]
        rec = np.repeat(multi, counts)
        # Position of each expanded entry inside its record's tile range,
        # row-major like TileGrid.tiles_for_rect.
        k = np.arange(rec.size, dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        tx = txl[rec] + k % width[rec]
        ty = tyl[rec] + k // width[rec]
        keys = np.concatenate(
            (keys[tiles == 1], tile_partitions(grid, tx, ty) * n + record[rec])
        )
    keys.sort()
    if multi.size:
        # Several tiles of one record may belong to the same partition;
        # it is inserted there once (sort + neighbour mask: np.unique
        # costs 20x the plain sort on int64 keys).
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    offsets = np.searchsorted(
        keys, np.arange(n_partitions + 1, dtype=np.int64) * n
    )
    ids = keys % n
    return offsets, ids if order is None else order[ids]


__all__ = [
    "PARTITION_MEMO_GRIDS",
    "PartitionPlanEntry",
    "partition_ids",
    "partition_memoized",
    "partition_plan",
    "partition_runs",
    "tile_ranges",
]
