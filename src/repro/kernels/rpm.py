"""Vectorized Reference Point Method: refpoints and ownership in one shot.

The paper's RPM keeps a detected pair iff its reference point
``x = (max(r.xl, s.xl), min(r.yh, s.yh))`` falls into the region of the
partition being joined.  For the top-level PBSM grid that region test is
pure arithmetic (tile of the point, hash of the tile), so a whole batch of
detected pairs can be filtered with five array operations — this is what
makes the columnar kernel path fast end-to-end: candidate generation,
y-test *and* duplicate suppression all stay inside numpy.

The tile/hash arithmetic below replays :class:`repro.pbsm.grid.TileGrid`
operation-for-operation in float64/int64, so the vectorized owner of every
point is bit-identical to ``grid.partition_of_point`` — the property the
parity tests pin down on tile-boundary points.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.core.stats import CpuCounters
from repro.io.paper_io import sort_operations
from repro.kernels.columnar import ColumnarRelation
from repro.kernels.sweep import (
    DEFAULT_BATCH_CANDIDATES,
    clamped_index,
    forward_scan_batches,
)
from repro.pbsm.grid import TILE_HASH_X, TILE_HASH_Y, TileGrid

#: Array operations charged per detected pair for the batched RPM test
#: (two refpoint selects, two tile computations, hash, compare).
BATCH_OPS_PER_RPM_TEST = 6

#: Detected pairs collected before one ownership test runs over them: a
#: striped scan yields a few hundred per stripe pass, and the test is ~25
#: array calls whatever the batch size.
OWNERSHIP_BATCH_PAIRS = 1 << 14


def point_tiles(grid: TileGrid, x: Any, y: Any) -> Tuple[Any, Any]:
    """Vectorized ``TileGrid.tile_of_point`` over coordinate arrays.

    An infinite coordinate lands on a border tile and a NaN — ``inf - inf``
    or ``inf / inf`` in an unbounded space — on tile 0 (:func:`clamped_index`).
    """
    space = grid.space
    with np.errstate(invalid="ignore", over="ignore"):
        tx = clamped_index((x - space.xl) / space.width * grid.nx, grid.nx)
        ty = clamped_index((y - space.yl) / space.height * grid.ny, grid.ny)
    return tx, ty


def tile_partitions(grid: TileGrid, tx: Any, ty: Any) -> Any:
    """Vectorized ``TileGrid.partition_of_tile`` over tile-index arrays."""
    return ((tx * TILE_HASH_X) ^ (ty * TILE_HASH_Y)) % grid.n_partitions


def point_partitions(grid: TileGrid, x: Any, y: Any) -> Any:
    """Vectorized ``TileGrid.partition_of_point`` (RPM's region lookup)."""
    tx, ty = point_tiles(grid, x, y)
    return tile_partitions(grid, tx, ty)


def owned_mask(
    a: ColumnarRelation,
    b: ColumnarRelation,
    a_idx: Any,
    b_idx: Any,
    regions: Sequence[Tuple[TileGrid, int]],
) -> Any:
    """RPM's one ownership test, for both PBSM engines: which detected
    pairs ``(a[a_idx[i]], b[b_idx[i]])`` have their reference point
    ``(max xl, min yh)`` in partition ``pid`` of ``grid`` for *every*
    ``(grid, pid)`` of the non-empty *regions* chain (Section 3.2.3)."""
    ref_x = np.maximum(a.xl[a_idx], b.xl[b_idx])
    ref_y = np.minimum(a.yh[a_idx], b.yh[b_idx])
    mask = None
    for grid, pid in regions:
        owned = point_partitions(grid, ref_x, ref_y) == pid
        mask = owned if mask is None else mask & owned
    return mask


def _owned_scan(
    a_cols: ColumnarRelation,
    b_cols: ColumnarRelation,
    regions: Sequence[Tuple[TileGrid, int]],
    counters: CpuCounters,
    batch_candidates: int,
) -> Tuple:
    """Forward scan plus a chain of ownership tests over the detected pairs.

    The one loop behind :func:`rpm_join_ids` and :func:`region_join_ids`:
    returns ``(rid, sid, detected, suppressed)``.  A detected pair is
    kept iff *regions* owns it (:func:`owned_mask`); an empty chain
    keeps everything.  The test runs once per
    ``OWNERSHIP_BATCH_PAIRS`` detections, not once per scan batch.
    Charges the sorts and the scan, never the test: the two callers
    price that differently.
    """
    empty = np.empty(0, dtype=np.int64)
    if a_cols.n == 0 or b_cols.n == 0:
        return empty, empty, 0, 0
    if a_cols.sorted_by_xl:
        a = a_cols
    else:
        counters.batch_ops += sort_operations(a_cols.n)
        a = a_cols.sort_by_xl()
    if b_cols.sorted_by_xl:
        b = b_cols
    else:
        counters.batch_ops += sort_operations(b_cols.n)
        b = b_cols.sort_by_xl()
    rids = []
    sids = []
    detected = 0
    kept = 0
    batches = forward_scan_batches(a, b, counters, batch_candidates)
    for a_idx, b_idx in _coalesced(batches, OWNERSHIP_BATCH_PAIRS):
        detected += int(a_idx.shape[0])
        if regions:
            mask = owned_mask(a, b, a_idx, b_idx, regions)
            a_idx = a_idx[mask]
            b_idx = b_idx[mask]
        rid = a.oid[a_idx]
        sid = b.oid[b_idx]
        kept += int(rid.shape[0])
        rids.append(rid)
        sids.append(sid)
    if not rids:
        return empty, empty, 0, 0
    return np.concatenate(rids), np.concatenate(sids), detected, detected - kept


def _coalesced(batches: Iterable[Tuple], minimum: int) -> Iterator[Tuple]:
    """Regroup ``(a_idx, b_idx)`` batches into ones of at least *minimum* pairs.

    Pair order is kept (only the last batch may be smaller), so a mask
    over a regrouped batch selects what masks over its parts select.
    """
    parts: List[Tuple] = []
    size = 0
    for batch in batches:
        parts.append(batch)
        size += batch[0].shape[0]
        if size >= minimum:
            yield _concatenated(parts)
            parts, size = [], 0
    if parts:
        yield _concatenated(parts)


def _concatenated(parts: List[Tuple]) -> Tuple:
    if len(parts) == 1:  # nothing to copy, however large the batch
        return parts[0]
    return tuple(np.concatenate(side) for side in zip(*parts))


def rpm_join_ids(
    a_cols: ColumnarRelation,
    b_cols: ColumnarRelation,
    grid: TileGrid,
    pid: int,
    counters: CpuCounters,
    batch_candidates: int = DEFAULT_BATCH_CANDIDATES,
) -> Tuple:
    """One partition-pair join with batched RPM ownership by *pid*.

    Runs the forward-scan kernel plus the batched RPM ownership test on
    two columnar relations and returns ``(rid, sid, suppressed)`` where
    ``rid``/``sid`` are int64 arrays of the inputs' ``oid`` values — the
    ``i``-th owned pair is ``(rid[i], sid[i])``.  Inputs not flagged
    ``sorted_by_xl`` are sorted here (stable, ``xl_order``), charged as
    one batch sort each; the PBSM drivers' leaves arrive sorted and
    charge that sort in ``pbsm.leaf.columnar_leaf`` instead.
    """
    rid, sid, detected, suppressed = _owned_scan(
        a_cols, b_cols, ((grid, pid),), counters, batch_candidates
    )
    counters.batch_ops += BATCH_OPS_PER_RPM_TEST * detected
    return rid, sid, suppressed


def region_join_ids(
    a_cols: ColumnarRelation,
    b_cols: ColumnarRelation,
    regions: Sequence[Tuple[TileGrid, int]],
    counters: CpuCounters,
) -> Tuple:
    """One partition-pair join under a *composed* region, array-wise.

    A repartitioned sub-pair owns a pair iff the pair's reference point
    lies in the parent partition AND in every sub-partition down the
    recursion (Section 3.2.3): *regions* is that chain of
    ``(grid, pid)`` ownership tests, ANDed over each forward-scan batch
    so the pair never leaves numpy.  An empty chain is the no-test leaf
    of ``dedup="sort"``.  Returns
    ``(rid, sid, suppressed)`` like :func:`rpm_join_ids`, pairs in batch
    order.

    Charged exactly as the per-pair path it replaces
    (``sweep_numpy_join`` feeding a scalar region test): both sorts, the
    scan's ``batch_ops``, and one ``refpoint_tests`` per detected pair
    when there is a chain to test.
    """
    rid, sid, detected, suppressed = _owned_scan(
        a_cols, b_cols, regions, counters, DEFAULT_BATCH_CANDIDATES
    )
    if regions:
        counters.refpoint_tests += detected
    return rid, sid, suppressed


__all__ = [
    "BATCH_OPS_PER_RPM_TEST",
    "owned_mask",
    "point_partitions",
    "point_tiles",
    "region_join_ids",
    "rpm_join_ids",
    "tile_partitions",
]
