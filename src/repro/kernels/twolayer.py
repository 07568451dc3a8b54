"""Vectorized two-layer corner-class duplicate avoidance (retired).

No driver runs this kernel: ``PBSM`` (at any worker count),
``spatial_join`` and ``repro join`` handle duplicates with the Reference
Point Method (or the paper's final sort) only, because two-layer
avoidance won no cell of
``benchmarks/results/BENCH_dedup_wall.json``.  It stays for one caller,
the frozen benchmark's traced replay (``benchmarks/e2e/layers.py``), which
times it as ``twolayer.join_ids_ms``.

Two-layer space-oriented partitioning (Tsitsigkos et al.) classifies
every replica, inside each tile, by where its *low* corners fall —

* class **A** — both low corners inside the tile (its home tile),
* class **B** — the x-low corner is in a tile to the left,
* class **C** — the y-low corner is in a tile below,
* class **D** — both low corners outside (left *and* below),

and then runs only the cross-class mini-joins of
:data:`MINI_JOIN_SCHEDULE`.  The schedule is exactly the set of class
combinations for which the intersection's bottom-left corner
``(max(r.xl, s.xl), max(r.yl, s.yl))`` lies in the tile: per axis, the
clamped tile index is monotone, so ``tile_x(max(r.xl, s.xl)) == tx`` iff
at least one of the two rectangles has its x-low corner inside the
tile's x-slab (class A or C), and symmetrically for y.  Enumerating the
sixteen ordered class pairs under ``(r.ax or s.ax) and (r.ay or s.ay)``
leaves nine combinations — each intersecting pair surfaces in *exactly
one* mini-join of *exactly one* tile, with no reference-point test and
no sort.

Class assignment is two array comparisons per replica over the tile
arrays, and the nine mini-joins are class-partitioned *slices* fed
straight into the forward-scan kernel.  Pipeline per partition task:

1. sort both inputs by ``xl`` (charged once, exactly like the RPM kernel);
2. replay the tile arithmetic of :class:`repro.pbsm.grid.TileGrid` with
   the vectorized helpers of :mod:`repro.kernels.rpm` (bit-identical tile
   indices, the property the parity tests pin down), expand each record
   into its overlapped tiles, and keep the replicas landing in tiles
   mapped to the task's partition;
3. classify every replica with two comparisons
   (``home_tx < tx``, ``home_ty < ty``) and group replicas by
   ``(tile, class)`` with one stable argsort — stability preserves the
   ``xl`` order inside each group, so every group is forward-scan ready
   as a plain slice;
4. per tile present on both sides, run the nine mini-joins of
   :data:`MINI_JOIN_SCHEDULE` through
   :func:`~repro.kernels.sweep.forward_scan_batches`; a mini-join below
   the striping floor additionally probes both sweep axes and runs
   *transposed* when y-anchored windows are cheaper (:func:`_best_axis`)
   — unstriped, but with y-pruning intact, closing the coarse-grid gap
   against RPM's single striped per-tile scan.
"""

from __future__ import annotations

from typing import Any, List, Tuple

import numpy as np

from repro.core.stats import CpuCounters
from repro.kernels.columnar import ColumnarRelation
from repro.kernels.rpm import point_tiles, tile_partitions
from repro.kernels.sweep import (
    DEFAULT_BATCH_CANDIDATES,
    STRIPE_MIN_RECORDS,
    _charge_batch_sort,
    forward_scan_batches,
)
from repro.pbsm.grid import TileGrid

#: Corner classes, indexed by ``(x_low_outside) + 2 * (y_low_outside)``.
CLASS_A, CLASS_B, CLASS_C, CLASS_D = 0, 1, 2, 3

#: The nine ordered ``(left_class, right_class)`` mini-joins whose pairs
#: are owned by the tile (see the module docstring for the derivation).
#: Grouped A-side first so the common case (A x everything) runs first.
MINI_JOIN_SCHEDULE: Tuple[Tuple[int, int], ...] = (
    (CLASS_A, CLASS_A),
    (CLASS_A, CLASS_B),
    (CLASS_A, CLASS_C),
    (CLASS_A, CLASS_D),
    (CLASS_B, CLASS_A),
    (CLASS_B, CLASS_C),
    (CLASS_C, CLASS_A),
    (CLASS_C, CLASS_B),
    (CLASS_D, CLASS_A),
)

#: Array operations charged per input record for the vectorized tile
#: ranges (two tile computations per corner pair, widths, replica counts).
CLASSIFY_BATCH_OPS_PER_RECORD = 6

#: Array operations charged per expanded replica: tile enumeration (3),
#: partition hash + filter (2), the two class comparisons, group key (1).
CLASSIFY_BATCH_OPS_PER_REPLICA = 8

#: Below this many records per mini-join the sweep-axis probe costs more
#: than the candidate reduction it can buy; tiny scans just run x-anchored.
AXIS_PROBE_MIN_RECORDS = 64

#: ``(a_lo, a_hi, b_lo, b_hi)`` — one mini-join as slices into the
#: gathered, (tile, class)-grouped replica arrays.
MiniJoin = Tuple[int, int, int, int]


def _classify(
    rel: ColumnarRelation,
    grid: TileGrid,
    pid: int,
    counters: CpuCounters,
) -> Tuple[Any, Any]:
    """Expand *rel* into per-tile replicas of partition *pid*, classified.

    Returns ``(orig, key)``: ``orig`` are indices into *rel* grouped by
    ``key = (ty * nx + tx) * 4 + class`` in ascending key order.  The
    stable grouping sort keeps the ``xl`` order of *rel* inside every
    group, so slices of the gathered columns are forward-scan ready.
    """
    txl, tyl = point_tiles(grid, rel.xl, rel.yl)
    txh, tyh = point_tiles(grid, rel.xh, rel.yh)
    widths = txh - txl + 1
    counts = widths * (tyh - tyl + 1)
    total = int(counts.sum())
    orig = np.repeat(np.arange(rel.n), counts)
    offsets = np.cumsum(counts) - counts
    flat = np.arange(total) - np.repeat(offsets, counts)
    w = widths[orig]
    tx = txl[orig] + flat % w
    ty = tyl[orig] + flat // w
    keep = tile_partitions(grid, tx, ty) == pid
    orig = orig[keep]
    tx = tx[keep]
    ty = ty[keep]
    cls = (txl[orig] < tx).astype(np.int64) + 2 * (tyl[orig] < ty)
    key = (ty * grid.nx + tx) * 4 + cls
    order = np.argsort(key, kind="stable")
    counters.batch_ops += (
        CLASSIFY_BATCH_OPS_PER_RECORD * rel.n
        + CLASSIFY_BATCH_OPS_PER_REPLICA * total
    )
    _charge_batch_sort(counters, total)
    return orig[order], key[order]


def _mini_joins(a_key: Any, b_key: Any) -> List[MiniJoin]:
    """The task's mini-join sequence.

    Tiles run in ascending key (row-major) order, classes in schedule
    order.  Only non-empty combinations on tiles present in both
    relations appear (the owner tile of any pair holds replicas of both
    sides).
    """
    tiles = np.intersect1d(a_key // 4, b_key // 4)
    minis: List[MiniJoin] = []
    if tiles.size == 0:
        return minis
    probes = tiles[:, None] * 4 + np.arange(5)
    a_bounds = np.searchsorted(a_key, probes)
    b_bounds = np.searchsorted(b_key, probes)
    for t in range(int(tiles.size)):
        for left_cls, right_cls in MINI_JOIN_SCHEDULE:
            a_lo = int(a_bounds[t, left_cls])
            a_hi = int(a_bounds[t, left_cls + 1])
            b_lo = int(b_bounds[t, right_cls])
            b_hi = int(b_bounds[t, right_cls + 1])
            if a_hi > a_lo and b_hi > b_lo:
                minis.append((a_lo, a_hi, b_lo, b_hi))
    return minis


def _axis_candidates(
    a_low: Any, a_high: Any, b_low: Any, b_high: Any
) -> int:
    """Candidate pairs a forward scan anchored on this axis would expand.

    ``a_low``/``b_low`` must be ascending.  The exact two-pass window
    sum, so the axis comparison in :func:`_best_axis` measures the real
    work, not an estimate.
    """
    lo = np.searchsorted(b_low, a_low, side="left")
    hi = np.searchsorted(b_low, a_high, side="right")
    total = int((hi - lo).sum())
    lo = np.searchsorted(a_low, b_low, side="right")
    hi = np.searchsorted(a_low, b_high, side="right")
    return total + int((hi - lo).sum())


def _best_axis(
    a_grp: ColumnarRelation,
    b_grp: ColumnarRelation,
    counters: CpuCounters,
) -> Tuple[ColumnarRelation, ColumnarRelation]:
    """Pick the cheaper sweep axis for one sub-floor mini-join.

    Mini-joins below :data:`~repro.kernels.sweep.STRIPE_MIN_RECORDS` run
    unstriped, where the x-anchored scan expands every *x*-overlapping
    pair — at coarse grids (tiles much taller than rectangles) that is
    nearly the full cross product, the y-pruning RPM's single striped
    per-tile scan keeps.  Both axes' exact candidate volumes are probed
    with searchsorted window sums; when the y axis is cheaper the scan
    runs *transposed* (x and y columns swapped, rows re-sorted by ``yl``)
    — still unstriped, but candidate windows now prune on y and the mask
    tests x, the same closed-rectangle predicate, so the pair set is
    unchanged.
    """
    cand_x = _axis_candidates(a_grp.xl, a_grp.xh, b_grp.xl, b_grp.xh)
    order_a = np.argsort(a_grp.yl, kind="stable")
    order_b = np.argsort(b_grp.yl, kind="stable")
    a_yl = a_grp.yl[order_a]
    a_yh = a_grp.yh[order_a]
    b_yl = b_grp.yl[order_b]
    b_yh = b_grp.yh[order_b]
    cand_y = _axis_candidates(a_yl, a_yh, b_yl, b_yh)
    # The eight probe searchsorteds plus the two small y argsorts.
    counters.batch_ops += 4 * (a_grp.n + b_grp.n)
    _charge_batch_sort(counters, a_grp.n)
    _charge_batch_sort(counters, b_grp.n)
    if cand_y < cand_x:
        a_t = ColumnarRelation(
            a_grp.oid[order_a],
            a_yl,
            a_grp.xl[order_a],
            a_yh,
            a_grp.xh[order_a],
            sorted_by_xl=True,
        )
        b_t = ColumnarRelation(
            b_grp.oid[order_b],
            b_yl,
            b_grp.xl[order_b],
            b_yh,
            b_grp.xh[order_b],
            sorted_by_xl=True,
        )
        return a_t, b_t
    return a_grp, b_grp


def twolayer_join_ids(
    a_cols: ColumnarRelation,
    b_cols: ColumnarRelation,
    grid: TileGrid,
    pid: int,
    counters: CpuCounters,
    batch_candidates: int = DEFAULT_BATCH_CANDIDATES,
) -> Tuple:
    """Columnar two-layer join of one partition pair: id buffers, no tuples.

    Returns ``(rid, sid, suppressed)`` in the calling convention of
    :func:`repro.kernels.rpm.rpm_join_ids`; ``suppressed`` is always 0 —
    avoidance never detects a pair it has to throw away.  Unsorted inputs
    are sorted here, charged like the RPM kernel's sorts.
    """
    if a_cols.n == 0 or b_cols.n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, 0
    if a_cols.sorted_by_xl:
        a = a_cols
    else:
        _charge_batch_sort(counters, a_cols.n)
        a = a_cols.sort_by_xl()
    if b_cols.sorted_by_xl:
        b = b_cols
    else:
        _charge_batch_sort(counters, b_cols.n)
        b = b_cols.sort_by_xl()
    a_orig, a_key = _classify(a, grid, pid, counters)
    b_orig, b_key = _classify(b, grid, pid, counters)
    # The grouped replica columns (xl-sorted inside every group).
    ga = a.take(a_orig, sorted_by_xl=True)
    gb = b.take(b_orig, sorted_by_xl=True)
    rids = []
    sids = []
    for a_lo, a_hi, b_lo, b_hi in _mini_joins(a_key, b_key):
        total = (a_hi - a_lo) + (b_hi - b_lo)
        a_grp = ga.take(slice(a_lo, a_hi), sorted_by_xl=True)
        b_grp = gb.take(slice(b_lo, b_hi), sorted_by_xl=True)
        if AXIS_PROBE_MIN_RECORDS <= total < STRIPE_MIN_RECORDS:
            a_grp, b_grp = _best_axis(a_grp, b_grp, counters)
        for a_idx, b_idx in forward_scan_batches(
            a_grp, b_grp, counters, batch_candidates
        ):
            rids.append(a_grp.oid[a_idx])
            sids.append(b_grp.oid[b_idx])
    if rids:
        return np.concatenate(rids), np.concatenate(sids), 0
    empty = np.empty(0, dtype=np.int64)
    return empty, empty, 0


__all__ = [
    "AXIS_PROBE_MIN_RECORDS",
    "CLASSIFY_BATCH_OPS_PER_RECORD",
    "CLASSIFY_BATCH_OPS_PER_REPLICA",
    "twolayer_join_ids",
]
