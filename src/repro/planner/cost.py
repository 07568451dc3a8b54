"""Analytic cost estimates for every join method the planner enumerates.

Each estimator mirrors the phase structure of its driver (partition /
sort / join / dedup), predicts the *operation counts* those phases charge
to :class:`~repro.core.stats.CpuCounters` and the simulated disk, and
translates them into simulated seconds through the very same
:class:`~repro.io.costmodel.CostModel` constants the drivers use.  That
shared currency is what makes EXPLAIN's "estimated vs. actual" columns
directly comparable.

The formulas encode the paper's findings rather than curve-fits:

* formula (1) + ``t`` gives PBSM's partition count (clamped, Sec. 3.2.3),
  and every partition pair the candidate's own tile grid overfills is
  charged the repartitioning the driver will do for it (the overflow
  model, :func:`repartition_overflow`);
* sweep costs follow the sweep-line active-set model: the list sweep
  (SHJ, SSSJ) pays ``O(active)`` scalar tests per step, PBSM's forward
  scan one batch-level array op per x-overlap candidate;
* S3J's original assignment pays the deep-sink penalty of Sec. 4.3
  (boundary-straddling rectangles join against entire root paths), which
  replication removes at the price of up-to-four copies.

Every estimator prices its driver as the planner runs it (PBSM on the
columnar engine under RPM, SHJ and SSSJ with the list sweep, S3J at its
default level depth and buffers), so no estimator takes a parameter the
enumeration never varies.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.phases import (
    PHASE_DEDUP,
    PHASE_JOIN,
    PHASE_PARTITION,
    PHASE_REPARTITION,
    PHASE_SORT,
)
from repro.core.space import Space
from repro.io.costmodel import CostModel
from repro.kernels.rpm import BATCH_OPS_PER_RPM_TEST, tile_partitions
from repro.kernels.sweep import BATCH_OPS_PER_CANDIDATE
from repro.pbsm.estimator import estimate_partitions
from repro.pbsm.grid import TILES_PER_PARTITION, TileGrid
from repro.pbsm.repartition import MAX_REPARTITION_DEPTH, choose_split
from repro.planner.stats import JoinProfile
from repro.sfc.locational import DEFAULT_MAX_LEVEL

#: Sweep bookkeeping charged per record beyond the probe loop (enter/expire).
_SWEEP_OVERHEAD = 2.0
#: Fraction of active-list visits that survive expiry and pay a y-test.
_LIST_TEST_FRACTION = 0.8
#: Mild residual skew after hashing TILES_PER_PARTITION tiles per partition.
_SKEW_DAMPING = 0.5
#: A modelled (sub-)partition expecting fewer records than this is empty.
_EMPTY_RECORDS = 0.5
#: Splits the overflow model follows before it joins what is left as is:
#: bounds planning time on inputs whose recursion would not shrink.
_MAX_MODELLED_SPLITS = 1024
#: SHJ's bucket-count safety factor (``SpatialHashJoin``'s default).
_SHJ_T_FACTOR = 1.2
#: S3J's level-file write buffers, in pages (``S3J``'s default).
_S3J_IO_BUFFER_PAGES = 4

#: Process-executor pipe traffic per task: a five-integer task tuple
#: out, its share of per-chunk metadata and manifest back.
SHM_TASK_BYTES = 64.0
SHM_CHUNK_OVERHEAD_BYTES = 512.0


def _lg(x: Any) -> Any:
    """``log2(x)``, 1.0 at and below 2; elementwise over an array."""
    if isinstance(x, np.ndarray):
        return np.where(x > 2.0, np.log2(np.maximum(x, 2.0)), 1.0)
    return math.log2(x) if x > 2.0 else 1.0


@dataclass(frozen=True)
class CostEstimate:
    """Predicted cost of one candidate plan, in simulated seconds.

    ``predicted`` carries the headline quantities EXPLAIN compares against
    the executed :class:`~repro.core.result.JoinStats` (partition count,
    detected pairs, replication, io units, ...).
    """

    io_units: float
    cpu_seconds: float
    io_seconds: float
    breakdown: Dict[str, float] = field(default_factory=dict)
    predicted: Dict[str, float] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return self.io_seconds + self.cpu_seconds


def _estimate(
    cost: CostModel,
    io_units: float,
    cpu_seconds: float,
    breakdown: Dict[str, float],
    predicted: Dict[str, float],
) -> CostEstimate:
    return CostEstimate(
        io_units=io_units,
        cpu_seconds=cpu_seconds,
        io_seconds=cost.io_seconds(io_units),
        breakdown=breakdown,
        predicted=predicted,
    )


# ----------------------------------------------------------------------
# shared sub-models
# ----------------------------------------------------------------------
def _list_sweep_cpu(
    cost: CostModel, a: Any, b: Any, active_a: Any, active_b: Any, detected: Any
) -> Any:
    """CPU seconds of one list-sweep join over ``a`` x ``b`` records.

    ``active_*`` are the expected sweep-line set sizes of each side; a
    probe visits the other side's active list (Sec. 3.2.2).
    """
    n = a + b
    visits = a * active_b + b * active_a + n * _SWEEP_OVERHEAD
    return cost.cpu_seconds_from_counts(
        intersection_tests=_LIST_TEST_FRACTION * visits + detected,
        comparisons=a * _lg(a) + b * _lg(b),  # the two sorts
        structure_ops=visits,
    )


def _forward_scan_cpu(
    cost: CostModel, a: Any, b: Any, active_a: Any, active_b: Any, clustering: float
) -> Any:
    """CPU seconds of one forward-scan join (``kernels.sweep``) over
    ``a`` x ``b`` records.

    The candidate volume is the x-overlap pair count (the list sweep's
    arrival/active-set model), but each candidate costs a batch-level
    array op, not a scalar test.  ``clustering`` scales it: arrivals
    concentrate where the active sets are longest, a correlation the
    constant-density model misses.  Given arrays of joins (the overflow
    model's leaves), it prices each.
    """
    n = a + b
    candidates = (a * active_b + b * active_a) * clustering
    batch = (
        a * _lg(a)
        + b * _lg(b)  # vectorized argsorts
        + 2.0 * n  # the four searchsorted sweeps
        + BATCH_OPS_PER_CANDIDATE * candidates
    )
    return cost.cpu_seconds_from_counts(batch_ops=batch)


def _grid_replication(
    profile: "JoinProfile", width: float, height: float, tiles: int
) -> float:
    """Expected copies of one of *profile*'s rectangles on a ``tiles``² grid.

    ``1 + E[w]/W·s + E[h]/H·s + E[w·h]/(W·H)·s²`` — the cross term uses
    the true mean area, not ``E[w]·E[h]``: on heavy-tailed extents
    (mixed-scale data) the few huge rectangles generate most of the
    copies, and the product of the means misses them (Jensen's gap).
    """
    if width <= 0 or height <= 0:
        return 1.0
    return (
        1.0
        + profile.avg_width / width * tiles
        + profile.avg_height / height * tiles
        + profile.avg_area / (width * height) * tiles * tiles
    )


def _sampled_dup_factor(
    jp: JoinProfile, side: int, n_partitions: int
) -> Optional[float]:
    """Mean detections per result pair on a hashed ``side``² tile grid.

    A pair is detected in every partition holding copies of both
    rectangles: once per shared tile, plus hash collisions among the
    remaining ``k_r × k_s`` tile-copy combinations spread over P
    partitions.  Evaluated pair-by-pair on the profile's sampled
    intersecting pairs, because on heavy-tailed extents ``E[k_r·k_s]``
    is dominated by the few huge rectangles that mean-based formulas
    cannot see.  Returns ``None`` when no pairs were sampled.
    """
    pairs = jp.sample_pairs
    if not pairs:
        return None
    xl0, yl0, xh0, yh0 = jp.space
    width = (xh0 - xl0) or 1.0
    height = (yh0 - yl0) or 1.0
    # Columns rxl ryl rxh ryh sxl syl sxh syh, then each record's tile
    # range: the clamped truncation of the scalar tile arithmetic.
    coords = np.array([r[1:5] + s[1:5] for r, s in pairs], dtype=np.float64)
    origin = np.array([xl0, yl0] * 4)
    extent = np.array([width, height] * 4)
    tiles = np.clip((coords - origin) / extent * side, 0, side - 1).astype(np.int64)
    rxl, ryl, rxh, ryh, sxl, syl, sxh, syh = tiles.T
    k_r = (rxh - rxl + 1) * (ryh - ryl + 1)
    k_s = (sxh - sxl + 1) * (syh - syl + 1)
    shared = (np.minimum(rxh, sxh) - np.maximum(rxl, sxl) + 1) * (
        np.minimum(ryh, syh) - np.maximum(ryl, syl) + 1
    )
    total = 0.0
    # Summed in sample order, one pair at a time, as ever: the estimates
    # of every candidate depend on these bits.
    for term in (shared + (k_r - shared) * (k_s - shared) / n_partitions).tolist():
        total += term
    return total / len(pairs)


def _bucket_occupancy(jp: JoinProfile, side: int) -> Tuple[int, int, float]:
    """SHJ bucket occupancy from the joint-space histograms.

    Returns ``(occupied, co_occupied, retention)`` for a ``side``² grid:

    * ``occupied`` — buckets holding at least one build record.  Empty
      buckets cost SHJ nothing: no file, no request, no probe test (the
      probe loop skips extent-less buckets).
    * ``co_occupied`` — buckets whose *probe* file is also non-empty;
      only these are read back and swept in the join phase.
    * ``retention`` — fraction of probe records overlapping any build
      bucket extent; the rest are dropped outright (they can produce no
      result).  A probe record survives if the build side occupies its
      histogram cell or one of the 8 neighbours (the dilation stands in
      for bucket extents overhanging their occupied cells).

    On clustered inputs all three collapse well below the uniform
    assumption, which is what makes SHJ the planner's best answer there.
    """
    hl, hr = jp.hist_left, jp.hist_right
    if hl is None or hr is None or hl.n == 0 or hr.n == 0:
        return side * side, side * side, 1.0
    res = hl.resolution
    build = np.asarray(hl.counts).reshape(res, res) > 0.0
    probe = np.asarray(hr.counts).reshape(res, res)
    row = np.minimum(side - 1, np.arange(res) * side // res)
    bucket = row[:, None] * side + row[None, :]
    # A probe cell is retained when the build side occupies it or one of
    # its 8 neighbours.
    padded = np.pad(build, 1)
    near = np.zeros_like(build)
    for dy in range(3):
        for dx in range(3):
            near |= padded[dy : dy + res, dx : dx + res]
    kept = (probe > 0.0) & near
    occupied = int(np.count_nonzero(np.bincount(bucket[build], minlength=side * side)))
    co_occupied = int(np.count_nonzero(np.bincount(bucket[kept], minlength=side * side)))
    retained = float(probe[kept].sum())
    return max(1, occupied), max(1, co_occupied), retained / hr.n


# ----------------------------------------------------------------------
# PBSM repartitioning: the overflow model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Overflow:
    """The repartitioning one grid will need, as ``PBSM._leaves`` charges it.

    ``pairs`` counts the top-level partition pairs over the budget and
    ``events`` every split down the recursion.  ``split_io`` and
    ``split_ops`` are the splits' page-transfer units (one read of the
    split side, one-page-buffered writes of its sub-partitions) and
    structure ops; ``join_io`` is what reading the leaves adds to the
    join phase over reading the split pairs once.  ``replaced`` holds
    the rows ``a, b, detected`` (left records, right records, detected
    pairs) of every split top-level pair, ``leaves`` the rows ``a, b,
    detected, composed`` of every pair joined in their place;
    ``composed`` is 1.0 for a leaf under a sub-region's ownership chain
    (``PBSM._leaves`` keeps the top-level region only where a split made
    no progress).
    """

    pairs: int = 0
    events: int = 0
    split_io: float = 0.0
    split_ops: float = 0.0
    join_io: float = 0.0
    replaced: Any = field(default_factory=lambda: np.zeros((3, 0)))
    leaves: Any = field(default_factory=lambda: np.zeros((4, 0)))


@functools.lru_cache(maxsize=64)
def _axis_pieces(cells: int, tiles: int) -> Tuple[Any, Any, Any]:
    """One axis of the joint space cut at every cell and every tile border.

    Returns each piece's histogram cell, its share of that cell and its
    midpoint, in unit coordinates.  Within a piece the histogram's
    density is flat and the grid's tile is one, so a piece's records
    all go to one tile of this grid — and, its midpoint being inside a
    tile of any coarser grid, (nearly) all to one tile of a sub-grid.
    A border shared by a cell and a tile leaves a piece of width 0,
    which carries nothing.  Cached: the arrays depend on the two counts
    only, and are read-only.
    """
    edges = np.sort(
        np.concatenate((np.arange(cells + 1) / cells, np.arange(tiles + 1) / tiles))
    )
    mid = (edges[:-1] + edges[1:]) / 2.0
    cell = np.minimum((mid * cells).astype(np.int64), cells - 1)
    pieces = (cell, np.diff(edges) * cells, mid)
    for array in pieces:
        array.flags.writeable = False
    return pieces


def _piece_partitions(grid: TileGrid, mid_x: Any, mid_y: Any) -> Any:
    """The partition of *grid* owning every piece (row-major, y outer)."""
    tx = np.minimum((mid_x * grid.nx).astype(np.int64), grid.nx - 1)
    ty = np.minimum((mid_y * grid.ny).astype(np.int64), grid.ny - 1)
    return tile_partitions(grid, tx[None, :], ty[:, None]).ravel()


def repartition_overflow(
    jp: JoinProfile,
    n_partitions: int,
    tiles_per_partition: int,
    copies: Tuple[float, float],
    detected: float,
    memory_bytes: int,
    cost: CostModel,
    t_factor: float,
) -> Overflow:
    """Replay ``PBSM._leaves`` on the candidate's grid, loads from histograms.

    The grid is the driver's: ``TileGrid.for_partitions`` over the joint
    space with *n_partitions* and *tiles_per_partition*.  Each side's
    32 x 32 centre-point histogram is cut into pieces along the cell and
    tile borders; a piece's records (its cell's count times its share of
    the cell) all belong to one tile, so the driver's hash
    (``kernels.rpm.tile_partitions``) gives every partition its load,
    scaled by *copies* to the side's replicated size.  Every pair over
    *memory_bytes* is then split as the driver splits it: the larger side
    into ``choose_split``'s k sub-partitions on a sub-grid of the same
    space, each against the whole other side, one more level for every
    sub-pair still over the budget, no further where a split cannot
    shrink its largest sub-partition or past the depth limit.  A
    sub-grid re-replicates the split side by its own
    :func:`_grid_replication`.  *detected* is spread over partitions and
    sub-partitions by where both sides' densities meet.
    """
    hl, hr = jp.hist_left, jp.hist_right
    if hl is None or hr is None or hl.n == 0 or hr.n == 0:
        return Overflow()
    space = Space(*jp.space)
    grid = TileGrid.for_partitions(space, n_partitions, tiles_per_partition)
    res = hl.resolution
    cell_x, share_x, mid_x = _axis_pieces(res, grid.nx)
    cell_y, share_y, mid_y = _axis_pieces(res, grid.ny)
    cell = (cell_y[:, None] * res + cell_x[None, :]).ravel()
    share = np.outer(share_y, share_x).ravel()
    masses = (np.asarray(hl.counts)[cell] * share, np.asarray(hr.counts)[cell] * share)

    kb = cost.kpe_bytes
    part = _piece_partitions(grid, mid_x, mid_y)
    loads_l = np.bincount(part, masses[0], n_partitions) * copies[0]
    loads_r = np.bincount(part, masses[1], n_partitions) * copies[1]
    over = (
        (loads_l >= _EMPTY_RECORDS)
        & (loads_r >= _EMPTY_RECORDS)
        & ((loads_l + loads_r) * kb > memory_bytes)
    )
    if not over.any():
        return Overflow()
    # Results come from where both densities meet: per piece, the
    # product of its two densities times its area, which is the product
    # of its two masses over its share of the cell.
    inv_share = np.divide(1.0, share, out=np.zeros_like(share), where=share > 0.0)
    weights = np.bincount(part, masses[0] * masses[1] * inv_share, n_partitions)
    total_weight = float(weights.sum())

    #: k -> each piece's sub-partition and both sides' copies on that sub-grid
    subgrids: Dict[int, Tuple[Any, List[float]]] = {}

    def subgrid(k: int) -> Tuple[Any, List[float]]:
        if k not in subgrids:
            sub = TileGrid.for_partitions(space, k, tiles_per_partition)
            subgrids[k] = (
                _piece_partitions(sub, mid_x, mid_y),
                [
                    min(float(k), _grid_replication(p, space.width, space.height, sub.nx))
                    for p in (jp.left, jp.right)
                ],
            )
        return subgrids[k]

    per_page = cost.records_per_page(kb)

    def pages(n: float) -> int:
        # Pages of a file expecting *n* records.
        return -(-int(n + 0.5) // per_page)

    def read_io(a: float, b: float) -> float:
        # A pair's two sides, read in one request each (``read_view``).
        return cost.request_units(pages(a)) + cost.request_units(pages(b))

    events = 0
    split_io = 0.0
    split_ops = 0.0
    join_io = 0.0
    replaced: List[Tuple[float, float, float]] = []
    leaves: List[Tuple[float, float, float, bool]] = []

    def leaf(a: float, b: float, d: float, composed: bool) -> None:
        nonlocal join_io
        leaves.append((a, b, d, composed))
        join_io += read_io(a, b)

    def joined_as_is(a: float, b: float, depth: int) -> bool:
        # ``PBSM._leaves``'s test, plus the model's own bound on splits.
        return (
            (a + b) * kb <= memory_bytes
            or max(a, b) <= 2.0
            or depth >= MAX_REPARTITION_DEPTH
            or events >= _MAX_MODELLED_SPLITS
        )

    for pid in np.flatnonzero(over).tolist():
        a, b = float(loads_l[pid]), float(loads_r[pid])
        if total_weight > 0.0:
            d = detected * float(weights[pid]) / total_weight
        else:
            d = detected / n_partitions
        replaced.append((a, b, d))
        join_io -= read_io(a, b)
        # The pair's pieces: every array below is indexed like ``mine``.
        mine = np.flatnonzero(part == pid)
        inv = inv_share[mine]
        stack = [(masses[0][mine], masses[1][mine], a, b, d, 0)]
        while stack:
            mass_l, mass_r, a, b, d, depth = stack.pop()
            if joined_as_is(a, b, depth):
                leaf(a, b, d, depth > 0)
                continue
            events += 1
            side = 0 if a >= b else 1
            big, small = (a, b) if side == 0 else (b, a)
            big_mass = mass_l if side == 0 else mass_r
            k = choose_split(big * kb, small * kb, memory_bytes, t_factor)
            sub_part, sub_copies = subgrid(k)
            sub_part = sub_part[mine]
            raw = np.bincount(sub_part, big_mass, k).tolist()
            scale = big * sub_copies[side] / sum(raw)
            loads = [n * scale for n in raw]
            # One read of the split side, one-page-buffered writes.
            split_io += cost.request_units(pages(big)) + sum(
                pages(n) for n in loads
            ) * (1.0 + cost.pt_ratio)
            split_ops += sum(loads) + big
            if max(loads) >= big:
                # No progress: the driver joins the pair as it is.
                leaf(a, b, d, depth > 0)
                continue
            meet = np.bincount(sub_part, mass_l * mass_r * inv, k).tolist()
            total_meet = sum(meet)
            if total_meet > 0.0:
                shares = [m * (d * sub_copies[side] / total_meet) for m in meet]
            else:
                shares = [n * (d / big) for n in loads]
            for j, (n, d_j) in enumerate(zip(loads, shares)):
                if n < _EMPTY_RECORDS:
                    continue
                sub_a, sub_b = (n, b) if side == 0 else (a, n)
                if joined_as_is(sub_a, sub_b, depth + 1):
                    leaf(sub_a, sub_b, d_j, True)
                    continue
                sub_mass = big_mass * (sub_part == j)
                if side == 0:
                    stack.append((sub_mass, mass_r, n, b, d_j, depth + 1))
                else:
                    stack.append((mass_l, sub_mass, a, n, d_j, depth + 1))
    return Overflow(
        pairs=len(replaced),
        events=events,
        split_io=split_io,
        split_ops=split_ops,
        join_io=join_io,
        replaced=np.array(replaced, dtype=np.float64).reshape(-1, 3).T,
        leaves=np.array(leaves, dtype=np.float64).reshape(-1, 4).T,
    )


# ----------------------------------------------------------------------
# PBSM
# ----------------------------------------------------------------------
def estimate_pbsm(
    jp: JoinProfile,
    memory_bytes: int,
    cost: CostModel,
    t_factor: float = 1.2,
    workers: int = 1,
    dup_factors: Optional[Dict[Tuple[int, int], Optional[float]]] = None,
    overflows: Optional[Dict[Tuple[int, int, float], Overflow]] = None,
) -> CostEstimate:
    """Cost of ``PBSM(internal="sweep_numpy")`` (the columnar engine under
    the Reference Point Method) on its default grid
    (:data:`~repro.pbsm.grid.TILES_PER_PARTITION`) with formula (1) and *t_factor*.

    ``dup_factors`` and ``overflows`` are memos an enumeration shares
    between its PBSM candidates (one profile, budget and cost model):
    the sampled-pair replay depends on the grid alone, the overflow
    model on the grid and ``t`` (``choose_split`` reads it), and most
    candidates of one join land on the same few grids.

    With ``workers > 1`` the estimate models ``PBSM(workers=W)``, which
    changes only where the leaves run: the partition and repartition
    phases stay sequential (the Amdahl term), the in-memory
    joins and RPM tests shrink to the *makespan fraction* — the larger of
    the ideal ``1/speedup`` and the biggest task's share of the join work
    (skew: one mega-partition bounds the makespan no matter how the rest
    is packed) — and an ``ipc`` term charges what the process executor
    puts on the pipe: task tuples out, metadata plus manifests back.
    Per-chunk dispatch (``cost.dispatch_seconds``) and the pool's spawn
    (``cost.pool_spawn_seconds``) make up a ``schedule`` breakdown entry.
    """
    nl, nr = jp.n_left, jp.n_right
    kb = cost.kpe_bytes
    width = jp.space[2] - jp.space[0] or 1.0
    height = jp.space[3] - jp.space[1] or 1.0

    n_partitions = estimate_partitions(nl, nr, kb, memory_bytes, t_factor)
    if workers > 1:
        # PBSM(workers=W) guarantees at least one task per worker.
        n_partitions = max(n_partitions, workers)
    side = max(1, math.ceil(math.sqrt(n_partitions * TILES_PER_PARTITION)))

    copies_l = min(
        float(n_partitions), _grid_replication(jp.left, width, height, side)
    )
    copies_r = min(
        float(n_partitions), _grid_replication(jp.right, width, height, side)
    )
    nl_part = nl * copies_l
    nr_part = nr * copies_r
    pages_l = cost.pages_for(int(nl_part), kb)
    pages_r = cost.pages_for(int(nr_part), kb)
    pages = pages_l + pages_r

    # Partition phase: one-page writers flush one request per page, plus a
    # final partial flush per (non-empty) partition file of both inputs.
    partial_flushes = min(2 * n_partitions, nl + nr)
    io_partition = pages * (1.0 + cost.pt_ratio) + partial_flushes * cost.pt_ratio
    cpu_partition = cost.cpu_seconds_from_counts(
        structure_ops=nl_part + nr_part + nl + nr
    )

    # Join phase: each partition file is read back in one request.
    io_join = pages + 2 * n_partitions * cost.pt_ratio

    skew = max(jp.left.skew, jp.right.skew)
    residual_skew = 1.0 + (skew - 1.0) * _SKEW_DAMPING / TILES_PER_PARTITION

    # Internal joins: per-partition sweep with expected active-set sizes.
    # A record is active while the sweep line crosses its own x-extent, so
    # the expected set size is density times average width; tile hashing
    # flattens skew across partitions, the residual shows up as probe
    # arrivals correlating with long active sets (``clustering``).
    a = nl_part / n_partitions
    b = nr_part / n_partitions
    active_a = min(a, a * jp.left.avg_width / width + 1.0)
    active_b = min(b, b * jp.right.avg_width / width + 1.0)
    # Detections (results + duplicates): replayed on the sampled pairs
    # where possible, since on heavy-tailed extents the duplicate volume
    # dwarfs the result count and mean-based formulas cannot see it.
    if dup_factors is None:
        dup_factors = {}
    if (side, n_partitions) not in dup_factors:
        dup_factors[side, n_partitions] = _sampled_dup_factor(
            jp, side, n_partitions
        )
    dup_factor = dup_factors[side, n_partitions]
    if dup_factor is not None:
        detected = jp.est_results * dup_factor
    elif jp.hist_left is not None and jp.hist_right is not None:
        detected = jp.hist_left.estimate_detected_pairs(jp.hist_right, side)
    else:
        detected = jp.est_results * (copies_l + copies_r) / 2.0
    cpu_internal = n_partitions * _forward_scan_cpu(
        cost, a, b, active_a, active_b, residual_skew
    )

    # Repartitioning (Sec. 3.2.3): every pair the overflow model finds
    # over M is priced as the driver runs it — its splits, then its
    # leaves joined in its place (the unsplit side read and swept once
    # per sub-pair) instead of the pair itself.  A parallel run has the
    # same recursion, so its candidates are priced the same way.
    if overflows is None:
        overflows = {}
    key = (side, n_partitions, t_factor)
    if key not in overflows:
        overflows[key] = repartition_overflow(
            jp,
            n_partitions,
            TILES_PER_PARTITION,
            (copies_l, copies_r),
            detected,
            memory_bytes,
            cost,
            t_factor,
        )
    overflow = overflows[key]
    io_repartition = overflow.split_io
    cpu_repartition = cost.cpu_seconds_from_counts(structure_ops=overflow.split_ops)

    def pair_cpu(n_l: Any, n_r: Any) -> Any:
        return _forward_scan_cpu(
            cost,
            n_l,
            n_r,
            np.minimum(n_l, n_l * jp.left.avg_width / width + 1.0),
            np.minimum(n_r, n_r * jp.right.avg_width / width + 1.0),
            residual_skew,
        )

    io_join += overflow.join_io
    composed = 0.0  # detections tested under a sub-region's chain
    if overflow.pairs:
        leaf_l, leaf_r, leaf_detected, in_sub = overflow.leaves
        replaced_l, replaced_r, replaced_detected = overflow.replaced
        cpu_internal += float(
            pair_cpu(leaf_l, leaf_r).sum() - pair_cpu(replaced_l, replaced_r).sum()
        )
        detected += float(leaf_detected.sum() - replaced_detected.sum())
        composed = float(leaf_detected[in_sub > 0.0].sum())

    # The kernel path tests whole candidate batches at once; under a
    # sub-region's chain it pays one refpoint test per pair.
    cpu_dedup = cost.cpu_seconds_from_counts(
        batch_ops=BATCH_OPS_PER_RPM_TEST * (detected - composed),
        refpoint_tests=composed,
    )

    ipc_seconds = 0.0
    ipc_bytes = 0.0
    schedule_seconds = 0.0
    if workers > 1:
        # The join/dedup work shrinks to the makespan fraction; the
        # sequential partition and repartition phases are left untouched
        # (Amdahl).
        speedup = float(min(workers, n_partitions))
        # The dominant task's share of the join work: residual skew
        # concentrates roughly that multiple of the mean in one
        # partition, and that task alone bounds the makespan.
        share = min(1.0, residual_skew / n_partitions)
        n_chunks = min(n_partitions, workers * 4)
        makespan_fraction = max(1.0 / speedup, share)
        cpu_internal *= makespan_fraction
        cpu_dedup *= makespan_fraction
        # A cold pool forks a worker per slot; a warm one has paid this
        # already, but the planner prices the cold run.
        schedule_seconds = (
            cost.dispatch_seconds * n_chunks + cost.pool_spawn_seconds * workers
        )
        ipc_bytes = (
            SHM_TASK_BYTES * n_partitions + SHM_CHUNK_OVERHEAD_BYTES * n_chunks
        )
        ipc_seconds = cost.ipc_seconds_for(ipc_bytes)

    io_units = io_partition + io_join + io_repartition
    cpu_seconds = (
        cpu_partition
        + cpu_internal
        + cpu_repartition
        + cpu_dedup
        + ipc_seconds
        + schedule_seconds
    )
    breakdown = {
        PHASE_PARTITION: cost.io_seconds(io_partition) + cpu_partition,
        PHASE_REPARTITION: cost.io_seconds(io_repartition) + cpu_repartition,
        PHASE_JOIN: cost.io_seconds(io_join) + cpu_internal,
        PHASE_DEDUP: cpu_dedup,
    }
    if workers > 1:
        breakdown["ipc"] = ipc_seconds
        breakdown["schedule"] = schedule_seconds
    predicted = {
        "n_partitions": float(n_partitions),
        "est_results": jp.est_results,
        "detected_pairs": detected,
        "replication_rate": (nl_part + nr_part) / max(1, nl + nr),
        "overflow_pairs": float(overflow.pairs),
        "repartitions": float(overflow.events),
    }
    if workers > 1:
        predicted["ipc_bytes"] = ipc_bytes
    return _estimate(cost, io_units, cpu_seconds, breakdown, predicted)


# ----------------------------------------------------------------------
# S3J
# ----------------------------------------------------------------------
def estimate_s3j(
    jp: JoinProfile,
    memory_bytes: int,
    cost: CostModel,
    strategy: str = "size",
) -> CostEstimate:
    """Cost of S3J under an assignment strategy ("size"/"original"/"hybrid")."""
    nl, nr = jp.n_left, jp.n_right
    n = nl + nr
    kb = cost.kpe_bytes
    width = jp.space[2] - jp.space[0] or 1.0
    height = jp.space[3] - jp.space[1] or 1.0

    # Size level of an average rectangle: the deepest grid whose cells
    # still contain it (levels count down from the root, paper Sec. 4.1).
    avg_edge = max(
        (jp.left.avg_width + jp.right.avg_width) / 2.0 / width,
        (jp.left.avg_height + jp.right.avg_height) / 2.0 / height,
        1e-9,
    )
    size_level = min(DEFAULT_MAX_LEVEL, max(0, int(math.log2(1.0 / avg_edge))))
    # Probability that a rectangle straddles a cell border at its size
    # level (and, without replication, sinks toward the root).
    straddle = min(1.0, avg_edge * (2**size_level) * 2.0)

    if strategy == "size":
        copies = 1.0 + 2.2 * straddle  # at most four copies (Sec. 4.3)
        sink = 0.0
    elif strategy == "hybrid":
        copies = 1.0 + 1.2 * straddle
        sink = straddle * 0.3
    elif strategy == "original":
        copies = 1.0
        sink = straddle  # straddlers climb toward the root
    else:
        raise ValueError(f"no cost model for S3J strategy {strategy!r}")

    n_repl = n * copies
    pages = cost.pages_for(int(n_repl), kb)

    # Partitioning: locational code per copy, buffered level-file writes.
    cpu_partition = cost.cpu_seconds_from_counts(
        code_computations=n_repl + n, structure_ops=n_repl
    )
    io_partition = pages + pages / _S3J_IO_BUFFER_PAGES * cost.pt_ratio

    # Sorting each level file by locational code; external when a level
    # file exceeds the budget (runs written and merged back once).
    cpu_sort = cost.cpu_seconds_from_counts(
        comparisons=n_repl * _lg(n_repl), heap_ops=n_repl * 0.5
    )
    external = 2.0 if n_repl * kb > memory_bytes else 0.0
    io_sort = external * (pages + pages / _S3J_IO_BUFFER_PAGES * cost.pt_ratio)

    # Synchronized scan: heap traffic per cell partition, then per-pair
    # internal joins.  Without replication, straddling rectangles sink
    # ``sink``-deep and are joined against every partition on their root
    # path — the order-of-magnitude CPU penalty of Fig. 10/11.
    io_scan = pages + pages / _S3J_IO_BUFFER_PAGES * cost.pt_ratio
    heap = n_repl * 3.0
    detected = jp.est_results * max(1.0, copies * 0.75)
    path_partners = 1.0 + sink * size_level * 2.0
    # Sunk records are tested against the (dense) shallow partitions on
    # their path: approximate the partner set as the records sharing the
    # path, a 1/2**level thinning per step up.  This is the
    # order-of-magnitude penalty replication removes (Fig. 10/11).
    cross_tests = n * sink * (n / max(1.0, 2.0**size_level)) * 2.0
    tests = detected * 1.5 + n * path_partners + cross_tests
    cpu_scan = cost.cpu_seconds_from_counts(
        intersection_tests=tests,
        heap_ops=heap,
        refpoint_tests=detected if strategy != "original" else 0.0,
        structure_ops=n_repl,
    )

    io_units = io_partition + io_sort + io_scan
    cpu_seconds = cpu_partition + cpu_sort + cpu_scan
    breakdown = {
        PHASE_PARTITION: cost.io_seconds(io_partition) + cpu_partition,
        PHASE_SORT: cost.io_seconds(io_sort) + cpu_sort,
        PHASE_JOIN: cost.io_seconds(io_scan) + cpu_scan,
    }
    predicted = {
        "est_results": jp.est_results,
        "detected_pairs": detected,
        "replication_rate": copies,
        "size_level": float(size_level),
    }
    return _estimate(cost, io_units, cpu_seconds, breakdown, predicted)


# ----------------------------------------------------------------------
# SHJ
# ----------------------------------------------------------------------
def estimate_shj(
    jp: JoinProfile,
    memory_bytes: int,
    cost: CostModel,
) -> CostEstimate:
    """Cost of the spatial hash join (build by centre, probe replicated)."""
    nl, nr = jp.n_left, jp.n_right
    kb = cost.kpe_bytes
    width = jp.space[2] - jp.space[0] or 1.0
    height = jp.space[3] - jp.space[1] or 1.0

    n_buckets = estimate_partitions(nl, nr, kb, memory_bytes, _SHJ_T_FACTOR)
    side = max(1, math.ceil(math.sqrt(n_buckets)))
    n_buckets = side * side

    occupied, co_occupied, retention = _bucket_occupancy(jp, side)
    occupied = min(occupied, n_buckets)
    co_occupied = min(co_occupied, occupied)

    # Build side: exactly one bucket per record.  Probe side: the
    # retained fraction is replicated into every bucket extent it
    # overlaps; bucket extents exceed the cell by the build rectangles'
    # overhang (mean-area cross term for heavy-tailed extents).
    cell_w = width / side
    cell_h = height / side
    cross_area = (
        jp.right.avg_area
        + jp.left.avg_area
        + jp.right.avg_width * jp.left.avg_height
        + jp.left.avg_width * jp.right.avg_height
    )
    copies_r = min(
        float(occupied),
        1.0
        + (jp.right.avg_width + jp.left.avg_width) / cell_w
        + (jp.right.avg_height + jp.left.avg_height) / cell_h
        + cross_area / (cell_w * cell_h),
    )
    nr_part = nr * retention * copies_r
    pages_l = cost.pages_for(nl, kb)
    pages_r = cost.pages_for(int(nr_part), kb)

    # The probe loop tests every record against every non-empty extent.
    cpu_partition = cost.cpu_seconds_from_counts(
        structure_ops=nl + nr_part, intersection_tests=float(nr) * occupied
    )
    # One-page writers flush full pages plus one partial page per
    # non-empty file; build files exist in every occupied bucket, probe
    # files only where probe records met a build extent.
    io_partition = (
        pages_l + occupied + pages_r + co_occupied
    ) * (1.0 + cost.pt_ratio)
    # The join phase reads back only buckets where both files are
    # non-empty: every probe page, the co-occupied share of the build
    # pages, plus the per-file partial pages and one request per file.
    pages_read = pages_l * co_occupied / occupied + pages_r + 2.0 * co_occupied
    io_join = pages_read + 2 * co_occupied * cost.pt_ratio

    # Per-bucket sweeps span at most one cell along x, so the active-set
    # densities are taken against the cell width.  Skew concentrates
    # records in fewer (occupied) buckets but shrinks their x-span in
    # step (clusters are compact), so no extra skew correction is
    # applied.
    a = nl / occupied
    b = nr_part / co_occupied
    active_a = min(a, a * jp.left.avg_width / cell_w) + 1.0
    active_b = min(b, b * jp.right.avg_width / cell_w) + 1.0
    detected = jp.est_results * 1.05
    cpu_internal = co_occupied * _list_sweep_cpu(
        cost, a, b, active_a, active_b, detected / co_occupied
    )

    io_units = io_partition + io_join
    cpu_seconds = cpu_partition + cpu_internal
    breakdown = {
        PHASE_PARTITION: cost.io_seconds(io_partition) + cpu_partition,
        PHASE_JOIN: cost.io_seconds(io_join) + cpu_internal,
    }
    predicted = {
        "n_partitions": float(n_buckets),
        "est_results": jp.est_results,
        "detected_pairs": detected,
        "replication_rate": (nl + nr_part) / max(1, nl + nr),
    }
    return _estimate(cost, io_units, cpu_seconds, breakdown, predicted)


# ----------------------------------------------------------------------
# SSSJ
# ----------------------------------------------------------------------
def estimate_sssj(
    jp: JoinProfile,
    memory_bytes: int,
    cost: CostModel,
) -> CostEstimate:
    """Cost of SSSJ: external sort by xl, then one whole-input sweep."""
    nl, nr = jp.n_left, jp.n_right
    kb = cost.kpe_bytes
    width = jp.space[2] - jp.space[0] or 1.0

    cpu_sort = cost.cpu_seconds_from_counts(
        comparisons=nl * _lg(nl) + nr * _lg(nr)
    )
    io_sort = 0.0
    for n_side in (nl, nr):
        if n_side * kb > memory_bytes:
            pages_side = cost.pages_for(n_side, kb)
            runs = math.ceil(n_side * kb / memory_bytes)
            # run generation writes + one merge pass of page-at-a-time reads
            io_sort += pages_side * 2.0 + (runs + pages_side) * cost.pt_ratio
            cpu_sort += cost.cpu_seconds_from_counts(heap_ops=n_side * 2.0)

    # One sweep over the full relations: the active sets are as long as
    # whole-space x-overlap dictates — SSSJ's weakness on high coverage.
    active_l = min(float(nl), nl * jp.left.avg_width / width + 1.0)
    active_r = min(float(nr), nr * jp.right.avg_width / width + 1.0)
    cpu_join = _list_sweep_cpu(
        cost, float(nl), float(nr), active_l, active_r, jp.est_results
    )

    io_units = io_sort
    cpu_seconds = cpu_sort + cpu_join
    breakdown = {
        PHASE_SORT: cost.io_seconds(io_sort) + cpu_sort,
        PHASE_JOIN: cpu_join,
    }
    predicted = {
        "est_results": jp.est_results,
        "detected_pairs": jp.est_results,
        "replication_rate": 1.0,
    }
    return _estimate(cost, io_units, cpu_seconds, breakdown, predicted)
