"""Analytic cost estimates for every join method the planner considers.

Each estimator mirrors the phase structure of its driver (partition /
sort / join / dedup), predicts the *operation counts* those phases charge
to :class:`~repro.core.stats.CpuCounters` and the simulated disk, and
translates them into simulated seconds through the very same
:class:`~repro.io.costmodel.CostModel` constants the drivers use.  That
shared currency is what makes EXPLAIN's "estimated vs. actual" columns
directly comparable.

The formulas encode the paper's findings rather than curve-fits:

* formula (1) + ``t`` gives PBSM's partition count (clamped, Sec. 3.2.3),
  and a low ``t`` is charged an expected-repartitioning penalty;
* the list-vs-trie crossover of Fig. 4 emerges from the sweep-line
  active-set model: the list sweep pays ``O(active)`` per step, the trie
  pays ``O(depth)`` — so the trie wins once partitions are large or
  selective, and loses on small/sparse partitions;
* S3J's original assignment pays the deep-sink penalty of Sec. 4.3
  (boundary-straddling rectangles join against entire root paths), which
  replication removes at the price of up-to-four copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.phases import (
    PHASE_BUILD,
    PHASE_DEDUP,
    PHASE_JOIN,
    PHASE_PARTITION,
    PHASE_REPARTITION,
    PHASE_SORT,
)
from repro.internal.interval_trie import DEFAULT_MAX_DEPTH
from repro.io.costmodel import CostModel
from repro.kernels.rpm import BATCH_OPS_PER_RPM_TEST
from repro.kernels.sweep import BATCH_OPS_PER_CANDIDATE
from repro.pbsm.estimator import estimate_partitions
from repro.planner.stats import JoinProfile
from repro.sfc.locational import DEFAULT_MAX_LEVEL

#: Sweep bookkeeping charged per record beyond the probe loop (enter/expire).
_SWEEP_OVERHEAD = 2.0
#: Fraction of active-list visits that survive expiry and pay a y-test.
_LIST_TEST_FRACTION = 0.8
#: Per-record trie bookkeeping: insert path + probe path (node visits).
_TRIE_NODE_FACTOR = 2.0
#: Interval-tree extra: sorted insertion into node entry lists.
_TREE_INSERT_FACTOR = 1.4
#: Mild residual skew after hashing tiles_per_partition tiles per partition.
_SKEW_DAMPING = 0.5

#: Process-executor pipe traffic per task: a five-integer task tuple
#: out, its share of per-chunk metadata and manifest back.
SHM_TASK_BYTES = 64.0
SHM_CHUNK_OVERHEAD_BYTES = 512.0


def _lg(x: float) -> float:
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
def _sweep_cpu(
    cost: CostModel,
    a: float,
    b: float,
    active_a: float,
    active_b: float,
    detected: float,
    internal: str,
    clustering: float = 1.0,
) -> float:
    """CPU seconds of one in-memory sweep join over ``a`` x ``b`` records.

    ``active_*`` are the expected sweep-line set sizes of each side; the
    internal algorithms differ only in what a probe against the active set
    costs (Sec. 3.2.2).  ``clustering`` scales the list sweep's probe
    traffic: arrivals concentrate where the active sets are longest, a
    correlation the constant-density model misses.
    """
    n = a + b
    comparisons = a * _lg(a) + b * _lg(b)  # the two sorts
    if internal == "sweep_list":
        visits = (a * active_b + b * active_a) * clustering + n * _SWEEP_OVERHEAD
        structure = visits
        tests = _LIST_TEST_FRACTION * visits + detected
    elif internal == "sweep_trie":
        depth = min(DEFAULT_MAX_DEPTH, _lg(max(active_a + active_b, 2.0)) + 2.0)
        structure = n * depth * _TRIE_NODE_FACTOR + detected
        tests = detected * 2.0 + n
    elif internal == "sweep_tree":
        depth = min(DEFAULT_MAX_DEPTH, _lg(max(active_a + active_b, 2.0)) + 2.0)
        node_len = max(1.0, (active_a + active_b) / max(depth, 1.0))
        structure = n * depth * _TRIE_NODE_FACTOR * _TREE_INSERT_FACTOR + detected
        comparisons += n * _lg(node_len) + detected
        tests = detected * 2.0 + n
    elif internal == "nested_loops":
        structure = n
        tests = a * b
    elif internal == "sweep_numpy":
        # Forward-scan kernel: the candidate volume is the x-overlap pair
        # count — same arrival/active-set model as the list sweep, but
        # each candidate costs a batch-level array op, not a scalar test.
        candidates = (a * active_b + b * active_a) * clustering
        batch = (
            a * _lg(a)
            + b * _lg(b)  # vectorized argsorts
            + 2.0 * n  # the four searchsorted sweeps
            + BATCH_OPS_PER_CANDIDATE * candidates
        )
        return cost.cpu_seconds_from_counts(batch_ops=batch)
    else:
        raise ValueError(f"no cost model for internal algorithm {internal!r}")
    return cost.cpu_seconds_from_counts(
        intersection_tests=tests,
        comparisons=comparisons,
        structure_ops=structure,
    )


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
    last = side - 1
    total = 0.0
    for r, s in pairs:
        rxl = min(last, max(0, int((r[1] - xl0) / width * side)))
        rxh = min(last, max(0, int((r[3] - xl0) / width * side)))
        ryl = min(last, max(0, int((r[2] - yl0) / height * side)))
        ryh = min(last, max(0, int((r[4] - yl0) / height * side)))
        sxl = min(last, max(0, int((s[1] - xl0) / width * side)))
        sxh = min(last, max(0, int((s[3] - xl0) / width * side)))
        syl = min(last, max(0, int((s[2] - yl0) / height * side)))
        syh = min(last, max(0, int((s[4] - yl0) / height * side)))
        k_r = (rxh - rxl + 1) * (ryh - ryl + 1)
        k_s = (sxh - sxl + 1) * (syh - syl + 1)
        shared = (min(rxh, sxh) - max(rxl, sxl) + 1) * (
            min(ryh, syh) - max(ryl, syl) + 1
        )
        total += shared + (k_r - shared) * (k_s - shared) / n_partitions
    return total / len(pairs)


def _bucket_occupancy(jp: JoinProfile, side: int) -> Tuple[float, float]:
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
    build_buckets = set()
    co_buckets = set()
    retained = 0.0
    for iy in range(res):
        for ix in range(res):
            bucket = (
                min(side - 1, iy * side // res),
                min(side - 1, ix * side // res),
            )
            if hl.counts[iy * res + ix]:
                build_buckets.add(bucket)
            count = hr.counts[iy * res + ix]
            if not count:
                continue
            hit = any(
                hl.counts[yy * res + xx]
                for yy in range(max(0, iy - 1), min(res, iy + 2))
                for xx in range(max(0, ix - 1), min(res, ix + 2))
            )
            if hit:
                retained += count
                co_buckets.add(bucket)
    return max(1, len(build_buckets)), max(1, len(co_buckets)), retained / hr.n


# ----------------------------------------------------------------------
# PBSM
# ----------------------------------------------------------------------
def estimate_pbsm(
    jp: JoinProfile,
    memory_bytes: int,
    cost: CostModel,
    internal: str = "sweep_trie",
    t_factor: float = 1.2,
    dedup: str = "rpm",
    tiles_per_partition: int = 4,
    workers: int = 1,
    dup_factors: Optional[Dict[Tuple[int, int], Optional[float]]] = None,
) -> CostEstimate:
    """Cost of ``PBSM(internal, dedup)`` under formula (1) with *t_factor*.

    ``dup_factors`` is a memo an enumeration shares between its PBSM
    candidates: the sampled-pair replay depends on the grid alone, and
    most candidates of one join land on the same few grids.

    With ``workers > 1`` the estimate models ``ParallelPBSM``: the
    partition phase stays sequential (the Amdahl term), the in-memory
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
        # ParallelPBSM guarantees at least one task per worker.
        n_partitions = max(n_partitions, workers)
    side = max(1, math.ceil(math.sqrt(n_partitions * tiles_per_partition)))

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

    # Expected repartitioning (the t-factor's raison d'etre): the fraction
    # of partition pairs whose joint size exceeds M, with residual skew
    # after tile hashing.  Overflowing partitions are split, re-written
    # and re-read recursively.
    mean_pair_bytes = (nl_part + nr_part) * kb / n_partitions
    skew = max(jp.left.skew, jp.right.skew)
    residual_skew = 1.0 + (skew - 1.0) * _SKEW_DAMPING / tiles_per_partition
    overflow = (mean_pair_bytes * residual_skew / memory_bytes - 0.8) / 0.4
    overflow = min(1.0, max(0.0, overflow))
    io_repartition = overflow * (pages * 3.0 + 2 * n_partitions * cost.pt_ratio)
    cpu_repartition = cost.cpu_seconds_from_counts(
        structure_ops=overflow * 1.5 * (nl_part + nr_part)
    )

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
    cpu_internal = n_partitions * _sweep_cpu(
        cost,
        a,
        b,
        active_a,
        active_b,
        detected / n_partitions,
        internal,
        clustering=residual_skew,
    )

    io_dedup = 0.0
    cpu_dedup = 0.0
    if dedup == "rpm":
        if internal == "sweep_numpy":
            # The kernel path tests whole candidate batches at once.
            cpu_dedup = cost.cpu_seconds_from_counts(
                batch_ops=BATCH_OPS_PER_RPM_TEST * detected
            )
        else:
            cpu_dedup = cost.cpu_seconds_from_counts(refpoint_tests=detected)
    elif dedup == "sort":
        result_pages = cost.pages_for(int(detected), cost.result_bytes)
        # write candidates (one-page buffers), then a sort pass (read,
        # write runs, read runs).
        io_dedup = result_pages * (1.0 + cost.pt_ratio) + 3.0 * result_pages
        cpu_dedup = cost.cpu_seconds_from_counts(
            comparisons=detected * _lg(detected)
        )

    ipc_seconds = 0.0
    ipc_bytes = 0.0
    schedule_seconds = 0.0
    if workers > 1:
        # ParallelPBSM does not repartition (it records overruns), and the
        # join/dedup work shrinks to the makespan fraction; the
        # sequential partition phase is left untouched (Amdahl).
        io_repartition = 0.0
        cpu_repartition = 0.0
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

    io_units = io_partition + io_join + io_repartition + io_dedup
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
        PHASE_DEDUP: cost.io_seconds(io_dedup) + cpu_dedup,
    }
    if workers > 1:
        breakdown["ipc"] = ipc_seconds
        breakdown["schedule"] = schedule_seconds
    predicted = {
        "n_partitions": float(n_partitions),
        "est_results": jp.est_results,
        "detected_pairs": detected,
        "replication_rate": (nl_part + nr_part) / max(1, nl + nr),
        "overflow_fraction": overflow,
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
    max_level: int = DEFAULT_MAX_LEVEL,
    io_buffer_pages: int = 4,
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
    size_level = min(max_level, max(0, int(math.log2(1.0 / avg_edge))))
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
    io_partition = pages + pages / io_buffer_pages * cost.pt_ratio

    # Sorting each level file by locational code; external when a level
    # file exceeds the budget (runs written and merged back once).
    cpu_sort = cost.cpu_seconds_from_counts(
        comparisons=n_repl * _lg(n_repl), heap_ops=n_repl * 0.5
    )
    external = 2.0 if n_repl * kb > memory_bytes else 0.0
    io_sort = external * (pages + pages / io_buffer_pages * cost.pt_ratio)

    # Synchronized scan: heap traffic per cell partition, then per-pair
    # internal joins.  Without replication, straddling rectangles sink
    # ``sink``-deep and are joined against every partition on their root
    # path — the order-of-magnitude CPU penalty of Fig. 10/11.
    io_scan = pages + pages / io_buffer_pages * cost.pt_ratio
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
    internal: str = "sweep_list",
    t_factor: float = 1.2,
) -> CostEstimate:
    """Cost of the spatial hash join (build by centre, probe replicated)."""
    nl, nr = jp.n_left, jp.n_right
    kb = cost.kpe_bytes
    width = jp.space[2] - jp.space[0] or 1.0
    height = jp.space[3] - jp.space[1] or 1.0

    n_buckets = estimate_partitions(nl, nr, kb, memory_bytes, t_factor)
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
    cpu_internal = co_occupied * _sweep_cpu(
        cost, a, b, active_a, active_b, detected / co_occupied, internal
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
    internal: str = "sweep_list",
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
    cpu_join = _sweep_cpu(
        cost, float(nl), float(nr), active_l, active_r, jp.est_results, internal
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


# ----------------------------------------------------------------------
# R-tree join
# ----------------------------------------------------------------------
def estimate_rtree(
    jp: JoinProfile,
    memory_bytes: int,
    cost: CostModel,
    fanout: int = 64,
) -> CostEstimate:
    """Cost of bulk-loading R-trees on both inputs and joining them."""
    nl, nr = jp.n_left, jp.n_right

    nodes_l = max(1.0, nl / fanout * 1.1)
    nodes_r = max(1.0, nr / fanout * 1.1)
    cpu_build = cost.cpu_seconds_from_counts(
        comparisons=nl * _lg(nl) + nr * _lg(nr),
        structure_ops=(nl + nr) + (nodes_l + nodes_r) * fanout * 0.1,
    )
    io_build = (nodes_l + nodes_r) + 2 * cost.pt_ratio

    # Node-pair traversal: overlapping node pairs scale with the result;
    # every visited node pays one page read.
    overlap_pairs = max(nodes_l, nodes_r) + jp.est_results / fanout
    visited_nodes = min(nodes_l + nodes_r, overlap_pairs * 2.0)
    io_join = visited_nodes + visited_nodes * cost.pt_ratio
    leaf_tests = overlap_pairs * fanout * 1.5 + jp.est_results
    cpu_join = cost.cpu_seconds_from_counts(
        intersection_tests=leaf_tests + overlap_pairs * fanout * 0.5,
        structure_ops=overlap_pairs,
    )

    io_units = io_build + io_join
    cpu_seconds = cpu_build + cpu_join
    breakdown = {
        PHASE_BUILD: cost.io_seconds(io_build) + cpu_build,
        PHASE_JOIN: cost.io_seconds(io_join) + cpu_join,
    }
    predicted = {
        "est_results": jp.est_results,
        "detected_pairs": jp.est_results,
        "replication_rate": 1.0,
    }
    return _estimate(cost, io_units, cpu_seconds, breakdown, predicted)
