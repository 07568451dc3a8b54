"""The Partition Based Spatial-Merge Join driver.

Implements both variants the paper compares:

* ``dedup="sort"`` — original PBSM (Patel & DeWitt): the join phase
  materialises every candidate pair; a final phase sorts the pair file and
  removes duplicates.  No result can be emitted before the sort completes
  (the pipelining problem of Section 3.1).
* ``dedup="rpm"`` — the paper's improvement: each detected pair is kept iff
  its reference point lies in the region of the partition being processed
  (at most six extra comparisons), so results stream out of the join phase
  and no final phase exists.

The internal algorithm (list sweep, trie sweep, ...) is pluggable, which is
how Figures 4/5/12 are driven.  The recursion of Section 3.2.3 hands out
*leaves* — partition pairs that are joined as they are — to one loop that
produces each leaf's pairs in one piece: :meth:`PBSM.run` concatenates
the leaves' row positions once and boxes no pair, and
:meth:`PBSM.iter_pairs` yields from each leaf before the next is read, so
the operator layer can demonstrate the pipelining difference.

:meth:`PBSM._join_leaves` is the one PBSM pipeline.  Both engines read
the inputs' five columns (already there for mapped inputs, built once
and validated otherwise) for the extent, the partitioning and every
repartitioning step, and their partition files hold row ids.  The engine
is only the kernel a leaf (:func:`~repro.pbsm.leaf.join_leaf`) runs: the
*tuple* engine's :func:`~repro.pbsm.leaf.tuple_leaf` (any internal but
``sweep_numpy``; the paper's subject) over records gathered from the
columns, or the *columnar* engine's :func:`~repro.pbsm.leaf.columnar_leaf`
(``internal="sweep_numpy"``, what :func:`repro.spatial_join` runs by
default).  Both return row positions after one batched ownership test;
the result keeps them, and ``result.pairs`` turns them into oid tuples
through the inputs' own oid objects only while it is read —
``docs/kernels.md``, "Columnar sequential driver".

``workers=W > 1`` changes only where the leaves run and how the join
phase is accounted: the same recursion hands out the same leaves in the
same order, ``executor="process"`` joins them on the warm pool
(:mod:`repro.pbsm.parallel`), ``"simulated"`` in the in-process loop,
and on either the join phase is charged as the leaves' LPT makespan on
W workers.
"""

from __future__ import annotations

import time
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.phases import (
    PHASE_DEDUP,
    PHASE_JOIN,
    PHASE_PARTITION,
    PHASE_REPARTITION,
)
from repro.core.result import JoinResult, JoinStats, PairRows, RowOids, oid_objects
from repro.core.space import Space
from repro.core.stats import CpuCounters
from repro.internal import internal_algorithm
from repro.io.costmodel import CostModel, require_positive
from repro.io.disk import SimulatedDisk
from repro.io.pagefile import PageFile
from repro.kernels.assign import partition_memoized
from repro.kernels.columnar import ColumnarRelation, checked_columns
from repro.obs.trace import KIND_RUN, KIND_TASK, NULL_TRACER
from repro.pbsm.dedup import sort_based_dedup
from repro.pbsm.estimator import estimate_partitions
from repro.pbsm.grid import TILES_PER_PARTITION, TileGrid
from repro.pbsm.leaf import (
    Leaf,
    LeafOutcome,
    Region,
    columnar_engine,
    join_leaf,
    read_leaf,
)
from repro.pbsm.parallel import (
    EXECUTORS,
    clamp_workers,
    execute_process,
    fan_out_executor,
    lpt_schedule,
)
from repro.pbsm.partitioner import partition_relation
from repro.pbsm.repartition import MAX_REPARTITION_DEPTH, choose_split, split_partition_ids

DEDUP_MODES = ("rpm", "sort")


class PBSM:
    """Partition Based Spatial-Merge Join.

    Parameters
    ----------
    memory_bytes:
        The main-memory budget M of formula (1); partition pairs must fit
        into it.
    internal:
        Registry name of the in-memory join algorithm: "sweep_list",
        "sweep_trie", "nested_loops", "sweep_tree" (the tuple engine), or
        "sweep_numpy" (the columnar engine).
    dedup:
        "rpm" (online reference-point method) or "sort" (original final
        sorting phase).
    t_factor:
        Safety factor on formula (1) (Section 3.2.3); 1.0 = original.
    tiles_per_partition:
        Grid shape: NT ~= P * tiles_per_partition tiles, hashed to
        partitions as Patel & DeWitt suggest (:class:`TileGrid`).
    workers:
        Workers the leaves are spread over.  With more than one the run
        has at least one partition per worker, the join phase is charged
        as the leaves' LPT makespan on W workers, and only RPM runs:
        each result is owned by one leaf, so workers never coordinate,
        while the offline sort would serialise the join behind a global
        sorting phase.  Out-of-range counts are clamped with a
        :class:`RuntimeWarning` (:func:`~repro.pbsm.parallel.clamp_workers`).
    executor:
        Where the leaves of a ``workers > 1`` run are joined: "process"
        (the warm pool, :mod:`repro.pbsm.parallel`) or "simulated" (the
        in-process loop).  Both give the same pairs in the same order
        and the same simulated costs.  An input relation that names a
        shared-memory ``segment`` (a registry dataset of ``repro
        serve``) is read there by the pool, so the per-query segment
        carries only its CSR id array.
    """

    def __init__(
        self,
        memory_bytes: int,
        *,
        internal: str = "sweep_list",
        dedup: str = "rpm",
        t_factor: float = 1.2,
        tiles_per_partition: int = TILES_PER_PARTITION,
        cost_model: Optional[CostModel] = None,
        tracer: Optional[Any] = None,
        workers: int = 1,
        executor: str = "process",
    ) -> None:
        require_positive("memory_bytes", memory_bytes)
        if workers > 1 and dedup != "rpm":
            raise ValueError(
                "workers= runs the Reference Point Method only: the "
                "offline sorting phase would serialise the parallel join"
            )
        if dedup not in DEDUP_MODES:
            raise ValueError(f"dedup must be one of {DEDUP_MODES}, got {dedup!r}")
        if executor not in EXECUTORS:
            raise ValueError(f"executor must be one of {EXECUTORS}, got {executor!r}")
        self.memory_bytes = memory_bytes
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.internal_name = internal
        self.internal = internal_algorithm(internal)
        self.dedup = dedup
        self.t_factor = t_factor
        self.tiles_per_partition = tiles_per_partition
        self.cost_model = cost_model or CostModel()
        self.workers = clamp_workers(workers, executor)
        self.executor = executor

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self, left: Sequence[Tuple], right: Sequence[Tuple]) -> JoinResult:
        """Execute the join and return all result pairs plus statistics.

        Under ``dedup="rpm"`` the result holds the leaves' row positions,
        concatenated once, on every executor: ``result.pairs`` is a
        read-only sequence that decodes them through the inputs' own oid
        objects while it is iterated (:class:`~repro.core.result.PairRows`;
        no ``append``), and ``len(result)`` and ``result.to_arrays()``
        box nothing.  Under ``"sort"`` it is the sorted-out ``list``.
        """
        stats = self._new_stats(left, right)
        columns = _columns(left, right)
        pieces = self._join_leaves(columns, stats)
        if self.dedup == "sort":
            pairs: List[Tuple[int, int]] = []
            for unique in pieces:
                pairs.extend(unique)
            result = JoinResult(pairs=pairs, stats=stats)
        else:
            sides = _NO_ROWS if columns is None else _row_oids(columns)
            result = JoinResult.from_arrays(*concat_rows(pieces), stats, sides)
        stats.n_results = len(result)
        return result

    def iter_pairs(
        self,
        left: Sequence[Tuple],
        right: Sequence[Tuple],
        stats: Optional[JoinStats] = None,
    ) -> Iterator[Tuple[int, int]]:
        """Yield result pairs as the join produces them.

        With ``dedup="rpm"`` a leaf's pairs stream out before the next
        leaf is read; with ``dedup="sort"`` nothing is yielded until the
        final sorting phase has completed — the behaviour the paper's
        pipelining argument is about.  ``stats`` (if given) is populated
        when the iterator is exhausted.
        """
        if stats is None:
            stats = self._new_stats(left, right)
        columns = _columns(left, right)
        pieces = self._join_leaves(columns, stats)
        if columns is not None and self.dedup == "rpm":
            sides = _row_oids(columns, boxed=True)
            pieces = (PairRows(piece, sides) for piece in pieces)
        for leaf_pairs in pieces:
            yield from leaf_pairs

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _new_stats(self, left: Sequence[Tuple], right: Sequence[Tuple]) -> JoinStats:
        """A run's stats; with ``workers > 1``, ``stats.executor`` says
        which executor joins the leaves (:meth:`_run_leaves`)."""
        tag = {"rpm": "RPM", "sort": "PD"}[self.dedup]
        stats = JoinStats(
            algorithm=f"PBSM({self.internal_name},{tag})",
            n_left=len(left),
            n_right=len(right),
        )
        if self.workers > 1:
            stats.algorithm = f"PBSM({self.internal_name},{tag},W={self.workers})"
            stats.executor = fan_out_executor(self.executor)
            stats.n_workers = self.workers
        return stats

    def _join_leaves(
        self,
        columns: Optional["_Columns"],
        stats: JoinStats,
    ) -> Iterator[Any]:
        """Run the phases over *columns* (``None``: an empty side).

        Under ``dedup="rpm"`` yields each leaf's ``(rid, sid)`` row
        positions as one piece; under ``"sort"`` one list of oid tuples,
        the duplicate-free result of the final phase.  The one PBSM
        pipeline: :meth:`run` and :meth:`iter_pairs` drain it, whatever
        the worker count.  No generator is resumed per pair.
        Everything a run accumulates (disk, counters, *stats*) is local
        to this generator — never an attribute of the driver — so
        iterators open on one driver share nothing, and *stats* is
        complete once it is exhausted (:meth:`_finalize_stats`).
        """
        disk = SimulatedDisk(self.cost_model)
        cpu = {
            PHASE_PARTITION: CpuCounters(),
            PHASE_REPARTITION: CpuCounters(),
            PHASE_JOIN: CpuCounters(),
            PHASE_DEDUP: CpuCounters(),
        }
        #: ``(pages read, counters, wall seconds)`` per leaf, in join order.
        leaf_costs: List[Tuple[int, CpuCounters, float]] = []
        if columns is None:
            self._finalize_stats(stats, disk, cpu, leaf_costs)
            return

        # The columnar leaf's id runs arrive xl-sorted, the tuple leaf's
        # in input order.
        columnar = columnar_engine(self.internal_name)

        kpe_bytes = self.cost_model.kpe_bytes
        space = Space.of(columns.left, columns.right)
        n_partitions = estimate_partitions(
            len(columns.left), len(columns.right), kpe_bytes, self.memory_bytes,
            self.t_factor,
        )
        # At least one task per worker.
        n_partitions = max(n_partitions, self.workers)
        grid = TileGrid.for_partitions(space, n_partitions, self.tiles_per_partition)
        stats.n_partitions = n_partitions

        tracer = self.tracer
        with tracer.span(
            "pbsm",
            kind=KIND_RUN,
            internal=self.internal_name,
            dedup=self.dedup,
            executor=stats.executor or None,
            workers=stats.n_workers or None,
        ):
            # --- phase 1: partitioning -----------------------------------
            with tracer.span(
                PHASE_PARTITION, cpu=cpu[PHASE_PARTITION], disk=disk
            ) as sp:
                # Both inputs' id runs into files ``R.*``/``S.*``;
                # *reused* counts the sides whose runs came out of a
                # read-only relation's partition memo (same charges).
                reused = 0
                sides: List[Tuple[List[PageFile], int]] = []
                with disk.phase(PHASE_PARTITION):
                    for cols, prefix in ((columns.left, "R"), (columns.right, "S")):
                        reused += partition_memoized(cols, grid, columnar)
                        sides.append(
                            partition_relation(
                                cols, grid, disk, kpe_bytes, cpu[PHASE_PARTITION],
                                prefix, emit="ids", by_xl=columnar,
                            )
                        )
                (left_files, n_left), (right_files, n_right) = sides
                sp.add_counters({"partitions_reused": reused})
                stats.records_partitioned = n_left + n_right
                stats.replicas_created = (
                    n_left + n_right - len(columns.left) - len(columns.right)
                )
            stats.wall_seconds_by_phase[PHASE_PARTITION] = sp.wall_seconds

            # --- candidate sink -------------------------------------------
            candidate_file: Optional[PageFile] = None
            candidate_writer = None
            if self.dedup == "sort":
                candidate_file = PageFile(disk, self.cost_model.result_bytes, "cands")
                candidate_writer = candidate_file.writer(buffer_pages=1)
                sides = _row_oids(columns, boxed=True)

            # --- phases 2+3: (re)partition & join --------------------------
            # Top-level pairs stacked so that partition 0 is looked at first.
            pending: List[Tuple[PageFile, PageFile, Region, int]] = [
                (left_files[pid], right_files[pid], ((grid, pid),), 0)
                for pid in reversed(range(n_partitions))
            ]
            join_cpu = cpu[PHASE_JOIN]
            with tracer.span(PHASE_JOIN, cpu=join_cpu, disk=disk) as sp:
                leaves = self._leaves(
                    pending, space, columns, disk, cpu[PHASE_REPARTITION], stats
                )
                for (file_left, file_right, _), outcome in self._run_leaves(
                    leaves, columns, disk, stats
                ):
                    pairs, suppressed, counters, wall = outcome
                    join_cpu.add(counters)
                    stats.duplicates_suppressed += suppressed
                    leaf_costs.append(
                        (file_left.n_pages + file_right.n_pages, counters, wall)
                    )
                    if candidate_writer is None:
                        yield pairs
                    else:
                        # The candidate-pair writes are part of the
                        # duplicate-removal overhead (Figure 3a).
                        with disk.phase(PHASE_DEDUP):
                            candidate_writer.write_many(PairRows(pairs, sides))
                sp.add_counters(
                    {
                        "bytes_shipped": stats.ipc_bytes_shipped,
                        "ipc_seconds": stats.ipc_seconds,
                    }
                )
            stats.wall_seconds_by_phase[PHASE_JOIN] = sp.wall_seconds

            # --- phase 4: sort-based duplicate removal ---------------------
            if candidate_writer is not None:
                with tracer.span(
                    PHASE_DEDUP, cpu=cpu[PHASE_DEDUP], disk=disk
                ) as sp:
                    with disk.phase(PHASE_DEDUP):
                        candidate_writer.close()
                        unique, removed = sort_based_dedup(
                            candidate_file, self.memory_bytes, cpu[PHASE_DEDUP]
                        )
                    stats.duplicates_sorted_out = removed
                stats.wall_seconds_by_phase[PHASE_DEDUP] = sp.wall_seconds
                yield unique
        self._finalize_stats(stats, disk, cpu, leaf_costs)

    def _leaves(
        self,
        pending: List[Tuple[PageFile, PageFile, Region, int]],
        space: Space,
        columns: "_Columns",
        disk: SimulatedDisk,
        cpu: CpuCounters,
        stats: JoinStats,
    ) -> Iterator[Leaf]:
        """The recursion of Section 3.2.3: yield the pairs to join as they are.

        *pending* is the stack of ``(file_left, file_right, region,
        depth)`` still to look at, next one last.  A pair over the budget
        is replaced by its sub-pairs — the larger side split by a finer
        grid, each sub-partition against the whole other side; every
        other non-empty pair is a leaf ``(file_left, file_right, region)``,
        in the order a depth-first recursion joins them.  The files hold
        row ids into *columns*; an argument like the rest of the run's
        state, never stored, so nothing keeps it alive once the generator
        is done.  Past ``MAX_REPARTITION_DEPTH`` splits a pair is joined
        over the budget (counted in ``stats.memory_overruns``).
        """
        while pending:
            file_left, file_right, region, depth = pending.pop()
            if file_left.n_records == 0 or file_right.n_records == 0:
                # An empty side produces nothing.  This must short-circuit
                # *before* the memory check: otherwise an over-budget partner
                # would be repartitioned once per empty sub-partition,
                # exploding the recursion on unsplittable (e.g. all-identical)
                # inputs.
                continue
            pair_bytes = file_left.n_bytes + file_right.n_bytes
            fits = pair_bytes <= self.memory_bytes
            splittable = max(file_left.n_records, file_right.n_records) > 2
            if fits or not splittable or depth >= MAX_REPARTITION_DEPTH:
                if not fits:
                    stats.memory_overruns += 1
                if pair_bytes > stats.peak_memory_bytes:
                    stats.peak_memory_bytes = pair_bytes
                yield file_left, file_right, region
                continue
            # Split the larger partition; each sub-partition meets the other.
            stats.repartition_events += 1
            left_is_larger = file_left.n_bytes >= file_right.n_bytes
            larger = file_left if left_is_larger else file_right
            smaller = file_right if left_is_larger else file_left
            k = choose_split(
                larger.n_bytes, smaller.n_bytes, self.memory_bytes, self.t_factor
            )
            with disk.phase(PHASE_REPARTITION):
                subfiles, subgrid = split_partition_ids(
                    larger,
                    columns.left if left_is_larger else columns.right,
                    k, space, disk, cpu, self.tiles_per_partition,
                    f"{larger.name}.d{depth}",
                )
            if max(f.n_records for f in subfiles) >= larger.n_records:
                # No progress: every record overlaps (nearly) every tile, so a
                # sub-partition is as large as its parent — e.g. all-identical
                # rectangles.  Recursing would multiply work without shrinking
                # anything; join the original pair directly instead.
                pending.append((file_left, file_right, region, MAX_REPARTITION_DEPTH))
                continue
            for sub_pid in reversed(range(len(subfiles))):
                sub = subfiles[sub_pid]
                sides = (sub, smaller) if left_is_larger else (smaller, sub)
                # Parent region AND sub-region (Section 3.2.3).
                pending.append((*sides, region + ((subgrid, sub_pid),), depth + 1))

    def _run_leaves(
        self,
        leaves: Iterable[Leaf],
        columns: "_Columns",
        disk: SimulatedDisk,
        stats: JoinStats,
    ) -> Iterator[Tuple[Leaf, LeafOutcome]]:
        """Join each leaf: on the warm pool when the leaves really fan out
        (``stats.executor == "process"``, all of them at once), else in
        this process as the recursion hands it out, every leaf with a
        ``task`` span when the tracer records."""
        tracer = self.tracer
        if stats.executor == "process":
            yield from execute_process(
                list(leaves), columns, disk, stats, self.internal_name, tracer
            )
            return
        for leaf in leaves:
            file_left, file_right, region = leaf
            l_ids, r_ids = read_leaf(disk, file_left, file_right)
            started = time.perf_counter()
            counters = CpuCounters()
            pairs, suppressed = join_leaf(
                self.internal_name, columns.left, columns.right, l_ids, r_ids,
                region, self.dedup, counters,
            )
            wall = time.perf_counter() - started
            if tracer.recording:
                tracer.add_span(
                    "task", wall, kind=KIND_TASK, counters=counters.as_dict(),
                    pid=region[0][1],
                )
            yield leaf, (pairs, suppressed, counters, wall)


    def _finalize_stats(
        self,
        stats: JoinStats,
        disk: SimulatedDisk,
        cpu: Dict[str, CpuCounters],
        leaf_costs: List[Tuple[int, CpuCounters, float]],
    ) -> None:
        """The one accounting rule, an empty side included (zero-filled
        phases): each phase is charged its counters and its I/O, except
        that with ``workers > 1`` the join phase is the LPT makespan of
        the leaves on W workers, each leaf costing its two reads (one
        request each) plus its CPU counters.  The makespan mixes the
        leaves' reads and CPU; it counts as CPU."""
        cost = self.cost_model
        stats.io_units_by_phase = units = disk.units_by_phase()
        stats.io_pages_by_phase = disk.pages_by_phase()
        stats.cpu_by_phase = {
            phase: counters.as_dict() for phase, counters in cpu.items()
        }
        stats.sim_io_seconds = cost.io_seconds(disk.total_units())
        stats.sim_cpu_seconds = sum(
            cost.cpu_seconds(counters) for counters in cpu.values()
        )
        stats.sim_seconds_by_phase = {
            phase: cost.cpu_seconds(counters) + cost.io_seconds(units.get(phase, 0.0))
            for phase, counters in cpu.items()
        }
        if self.workers > 1:
            makespan, _loads = lpt_schedule(
                [
                    cost.io_seconds(cost.pt_ratio * 2 + pages) + cost.cpu_seconds(counters)
                    for pages, counters, _ in leaf_costs
                ],
                self.workers,
            )
            stats.sim_seconds_by_phase[PHASE_JOIN] = makespan
            stats.sim_io_seconds -= cost.io_seconds(units.get(PHASE_JOIN, 0.0))
            stats.sim_cpu_seconds = sum(stats.sim_seconds_by_phase.values()) - stats.sim_io_seconds
            stats.join_busy_seconds = sum((wall for _, _, wall in leaf_costs), 0.0)
            if stats.executor != "process":
                # In process, the tasks' elapsed time is the join phase's.
                stats.join_makespan_seconds = stats.wall_seconds_by_phase.get(PHASE_JOIN, 0.0)


class _Columns(NamedTuple):
    """Both inputs' columns, validated (:func:`checked_columns`)."""

    left: ColumnarRelation
    right: ColumnarRelation


def _columns(left: Sequence[Tuple], right: Sequence[Tuple]) -> Optional[_Columns]:
    """Both inputs' validated columns; ``None`` when a side is empty
    (nothing is joined, so nothing is validated)."""
    if not left or not right:
        return None
    return _Columns(checked_columns(left, "left"), checked_columns(right, "right"))


def concat_rows(pieces: Iterable[Tuple[Any, Any]]) -> Tuple[Any, Any]:
    """The leaves' ``(rid, sid)`` pieces, each side concatenated once in
    leaf order."""
    rids: List[Any] = []
    sids: List[Any] = []
    for rid, sid in pieces:
        rids.append(rid)
        sids.append(sid)
    empty = np.empty(0, dtype=np.int64)
    return np.concatenate([empty, *rids]), np.concatenate([empty, *sids])


#: What an empty side's row positions decode through: no rows.
_NO_ROWS = (RowOids(np.empty(0, dtype=np.int64)), RowOids(np.empty(0, dtype=np.int64)))


def _row_oids(columns: _Columns, boxed: bool = False) -> Tuple[RowOids, RowOids]:
    """Each input's oid column and oid objects: what row positions decode
    through (:class:`~repro.core.result.PairRows`).  *boxed* boxes a
    columnar input's column now, once for a run that decodes leaf by
    leaf, rather than on every read of a result."""
    left, right = (RowOids(cols.oid, cols.oid_objects) for cols in columns)
    if boxed:
        left = RowOids(left.column, oid_objects(left))
        right = RowOids(right.column, oid_objects(right))
    return left, right
