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
produces each leaf's pairs in one piece: :meth:`PBSM.run` extends its list
leaf by leaf, and :meth:`PBSM.iter_pairs` yields from each leaf before the
next is read, so the operator layer can demonstrate the pipelining
difference.

Two engines share the phases, the recursion of Section 3.2.3 and every
simulated charge.  The *tuple* engine (any other internal algorithm; the
paper's subject) streams KPE tuples through the partition files.  The
*columnar* engine (``internal="sweep_numpy"``, what
:func:`repro.spatial_join` runs by default) partitions
row ids over the inputs' five columns, gathers rows per partition pair
into the id-pair kernels, and builds a leaf's oid tuples with one gather
per side — ``docs/kernels.md``, "Columnar sequential driver".
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.phases import (
    PHASE_DEDUP,
    PHASE_JOIN,
    PHASE_PARTITION,
    PHASE_REPARTITION,
)
from repro.core.result import JoinResult, JoinStats
from repro.core.space import Space
from repro.core.stats import CpuCounters
from repro.internal import internal_algorithm
from repro.io.costmodel import CostModel
from repro.io.disk import SimulatedDisk
from repro.io.pagefile import PageFile
from repro.kernels.columnar import ColumnarRelation, checked_columns
from repro.kernels.rpm import region_join_ids, rpm_join_ids
from repro.kernels.sweep import _charge_batch_sort
from repro.obs.trace import KIND_RUN, NULL_TRACER
from repro.pbsm.dedup import sort_based_dedup
from repro.pbsm.estimator import estimate_partitions
from repro.pbsm.grid import TileGrid
from repro.pbsm.partitioner import partition_inputs
from repro.pbsm.repartition import (
    MAX_REPARTITION_DEPTH,
    choose_split,
    compose_region_test,
    split_partition,
    split_partition_ids,
)

DEDUP_MODES = ("rpm", "sort", "none")

#: The region a partition pair owns, as a chain of ``(grid, pid)``
#: ownership tests: one entry for a top-level partition (the union of its
#: tiles), one more per repartitioning step — parent region AND
#: sub-region.  The tuple engine folds it into a scalar predicate, the
#: columnar engine ANDs it over whole batches of reference points.
Region = Tuple[Tuple[TileGrid, int], ...]


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
        "rpm" (online reference-point method), "sort" (original final
        sorting phase), or "none" (emit duplicates — for analysis only).
    t_factor:
        Safety factor on formula (1) (Section 3.2.3); 1.0 = original.
    tiles_per_partition / tile_mapping:
        Grid shape: NT ~= P * tiles_per_partition tiles, assigned to
        partitions by "hash" (default, as suggested by Patel & DeWitt) or
        "round_robin".
    """

    def __init__(
        self,
        memory_bytes: int,
        *,
        internal: str = "sweep_list",
        dedup: str = "rpm",
        t_factor: float = 1.2,
        tiles_per_partition: int = 4,
        tile_mapping: str = "hash",
        cost_model: Optional[CostModel] = None,
        max_repartition_depth: int = MAX_REPARTITION_DEPTH,
        tracer: Optional[Any] = None,
    ) -> None:
        if memory_bytes <= 0:
            raise ValueError("memory_bytes must be positive")
        if dedup not in DEDUP_MODES:
            raise ValueError(f"dedup must be one of {DEDUP_MODES}, got {dedup!r}")
        self.memory_bytes = memory_bytes
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.internal_name = internal
        self.internal = internal_algorithm(internal)
        self.dedup = dedup
        self.t_factor = t_factor
        self.tiles_per_partition = tiles_per_partition
        self.tile_mapping = tile_mapping
        self.cost_model = cost_model or CostModel()
        self.max_repartition_depth = max_repartition_depth

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self, left: Sequence[Tuple], right: Sequence[Tuple]) -> JoinResult:
        """Execute the join and return all result pairs plus statistics."""
        stats = self._new_stats(left, right)
        pairs: List[Tuple[int, int]] = []
        for leaf_pairs in self._join_leaves(left, right, stats):
            pairs.extend(leaf_pairs)
        stats.n_results = len(pairs)
        return JoinResult(pairs=pairs, stats=stats)

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
        own_stats = stats if stats is not None else self._new_stats(left, right)
        for leaf_pairs in self._join_leaves(left, right, own_stats):
            yield from leaf_pairs

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _new_stats(self, left: Sequence[Tuple], right: Sequence[Tuple]) -> JoinStats:
        dedup_tag = {
            "rpm": "RPM",
            "sort": "PD",
            "none": "nodedup",
        }[self.dedup]
        return JoinStats(
            algorithm=f"PBSM({self.internal_name},{dedup_tag})",
            n_left=len(left),
            n_right=len(right),
        )

    def _join_leaves(
        self,
        left: Sequence[Tuple],
        right: Sequence[Tuple],
        stats: JoinStats,
    ) -> Iterator[Iterable[Tuple[int, int]]]:
        """Run the phases; yield each leaf's result pairs as one iterable.

        The one loop both :meth:`run` and :meth:`iter_pairs` drain: no
        generator is resumed per pair.  Everything a run accumulates
        (disk, counters, *stats*) is local to this generator — never an
        attribute of the driver — so iterators open on one driver share
        nothing, and *stats* is complete once it is exhausted.
        """
        disk = SimulatedDisk(self.cost_model)
        cpu = {
            PHASE_PARTITION: CpuCounters(),
            PHASE_REPARTITION: CpuCounters(),
            PHASE_JOIN: CpuCounters(),
            PHASE_DEDUP: CpuCounters(),
        }
        if not left or not right:
            self._finalize_stats(stats, disk, cpu)
            return

        # ``sweep_numpy`` never touches a KPE tuple:
        # extent, partitioning, repartitioning and the leaves all read the
        # five columns (already there for mapped inputs, built once
        # otherwise) and the partition files hold row ids.
        columns: Optional[_Columns] = None
        rel_left: Any = left
        rel_right: Any = right
        if columnar_engine(self.internal_name):
            columns = _Columns.of(left, right)
            rel_left = columns.left
            rel_right = columns.right
        emit = "records" if columns is None else "ids"
        # The columnar leaf's inputs arrive xl-sorted (one order per input,
        # here); the tuple leaf's internals emit in file order.
        by_xl = columns is not None

        kpe_bytes = self.cost_model.kpe_bytes
        space = Space.of(rel_left, rel_right)
        n_partitions = estimate_partitions(
            len(left), len(right), kpe_bytes, self.memory_bytes, self.t_factor
        )
        grid = TileGrid.for_partitions(
            space, n_partitions, self.tiles_per_partition, self.tile_mapping
        )
        stats.n_partitions = n_partitions

        tracer = self.tracer
        with tracer.span(
            "pbsm",
            kind=KIND_RUN,
            internal=self.internal_name,
            dedup=self.dedup,
        ):
            # --- phase 1: partitioning -----------------------------------
            with tracer.span(
                PHASE_PARTITION, cpu=cpu[PHASE_PARTITION], disk=disk
            ) as sp:
                with disk.phase(PHASE_PARTITION):
                    left_files, right_files, written, reused = partition_inputs(
                        rel_left, rel_right, grid, disk, kpe_bytes,
                        cpu[PHASE_PARTITION], emit, by_xl,
                    )
                sp.add_counters({"partitions_reused": reused})
                stats.records_partitioned = written
                stats.replicas_created = written - len(left) - len(right)
            stats.wall_seconds_by_phase[PHASE_PARTITION] = sp.wall_seconds

            # --- candidate sink -------------------------------------------
            candidate_file: Optional[PageFile] = None
            candidate_writer = None
            if self.dedup == "sort":
                candidate_file = PageFile(disk, self.cost_model.result_bytes, "cands")
                candidate_writer = candidate_file.writer(buffer_pages=1)

            # --- phases 2+3: (re)partition & join --------------------------
            # Top-level pairs stacked so that partition 0 is looked at first.
            pending: List[Tuple[PageFile, PageFile, Region, int]] = [
                (left_files[pid], right_files[pid], ((grid, pid),), 0)
                for pid in reversed(range(n_partitions))
            ]
            join_cpu = cpu[PHASE_JOIN]
            with tracer.span(PHASE_JOIN, cpu=join_cpu, disk=disk) as sp:
                for file_left, file_right, region in self._leaves(
                    pending, space, columns, disk, cpu[PHASE_REPARTITION], stats
                ):
                    pairs: Iterable[Tuple[int, int]]
                    if columns is None:
                        with disk.phase(PHASE_JOIN):
                            records_left = file_left.read_all()
                            records_right = file_right.read_all()
                        pairs, suppressed = tuple_leaf(
                            records_left, records_right, region, self.dedup,
                            self.internal, join_cpu,
                        )
                    else:
                        with disk.phase(PHASE_JOIN):
                            a = columns.left.rows(file_left.read_view(), sorted_by_xl=True)
                            b = columns.right.rows(file_right.read_view(), sorted_by_xl=True)
                        rid, sid, suppressed = columnar_leaf(
                            a, b, region, self.dedup, join_cpu
                        )
                        # The kernels saw row positions as oids: one gather
                        # per side through the inputs' own oid objects.
                        pairs = zip(
                            columns.left_oids[rid].tolist(),
                            columns.right_oids[sid].tolist(),
                        )
                    stats.duplicates_suppressed += suppressed
                    if candidate_writer is None:
                        yield pairs
                    else:
                        # The candidate-pair writes are part of the
                        # duplicate-removal overhead (Figure 3a).
                        with disk.phase(PHASE_DEDUP):
                            candidate_writer.write_many(pairs)
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
        self._finalize_stats(stats, disk, cpu)

    def _leaves(
        self,
        pending: List[Tuple[PageFile, PageFile, Region, int]],
        space: Space,
        columns: Optional["_Columns"],
        disk: SimulatedDisk,
        cpu: CpuCounters,
        stats: JoinStats,
    ) -> Iterator[Tuple[PageFile, PageFile, Region]]:
        """The recursion of Section 3.2.3: yield the pairs to join as they are.

        *pending* is the stack of ``(file_left, file_right, region,
        depth)`` still to look at, next one last.  A pair over the budget
        is replaced by its sub-pairs — the larger side split by a finer
        grid, each sub-partition against the whole other side; every
        other non-empty pair is a leaf ``(file_left, file_right, region)``,
        in the order a depth-first recursion joins them.  *columns* is
        ``None`` for the tuple engine (the files hold records) and the
        inputs' columns for the columnar one (row ids); an argument like
        the rest of the run's state, never stored, so nothing keeps it
        alive once the generator is done.
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
            if fits or not splittable or depth >= self.max_repartition_depth:
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
            split_args = (
                k, space, disk, cpu, self.tiles_per_partition, self.tile_mapping,
                f"{larger.name}.d{depth}",
            )
            with disk.phase(PHASE_REPARTITION):
                if columns is None:
                    subfiles, subgrid = split_partition(larger, *split_args)
                else:
                    subfiles, subgrid = split_partition_ids(
                        larger,
                        columns.left if left_is_larger else columns.right,
                        *split_args,
                    )
            if max(f.n_records for f in subfiles) >= larger.n_records:
                # No progress: every record overlaps (nearly) every tile, so a
                # sub-partition is as large as its parent — e.g. all-identical
                # rectangles.  Recursing would multiply work without shrinking
                # anything; join the original pair directly instead.
                pending.append(
                    (file_left, file_right, region, self.max_repartition_depth)
                )
                continue
            for sub_pid in reversed(range(len(subfiles))):
                sub = subfiles[sub_pid]
                sides = (sub, smaller) if left_is_larger else (smaller, sub)
                # Parent region AND sub-region (Section 3.2.3).
                pending.append((*sides, region + ((subgrid, sub_pid),), depth + 1))

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def _finalize_stats(
        self, stats: JoinStats, disk: SimulatedDisk, cpu: Dict[str, CpuCounters]
    ) -> None:
        cost = self.cost_model
        stats.io_units_by_phase = disk.units_by_phase()
        stats.io_pages_by_phase = disk.pages_by_phase()
        stats.cpu_by_phase = {
            phase: counters.as_dict() for phase, counters in cpu.items()
        }
        stats.sim_io_seconds = cost.io_seconds(disk.total_units())
        stats.sim_cpu_seconds = sum(
            cost.cpu_seconds(counters) for counters in cpu.values()
        )
        by_phase = {}
        units = stats.io_units_by_phase
        for phase, counters in cpu.items():
            by_phase[phase] = cost.cpu_seconds(counters) + cost.io_seconds(
                units.get(phase, 0.0)
            )
        stats.sim_seconds_by_phase = by_phase


class _Columns(NamedTuple):
    """The columnar engine's inputs: both relations' columns and oids.

    ``left_oids``/``right_oids`` are numpy *object* arrays of the inputs'
    *own* oid objects in row order, which is what result pairs are built
    from (``oids[rid].tolist()``, one gather per leaf and side): indexing
    an int64 oid column instead would allocate two fresh ints per result
    pair.
    """

    left: ColumnarRelation
    right: ColumnarRelation
    left_oids: Any
    right_oids: Any

    @classmethod
    def of(cls, left: Sequence[Tuple], right: Sequence[Tuple]) -> "_Columns":
        cols_left = checked_columns(left, "left")
        cols_right = checked_columns(right, "right")
        return cls(
            cols_left, cols_right, _oid_objects(cols_left), _oid_objects(cols_right)
        )


def _oid_objects(cols: ColumnarRelation) -> Any:
    """Every record's oid object: the tuples' own where the columns were
    read from tuples, else boxed once (a columnar input has no tuples)."""
    if cols.oid_objects is not None:
        return cols.oid_objects
    return cols.oid.astype(object)


def columnar_engine(internal_name: str) -> bool:
    """Whether a PBSM driver runs the columnar engine for this internal."""
    return internal_name == "sweep_numpy"


def tuple_leaf(
    records_left: Sequence[Tuple],
    records_right: Sequence[Tuple],
    region: Region,
    dedup: str,
    internal: Callable[..., None],
    cpu: CpuCounters,
) -> Tuple[List[Tuple[int, int]], int]:
    """The tuple engine's leaf: any internal algorithm, scalar dedup.

    Joins one partition pair's records under the ownership *region* and
    returns ``(pairs, duplicates_suppressed)``; the test-free modes
    (``"sort"``, ``"none"``) return every candidate.  Both PBSM drivers
    end here for every internal but ``sweep_numpy``.
    """
    results: List[Tuple[int, int]] = []
    refpoint_tests = 0
    suppressed = 0
    if dedup == "rpm":
        owns = _region_test(region)

        def emit(r: Tuple, s: Tuple) -> None:
            nonlocal refpoint_tests, suppressed
            refpoint_tests += 1
            rx = r[1]
            sx = s[1]
            ry = r[4]
            sy = s[4]
            x = rx if rx >= sx else sx
            y = ry if ry <= sy else sy
            if owns(x, y):
                results.append((r[0], s[0]))
            else:
                suppressed += 1

    else:  # "sort"/"none": every candidate, duplicates included

        def emit(r: Tuple, s: Tuple) -> None:
            results.append((r[0], s[0]))

    internal(records_left, records_right, emit, cpu)
    cpu.refpoint_tests += refpoint_tests
    return results, suppressed


def columnar_leaf(
    a: ColumnarRelation,
    b: ColumnarRelation,
    region: Region,
    dedup: str,
    cpu: CpuCounters,
) -> Tuple[Any, Any, int]:
    """The columnar engine's leaf: one id-pair kernel per partition pair.

    RPM under a top-level region (one grid's tiles) runs
    :func:`~repro.kernels.rpm.rpm_join_ids`; a composed region (and the
    test-free ``"none"``/``"sort"`` modes) runs the forward scan with the
    ownership chain ANDed over each batch.  Returns
    ``(rid, sid, suppressed)``: int64 arrays of whatever the gathered
    ``oid`` columns hold.

    Both PBSM drivers hand it rows already in ``xl`` order (flagged
    ``sorted_by_xl``: ``partition_ids(..., by_xl=True)``), so no kernel
    sorts here.  The paper sorts every partition pair, and its simulated
    seconds are this engine's currency too, so a sort per arriving-sorted
    side is still charged — what the kernel's own sort charged.
    """
    for side in (a, b):
        if side.sorted_by_xl:
            _charge_batch_sort(cpu, side.n)
    tested = dedup == "rpm"
    if tested and len(region) == 1:
        grid, pid = region[0]
        return rpm_join_ids(a, b, grid, pid, cpu)
    return region_join_ids(a, b, region if tested else (), cpu)


def _region_test(region: Region) -> Callable[[float, float], bool]:
    """The scalar predicate of an ownership chain (tuple engine's form)."""
    (grid, pid), *sub_regions = region

    def top(x: float, y: float) -> bool:
        return grid.partition_of_point(x, y) == pid

    owns: Callable[[float, float], bool] = top
    for subgrid, sub_pid in sub_regions:
        owns = compose_region_test(owns, subgrid, sub_pid)
    return owns


def pbsm_join(
    left: Sequence[Tuple],
    right: Sequence[Tuple],
    memory_bytes: int,
    **kwargs: Any,
) -> JoinResult:
    """Convenience one-call PBSM join (see :class:`PBSM` for options)."""
    return PBSM(memory_bytes, **kwargs).run(left, right)
