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
* ``dedup="twolayer"`` — duplicate *avoidance* (Tsitsigkos et al.'s
  two-layer corner classes, :mod:`repro.pbsm.twolayer`): per tile, both
  inputs are classified by where their low corners fall and only the nine
  cross-class mini-joins run, so every result is produced exactly once by
  construction — zero reference-point tests, zero sorting, and results
  stream like RPM's.

The internal algorithm (list sweep, trie sweep, ...) is pluggable, which is
how Figures 4/5/12 are driven.  Execution is exposed as a generator
(:meth:`PBSM.iter_pairs`) so the operator layer can demonstrate the
pipelining difference; :meth:`PBSM.run` simply drains it.

Two engines share the phases, the recursion of Section 3.2.3 and every
simulated charge.  The *tuple* engine (any internal algorithm; the paper's
subject, and the only one without numpy) streams KPE tuples through the
partition files.  The *columnar* engine (``internal="sweep_numpy"`` on the
numpy backend, what :func:`repro.spatial_join` runs by default) partitions
row ids over the inputs' five columns, gathers rows per partition pair
into the id-pair kernels, and builds oid tuples only where pairs leave the
generator — ``docs/kernels.md``, "Columnar sequential driver".
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
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
from repro.kernels.backend import active_backend, numpy_enabled
from repro.kernels.columnar import ColumnarRelation, checked_columns
from repro.kernels.rpm import region_join_ids, rpm_join_ids
from repro.kernels.twolayer import twolayer_join_ids
from repro.obs.trace import KIND_RUN, NULL_TRACER
from repro.pbsm.dedup import sort_based_dedup
from repro.pbsm.estimator import estimate_partitions
from repro.pbsm.grid import TileGrid
from repro.pbsm.partitioner import partition_relation
from repro.pbsm.repartition import (
    choose_split,
    compose_region_test,
    split_partition,
    split_partition_ids,
)
from repro.pbsm.twolayer import twolayer_partition_join

DEDUP_MODES = ("rpm", "twolayer", "sort", "none")

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
        Registry name of the in-memory join algorithm ("sweep_list",
        "sweep_trie", "nested_loops", "sweep_tree").
    dedup:
        "rpm" (online reference-point method), "twolayer" (corner-class
        duplicate avoidance — no per-pair work at all), "sort" (original
        final sorting phase), or "none" (emit duplicates — for analysis
        only).
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
        max_repartition_depth: int = 8,
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
        pairs = list(self._generate(left, right, stats))
        self._finalize_stats(stats)
        stats.n_results = len(pairs)
        return JoinResult(pairs=pairs, stats=stats)

    def iter_pairs(
        self,
        left: Sequence[Tuple],
        right: Sequence[Tuple],
        stats: Optional[JoinStats] = None,
    ) -> Iterator[Tuple[int, int]]:
        """Yield result pairs as the join produces them.

        With ``dedup="rpm"`` pairs stream out during the join phase; with
        ``dedup="sort"`` nothing is yielded until the final sorting phase
        has completed — the behaviour the paper's pipelining argument is
        about.  ``stats`` (if given) is populated when the iterator is
        exhausted.
        """
        own_stats = stats if stats is not None else self._new_stats(left, right)
        yield from self._generate(left, right, own_stats)
        self._finalize_stats(own_stats)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _new_stats(self, left: Sequence[Tuple], right: Sequence[Tuple]) -> JoinStats:
        dedup_tag = {
            "rpm": "RPM",
            "twolayer": "2L",
            "sort": "PD",
            "none": "nodedup",
        }[self.dedup]
        backend = active_backend() if self.internal_name == "sweep_numpy" else ""
        return JoinStats(
            algorithm=f"PBSM({self.internal_name},{dedup_tag})",
            backend=backend,
            n_left=len(left),
            n_right=len(right),
        )

    def _generate(
        self,
        left: Sequence[Tuple],
        right: Sequence[Tuple],
        stats: JoinStats,
    ) -> Iterator[Tuple[int, int]]:
        disk = SimulatedDisk(self.cost_model)
        cpu = {
            PHASE_PARTITION: CpuCounters(),
            PHASE_REPARTITION: CpuCounters(),
            PHASE_JOIN: CpuCounters(),
            PHASE_DEDUP: CpuCounters(),
        }
        self._disk = disk
        self._cpu = cpu
        self._stats = stats
        if not left or not right:
            return

        # ``sweep_numpy`` on the numpy backend never touches a KPE tuple:
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
            backend=stats.backend or None,
        ):
            # --- phase 1: partitioning -----------------------------------
            with tracer.span(
                PHASE_PARTITION, cpu=cpu[PHASE_PARTITION], disk=disk
            ) as sp:
                with disk.phase(PHASE_PARTITION):
                    left_files, n_left_written = partition_relation(
                        rel_left, grid, disk, kpe_bytes, cpu[PHASE_PARTITION],
                        "R", emit=emit,
                    )
                    right_files, n_right_written = partition_relation(
                        rel_right, grid, disk, kpe_bytes, cpu[PHASE_PARTITION],
                        "S", emit=emit,
                    )
                stats.records_partitioned = n_left_written + n_right_written
                stats.replicas_created = (
                    stats.records_partitioned - len(left) - len(right)
                )
            stats.wall_seconds_by_phase[PHASE_PARTITION] = sp.wall_seconds

            # --- candidate sink -------------------------------------------
            candidate_file: Optional[PageFile] = None
            candidate_writer = None
            if self.dedup == "sort":
                candidate_file = PageFile(
                    disk, self.cost_model.result_bytes, "cands"
                )
                candidate_writer = candidate_file.writer(buffer_pages=1)

            # --- phases 2+3: (re)partition & join --------------------------
            with tracer.span(PHASE_JOIN, cpu=cpu[PHASE_JOIN], disk=disk) as sp:
                for pid in range(n_partitions):
                    yield from self._join_pair(
                        left_files[pid],
                        right_files[pid],
                        ((grid, pid),),
                        space,
                        candidate_writer,
                        0,
                        columns,
                    )
            stats.wall_seconds_by_phase[PHASE_JOIN] = sp.wall_seconds

            # --- phase 4: sort-based duplicate removal ---------------------
            if self.dedup == "sort":
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
                yield from unique

    def _join_pair(
        self,
        file_left: PageFile,
        file_right: PageFile,
        region: Region,
        space: Space,
        candidate_writer: Any,
        depth: int,
        columns: Optional["_Columns"],
    ) -> Iterator[Tuple[int, int]]:
        """Join one pair of partitions, repartitioning if necessary.

        *columns* is ``None`` for the tuple engine (the files hold
        records) and the inputs' columns for the columnar one (the files
        hold row ids); it is passed down, never stored, so nothing keeps
        the columns alive once the generator is done.
        """
        stats = self._stats
        if file_left.n_records == 0 or file_right.n_records == 0:
            # An empty side produces nothing.  This must short-circuit
            # *before* the memory check: otherwise an over-budget partner
            # would be repartitioned once per empty sub-partition,
            # exploding the recursion on unsplittable (e.g. all-identical)
            # inputs.
            return
        pair_bytes = file_left.n_bytes + file_right.n_bytes
        fits = pair_bytes <= self.memory_bytes
        splittable = max(file_left.n_records, file_right.n_records) > 2
        if not fits and splittable and depth < self.max_repartition_depth:
            stats.repartition_events += 1
            yield from self._repartition(
                file_left, file_right, region, space, candidate_writer, depth,
                columns,
            )
            return
        if not fits:
            stats.memory_overruns += 1
        if pair_bytes > stats.peak_memory_bytes:
            stats.peak_memory_bytes = pair_bytes
        cpu = self._cpu[PHASE_JOIN]
        pairs: Iterable[Tuple[int, int]]
        if columns is None:
            with self._disk.phase(PHASE_JOIN):
                records_left = file_left.read_all()
                records_right = file_right.read_all()
            pairs, suppressed = tuple_leaf(
                records_left, records_right, region, self.dedup, self.internal, cpu
            )
        else:
            with self._disk.phase(PHASE_JOIN):
                a = columns.left.rows(file_left.read_view())
                b = columns.right.rows(file_right.read_view())
            rid, sid, suppressed = columnar_leaf(a, b, region, self.dedup, cpu)
            # The kernels saw row positions as oids; the pairs are decoded
            # through the inputs' own oid objects, per partition pair, as
            # this plain iterator is drained (no generator level per pair).
            pairs = zip(
                map(columns.left_oids.__getitem__, rid.tolist()),
                map(columns.right_oids.__getitem__, sid.tolist()),
            )
        stats.duplicates_suppressed += suppressed
        if self.dedup == "sort":
            # The candidate-pair writes are part of the duplicate-removal
            # overhead (Figure 3a).
            with self._disk.phase(PHASE_DEDUP):
                candidate_writer.write_many(pairs)
        else:
            yield from pairs

    def _repartition(
        self,
        file_left: PageFile,
        file_right: PageFile,
        region: Region,
        space: Space,
        candidate_writer: Any,
        depth: int,
        columns: Optional["_Columns"],
    ) -> Iterator[Tuple[int, int]]:
        """Split the larger partition and recurse on each sub-pair."""
        left_is_larger = file_left.n_bytes >= file_right.n_bytes
        larger = file_left if left_is_larger else file_right
        smaller = file_right if left_is_larger else file_left
        k = choose_split(
            larger.n_bytes, smaller.n_bytes, self.memory_bytes, self.t_factor
        )
        cpu = self._cpu[PHASE_REPARTITION]
        split_args = (
            k,
            space,
            self._disk,
            cpu,
            self.tiles_per_partition,
            self.tile_mapping,
            f"{larger.name}.d{depth}",
        )
        with self._disk.phase(PHASE_REPARTITION):
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
            yield from self._join_pair(
                file_left,
                file_right,
                region,
                space,
                candidate_writer,
                self.max_repartition_depth,
                columns,
            )
            return
        for sub_pid, subfile in enumerate(subfiles):
            # Parent region AND sub-region (Section 3.2.3).
            sub_region = region + ((subgrid, sub_pid),)
            sub_left = subfile if left_is_larger else smaller
            sub_right = smaller if left_is_larger else subfile
            yield from self._join_pair(
                sub_left, sub_right, sub_region, space, candidate_writer,
                depth + 1, columns,
            )

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def _finalize_stats(self, stats: JoinStats) -> None:
        disk = self._disk
        cpu = self._cpu
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

    ``left_oids``/``right_oids`` are the inputs' *own* oid objects in row
    order, which is what result pairs are built from: indexing an oid
    column instead would allocate two fresh ints per result pair.
    """

    left: ColumnarRelation
    right: ColumnarRelation
    left_oids: List[int]
    right_oids: List[int]

    @classmethod
    def of(cls, left: Sequence[Tuple], right: Sequence[Tuple]) -> "_Columns":
        return cls(
            checked_columns(left, "left"),
            checked_columns(right, "right"),
            _oid_objects(left),
            _oid_objects(right),
        )


def _oid_objects(kpes: Sequence[Tuple]) -> List[int]:
    """Every record's oid, boxed once (a columnar input has no tuples)."""
    columnar = getattr(kpes, "columnar", None)
    if columnar is not None:
        return columnar.oid.tolist()
    return [k[0] for k in kpes]


def columnar_engine(internal_name: str) -> bool:
    """Whether a PBSM driver runs the columnar engine for this internal."""
    return internal_name == "sweep_numpy" and numpy_enabled()


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
    end here whenever the columnar engine cannot run.
    """
    if dedup == "twolayer" and len(region) == 1:
        # Pure avoidance: classify both sides over the partition's
        # tiles and run the cross-class mini-joins.  Nothing is
        # detected and then discarded, so there is no suppression to
        # count and no per-pair test to charge.
        grid, pid = region[0]
        return (
            twolayer_partition_join(
                records_left, records_right, grid, pid, internal, cpu
            ),
            0,
        )

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

    elif dedup == "twolayer":
        # Only reached under a repartitioned (composed) region, which
        # is not one grid's tiles, so per-tile avoidance cannot run.
        # The equivalent exactly-once rule — keep a pair iff the
        # intersection's *bottom-left* corner lies in this region —
        # applies instead, charged honestly as reference-point tests.
        # Top-level partitions (the no-repartition case the paper
        # benchmarks) never take this path.
        owns = _region_test(region)

        def emit(r: Tuple, s: Tuple) -> None:
            nonlocal refpoint_tests, suppressed
            refpoint_tests += 1
            rx = r[1]
            sx = s[1]
            ry = r[2]
            sy = s[2]
            x = rx if rx >= sx else sx
            y = ry if ry >= sy else sy
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

    A top-level region is one grid's tiles, so RPM and two-layer
    avoidance run their own kernels; a composed region (and the
    test-free ``"none"``/``"sort"`` modes) runs the forward scan with the
    ownership chain ANDed over each batch.  Returns
    ``(rid, sid, suppressed)``: int64 arrays of whatever the gathered
    ``oid`` columns hold.
    """
    tested = dedup in ("rpm", "twolayer")
    if tested and len(region) == 1:
        grid, pid = region[0]
        join_ids = rpm_join_ids if dedup == "rpm" else twolayer_join_ids
        return join_ids(a, b, grid, pid, cpu)
    return region_join_ids(
        a, b, region if tested else (), cpu, bottom_left=dedup == "twolayer"
    )


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
