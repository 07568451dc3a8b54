"""Parallel PBSM: simulated multi-worker model and real multiprocess fan-out.

The paper's related work points to parallel spatial join processing
[BKS 96, Pat 98]; PBSM parallelises naturally because partition pairs are
independent once partitioning has replicated the data.  This module offers
three executors over the same shared-nothing decomposition:

* ``executor="simulated"`` — the analytic model: the partitioning phase is
  a single sequential scan, after which the P partition-pair join tasks —
  each with its own measured I/O + CPU cost — are scheduled onto W
  workers with the LPT (longest processing time first) heuristic.  The
  simulated total runtime is ``partition_phase + makespan``, so the
  speedup curve flattens exactly where the paper's decomposition
  predicts: the sequential partitioning fraction and the largest single
  partition bound the achievable speedup (Amdahl).
* ``executor="process"`` — the same task decomposition, actually executed:
  the join tasks are fanned out over a
  :class:`concurrent.futures.ProcessPoolExecutor`.  Results are merged
  in partition order, so the output is byte-identical to the sequential
  execution.  With ``workers=1`` the fan-out degrades gracefully to an
  in-process loop (no pool is spawned).
* ``executor="thread"`` — the same fan-out over a
  :class:`concurrent.futures.ThreadPoolExecutor`.  The columnar kernel
  spends its time inside numpy, which releases the GIL, so threads scale
  on the vectorized path while costing no process spawn, no pickling and
  no IPC at all: every thread gathers from the same columns.

Load is balanced in the partitioning, as in the paper (Sec. 3.1): many
more tiles than partitions, tiles hashed to partitions.  Dispatch is one
policy on both real executors: the tasks are LPT-packed by joined size
into ``workers x CHUNKS_PER_WORKER`` chunks, all submitted up front, and
the pool's own call queue hands the next chunk to whichever worker frees
up.  A task is never split: every pair is owned by exactly one partition
and found by that partition's one scan.  ``stats.scheduler_idle_seconds``
is the summed worker idle time the makespan hides.

A join task means one thing on every executor: the five integers
``(pid, l_lo, l_hi, r_lo, r_hi)`` — two CSR slices into the id runs the
``emit="ids"`` partitioner produced — run by one task loop
(:func:`_run_tasks`) against one source form
``(left, right, l_ids, r_ids)``.  The in-process executors (simulated,
``workers=1``, thread) hold that source as plain objects.  The process
executor loads both inputs' columns and the id arrays once into a
:class:`~repro.kernels.shm.SharedColumnarStore` segment, workers attach
by segment name, build the same source as views of the mapped pages and
gather their slices straight out of them, and result ``(rid, sid)`` oid
buffers come back through a worker-created segment — only task tuples
and manifests ever cross the pipe.  The driver never boxes those
buffers: the parent copies each task's two runs out of the result
segment, the in-process executors keep the columnar leaf's arrays, and
``run`` concatenates once in ``pid`` order into a buffer-backed
:class:`~repro.core.result.JoinResult` — a tuple exists only once a
caller reads ``result.pairs``.  (The tuple leaf in this process returns
its pair list and the result stays list-backed.)  Where that segment
cannot exist
(``shm_enabled()`` is false: no POSIX shared memory or
``REPRO_DISABLE_SHM=1``) ``executor="process"`` runs the thread executor
instead, with byte-identical output, one ``RuntimeWarning`` per process,
and ``stats.executor`` reporting what actually ran.

A task ends in one of the two leaves sequential ``PBSM`` ends in
(:func:`~repro.pbsm.join.columnar_leaf` for ``sweep_numpy``,
:func:`~repro.pbsm.join.tuple_leaf` over materialised records
otherwise), under the one-entry region ``((grid, pid),)``.  A per-run
pool installs grid, dedup mode and source once per worker through its
initializer (:func:`_pool_init`); an externally-owned persistent pool
(``repro serve``) cannot, so there the configuration rides with every
chunk (:func:`_run_dyn_chunk`).  The initializer entry stays because
routing one-shot joins through the per-chunk configuration measured
20-45 ms slower on a ~215 ms join (PR 15).

Duplicate handling is online — ``dedup="rpm"`` (the reference-point test)
or ``dedup="twolayer"`` (corner-class avoidance, zero per-pair work) —
which is what makes the parallel version correct without any cross-worker
coordination: each result is owned by exactly one partition.  The
offline ``"sort"`` mode would serialise the join behind a global sorting
phase, so it is rejected here rather than silently degraded.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
import warnings
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    cast,
)

import numpy as np

from repro.core.phases import PHASE_JOIN, PHASE_PARTITION
from repro.core.result import JoinResult, JoinStats, pair_columns
from repro.core.space import Space
from repro.core.stats import CpuCounters
from repro.internal import internal_algorithm
from repro.io.costmodel import CostModel
from repro.io.disk import SimulatedDisk
from repro.kernels.columnar import ColumnarRelation, checked_columns
from repro.kernels.shm import (
    Manifest,
    SharedColumnarStore,
    columnar_arrays,
    shm_enabled,
)
from repro.obs.trace import KIND_RUN, KIND_TASK, KIND_WORKER, NULL_TRACER
from repro.pbsm.estimator import estimate_partitions
from repro.pbsm.grid import TileGrid
from repro.pbsm.join import columnar_engine, columnar_leaf, tuple_leaf
from repro.pbsm.partitioner import partition_relation

EXECUTORS = ("simulated", "process", "thread")

#: Dedup modes the parallel driver supports: both are *online* (each pair
#: is owned by exactly one task), so no cross-worker phase is needed.
PARALLEL_DEDUP_MODES = ("rpm", "twolayer")

#: Chunks submitted per worker in process mode; >1 smooths load imbalance
#: that the up-front LPT packing cannot foresee.
CHUNKS_PER_WORKER = 4

#: Environment override raising the worker-count clamp beyond the usable
#: CPU count (tests and benches on small machines oversubscribe through
#: this on purpose).
MAX_WORKERS_ENV = "REPRO_MAX_WORKERS"

#: ``(pid, l_lo, l_hi, r_lo, r_hi)`` — one partition-pair join task, on
#: every executor: two CSR slices into the id runs of a :data:`TaskSource`.
#: Plain ints only.
IdTask = Tuple[int, int, int, int, int]

#: ``(left, right, l_ids, r_ids)`` — what a task's slices index: per side,
#: the relation and the id runs ``partition_relation(..., emit="ids")``
#: produced, concatenated in task order.  The in-process executors hold
#: plain objects (columns and id arrays for the columnar engine, the
#: input sequences and id lists for the tuple engine); a pool worker
#: builds the same four things over its attached segment(s).
TaskSource = Tuple[Any, Any, Any, Any]

#: ``(pid, pairs, suppressed, counters_dict, wall_seconds)`` — one task's
#: outcome; merging sorts by ``pid``.  ``wall_seconds`` is measured where
#: the task ran, so per-task timing survives the process boundary instead
#: of being dropped.  ``pairs`` is the ``(rid, sid)`` pair of int64 oid
#: buffers — except from the tuple leaf run in this process, whose list
#: of oid tuples is kept as it is.
TaskOutcome = Tuple[int, Any, int, Dict[str, int], float]

#: ``(worker_label, chunk_wall, task_outcomes, chunk_bytes)`` — one
#: finished chunk as :meth:`ParallelPBSM._emit_pool_spans` consumes it.
ChunkReport = Tuple[str, float, List[TaskOutcome], int]


def _grid_spec(grid: TileGrid) -> Tuple:
    """A picklable description from which a worker can rebuild the grid."""
    space = grid.space
    return (
        space.xl,
        space.yl,
        space.xh,
        space.yh,
        grid.nx,
        grid.ny,
        grid.n_partitions,
        grid.mapping,
    )


def _grid_from_spec(spec: Tuple) -> TileGrid:
    xl, yl, xh, yh, nx, ny, n_partitions, mapping = spec
    return TileGrid(Space(xl, yl, xh, yh), nx, ny, n_partitions, mapping)


def cpu_count() -> int:
    """Usable CPU count (affinity-aware where the platform supports it)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def worker_cap() -> int:
    """The largest worker count the real executors will actually spawn."""
    cap = cpu_count()
    try:
        cap = max(cap, int(os.environ.get(MAX_WORKERS_ENV, "")))
    except (TypeError, ValueError):
        pass
    return cap


#: Clamp and degrade messages already warned about in this process.  A
#: serve loop constructs one ``ParallelPBSM`` per query; re-warning the
#: same clamp on every request is noise, so each distinct message fires
#: exactly once.
_WARNED_CLAMPS: Set[str] = set()


def _warn_clamp(message: str) -> None:
    """Emit a clamp or degrade ``RuntimeWarning`` exactly once per process."""
    if message in _WARNED_CLAMPS:
        return
    _WARNED_CLAMPS.add(message)
    warnings.warn(message, RuntimeWarning, stacklevel=3)


def reset_clamp_warnings() -> None:
    """Forget previously-warned clamps (tests asserting on the warning)."""
    _WARNED_CLAMPS.clear()


def _task_records(rel: Any, ids: Any) -> List[Tuple]:
    """Rows *ids* of *rel* as records, for the tuple leaf."""
    if isinstance(rel, ColumnarRelation):
        # A pool worker's segment columns: the KPE round trip.
        return rel.take(ids).to_kpes()
    # The input sequence: the original tuple objects, in file order.
    return [rel[i] for i in ids]


def _run_tasks(
    internal_name: str,
    dedup: str,
    grid: TileGrid,
    source: TaskSource,
    tasks: Sequence[IdTask],
    as_ids: bool,
) -> Iterator[TaskOutcome]:
    """Execute join tasks against *source*, one outcome per task.

    The one per-task loop of every executor: gather the task's two id
    slices, run the engine's leaf under the one-entry region
    ``((grid, pid),)`` — online ownership by partition id, ``"rpm"`` or
    ``"twolayer"`` — and report pairs, suppression, counters and the
    task's own wall time.  The columnar leaf runs ``sweep_numpy``; every
    other internal takes the tuple leaf over materialised records.  The
    columnar leaf's pairs stay the two int64 oid buffers it returns;
    *as_ids* packs the tuple leaf's pair list into the same form (a pool
    worker's result segment holds nothing else).
    """
    left, right, l_ids, r_ids = source
    columnar = columnar_engine(internal_name)
    internal = internal_algorithm(internal_name)
    for pid, l_lo, l_hi, r_lo, r_hi in tasks:
        started = time.perf_counter()
        counters = CpuCounters()
        pairs: Any
        if columnar:
            rid, sid, suppressed = columnar_leaf(
                left.take(l_ids[l_lo:l_hi]),
                right.take(r_ids[r_lo:r_hi]),
                ((grid, pid),),
                dedup,
                counters,
            )
            pairs = (rid, sid)
        else:
            pairs, suppressed = tuple_leaf(
                _task_records(left, l_ids[l_lo:l_hi]),
                _task_records(right, r_ids[r_lo:r_hi]),
                ((grid, pid),),
                dedup,
                internal,
                counters,
            )
            if as_ids:
                pairs = pair_columns(pairs)
        yield (
            pid,
            pairs,
            suppressed,
            counters.as_dict(),
            time.perf_counter() - started,
        )


# ----------------------------------------------------------------------
# pool worker state (set once per worker by the initializer)
# ----------------------------------------------------------------------
#: ``(internal_name, dedup, grid, source)`` — :func:`_run_tasks`' fixed
#: arguments for the life of a per-run pool worker.
_POOL_RUN: Optional[Tuple[str, str, TileGrid, TaskSource]] = None
#: The attached input segment; held so the source's views stay mapped.
_POOL_STORE: Optional[SharedColumnarStore] = None


def _worker_source(
    ids: SharedColumnarStore,
    pinned: Optional[Tuple[SharedColumnarStore, SharedColumnarStore]] = None,
) -> TaskSource:
    """The :data:`TaskSource` a pool worker builds over its segment(s).

    The id runs always live in the per-run segment *ids*; the relation
    columns next to them (``L.*``/``R.*``) or, for registered datasets,
    in the two *pinned* segments (``D.*`` — pinned before anyone knew
    which side of a query they would be).  Views only, nothing copied.
    """
    if pinned is None:
        left, right = ids.relation("L"), ids.relation("R")
    else:
        left, right = pinned[0].relation("D"), pinned[1].relation("D")
    return left, right, ids["L.ids"], ids["R.ids"]


def _pool_init(
    internal_name: str, grid_spec: Tuple, manifest: Manifest, dedup: str
) -> None:
    """Process-pool initializer: rebuild per-worker state exactly once.

    The internal-algorithm name, the grid and the dedup mode are
    installed here, once per worker, and the worker attaches the input
    segment — so chunk payloads are bare task tuples.
    """
    global _POOL_RUN, _POOL_STORE
    _POOL_STORE = SharedColumnarStore.attach(manifest)
    _POOL_RUN = (
        internal_name,
        dedup,
        _grid_from_spec(grid_spec),
        _worker_source(_POOL_STORE),
    )


def _run_shm_chunk(payload: bytes) -> bytes:
    """Worker entry point of a per-run pool: the payload is the task list."""
    assert _POOL_RUN is not None
    return _chunk_blob(*_POOL_RUN, pickle.loads(payload))


def _chunk_blob(
    internal_name: str,
    dedup: str,
    grid: TileGrid,
    source: TaskSource,
    tasks: List[IdTask],
) -> bytes:
    """Run one chunk in a pool worker and serialise the result blob.

    Stores every task's ``(rid, sid)`` id buffers in a fresh
    worker-created segment and ships back only the per-task metadata
    plus that segment's manifest.  The parent attaches, copies the
    buffers out and unlinks.  The worker measures its own chunk wall
    time (and each task its own), because the parent cannot observe time
    spent inside another process — it only sees the fan-out's makespan.
    """
    started = time.perf_counter()
    metas = []
    out_arrays: Dict[str, object] = {}
    for pid, (rid, sid), suppressed, counter_dict, task_wall in _run_tasks(
        internal_name, dedup, grid, source, tasks, as_ids=True
    ):
        out_arrays[f"{pid}.rid"] = rid
        out_arrays[f"{pid}.sid"] = sid
        metas.append((pid, suppressed, counter_dict, task_wall))
    wall = time.perf_counter() - started
    # Untracked on purpose: the parent unlinks after copying out (a worker
    # crashing between here and there leaks the segment — see docs).  If
    # the reply cannot even be serialised, unlink now: the parent will
    # never see the manifest, so nobody else can clean the segment up.
    results = SharedColumnarStore.create(out_arrays, track=False)
    try:
        blob = pickle.dumps(
            (os.getpid(), wall, metas, results.manifest),
            pickle.HIGHEST_PROTOCOL,
        )
    except BaseException:
        results.unlink()
        raise
    finally:
        results.close()
    return blob


def _unlink_result_blob(blob: bytes) -> None:
    """Destroy the result segment a chunk *blob* names, undecoded."""
    with SharedColumnarStore.attach(pickle.loads(blob)[3]) as results:
        results.unlink()


# ----------------------------------------------------------------------
# dynamic-config execution (externally-owned persistent pools)
# ----------------------------------------------------------------------
#: ``(internal_name, grid_spec, dedup, ids_manifest, pinned)`` — the
#: per-query configuration a dynamic chunk carries instead of relying on
#: a pool initializer.  *ids_manifest* names the per-query segment;
#: *pinned* is ``None`` (that segment holds the columns too) or the
#: ``(left, right)`` manifests of long-lived dataset segments.
PoolConfig = Tuple[str, Tuple, str, Manifest, Optional[Tuple[Manifest, Manifest]]]

#: Long-lived attachments by segment name (pinned dataset segments);
#: lives in the worker process for the lifetime of the persistent pool.
_DYN_ATTACHED: Dict[str, SharedColumnarStore] = {}


def _pinned_store(manifest: Manifest) -> SharedColumnarStore:
    """The worker's attachment of a pinned segment, mapped at most once.

    Cached attachments stay mapped for the next query over the same
    pinned dataset — that is the amortisation a persistent pool buys.
    """
    attached = _DYN_ATTACHED.get(manifest[0])
    if attached is None:
        # Custody moves into the module-level cache: the segment stays
        # mapped for the pool's lifetime by design.
        attached = SharedColumnarStore.attach(manifest)
        _DYN_ATTACHED[manifest[0]] = attached
    return attached


def _run_dyn_chunk(payload: bytes) -> bytes:
    """Worker entry point for pools without a per-query initializer.

    A persistent pool (``repro serve``) outlives any single query, so
    per-query state cannot be installed by a pool initializer — it rides
    along with every chunk instead: the payload is the pickled
    ``(config, tasks)`` pair.  Grid rebuild is cheap; pinned dataset
    segments stay attached across queries, the per-query segment is
    scoped to the chunk, so repeated queries over registered datasets
    touch the big columns without ever re-mapping them.
    """
    (internal_name, grid_spec, dedup, ids_manifest, pinned), tasks = pickle.loads(
        payload
    )
    ids = SharedColumnarStore.attach(ids_manifest)
    try:
        stores = None
        if pinned is not None:
            stores = (_pinned_store(pinned[0]), _pinned_store(pinned[1]))
        return _chunk_blob(
            internal_name,
            dedup,
            _grid_from_spec(grid_spec),
            _worker_source(ids, stores),
            tasks,
        )
    finally:
        ids.close()


def _concat_ids(runs: List[Any], as_list: bool) -> Any:
    """One side's id runs, in task order, as the CSR ids the tasks slice.

    *as_list* boxes the partitioner's int64 runs once, for the tuple
    leaf that indexes an input sequence with them.
    """
    ids = np.concatenate(runs)
    return ids.tolist() if as_list else ids


def _task_size(task: IdTask) -> int:
    """Joined record count of a task."""
    return (task[2] - task[1]) + (task[4] - task[3])


def _chunk_tasks(tasks: List[IdTask], n_chunks: int) -> List[List[IdTask]]:
    """Pack tasks into *n_chunks* LPT-balanced chunks (by joined size)."""
    sized = sorted(tasks, key=lambda t: (-_task_size(t), t[0]))
    chunks: List[List[IdTask]] = [[] for _ in range(n_chunks)]
    loads = [0] * n_chunks
    for task in sized:
        idx = min(range(n_chunks), key=loads.__getitem__)
        chunks[idx].append(task)
        loads[idx] += _task_size(task)
    return [chunk for chunk in chunks if chunk]


def lpt_schedule(task_costs: Sequence[float], workers: int) -> Tuple[float, List[float]]:
    """Longest-processing-time-first scheduling.

    Returns ``(makespan, per-worker loads)``.  LPT is within 4/3 of the
    optimal makespan — plenty for a speedup model.
    """
    loads = [0.0] * workers
    for cost in sorted(task_costs, reverse=True):
        idx = min(range(workers), key=loads.__getitem__)
        loads[idx] += cost
    return (max(loads) if loads else 0.0), loads


class ParallelPBSM:
    """PBSM with the join phase spread over *workers* workers.

    ``executor="simulated"`` runs sequentially and *models* the parallel
    runtime; ``executor="process"`` actually fans the join tasks out over
    a process pool and ``executor="thread"`` over a thread pool (numpy
    releases the GIL inside the vectorized kernel, so threads scale on
    the ``sweep_numpy`` path with zero spawn or pickling cost).  All
    executors produce identical result pairs in identical order, and all
    report the same simulated costs — the real executors additionally
    deliver wall-clock speedup on multicore hardware.

    The result of the columnar engine (``sweep_numpy``), and
    of any internal run on a process pool, is backed by the two int64 oid
    buffers the tasks produced, merged in ``pid`` order and never boxed
    by the driver: ``len(result)`` and ``result.to_arrays()`` read them,
    ``result.pairs`` decodes them into a list on first access.

    ``dedup`` selects the online ownership scheme — ``"rpm"`` (per-pair
    reference-point test) or ``"twolayer"`` (corner-class avoidance with
    zero per-pair work); the offline ``"sort"`` mode is rejected because
    it would serialise the join behind a global sorting phase.  Every
    executor runs the same CSR id tasks over the inputs' columns,
    whatever the internal algorithm; the process
    executor ships them over one shared-memory segment and runs the
    thread executor where that segment cannot exist (module docstring);
    out-of-range worker counts are clamped with a :class:`RuntimeWarning`
    (once per process per distinct clamp) instead of raising or silently
    oversubscribing the machine.
    """

    def __init__(
        self,
        memory_bytes: int,
        workers: int = 4,
        *,
        internal: str = "sweep_trie",
        executor: str = "simulated",
        dedup: str = "rpm",
        t_factor: float = 1.2,
        tiles_per_partition: int = 4,
        cost_model: Optional[CostModel] = None,
        tracer: Optional[Any] = None,
        pool: Optional[Any] = None,
        pinned: Optional[Tuple[Manifest, Manifest]] = None,
    ) -> None:
        if memory_bytes <= 0:
            raise ValueError("memory_bytes must be positive")
        if executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS}, got {executor!r}"
            )
        if dedup not in PARALLEL_DEDUP_MODES:
            raise ValueError(
                f"ParallelPBSM dedup must be one of {PARALLEL_DEDUP_MODES}, "
                f"got {dedup!r}: offline sort-based removal would serialise "
                "the join behind a global sorting phase (use the sequential "
                "PBSM driver for dedup='sort')"
            )
        if workers < 1:
            _warn_clamp(f"workers={workers} is below 1; clamped to 1")
            workers = 1
        if executor in ("process", "thread"):
            cap = worker_cap()
            if workers > cap:
                _warn_clamp(
                    f"workers={workers} exceeds the usable CPU count ({cap}); "
                    f"clamped to {cap} (set {MAX_WORKERS_ENV} to allow "
                    "oversubscription)"
                )
                workers = cap
        self.memory_bytes = memory_bytes
        self.workers = workers
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.internal_name = internal
        self.internal = internal_algorithm(internal)
        self.executor = executor
        self.dedup = dedup
        self.t_factor = t_factor
        self.tiles_per_partition = tiles_per_partition
        self.cost_model = cost_model or CostModel()
        #: An externally-owned (persistent) process pool.  When set, the
        #: fan-out submits dynamic-config chunks to it instead of
        #: spawning a pool per run — the ``repro serve`` path, where the
        #: pool outlives every query.  The caller owns its lifecycle.
        self.pool = pool
        #: Manifests of pinned left/right dataset segments (columns under
        #: the neutral ``D.*`` prefix).  With an external pool, the
        #: per-query segment then carries only the CSR id arrays — the
        #: relation columns are never re-shipped.
        self.pinned = pinned

    def run(self, left: Sequence[Tuple], right: Sequence[Tuple]) -> JoinResult:
        executor = self.executor
        if executor == "process" and self.workers > 1 and not shm_enabled():
            _warn_clamp(
                "executor='process' needs a shared-memory segment (POSIX "
                "shared memory, REPRO_DISABLE_SHM unset); running the "
                "thread executor instead"
            )
            executor = "thread"
        # A real pool (workers > 1) runs the tasks over the segment;
        # every other executor runs them in this process.
        use_pool = executor == "process" and self.workers > 1
        columnar = columnar_engine(self.internal_name)
        # RPM stays untagged (the historical spelling); avoidance is
        # surfaced so reports and traces show which scheme owned pairs.
        dedup_tag = "" if self.dedup == "rpm" else ",2L"
        stats = JoinStats(
            algorithm=(
                f"ParallelPBSM({self.internal_name}{dedup_tag},"
                f"W={self.workers})"
            ),
            executor=executor,
            n_left=len(left),
            n_right=len(right),
            n_workers=self.workers,
        )
        if not left or not right:
            return JoinResult(pairs=[], stats=stats)
        # Grid extent, partitioning, the segment and the columnar leaf all
        # read the five columns (already there for mapped inputs, built
        # once otherwise); only the tuple leaf ever sees a record.
        rel_left = checked_columns(left, "left")
        rel_right = checked_columns(right, "right")
        cost = self.cost_model
        kpe_bytes = cost.kpe_bytes
        space = Space.of(rel_left, rel_right)
        n_partitions = estimate_partitions(
            len(left), len(right), kpe_bytes, self.memory_bytes, self.t_factor
        )
        # At least one task per worker, or parallelism is wasted.
        n_partitions = max(n_partitions, self.workers)
        grid = TileGrid.for_partitions(
            space, n_partitions, self.tiles_per_partition
        )
        stats.n_partitions = n_partitions

        tracer = self.tracer
        with tracer.span(
            "parallel_pbsm",
            kind=KIND_RUN,
            internal=self.internal_name,
            dedup=self.dedup,
            executor=executor,
            workers=self.workers,
        ):
            # --- sequential partitioning phase -----------------------------
            disk = SimulatedDisk(cost)
            part_cpu = CpuCounters()
            with tracer.span(PHASE_PARTITION, cpu=part_cpu, disk=disk) as sp:
                with disk.phase(PHASE_PARTITION):
                    left_files, n_left_written = partition_relation(
                        rel_left, grid, disk, kpe_bytes, part_cpu, "R", emit="ids"
                    )
                    right_files, n_right_written = partition_relation(
                        rel_right, grid, disk, kpe_bytes, part_cpu, "S", emit="ids"
                    )
                stats.records_partitioned = n_left_written + n_right_written
                stats.replicas_created = (
                    stats.records_partitioned - len(left) - len(right)
                )
                partition_seconds = cost.io_seconds(
                    disk.total_units()
                ) + cost.cpu_seconds(part_cpu)
            stats.wall_seconds_by_phase[PHASE_PARTITION] = sp.wall_seconds

            with tracer.span(PHASE_JOIN) as sp:
                # --- materialise the join tasks (reads are charged) --------
                # A task is two CSR slices into the id runs, concatenated
                # per side in task order; the two whole-file reads that
                # fetch the runs are charged to the task.
                tasks: List[IdTask] = []
                runs_left: List[Any] = []
                runs_right: List[Any] = []
                n_ids_left = n_ids_right = 0
                task_io_units: Dict[int, float] = {}
                join_pages = 0
                for pid in range(n_partitions):
                    file_left = left_files[pid]
                    file_right = right_files[pid]
                    if not file_left.n_records or not file_right.n_records:
                        continue
                    pair_bytes = file_left.n_bytes + file_right.n_bytes
                    if pair_bytes > self.memory_bytes:
                        stats.memory_overruns += 1
                    if pair_bytes > stats.peak_memory_bytes:
                        stats.peak_memory_bytes = pair_bytes
                    task_disk = SimulatedDisk(cost)
                    with task_disk.phase(PHASE_JOIN):
                        task_disk.charge_read(file_left.n_pages)
                        task_disk.charge_read(file_right.n_pages)
                    task_io_units[pid] = task_disk.total_units()
                    join_pages += task_disk.pages_by_phase()[PHASE_JOIN]
                    l_lo, r_lo = n_ids_left, n_ids_right
                    runs_left.append(file_left.records)
                    runs_right.append(file_right.records)
                    n_ids_left += file_left.n_records
                    n_ids_right += file_right.n_records
                    tasks.append((pid, l_lo, n_ids_left, r_lo, n_ids_right))

                # --- execute the tasks -------------------------------------
                outcomes: List[TaskOutcome] = []
                if tasks:
                    # The tuple leaf, in this process, indexes the input
                    # sequences themselves (plain-int ids); everything
                    # else slices id arrays over the columns.
                    from_inputs = not (columnar or use_pool)
                    l_ids = _concat_ids(runs_left, as_list=from_inputs)
                    r_ids = _concat_ids(runs_right, as_list=from_inputs)
                    source: TaskSource = (
                        (left, right, l_ids, r_ids)
                        if from_inputs
                        else (rel_left, rel_right, l_ids, r_ids)
                    )
                    execute = self._execute_process if use_pool else self._execute
                    outcomes = execute(tasks, grid, stats, source)

                # --- deterministic merge in pid order ----------------------
                task_costs: List[float] = []
                join_cpu_total = CpuCounters()
                join_units_total = 0.0
                suppressed_total = 0
                outcomes.sort(key=lambda o: o[0])
                for pid, _pairs, suppressed, counter_dict, _wall in outcomes:
                    suppressed_total += suppressed
                    task_cpu = CpuCounters(**counter_dict)
                    units = task_io_units[pid]
                    task_costs.append(
                        cost.io_seconds(units) + cost.cpu_seconds(task_cpu)
                    )
                    join_cpu_total.add(task_cpu)
                    join_units_total += units
                stats.duplicates_suppressed = suppressed_total
                sp.add_counters(join_cpu_total.as_dict())
                sp.add_counters({"io_units": join_units_total})
                if stats.ipc_bytes_shipped or stats.ipc_seconds:
                    sp.add_counters(
                        {
                            "bytes_shipped": stats.ipc_bytes_shipped,
                            "ipc_seconds": stats.ipc_seconds,
                        }
                    )
                # Only the tuple leaf run in this process hands back
                # lists; every other outcome is two oid buffers, merged
                # without boxing a pair.
                if outcomes and (columnar or use_pool):
                    result = JoinResult.from_arrays(
                        np.concatenate([o[1][0] for o in outcomes], dtype=np.int64),
                        np.concatenate([o[1][1] for o in outcomes], dtype=np.int64),
                        stats,
                    )
                else:
                    result = JoinResult(
                        [pair for o in outcomes for pair in o[1]], stats
                    )
            stats.wall_seconds_by_phase[PHASE_JOIN] = sp.wall_seconds

            # --- LPT scheduling onto W workers --------------------------
            makespan, _loads = lpt_schedule(task_costs, self.workers)
            stats.n_results = len(result)
            stats.io_units_by_phase = {
                PHASE_PARTITION: disk.total_units(),
                PHASE_JOIN: join_units_total,
            }
            stats.io_pages_by_phase = {**disk.pages_by_phase(), PHASE_JOIN: join_pages}
            stats.cpu_by_phase = {
                PHASE_PARTITION: part_cpu.as_dict(),
                PHASE_JOIN: join_cpu_total.as_dict(),
            }
            # The *parallel* simulated runtime:
            stats.sim_io_seconds = cost.io_seconds(disk.total_units())
            stats.sim_cpu_seconds = makespan  # join tasks dominated by makespan
            stats.sim_seconds_by_phase = {
                PHASE_PARTITION: partition_seconds,
                PHASE_JOIN: makespan,
            }
        return result

    # ------------------------------------------------------------------
    # task execution
    # ------------------------------------------------------------------
    def _execute(
        self,
        tasks: List[IdTask],
        grid: TileGrid,
        stats: JoinStats,
        source: TaskSource,
    ) -> List[TaskOutcome]:
        """Run every join task in this process, looped or on threads.

        Besides the outcomes this fills in the parallel timing fields of
        *stats*: ``join_busy_seconds`` (sum of per-task wall seconds, as
        measured where the task ran) and ``join_makespan_seconds`` (the
        fan-out elapsed time observed here, in the parent).
        """
        run_args = (self.internal_name, self.dedup, grid, source)
        if stats.executor == "thread" and self.workers > 1:
            outcomes = self._execute_thread(tasks, stats, run_args)
        else:
            # Simulated mode and the workers=1 degenerate case share the
            # in-process loop; no pool is spawned.
            tracer = self.tracer
            started = time.perf_counter()
            outcomes = []
            for outcome in _run_tasks(*run_args, tasks, as_ids=False):
                outcomes.append(outcome)
                if tracer.recording:
                    tracer.add_span(
                        "task",
                        outcome[4],
                        kind=KIND_TASK,
                        counters=outcome[3],
                        pid=outcome[0],
                    )
            stats.join_makespan_seconds = time.perf_counter() - started
        stats.join_busy_seconds = sum(outcome[4] for outcome in outcomes)
        return outcomes

    def _drain(
        self,
        pool: Any,
        run_fn: Callable[[Any], Any],
        payloads: Sequence[Any],
        discard: Optional[Callable[[Any], None]] = None,
    ) -> List[Any]:
        """Run *payloads* on *pool*; results come back in payload order.

        Every payload is submitted up front: the pool's own call queue is
        the shared work queue, handing the next chunk to whichever worker
        frees up first.

        When a chunk fails nothing more is submitted, the chunks already
        submitted are waited out, every result that did come back goes
        to *discard* (nobody else will ever see it), and the first error
        is re-raised.
        """
        from concurrent.futures import wait

        futures: List[Any] = []
        try:
            for payload in payloads:
                futures.append(pool.submit(run_fn, payload))
            return [future.result() for future in futures]
        except BaseException:
            wait(futures)
            if discard is not None:
                for future in futures:
                    if not future.cancelled() and future.exception() is None:
                        discard(future.result())
            raise

    def _emit_pool_spans(
        self,
        stats: JoinStats,
        chunk_reports: List[ChunkReport],
    ) -> None:
        """Worker/task spans and per-worker busy totals for one fan-out.

        ``chunk_reports`` rows are ``(worker_label, chunk_wall,
        task_outcomes, chunk_bytes)``; ``chunk_bytes`` (payload out plus
        result blob in) lands on the worker span as a ``bytes_shipped``
        counter, so traces attribute the IPC volume next to the time.
        Also derives ``scheduler_idle_seconds`` — the worker-seconds the
        fan-out paid for but did not fill (``makespan x W - busy``).
        """
        tracer = self.tracer
        busy_by_worker: Dict[str, float] = {}
        for chunk_idx, (label, chunk_wall, task_outcomes, chunk_bytes) in (
            enumerate(chunk_reports)
        ):
            busy_by_worker[label] = busy_by_worker.get(label, 0.0) + chunk_wall
            if tracer.recording:
                worker_span = tracer.add_span(
                    "worker",
                    chunk_wall,
                    kind=KIND_WORKER,
                    worker=label,
                    chunk=chunk_idx,
                    tasks=len(task_outcomes),
                    counters={"bytes_shipped": chunk_bytes},
                )
                for pid, _pairs, _suppressed, counter_dict, task_wall in task_outcomes:
                    tracer.add_span(
                        "task",
                        task_wall,
                        kind=KIND_TASK,
                        parent_id=worker_span.span_id,
                        counters=counter_dict,
                        pid=pid,
                        worker=label,
                    )
        stats.worker_busy_seconds = busy_by_worker
        stats.scheduler_idle_seconds = max(
            0.0,
            stats.join_makespan_seconds * self.workers
            - sum(busy_by_worker.values()),
        )

    def _execute_thread(
        self,
        tasks: List[IdTask],
        stats: JoinStats,
        run_args: Tuple[str, str, TileGrid, TaskSource],
    ) -> List[TaskOutcome]:
        """Fan the tasks out over a thread pool — no spawn, no pickling.

        The vectorized kernel releases the GIL inside numpy, so the scan
        work genuinely overlaps; everything stays in one address space —
        every thread gathers from the same columns and id arrays — so
        ``ipc_bytes_shipped`` is rightfully zero.  Worker labels
        are thread names normalised to ``thread-N`` in first-appearance
        order.
        """
        from concurrent.futures import ThreadPoolExecutor

        units = _chunk_tasks(tasks, self.workers * CHUNKS_PER_WORKER)

        def run_unit(unit: List[IdTask]) -> Tuple[str, float, List[TaskOutcome]]:
            unit_started = time.perf_counter()
            unit_outcomes = list(_run_tasks(*run_args, unit, as_ids=False))
            wall = time.perf_counter() - unit_started
            return threading.current_thread().name, wall, unit_outcomes

        started = time.perf_counter()
        with ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-join"
        ) as pool:
            reports = cast(
                List[Tuple[str, float, List[TaskOutcome]]],
                self._drain(pool, run_unit, units),
            )
        stats.join_makespan_seconds = time.perf_counter() - started

        outcomes: List[TaskOutcome] = []
        chunk_reports: List[ChunkReport] = []
        labels: Dict[str, str] = {}
        for thread_name, unit_wall, unit_outcomes in reports:
            label = labels.setdefault(thread_name, f"thread-{len(labels)}")
            outcomes.extend(unit_outcomes)
            chunk_reports.append((label, unit_wall, unit_outcomes, 0))
        self._emit_pool_spans(stats, chunk_reports)
        return outcomes

    def _execute_process(
        self,
        tasks: List[IdTask],
        grid: TileGrid,
        stats: JoinStats,
        source: TaskSource,
    ) -> List[TaskOutcome]:
        """Fan the tasks out over a process pool and one shared segment.

        Loads *source* once into a columnar segment (both inputs' columns
        plus the two id arrays; with pinned datasets the id arrays only),
        ships five-integer tasks, and copies each task's ``(rid, sid)``
        oid buffers out of the worker-created result segment as they
        are — ``run`` merges them in ``pid`` order, so the output is
        byte-identical to the in-process executors and to sequential
        execution.  Segment build, payload
        encode and the copy-out all count into ``stats.ipc_seconds``;
        only the pipe traffic counts into ``stats.ipc_bytes_shipped``.
        When a chunk fails, the result segments of the chunks that
        finished are unlinked before the error propagates (workers create
        them untracked).
        """
        from concurrent.futures import ProcessPoolExecutor

        encode_started = time.perf_counter()
        left, right, l_ids, r_ids = source
        # With an external pool the relation columns may already live in
        # pinned registry segments; the per-query segment then carries
        # only the CSR id arrays, so a query's segment-build cost is
        # O(partitioned ids), not O(data).
        pinned = self.pinned if self.pool is not None else None
        arrays: Dict[str, object] = {}
        if pinned is None:
            arrays = columnar_arrays("L", left)
            arrays.update(columnar_arrays("R", right))
        arrays["L.ids"] = l_ids
        arrays["R.ids"] = r_ids
        chunks = _chunk_tasks(tasks, self.workers * CHUNKS_PER_WORKER)

        with SharedColumnarStore.create(arrays) as store:
            if self.pool is not None:
                config: PoolConfig = (
                    self.internal_name,
                    _grid_spec(grid),
                    self.dedup,
                    store.manifest,
                    pinned,
                )
                payloads = [
                    pickle.dumps((config, chunk), pickle.HIGHEST_PROTOCOL)
                    for chunk in chunks
                ]
            else:
                payloads = [
                    pickle.dumps(chunk, pickle.HIGHEST_PROTOCOL)
                    for chunk in chunks
                ]
            bytes_shipped = sum(len(p) for p in payloads)
            ipc_seconds = time.perf_counter() - encode_started
            started = time.perf_counter()
            if self.pool is not None:
                blobs = cast(
                    List[bytes],
                    self._drain(
                        self.pool, _run_dyn_chunk, payloads, _unlink_result_blob
                    ),
                )
            else:
                with ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=_pool_init,
                    initargs=(
                        self.internal_name,
                        _grid_spec(grid),
                        store.manifest,
                        self.dedup,
                    ),
                ) as pool:
                    blobs = cast(
                        List[bytes],
                        self._drain(
                            pool, _run_shm_chunk, payloads, _unlink_result_blob
                        ),
                    )
            stats.join_makespan_seconds = time.perf_counter() - started

            copy_started = time.perf_counter()
            outcomes: List[TaskOutcome] = []
            chunk_reports: List[ChunkReport] = []
            for payload, blob in zip(payloads, blobs):
                worker_pid, chunk_wall, metas, manifest = pickle.loads(blob)
                bytes_shipped += len(blob)
                results = SharedColumnarStore.attach(manifest)
                try:
                    task_outcomes: List[TaskOutcome] = []
                    for pid, suppressed, counter_dict, task_wall in metas:
                        # Copies, so no view keeps the segment mapped.
                        task_pairs = (
                            results[f"{pid}.rid"].copy(),
                            results[f"{pid}.sid"].copy(),
                        )
                        task_outcomes.append(
                            (pid, task_pairs, suppressed, counter_dict, task_wall)
                        )
                finally:
                    results.close()
                    results.unlink()
                outcomes.extend(task_outcomes)
                chunk_reports.append(
                    (
                        f"pid-{worker_pid}",
                        chunk_wall,
                        task_outcomes,
                        len(payload) + len(blob),
                    )
                )
            ipc_seconds += time.perf_counter() - copy_started
        stats.ipc_bytes_shipped = bytes_shipped
        stats.ipc_seconds = ipc_seconds
        stats.join_busy_seconds = sum(outcome[4] for outcome in outcomes)
        self._emit_pool_spans(stats, chunk_reports)
        return outcomes


__all__ = [
    "CHUNKS_PER_WORKER",
    "EXECUTORS",
    "MAX_WORKERS_ENV",
    "PARALLEL_DEDUP_MODES",
    "ParallelPBSM",
    "lpt_schedule",
    "reset_clamp_warnings",
    "worker_cap",
]
