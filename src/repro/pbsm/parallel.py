"""Parallel PBSM: simulated multi-worker model and real multiprocess fan-out.

The paper's related work points to parallel spatial join processing
[BKS 96, Pat 98]; PBSM parallelises naturally because partition pairs are
independent once partitioning has replicated the data.  This module offers
two executors over the same shared-nothing decomposition:

* ``executor="simulated"`` — the analytic model: the partitioning phase is
  a single sequential scan, after which the P partition-pair join tasks —
  each with its own measured I/O + CPU cost — are scheduled onto W
  workers with the LPT (longest processing time first) heuristic.  The
  simulated total runtime is ``partition_phase + makespan``, so the
  speedup curve flattens exactly where the paper's decomposition
  predicts: the sequential partitioning fraction and the largest single
  partition bound the achievable speedup (Amdahl).
* ``executor="process"`` — the same task decomposition, actually executed
  on a warm, persistent process pool (:class:`WarmPool`).  Results are
  merged in partition order, so the output is byte-identical to the
  sequential execution.  With ``workers=1`` the fan-out degrades
  gracefully to the in-process loop (no pool is used).

One pool entry point serves every real fan-out: chunks carry their
per-query configuration and go to :func:`_run_dyn_chunk`, on
:data:`LIBRARY_POOL`, the one lazily spawned warm pool of the process —
``spatial_join(workers=N)``, ``method="auto"`` parallel plans, ``repro
join --workers`` and ``repro serve`` alike
(``benchmarks/results/BENCH_executors.json``: a pool spawned per run lost
to the warm pool in every cell, and a thread pool beat the better of the
warm pool and the in-process loop in none).

Load is balanced in the partitioning, as in the paper (Sec. 3.1): many
more tiles than partitions, tiles hashed to partitions.  Dispatch is one
policy: the tasks are LPT-packed by joined size into
``workers x CHUNKS_PER_WORKER`` chunks, all submitted up front, and the
pool's own call queue hands the next chunk to whichever worker frees up.
A task is never split: every pair is owned by exactly one partition and
found by that partition's one scan.  ``stats.scheduler_idle_seconds`` is
the summed worker idle time the makespan hides.

A join task means one thing on every executor: the five integers
``(pid, l_lo, l_hi, r_lo, r_hi)`` — two CSR slices into the id runs the
``emit="ids"`` partitioner produced — run by one task loop
(:func:`_run_tasks`) against one source form
``(left, right, l_ids, r_ids)``.  The in-process loop (simulated,
``workers=1``) holds that source as plain objects.  The process
executor loads both inputs' columns and the id arrays once into a
:class:`~repro.kernels.shm.SharedColumnarStore` segment, workers attach
by segment name, build the same source as views of the mapped pages and
gather their slices straight out of them, and result ``(rid, sid)`` oid
buffers come back through a worker-created segment — only task tuples,
the query's configuration and manifests ever cross the pipe.  The driver
never boxes those buffers: the parent copies each task's two runs out of
the result segment, the in-process loop keeps the columnar leaf's
arrays, and ``run`` concatenates once in ``pid`` order into a
buffer-backed :class:`~repro.core.result.JoinResult` — a tuple exists
only once a caller reads ``result.pairs``.  (The tuple leaf in this
process returns its pair list and the result stays list-backed.)  Where
that segment cannot exist (``shm_enabled()`` is false: no POSIX shared
memory or ``REPRO_DISABLE_SHM=1``) ``executor="process"`` runs the
in-process loop instead, with byte-identical output, one
``RuntimeWarning`` per process, and ``stats.executor`` reporting what
actually ran (``"simulated"``).

A task ends in one of the two leaves sequential ``PBSM`` ends in
(:func:`~repro.pbsm.join.columnar_leaf` for ``sweep_numpy``,
:func:`~repro.pbsm.join.tuple_leaf` over materialised records
otherwise), under the one-entry region ``((grid, pid),)``.

Duplicate handling is online — ``dedup="rpm"`` (the reference-point test)
or ``dedup="twolayer"`` (corner-class avoidance, zero per-pair work) —
which is what makes the parallel version correct without any cross-worker
coordination: each result is owned by exactly one partition.  The
offline ``"sort"`` mode would serialise the join behind a global sorting
phase, so it is rejected here rather than silently degraded.
"""

from __future__ import annotations

import atexit
import os
import pickle
import threading
import time
import warnings
from contextlib import contextmanager
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
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

EXECUTORS = ("simulated", "process")

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
            # The columnar engine's id runs are in xl order (``by_xl``).
            rid, sid, suppressed = columnar_leaf(
                left.take(l_ids[l_lo:l_hi], sorted_by_xl=True),
                right.take(r_ids[r_lo:r_hi], sorted_by_xl=True),
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
# the pool worker's side: one entry point, configuration in every chunk
# ----------------------------------------------------------------------
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


#: ``(internal_name, grid_spec, dedup, ids_manifest, pinned)`` — the
#: per-query configuration every chunk carries (a warm pool outlives
#: every query).  *ids_manifest* names the per-query segment;
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
    """The pool worker's entry point, on every real fan-out.

    A warm pool outlives any single query, so the query's configuration
    rides along with every chunk: the payload is the pickled
    ``(config, tasks)`` pair (:data:`PoolConfig`).  Grid rebuild is
    cheap; pinned dataset
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


# ----------------------------------------------------------------------
# the warm pool: one spawn / replace / shutdown for server and library
# ----------------------------------------------------------------------
def _warm_worker(seconds: float) -> int:
    """Pool warm-up task: occupy a worker long enough to force spawning."""
    time.sleep(seconds)
    return os.getpid()


def _spawn_pool(workers: int) -> Any:
    """A new process pool with every worker already running."""
    from concurrent.futures import ProcessPoolExecutor, wait

    # Make sure the parent's resource tracker exists *before* the
    # workers fork: workers forked first would each spawn their
    # own tracker, whose shared-memory registrations are never
    # matched by the parent's unlinks (spurious leak warnings).
    try:
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
    except (ImportError, AttributeError):
        pass  # platform without the tracker API; nothing to pre-start
    pool = ProcessPoolExecutor(max_workers=workers)
    # Force every worker into existence now: the sleep outlasts
    # task dispatch, so no single worker can drain the batch.
    wait([pool.submit(_warm_worker, 0.05) for _ in range(workers)])
    return pool


class WarmPool:
    """A persistent process pool behind one lock, lent out per fan-out.

    ``borrow`` spawns the pool on first use (every worker running before
    it is lent) and respawns it when asked for another worker count.  A
    pool that stops being current — respawned, replaced or shut down — is
    closed once its last borrower has given it back, so no fan-out ever
    loses its pool between two submits.  A pool whose worker died is
    broken for good (:class:`~concurrent.futures.process.BrokenProcessPool`):
    the borrower that finds out spawns its successor before re-raising,
    and of several borrowers failing on the same dead pool only the first
    does.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.pool: Optional[Any] = None
        self.workers = 0
        #: Open loans per pool (entries drop at zero).
        self._loans: Dict[Any, int] = {}

    def _swap(self, pool: Optional[Any], workers: int) -> Optional[Any]:
        """Make *pool* current (lock held); the old one if nobody holds it."""
        old, self.pool, self.workers = self.pool, pool, workers
        return None if old is None or old in self._loans else old

    @contextmanager
    def borrow(self, workers: int) -> Iterator[Any]:
        """The pool with *workers* workers, for one fan-out (blocking
        while it spawns)."""
        from concurrent.futures.process import BrokenProcessPool

        with self._lock:
            idle = None
            if self.pool is None or self.workers != workers:
                idle = self._swap(_spawn_pool(workers), workers)
            pool = self.pool
            self._loans[pool] = self._loans.get(pool, 0) + 1
        if idle is not None:
            idle.shutdown(wait=True)
        try:
            yield pool
        except BrokenProcessPool:
            with self._lock:
                if self.pool is pool:  # first caller wins
                    self._swap(_spawn_pool(workers), workers)
            raise
        finally:
            with self._lock:
                self._loans[pool] -= 1
                retired = not self._loans[pool] and pool is not self.pool
                if not self._loans[pool]:
                    del self._loans[pool]
            if retired:
                pool.shutdown(wait=True)

    def start(self, workers: int) -> None:
        """Make the pool current with *workers* workers, spawning it now
        if need be (blocking)."""
        with self.borrow(workers):
            pass

    def shutdown(self) -> None:
        """Close the pool (idempotent; blocking).  One still lent out is
        closed by its last borrower; the next ``borrow`` spawns anew."""
        with self._lock:
            idle = self._swap(None, 0)
        if idle is not None:
            idle.shutdown(wait=True)

    def _forget(self) -> None:
        """In a forked child: the parent's pool and lock are not ours."""
        self._lock = threading.Lock()
        self.pool = None
        self.workers = 0
        self._loans = {}


#: The one warm pool of the process: every real fan-out borrows it —
#: ``spatial_join(workers=N)``, ``method="auto"`` parallel plans,
#: ``repro join --workers`` and ``repro serve``'s
#: :class:`~repro.serve.engine.EngineHost`.  Spawned on the first fan-out
#: (or at server start), shut down at exit, and forgotten in a forked
#: child (whose first fan-out spawns its own).
LIBRARY_POOL = WarmPool()
atexit.register(LIBRARY_POOL.shutdown)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=LIBRARY_POOL._forget)


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


def _drain(pool: Any, payloads: Sequence[bytes]) -> List[bytes]:
    """Run chunk *payloads* on *pool*; result blobs come back in order.

    Every payload is submitted up front: the pool's own call queue is the
    shared work queue, handing the next chunk to whichever worker frees
    up first.

    When a chunk fails nothing more is submitted, the chunks already
    submitted are waited out, the result segment of every chunk that did
    finish is unlinked (nobody else will ever see its blob), and the
    first error is re-raised.
    """
    from concurrent.futures import wait

    futures: List[Any] = []
    try:
        for payload in payloads:
            futures.append(pool.submit(_run_dyn_chunk, payload))
        return [future.result() for future in futures]
    except BaseException:
        wait(futures)
        for future in futures:
            if not future.cancelled() and future.exception() is None:
                _unlink_result_blob(future.result())
        raise


class ParallelPBSM:
    """PBSM with the join phase spread over *workers* workers.

    ``executor="simulated"`` runs sequentially and *models* the parallel
    runtime; ``executor="process"`` actually fans the join tasks out over
    the process-wide warm pool :data:`LIBRARY_POOL`.  Both executors produce
    identical result pairs in identical order and report the same
    simulated costs.

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
    in-process loop where that segment cannot exist (module docstring);
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
        if executor == "process":
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
        #: Manifests of pinned left/right dataset segments (columns under
        #: the neutral ``D.*`` prefix, ``repro serve``'s registry).  On the
        #: pool, the per-query segment then carries only the CSR id arrays
        #: — the relation columns are never re-shipped.
        self.pinned = pinned

    def run(self, left: Sequence[Tuple], right: Sequence[Tuple]) -> JoinResult:
        executor = self.executor
        if executor == "process" and self.workers > 1 and not shm_enabled():
            _warn_clamp(
                "executor='process' needs a shared-memory segment (POSIX "
                "shared memory, REPRO_DISABLE_SHM unset); running the "
                "in-process loop instead"
            )
            executor = "simulated"
        # A real pool (workers > 1) runs the tasks over the segment;
        # everything else runs them in this process.
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
                        rel_left, grid, disk, kpe_bytes, part_cpu, "R",
                        emit="ids", by_xl=columnar,
                    )
                    right_files, n_right_written = partition_relation(
                        rel_right, grid, disk, kpe_bytes, part_cpu, "S",
                        emit="ids", by_xl=columnar,
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
        """Run every join task in this process, in one loop.

        Simulated mode, ``workers=1`` and a process request without a
        shared-memory segment share it; no pool is used.  Besides the
        outcomes this fills in the parallel timing fields of *stats*:
        ``join_busy_seconds`` (sum of per-task wall seconds) and
        ``join_makespan_seconds`` (the loop's elapsed time).
        """
        tracer = self.tracer
        started = time.perf_counter()
        outcomes = []
        for outcome in _run_tasks(
            self.internal_name, self.dedup, grid, source, tasks, as_ids=False
        ):
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

    def _execute_process(
        self,
        tasks: List[IdTask],
        grid: TileGrid,
        stats: JoinStats,
        source: TaskSource,
    ) -> List[TaskOutcome]:
        """Fan the tasks out over the warm pool and one shared segment.

        Loads *source* once into a columnar segment (both inputs' columns
        plus the two id arrays; with pinned datasets the id arrays only),
        ships five-integer tasks, and copies each task's ``(rid, sid)``
        oid buffers out of the worker-created result segment as they
        are — ``run`` merges them in ``pid`` order, so the output is
        byte-identical to the in-process loop and to sequential
        execution.  Segment build, payload
        encode and the copy-out all count into ``stats.ipc_seconds``;
        only the pipe traffic counts into ``stats.ipc_bytes_shipped``.
        When a chunk fails, the result segments of the chunks that
        finished are unlinked before the error propagates (workers create
        them untracked); a dead worker's pool is replaced on the way out
        (:meth:`WarmPool.borrow`).
        """
        encode_started = time.perf_counter()
        left, right, l_ids, r_ids = source
        # The relation columns may already live in pinned registry
        # segments; the per-query segment then carries only the CSR id
        # arrays, so a query's segment-build cost is O(partitioned ids),
        # not O(data).
        arrays: Dict[str, object] = {}
        if self.pinned is None:
            arrays = columnar_arrays("L", left)
            arrays.update(columnar_arrays("R", right))
        arrays["L.ids"] = l_ids
        arrays["R.ids"] = r_ids
        chunks = _chunk_tasks(tasks, self.workers * CHUNKS_PER_WORKER)

        with SharedColumnarStore.create(arrays) as store:
            config: PoolConfig = (
                self.internal_name,
                _grid_spec(grid),
                self.dedup,
                store.manifest,
                self.pinned,
            )
            payloads = [
                pickle.dumps((config, chunk), pickle.HIGHEST_PROTOCOL)
                for chunk in chunks
            ]
            bytes_shipped = sum(len(p) for p in payloads)
            ipc_seconds = time.perf_counter() - encode_started
            with LIBRARY_POOL.borrow(self.workers) as pool:
                started = time.perf_counter()
                blobs = _drain(pool, payloads)
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
    "LIBRARY_POOL",
    "MAX_WORKERS_ENV",
    "PARALLEL_DEDUP_MODES",
    "ParallelPBSM",
    "WarmPool",
    "lpt_schedule",
    "reset_clamp_warnings",
    "worker_cap",
]
