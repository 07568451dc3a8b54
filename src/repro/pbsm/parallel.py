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
  gracefully to the in-process loop (no pool is used, and
  ``stats.executor`` says ``"simulated"``).

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

``ParallelPBSM`` is :class:`~repro.pbsm.join.PBSM`'s pipeline with
repartitioning off: its partitioning, its leaves (every non-empty
top-level pair, in ``pid`` order), its leaf dispatch
(:func:`~repro.pbsm.join.join_leaf`) and its in-process loop.  Only two
things are its own: the parallel accounting, and the process executor.
That one turns the leaves into tasks — ``(pid, l_lo, l_hi, r_lo,
r_hi)``, two CSR slices into the id runs concatenated in ``pid`` order —
loads the columns and the id arrays once into a
:class:`~repro.kernels.shm.SharedColumnarStore` segment that workers
attach by name, and gets each task's ``(rid, sid)`` buffers back through
a worker-created segment: only task tuples, the query's configuration
and manifests cross the pipe.  The driver never boxes a pair: the result
is :meth:`~repro.core.result.JoinResult.from_arrays` over buffers merged
in ``pid`` order (only the tuple leaf run in this process returns, and
keeps, a list).  Where the segment cannot exist (no POSIX shared memory,
or ``REPRO_DISABLE_SHM=1``) ``executor="process"`` runs the in-process
loop, with byte-identical output, one ``RuntimeWarning`` per process,
and ``stats.executor`` reporting ``"simulated"``.

Duplicate handling is always the Reference Point Method, which is what
makes the parallel version correct without any cross-worker coordination:
each result is owned by exactly one partition.  The offline sort would
serialise the join behind a global sorting phase, so there is no
``dedup`` option here.
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
    Callable,
    Dict,
    Iterable,
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
from repro.core.stats import CpuCounters
from repro.io.costmodel import CostModel
from repro.io.disk import SimulatedDisk
from repro.kernels.shm import (
    Manifest,
    SharedColumnarStore,
    columnar_arrays,
    shm_enabled,
)
from repro.obs.trace import KIND_TASK, KIND_WORKER
from repro.pbsm.grid import TileGrid
from repro.pbsm.join import (
    PBSM,
    Leaf,
    LeafOutcome,
    columnar_engine,
    join_leaf,
    read_leaf,
)

EXECUTORS = ("simulated", "process")

#: Chunks submitted per worker in process mode; >1 smooths load imbalance
#: that the up-front LPT packing cannot foresee.
CHUNKS_PER_WORKER = 4

#: Environment override raising the worker-count clamp beyond the usable
#: CPU count (tests and benches on small machines oversubscribe through
#: this on purpose).
MAX_WORKERS_ENV = "REPRO_MAX_WORKERS"

#: ``(pid, l_lo, l_hi, r_lo, r_hi)`` — one partition-pair join task of
#: the process executor: two CSR slices into the id runs of a
#: :data:`TaskSource`.  Plain ints only.
IdTask = Tuple[int, int, int, int, int]

#: ``(left, right, l_ids, r_ids)`` — what a task's slices index, as a
#: pool worker builds it over its attached segment(s) (:func:`_run_dyn_chunk`):
#: per side, the relation's columns and the leaves' id runs, concatenated
#: in task order.
TaskSource = Tuple[Any, Any, Any, Any]

#: ``(pid, suppressed, counters_dict, wall_seconds)`` — what a worker
#: reports per task next to the task's ``(rid, sid)`` buffers in its
#: result segment.  ``wall_seconds`` is measured where the task ran, so
#: per-task timing survives the process boundary instead of being dropped.
TaskMeta = Tuple[int, int, Dict[str, int], float]

#: ``(worker_label, cpu, chunk_wall, cpu_seconds, task_metas,
#: chunk_bytes)`` — one finished chunk as
#: :meth:`ParallelPBSM._emit_pool_spans` consumes it; *cpu* is the CPU the
#: worker is pinned to (``None``: unpinned).
ChunkReport = Tuple[str, Optional[int], float, float, List[TaskMeta], int]


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


# ----------------------------------------------------------------------
# the pool worker's side: one entry point, configuration in every chunk
# ----------------------------------------------------------------------
def _chunk_blob(
    internal_name: str,
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
    The chunk's CPU seconds and the CPU the worker is pinned to ride
    along: a chunk whose wall time is about twice its CPU time shared
    its core.
    """
    started = time.perf_counter()
    cpu_started = time.process_time()
    left, right, l_ids, r_ids = source
    metas: List[TaskMeta] = []
    out_arrays: Dict[str, object] = {}
    for pid, l_lo, l_hi, r_lo, r_hi in tasks:
        task_started = time.perf_counter()
        counters = CpuCounters()
        pairs, suppressed = join_leaf(
            internal_name, left, right, l_ids[l_lo:l_hi], r_ids[r_lo:r_hi],
            ((grid, pid),), "rpm", counters,
        )
        # The segment holds int64 buffers only: the columnar leaf's row
        # positions as they are, the tuple leaf's oid tuples unboxed.
        rid, sid = pairs if columnar_engine(internal_name) else pair_columns(pairs)
        out_arrays[f"{pid}.rid"] = rid
        out_arrays[f"{pid}.sid"] = sid
        metas.append(
            (pid, suppressed, counters.as_dict(), time.perf_counter() - task_started)
        )
    wall = time.perf_counter() - started
    cpu_seconds = time.process_time() - cpu_started
    # Untracked on purpose: the parent unlinks after copying out (a worker
    # crashing between here and there leaks the segment — see docs).  If
    # the reply cannot even be serialised, unlink now: the parent will
    # never see the manifest, so nobody else can clean the segment up.
    results = SharedColumnarStore.create(out_arrays, track=False)
    try:
        blob = pickle.dumps(
            (os.getpid(), _PINNED_CPU, wall, cpu_seconds, metas, results.manifest),
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
    with SharedColumnarStore.attach(pickle.loads(blob)[-1]) as results:
        results.unlink()


#: ``(internal_name, grid_spec, ids_manifest, pinned)`` — the per-query
#: configuration every chunk carries (a warm pool outlives every query).
#: *ids_manifest* names the per-query segment; *pinned* is ``None`` (that
#: segment holds the columns too) or the ``(left, right)`` manifests of
#: long-lived dataset segments.
PoolConfig = Tuple[str, Tuple, Manifest, Optional[Tuple[Manifest, Manifest]]]

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
    (internal_name, grid_spec, ids_manifest, pinned), tasks = pickle.loads(payload)
    ids = SharedColumnarStore.attach(ids_manifest)
    try:
        # The id runs always live in the per-query segment; the relation
        # columns next to them (``L.*``/``R.*``) or, for registered
        # datasets, in the two pinned segments (``D.*`` — pinned before
        # anyone knew which side of a query they would be).  Views only.
        if pinned is None:
            left, right = ids.relation("L"), ids.relation("R")
        else:
            left = _pinned_store(pinned[0]).relation("D")
            right = _pinned_store(pinned[1]).relation("D")
        source = (left, right, ids["L.ids"], ids["R.ids"])
        return _chunk_blob(internal_name, TileGrid.from_spec(grid_spec), source, tasks)
    finally:
        ids.close()


# ----------------------------------------------------------------------
# the warm pool: one spawn / replace / shutdown for server and library
# ----------------------------------------------------------------------
def _warm_worker(seconds: float) -> int:
    """Pool warm-up task: occupy a worker long enough to force spawning."""
    time.sleep(seconds)
    return os.getpid()


#: In a pool worker: the one CPU :func:`_pin_worker` pinned it to
#: (``None`` when unpinned, and in every other process).
_PINNED_CPU: Optional[int] = None


def _pin_worker(slots: Any, cpus: Tuple[int, ...]) -> None:
    """Pool initializer: pin the worker to the next CPU of *cpus*.

    *slots* is a queue holding each worker index ``0 .. W-1`` once;
    worker ``i`` takes ``cpus[i % len(cpus)]``.  (A queue rather than a
    shared ``multiprocessing.Value``: that one imports
    ``multiprocessing.sharedctypes``, ~0.35 MB more RSS in the server and
    in every worker.)  Where the platform cannot pin, the worker stays
    unpinned: an initializer that raises breaks the pool.
    """
    global _PINNED_CPU
    index = slots.get()
    if not cpus:
        return
    cpu = cpus[index % len(cpus)]
    try:
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError, ValueError):
        return
    _PINNED_CPU = cpu


def _spawn_pool(workers: int) -> Any:
    """A new process pool with every worker already running.

    Each worker is pinned to its own CPU of this process's affinity set
    (:func:`_pin_worker`, round robin when there are fewer CPUs than
    workers).  Two unpinned workers were seen sharing one vCPU, each at
    half speed, for whole chunks at a time.
    """
    import multiprocessing
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
    try:
        cpus = tuple(sorted(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        cpus = ()
    slots = multiprocessing.SimpleQueue()
    for index in range(workers):
        slots.put(index)
    pool = ProcessPoolExecutor(
        max_workers=workers, initializer=_pin_worker, initargs=(slots, cpus)
    )
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


class ParallelPBSM(PBSM):
    """PBSM with the join phase spread over *workers* workers.

    :class:`PBSM`'s pipeline with repartitioning off: ``dedup="rpm"``,
    ``max_repartition_depth=0`` and at least one partition per worker, so
    every non-empty top-level partition pair is one task.
    ``executor="simulated"`` runs the tasks in PBSM's in-process loop and
    *models* the parallel runtime; ``executor="process"`` actually fans
    them out over the process-wide warm pool :data:`LIBRARY_POOL`.  Both
    executors produce identical result pairs in identical order and
    report the same simulated costs.

    The result of the columnar engine (``sweep_numpy``), and
    of any internal run on a process pool, is backed by the two int64 oid
    buffers the tasks produced, merged in ``pid`` order and never boxed
    by the driver: ``len(result)`` and ``result.to_arrays()`` read them,
    ``result.pairs`` decodes them into a list on first access.

    Duplicates are always handled by the Reference Point Method (there
    is no ``dedup`` option: the offline sort would serialise the join
    behind a global sorting phase).  The process executor ships the
    tasks over one shared-memory segment and runs the in-process loop
    where that segment cannot exist (module docstring); out-of-range
    worker counts are clamped with a :class:`RuntimeWarning` (once per
    process per distinct clamp) instead of raising or silently
    oversubscribing the machine.
    """

    def __init__(
        self,
        memory_bytes: int,
        workers: int = 4,
        *,
        internal: str = "sweep_trie",
        executor: str = "simulated",
        t_factor: float = 1.2,
        tiles_per_partition: int = 4,
        cost_model: Optional[CostModel] = None,
        tracer: Optional[Any] = None,
        pinned: Optional[Tuple[Manifest, Manifest]] = None,
    ) -> None:
        super().__init__(
            memory_bytes,
            internal=internal,
            dedup="rpm",
            t_factor=t_factor,
            tiles_per_partition=tiles_per_partition,
            cost_model=cost_model,
            max_repartition_depth=0,
            tracer=tracer,
        )
        if executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS}, got {executor!r}"
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
        self.workers = workers
        self.executor = executor
        #: Manifests of pinned left/right dataset segments (columns under
        #: the neutral ``D.*`` prefix, ``repro serve``'s registry).  On the
        #: pool, the per-query segment then carries only the CSR id arrays
        #: — the relation columns are never re-shipped.
        self.pinned = pinned

    def run(self, left: Sequence[Tuple], right: Sequence[Tuple]) -> JoinResult:
        executor = self.executor
        if executor == "process" and self.workers == 1:
            executor = "simulated"  # one worker never fans out
        elif executor == "process" and not shm_enabled():
            _warn_clamp(
                "executor='process' needs a shared-memory segment (POSIX "
                "shared memory, REPRO_DISABLE_SHM unset); running the "
                "in-process loop instead"
            )
            executor = "simulated"
        # ``stats.executor`` says which one runs the leaves (_run_leaves).
        stats = JoinStats(
            algorithm=f"ParallelPBSM({self.internal_name},W={self.workers})",
            executor=executor,
            n_left=len(left),
            n_right=len(right),
            n_workers=self.workers,
        )
        outputs = list(self._join_leaves(left, right, stats))
        # Only the tuple leaf run in this process hands back lists; every
        # other output is two oid buffers, merged without boxing a pair.
        if outputs and (columnar_engine(self.internal_name) or executor == "process"):
            result = JoinResult.from_arrays(
                np.concatenate([o[0] for o in outputs], dtype=np.int64),
                np.concatenate([o[1] for o in outputs], dtype=np.int64),
                stats,
            )
        else:
            result = JoinResult([pair for o in outputs for pair in o], stats)
        stats.n_results = len(result)
        return result

    def iter_pairs(self, *args: Any, **kwargs: Any) -> Iterator[Tuple[int, int]]:
        """Not offered: the tasks' buffers are merged whole (:meth:`run`)."""
        raise NotImplementedError("ParallelPBSM merges its result whole; use run()")

    # ------------------------------------------------------------------
    # PBSM's pipeline, configured
    # ------------------------------------------------------------------
    def _decode(self, columns: Any) -> Callable[[Any], Any]:
        """A columnar task's row positions as its two int64 oid buffers."""
        left_oids, right_oids = columns.left.oid, columns.right.oid
        return lambda pairs: (left_oids[pairs[0]], right_oids[pairs[1]])

    def _run_leaves(
        self,
        leaves: Iterable[Leaf],
        source: Tuple[Any, Any],
        columns: Any,
        disk: SimulatedDisk,
        stats: JoinStats,
    ) -> Iterable[Tuple[Leaf, LeafOutcome]]:
        if stats.executor != "process":
            return super()._run_leaves(leaves, source, columns, disk, stats)
        return self._execute_process(list(leaves), columns, disk, stats)

    def _finalize_stats(
        self,
        stats: JoinStats,
        disk: SimulatedDisk,
        cpu: Dict[str, CpuCounters],
        leaf_costs: List[Tuple[int, CpuCounters, float]],
    ) -> None:
        """The *parallel* simulated runtime: the sequential partitioning
        phase plus the LPT makespan of the tasks on W workers.

        A task's cost is its two reads (one request each) plus its CPU
        counters, summed in ``pid`` order — the order every recorded
        figure was summed in.
        """
        if not stats.n_partitions:
            return  # an empty side: nothing ran
        cost = self.cost_model
        task_units = [cost.pt_ratio * 2 + pages for pages, _, _ in leaf_costs]
        task_costs = [
            cost.io_seconds(units) + cost.cpu_seconds(counters)
            for units, (_, counters, _) in zip(task_units, leaf_costs)
        ]
        makespan, _loads = lpt_schedule(task_costs, self.workers)
        partition_units = disk.units_by_phase()[PHASE_PARTITION]
        pages = disk.pages_by_phase()
        stats.io_units_by_phase = {
            PHASE_PARTITION: partition_units,
            PHASE_JOIN: sum(task_units, 0.0),
        }
        stats.io_pages_by_phase = {**pages, PHASE_JOIN: pages.get(PHASE_JOIN, 0)}
        stats.cpu_by_phase = {
            PHASE_PARTITION: cpu[PHASE_PARTITION].as_dict(),
            PHASE_JOIN: cpu[PHASE_JOIN].as_dict(),
        }
        stats.sim_io_seconds = cost.io_seconds(partition_units)
        stats.sim_cpu_seconds = makespan  # join tasks dominated by makespan
        stats.sim_seconds_by_phase = {
            PHASE_PARTITION: stats.sim_io_seconds
            + cost.cpu_seconds(cpu[PHASE_PARTITION]),
            PHASE_JOIN: makespan,
        }
        stats.join_busy_seconds = sum(wall for _, _, wall in leaf_costs)
        if stats.executor != "process":
            # In process, the tasks' elapsed time is the join phase's.
            stats.join_makespan_seconds = stats.wall_seconds_by_phase[PHASE_JOIN]

    # ------------------------------------------------------------------
    # the process executor
    # ------------------------------------------------------------------
    def _emit_pool_spans(
        self,
        stats: JoinStats,
        chunk_reports: List[ChunkReport],
    ) -> None:
        """Worker/task spans and per-worker busy totals for one fan-out.

        ``chunk_reports`` rows are :data:`ChunkReport`; ``chunk_bytes``
        (payload out plus result blob in) lands on the worker span as a
        ``bytes_shipped`` counter, so traces attribute the IPC volume next
        to the time, and the chunk's ``cpu_seconds`` counter and ``cpu``
        tag show whether the worker had its core to itself.
        Also derives ``scheduler_idle_seconds`` — the worker-seconds the
        fan-out paid for but did not fill (``makespan x W - busy``).
        """
        tracer = self.tracer
        busy_by_worker: Dict[str, float] = {}
        for chunk_idx, report in enumerate(chunk_reports):
            label, cpu, chunk_wall, cpu_seconds, metas, chunk_bytes = report
            busy_by_worker[label] = busy_by_worker.get(label, 0.0) + chunk_wall
            if tracer.recording:
                worker_span = tracer.add_span(
                    "worker",
                    chunk_wall,
                    kind=KIND_WORKER,
                    worker=label,
                    cpu=cpu,
                    chunk=chunk_idx,
                    tasks=len(metas),
                    counters={
                        "bytes_shipped": chunk_bytes,
                        "cpu_seconds": cpu_seconds,
                    },
                )
                for pid, _suppressed, counter_dict, task_wall in metas:
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
        leaves: List[Leaf],
        columns: Any,
        disk: SimulatedDisk,
        stats: JoinStats,
    ) -> Iterator[Tuple[Leaf, LeafOutcome]]:
        """Fan the leaves out as tasks over the warm pool and one segment.

        Reads every leaf's two id runs (charged like the in-process
        loop's reads), concatenates them per side in ``pid`` order, loads
        the columns plus those two id arrays once into a segment (with
        pinned datasets the id arrays only), ships five-integer tasks,
        and copies each task's ``(rid, sid)`` buffers out of the
        worker-created result segment as they are — the pipeline merges
        them in ``pid`` order, so the output is byte-identical to the
        in-process loop.  Segment build, payload encode and the copy-out
        all count into ``stats.ipc_seconds``; only the pipe traffic
        counts into ``stats.ipc_bytes_shipped``.  When a chunk fails, the
        result segments of the chunks that finished are unlinked before
        the error propagates (workers create them untracked); a dead
        worker's pool is replaced on the way out (:meth:`WarmPool.borrow`).
        """
        if not leaves:
            return
        tasks: List[IdTask] = []
        runs_left: List[Any] = []
        runs_right: List[Any] = []
        n_left = n_right = 0
        for file_left, file_right, region in leaves:
            run_left, run_right = read_leaf(disk, file_left, file_right)
            runs_left.append(run_left)
            runs_right.append(run_right)
            l_lo, r_lo = n_left, n_right
            n_left += len(run_left)
            n_right += len(run_right)
            tasks.append((region[0][1], l_lo, n_left, r_lo, n_right))
        grid = leaves[0][2][0][0]

        encode_started = time.perf_counter()
        # The relation columns may already live in pinned registry
        # segments; the per-query segment then carries only the CSR id
        # arrays, so a query's segment-build cost is O(partitioned ids),
        # not O(data).
        arrays: Dict[str, object] = {}
        if self.pinned is None:
            arrays = columnar_arrays("L", columns.left)
            arrays.update(columnar_arrays("R", columns.right))
        arrays["L.ids"] = np.concatenate(runs_left)
        arrays["R.ids"] = np.concatenate(runs_right)
        chunks = _chunk_tasks(tasks, self.workers * CHUNKS_PER_WORKER)

        with SharedColumnarStore.create(arrays) as store:
            config: PoolConfig = (
                self.internal_name,
                grid.spec,
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
            outcomes: Dict[int, LeafOutcome] = {}
            chunk_reports: List[ChunkReport] = []
            for payload, blob in zip(payloads, blobs):
                worker_pid, cpu, chunk_wall, cpu_seconds, metas, manifest = (
                    pickle.loads(blob)
                )
                bytes_shipped += len(blob)
                results = SharedColumnarStore.attach(manifest)
                try:
                    for pid, suppressed, counter_dict, task_wall in metas:
                        # Copies, so no view keeps the segment mapped.
                        task_pairs = (
                            results[f"{pid}.rid"].copy(),
                            results[f"{pid}.sid"].copy(),
                        )
                        outcomes[pid] = (
                            task_pairs, suppressed, CpuCounters(**counter_dict),
                            task_wall,
                        )
                finally:
                    results.close()
                    results.unlink()
                chunk_reports.append(
                    (
                        f"pid-{worker_pid}",
                        cpu,
                        chunk_wall,
                        cpu_seconds,
                        metas,
                        len(payload) + len(blob),
                    )
                )
            ipc_seconds += time.perf_counter() - copy_started
        stats.ipc_bytes_shipped = bytes_shipped
        stats.ipc_seconds = ipc_seconds
        self._emit_pool_spans(stats, chunk_reports)
        # One at a time, so no task's buffers outlive their decoding.
        for leaf in leaves:
            yield leaf, outcomes.pop(leaf[2][0][1])


__all__ = [
    "CHUNKS_PER_WORKER",
    "EXECUTORS",
    "LIBRARY_POOL",
    "MAX_WORKERS_ENV",
    "ParallelPBSM",
    "WarmPool",
    "lpt_schedule",
    "reset_clamp_warnings",
    "worker_cap",
]
