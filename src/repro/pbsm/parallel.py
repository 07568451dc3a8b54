"""The pool side of a parallel PBSM run: the warm pool and the process fan-out.

:class:`~repro.pbsm.join.PBSM` with ``workers > 1`` spreads its leaves
over W workers.  The paper's related work points to parallel spatial
join processing [BKS 96, Pat 98]: under RPM every result is owned by
exactly one leaf, so workers never coordinate.  ``executor="simulated"``
runs the leaves in PBSM's in-process loop and charges the join phase as
their LPT makespan (:func:`lpt_schedule`); ``executor="process"`` runs
them here, through :func:`execute_process`:

* It turns the leaves into tasks — ``(leaf, l_lo, l_hi, r_lo, r_hi)``,
  the leaf's index and two CSR slices into the id runs concatenated in
  leaf order — and loads the columns and the id arrays once into a
  :class:`~repro.kernels.shm.SharedColumnarStore` segment that workers
  attach by name (the id arrays only for a side whose relation names a
  pinned ``segment``, a registry dataset's).
* Each task's ``(rid, sid)`` row positions come back through a
  worker-created segment: only task tuples, the query's configuration
  (the grids and each leaf's ownership chain among them) and manifests
  cross the pipe.  The parent copies each task's runs straight into
  their slice of one leaf-ordered buffer pair (:func:`_copy_out`), so
  the output is byte-identical to the in-process loop and held once.
* One pool entry point serves every fan-out: chunks carry their
  per-query configuration and go to :func:`_run_dyn_chunk`, on
  :data:`LIBRARY_POOL`, the one lazily spawned warm pool of the process
  (``benchmarks/results/BENCH_executors.json``: a pool spawned per run
  lost to the warm pool in every cell, and a thread pool beat the better
  of the warm pool and the in-process loop in none).
* Dispatch is one policy: the tasks are LPT-packed by joined size into
  ``workers x CHUNKS_PER_WORKER`` chunks, all submitted up front, and
  the pool's own call queue hands the next chunk to whichever worker
  frees up.  A task is never split.  ``stats.scheduler_idle_seconds`` is
  the summed worker idle time the makespan hides.

Load is balanced in the partitioning, as in the paper (Sec. 3.1): many
more tiles than partitions, tiles hashed to partitions.  Out-of-range
worker counts are clamped (:func:`clamp_workers`).  Where the segment
cannot exist (no POSIX shared memory, or ``REPRO_DISABLE_SHM=1``)
``executor="process"`` runs the in-process loop, with byte-identical
output and one ``RuntimeWarning`` per process (:func:`fan_out_executor`).
"""

from __future__ import annotations

import atexit
import os
import pickle
import threading
import time
import warnings
from contextlib import contextmanager
from itertools import accumulate
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.result import JoinStats
from repro.core.stats import CpuCounters
from repro.kernels.shm import (
    Manifest,
    SharedColumnarStore,
    columnar_arrays,
    shm_enabled,
    sweep_orphan_segments,
    unlink_segment,
)
from repro.obs.trace import KIND_SECTION, KIND_TASK, KIND_WORKER
from repro.pbsm.grid import TileGrid
from repro.pbsm.leaf import Leaf, LeafOutcome, Region, join_leaf

EXECUTORS = ("simulated", "process")

#: Chunks submitted per worker in process mode; >1 smooths load imbalance
#: that the up-front LPT packing cannot foresee.
CHUNKS_PER_WORKER = 4

#: Environment override raising the worker-count clamp beyond the usable
#: CPU count (tests and benches on small machines oversubscribe through
#: this on purpose).
MAX_WORKERS_ENV = "REPRO_MAX_WORKERS"

#: ``(leaf, l_lo, l_hi, r_lo, r_hi)`` — one leaf's join task of the
#: process executor: the leaf's index in join order (its region is
#: ``PoolConfig``'s chain *leaf*) and two CSR slices into the id runs of
#: a :data:`TaskSource`.  Plain ints only.
IdTask = Tuple[int, int, int, int, int]

#: ``(left, right, l_ids, r_ids)`` — what a task's slices index, as a
#: pool worker builds it over its attached segment(s) (:func:`_run_dyn_chunk`):
#: per side, the relation's columns and the leaves' id runs, concatenated
#: in task order.
TaskSource = Tuple[Any, Any, Any, Any]

#: ``(leaf, suppressed, counters_dict, wall_seconds)`` — what a worker
#: reports per task next to the task's ``(rid, sid)`` buffers in its
#: result segment.  ``wall_seconds`` is measured where the task ran, so
#: per-task timing survives the process boundary instead of being dropped.
TaskMeta = Tuple[int, int, Dict[str, int], float]

#: ``(worker_label, cpu, chunk_wall, cpu_seconds, task_metas,
#: chunk_bytes)`` — one finished chunk as
#: :func:`_emit_pool_spans` consumes it; *cpu* is the CPU the
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
#: serve loop constructs one ``PBSM`` per query; re-warning the
#: same clamp on every request is noise, so each distinct message fires
#: exactly once.
_WARNED_CLAMPS: Set[str] = set()


def _warn_clamp(message: str, stacklevel: int = 3) -> None:
    """Emit a clamp or degrade ``RuntimeWarning`` exactly once per process,
    attributed *stacklevel* frames up (the caller of the public method)."""
    if message in _WARNED_CLAMPS:
        return
    _WARNED_CLAMPS.add(message)
    warnings.warn(message, RuntimeWarning, stacklevel=stacklevel)


def reset_clamp_warnings() -> None:
    """Forget previously-warned clamps (tests asserting on the warning)."""
    _WARNED_CLAMPS.clear()


def clamp_workers(workers: int, executor: str) -> int:
    """*workers* clamped to at least 1 and, for the process executor, to
    :func:`worker_cap`, with a :class:`RuntimeWarning` (once per process
    per distinct clamp) instead of raising or oversubscribing."""
    if workers < 1:
        _warn_clamp(f"workers={workers} is below 1; clamped to 1", stacklevel=4)
        return 1
    cap = worker_cap()
    if executor == "process" and workers > cap:
        _warn_clamp(
            f"workers={workers} exceeds the usable CPU count ({cap}); "
            f"clamped to {cap} (set {MAX_WORKERS_ENV} to allow "
            "oversubscription)",
            stacklevel=4,
        )
        return cap
    return workers


def fan_out_executor(executor: str) -> str:
    """The executor that runs a fan-out asked of *executor*: ``"process"``
    needs a shared-memory segment, and without one the in-process loop
    runs (``"simulated"``, one :class:`RuntimeWarning` per process)."""
    if executor == "process" and not shm_enabled():
        _warn_clamp(
            "executor='process' needs a shared-memory segment (POSIX "
            "shared memory, REPRO_DISABLE_SHM unset); running the "
            "in-process loop instead",
            stacklevel=5,  # fan_out_executor <- _new_stats <- run <- the caller
        )
        return "simulated"
    return executor


# ----------------------------------------------------------------------
# the pool worker's side: one entry point, configuration in every chunk
# ----------------------------------------------------------------------
def _chunk_blob(
    internal_name: str,
    regions: Sequence[Region],
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
    for leaf, l_lo, l_hi, r_lo, r_hi in tasks:
        task_started = time.perf_counter()
        counters = CpuCounters()
        (rid, sid), suppressed = join_leaf(
            internal_name, left, right, l_ids[l_lo:l_hi], r_ids[r_lo:r_hi],
            regions[leaf], "rpm", counters,
        )
        out_arrays[f"{leaf}.rid"] = rid
        out_arrays[f"{leaf}.sid"] = sid
        metas.append(
            (leaf, suppressed, counters.as_dict(), time.perf_counter() - task_started)
        )
    wall = time.perf_counter() - started
    cpu_seconds = time.process_time() - cpu_started
    # The parent unlinks after copying out (a worker crashing between
    # here and there leaves the segment to the next sweep).  If the reply
    # cannot even be serialised, unlink now: the parent will never see
    # the manifest, so nobody else can clean the segment up.
    results = SharedColumnarStore.create(out_arrays)
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
    unlink_segment(pickle.loads(blob)[-1][0])


#: Where a side's columns live: ``(manifest, prefix)`` of a long-lived
#: pinned segment, or ``(None, prefix)`` in the per-query segment.
Side = Tuple[Optional[Manifest], str]

#: ``(internal_name, grid_specs, chains, ids_manifest, sides)`` — the
#: per-query configuration every chunk carries (a warm pool outlives
#: every query).  *grid_specs* are the query's grids (the top-level one
#: and every repartitioning step's), *chains* each leaf's region as
#: ``(grid_index, pid)`` pairs, in leaf order.  *ids_manifest* names the
#: per-query segment; *sides* the left and right :data:`Side`.
PoolConfig = Tuple[str, Tuple, Tuple, Manifest, Tuple[Side, Side]]

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
    ``(config, tasks)`` pair (:data:`PoolConfig`).  Rebuilding the grids
    and the leaves' regions is cheap; pinned dataset
    segments stay attached across queries, the per-query segment is
    scoped to the chunk, so repeated queries over registered datasets
    touch the big columns without ever re-mapping them.
    """
    (internal_name, grid_specs, chains, ids_manifest, sides), tasks = pickle.loads(
        payload
    )
    grids = [TileGrid.from_spec(spec) for spec in grid_specs]
    regions = [tuple((grids[g], pid) for g, pid in chain) for chain in chains]
    ids = SharedColumnarStore.attach(ids_manifest)
    try:
        # The id runs always live in the per-query segment; each side's
        # columns next to them (``L.*``/``R.*``) or, for a registered
        # dataset, in its pinned segment (``D.*`` — pinned before anyone
        # knew which side of a query it would be).  Views only.
        left, right = (
            (ids if manifest is None else _pinned_store(manifest)).relation(prefix)
            for manifest, prefix in sides
        )
        source = (left, right, ids["L.ids"], ids["R.ids"])
        return _chunk_blob(internal_name, regions, source, tasks)
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


#: Seconds between a pool worker's checks that its parent still lives.
PARENT_POLL_SECONDS = 0.5


def _exit_with_parent(parent: int) -> None:
    """A pool worker's watch thread: end the worker once *parent* is no
    longer its parent (killed without shutting its pool down)."""
    while os.getppid() == parent:
        time.sleep(PARENT_POLL_SECONDS)
    os._exit(1)


def _pin_worker(slots: Any, cpus: Tuple[int, ...]) -> None:
    """Pool initializer: tie the worker's life to its parent's and pin
    it to the next CPU of *cpus*.

    A daemon thread polls the parent pid the worker was forked under
    (:func:`_exit_with_parent`): a SIGKILLed parent cannot shut its pool
    down, and workers left running would keep every segment they map
    resident.  (Not ``PR_SET_PDEATHSIG``: that fires when the *thread*
    that forked the worker exits, and a pool may be spawned from a
    short-lived thread.)

    *slots* is a queue holding each worker index ``0 .. W-1`` once;
    worker ``i`` takes ``cpus[i % len(cpus)]``.  (A queue rather than a
    shared ``multiprocessing.Value``: that one imports
    ``multiprocessing.sharedctypes``, ~0.35 MB more RSS in the server and
    in every worker.)  Where the platform cannot pin, the worker stays
    unpinned: an initializer that raises breaks the pool.
    """
    global _PINNED_CPU
    threading.Thread(
        target=_exit_with_parent, args=(os.getppid(),), name="parent-watch", daemon=True
    ).start()
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

    Spawning first reaps the segments of dead creators
    (:func:`~repro.kernels.shm.sweep_orphan_segments`): a process killed
    mid fan-out leaks its segments only until the next pool spawn.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, wait

    sweep_orphan_segments()
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


def _lpt(costs: Sequence[float], bins: int) -> Tuple[List[int], List[float]]:
    """The LPT greedy: each cost, in the order given (heaviest first),
    goes into the least-loaded of *bins* bins, the lowest index on a tie.

    Returns the bin of each cost and the bins' final loads.
    """
    loads = [0.0] * bins
    placed: List[int] = []
    for cost in costs:
        idx = min(range(bins), key=loads.__getitem__)
        placed.append(idx)
        loads[idx] += cost
    return placed, loads


def _chunk_tasks(tasks: List[IdTask], n_chunks: int) -> List[List[IdTask]]:
    """Pack tasks into *n_chunks* LPT-balanced chunks (by joined size)."""
    sized = sorted(tasks, key=lambda t: (-_task_size(t), t[0]))
    chunks: List[List[IdTask]] = [[] for _ in range(n_chunks)]
    placed, _loads = _lpt([_task_size(task) for task in sized], n_chunks)
    for task, idx in zip(sized, placed):
        chunks[idx].append(task)
    return [chunk for chunk in chunks if chunk]


def lpt_schedule(task_costs: Sequence[float], workers: int) -> Tuple[float, List[float]]:
    """Longest-processing-time-first scheduling.

    Returns ``(makespan, per-worker loads)``.  LPT is within 4/3 of the
    optimal makespan — plenty for a speedup model.
    """
    _placed, loads = _lpt(sorted(task_costs, reverse=True), workers)
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


def _emit_pool_spans(
    tracer: Any,
    stats: JoinStats,
    chunk_reports: List[ChunkReport],
    leaves: List[Leaf],
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
            for leaf, _suppressed, counter_dict, task_wall in metas:
                tracer.add_span(
                    "task",
                    task_wall,
                    kind=KIND_TASK,
                    parent_id=worker_span.span_id,
                    counters=counter_dict,
                    pid=leaves[leaf][2][0][1],
                    worker=label,
                )
    stats.worker_busy_seconds = busy_by_worker
    stats.scheduler_idle_seconds = max(
        0.0,
        stats.join_makespan_seconds * stats.n_workers
        - sum(busy_by_worker.values()),
    )


def _copy_out(
    payloads: List[bytes], blobs: List[bytes], n_leaves: int
) -> Tuple[Dict[int, LeafOutcome], List[ChunkReport]]:
    """Every task's outcome, and one :data:`ChunkReport` per chunk.

    The tasks' ``(rid, sid)`` runs are laid out by prefix sum, in leaf
    order, in one buffer pair sized from the result manifests' lengths
    (under RPM every pair has one owning leaf, so the runs are
    disjoint), and each run is copied out of its chunk's result segment
    straight into its slice, each segment unlinked once read.  A task's
    outcome holds views of its slices: adjacent, so
    :func:`~repro.pbsm.join.concat_rows` takes the buffers as they are.
    """
    decoded = [pickle.loads(blob) for blob in blobs]
    lengths = {key: n for *_, manifest in decoded for key, _, n, _ in manifest[1]}
    offsets = list(
        accumulate((lengths[f"{leaf}.rid"] for leaf in range(n_leaves)), initial=0)
    )
    rids = np.empty(offsets[-1], dtype=np.int64)
    sids = np.empty(offsets[-1], dtype=np.int64)
    outcomes: Dict[int, LeafOutcome] = {}
    chunk_reports: List[ChunkReport] = []
    for payload, blob, report in zip(payloads, blobs, decoded):
        worker_pid, cpu, chunk_wall, cpu_seconds, metas, manifest = report
        results = SharedColumnarStore.attach(manifest)
        try:
            for leaf, suppressed, counter_dict, task_wall in metas:
                # Copied, so no view keeps the segment mapped.
                lo, hi = offsets[leaf], offsets[leaf + 1]
                rid, sid = rids[lo:hi], sids[lo:hi]
                rid[:] = results[f"{leaf}.rid"]
                sid[:] = results[f"{leaf}.sid"]
                outcomes[leaf] = ((rid, sid), suppressed, CpuCounters(**counter_dict), task_wall)
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
    return outcomes, chunk_reports


def execute_process(
    leaves: List[Leaf],
    columns: Any,
    stats: JoinStats,
    internal_name: str,
    tracer: Any,
) -> Iterator[Tuple[Leaf, LeafOutcome]]:
    """Fan the leaves out as tasks over the warm pool and one segment.

    Lays every leaf's id runs, per side and in leaf order, straight
    into a segment as that side's one id array, next to the columns of
    each side whose relation names no pinned ``segment``, ships
    five-integer tasks next to the grids and each leaf's ownership
    chain, and copies each task's ``(rid, sid)`` runs out of the
    worker-created result segment into its slice of one leaf-ordered
    buffer pair (:func:`_copy_out`, under a ``collect`` span): the
    leaves' pieces tile it, so the output is byte-identical to the
    in-process loop and nobody concatenates it again.

    Segment build, payload encode and the copy-out all count into
    ``stats.ipc_seconds``; only the pipe traffic counts into
    ``stats.ipc_bytes_shipped``.  When a chunk fails, the result
    segments of the chunks that finished are unlinked before the error
    propagates (the parent unlinks every result segment); a dead
    worker's pool is replaced on the way out (:meth:`WarmPool.borrow`).
    """
    if not leaves:
        return
    workers = stats.n_workers
    tasks: List[IdTask] = []
    #: grid spec -> its index in the config's ``grid_specs``
    grid_index: Dict[Tuple, int] = {}
    chains: List[Tuple[Tuple[int, int], ...]] = []
    n_left = n_right = 0
    for leaf, (run_left, run_right, region) in enumerate(leaves):
        l_lo, r_lo = n_left, n_right
        n_left += len(run_left)
        n_right += len(run_right)
        tasks.append((leaf, l_lo, n_left, r_lo, n_right))
        chain = ((grid_index.setdefault(g.spec, len(grid_index)), pid) for g, pid in region)
        chains.append(tuple(chain))

    encode_started = time.perf_counter()
    # A side's columns may already live in a pinned registry segment;
    # with both pinned, the per-query segment carries only the CSR id
    # arrays, so a query's segment-build cost is O(partitioned ids),
    # not O(data).
    arrays: Dict[str, object] = {}
    sides: List[Side] = []
    for cols, prefix in ((columns.left, "L"), (columns.right, "R")):
        if cols.segment is None:
            arrays.update(columnar_arrays(prefix, cols))
        sides.append(cols.segment or (None, prefix))
    arrays["L.ids"] = [leaf[0] for leaf in leaves]
    arrays["R.ids"] = [leaf[1] for leaf in leaves]
    chunks = _chunk_tasks(tasks, workers * CHUNKS_PER_WORKER)

    with SharedColumnarStore.create(arrays) as store:
        config: PoolConfig = (
            internal_name,
            tuple(grid_index),
            tuple(chains),
            store.manifest,
            (sides[0], sides[1]),
        )
        payloads = [
            pickle.dumps((config, chunk), pickle.HIGHEST_PROTOCOL)
            for chunk in chunks
        ]
        bytes_shipped = sum(len(p) for p in payloads)
        ipc_seconds = time.perf_counter() - encode_started
        # The copy-out runs on the loan: a pool is shut down only after
        # its last borrower gives it back, so the workers that created
        # the result segments are alive, and no sweep takes them, until
        # every one is unlinked.
        with LIBRARY_POOL.borrow(workers) as pool:
            started = time.perf_counter()
            blobs = _drain(pool, payloads)
            stats.join_makespan_seconds = time.perf_counter() - started

            with tracer.span("collect", kind=KIND_SECTION) as sp:
                outcomes, chunk_reports = _copy_out(payloads, blobs, len(leaves))
            ipc_seconds += sp.wall_seconds
    stats.ipc_bytes_shipped = bytes_shipped + sum(len(blob) for blob in blobs)
    stats.ipc_seconds = ipc_seconds
    _emit_pool_spans(tracer, stats, chunk_reports, leaves)
    # One at a time, so no task's buffers outlive their decoding.
    for index, leaf in enumerate(leaves):
        yield leaf, outcomes.pop(index)


__all__ = [
    "CHUNKS_PER_WORKER",
    "EXECUTORS",
    "LIBRARY_POOL",
    "MAX_WORKERS_ENV",
    "WarmPool",
    "clamp_workers",
    "execute_process",
    "fan_out_executor",
    "lpt_schedule",
    "reset_clamp_warnings",
    "worker_cap",
]
