"""The library's warm process pool: one per process, reused, replaced, reaped.

``spatial_join(workers=N)`` borrows :data:`repro.pbsm.parallel.LIBRARY_POOL`
instead of spawning a pool per call.  Pinned here: consecutive joins run
on the same worker processes; joins asking for different worker counts
at once all finish; a killed worker fails one call and the next call
runs on a fresh pool with byte-identical pairs; a process that used the
pool exits promptly without leaking a segment; a forked child gets
a pool of its own instead of the parent's; and a child forked while
another thread is inside the resource tracker still attaches a
segment.  Every pool — the first, one
respawned after a worker died, a forked child's — pins each worker to
one CPU of its own, and every worker span says which CPU and how much
CPU time its chunk took.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from repro import PBSM, spatial_join
from repro.io.costmodel import mb
from repro.kernels.shm import SharedColumnarStore, shm_enabled
from repro.obs import KIND_WORKER, Tracer
from repro.pbsm import parallel
from repro.pbsm.parallel import (
    LIBRARY_POOL,
    MAX_WORKERS_ENV,
    _warm_worker,
)

from tests.conftest import random_kpes

pytestmark = pytest.mark.skipif(
    not shm_enabled(), reason="needs platform shared memory"
)

LEFT = random_kpes(1500, seed=81, max_edge=0.03)
RIGHT = random_kpes(1500, seed=82, start_oid=10**6, max_edge=0.03)
MEMORY = mb(0.02)
TIMEOUT = 10.0
SRC = Path(__file__).resolve().parents[1] / "src"


def pooled_join(tracer=None, workers=2):
    result = spatial_join(LEFT, RIGHT, MEMORY, workers=workers, tracer=tracer)
    assert result.stats.executor == "process"
    return result


def expected_arrays(workers=2):
    result = PBSM(
        MEMORY, workers=workers, internal="sweep_numpy", executor="simulated"
    ).run(LEFT, RIGHT)
    return result.to_arrays()


def assert_same_pairs(result, expected):
    rid, sid = result.to_arrays()
    assert np.array_equal(rid, expected[0]) and np.array_equal(sid, expected[1])


def worker_pids(tracer):
    """The ``pid-N`` labels of a trace's worker spans, as pids."""
    labels = {span.tags["worker"] for span in tracer.spans_of_kind(KIND_WORKER)}
    assert labels and all(label.startswith("pid-") for label in labels)
    return {int(label[4:]) for label in labels}


def pool_pids(pool):
    """The pids of both workers of a warm 2-worker *pool*."""
    futures = [pool.submit(_warm_worker, 0.05) for _ in range(2)]
    pids = {future.result(TIMEOUT) for future in futures}
    assert len(pids) == 2
    return pids


def worker_affinity(seconds):
    """Pool task: this worker's pid and CPU set, after a warm-up sleep."""
    time.sleep(seconds)
    return os.getpid(), sorted(os.sched_getaffinity(0))


def assert_pinned(pool, workers=2):
    """Each worker of a warm *pool* runs on one CPU, all of them distinct
    where this process has a CPU per worker."""
    futures = [pool.submit(worker_affinity, 0.1) for _ in range(workers)]
    affinity = dict(future.result(TIMEOUT) for future in futures)
    assert len(affinity) == workers
    assert all(len(cpus) == 1 for cpus in affinity.values()), affinity
    if len(os.sched_getaffinity(0)) >= workers:
        assert len({cpus[0] for cpus in affinity.values()}) == workers, affinity


pinning = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity"
)


def test_consecutive_joins_run_on_the_same_workers():
    first, second = Tracer(), Tracer()
    pooled_join(first)
    pool = LIBRARY_POOL.pool
    pooled_join(second)
    assert LIBRARY_POOL.pool is pool
    assert worker_pids(first) | worker_pids(second) <= pool_pids(pool)


@pinning
def test_every_worker_is_pinned_to_a_cpu_of_its_own():
    pooled_join()
    assert_pinned(LIBRARY_POOL.pool)


@pinning
def test_worker_spans_carry_their_cpu_and_cpu_time():
    tracer = Tracer()
    pooled_join(tracer)
    spans = tracer.spans_of_kind(KIND_WORKER)
    assert spans
    parent_cpus = os.sched_getaffinity(0)
    for span in spans:
        assert span.tags["cpu"] in parent_cpus
        assert 0.0 < span.counters["cpu_seconds"]


def test_joins_asking_for_two_worker_counts_at_once_all_finish(monkeypatch):
    """Each call respawns the pool at its own size; the pool a running
    call holds is closed only once that call has given it back."""
    monkeypatch.setenv(MAX_WORKERS_ENV, "3")
    drain = parallel._drain

    def slow_drain(pool, payloads):
        time.sleep(0.2)  # a stall between taking the pool and submitting
        return drain(pool, payloads)

    monkeypatch.setattr(parallel, "_drain", slow_drain)
    expected = {workers: expected_arrays(workers) for workers in (2, 3)}
    start = threading.Barrier(2)
    failures = []

    def joins(workers):
        try:
            start.wait(TIMEOUT)
            for _ in range(4):
                assert_same_pairs(pooled_join(workers=workers), expected[workers])
        except BaseException as exc:  # reported by the main thread
            failures.append((workers, exc))

    threads = [threading.Thread(target=joins, args=(w,)) for w in (2, 3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(6 * TIMEOUT)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


def test_a_killed_worker_fails_one_call_and_the_next_one_runs(own_shm_segments):
    expected = expected_arrays()
    pooled_join()
    dead = LIBRARY_POOL.pool
    os.kill(min(pool_pids(dead)), signal.SIGKILL)
    # The pool finds out on its own thread; wait until it has, so the
    # failing call cannot start a chunk that is then killed.
    deadline = time.monotonic() + TIMEOUT
    while True:
        try:
            dead.submit(_warm_worker, 0.0).result(TIMEOUT)
        except BrokenProcessPool:
            break
        assert time.monotonic() < deadline, "the pool never noticed"
        time.sleep(0.01)
    with pytest.raises(BrokenProcessPool):
        pooled_join()
    assert LIBRARY_POOL.pool is not dead
    assert_same_pairs(pooled_join(), expected)
    assert own_shm_segments() == set()
    if hasattr(os, "sched_setaffinity"):
        assert_pinned(LIBRARY_POOL.pool)  # the respawned pool too


CHILD = """
from repro import spatial_join
from repro.io.costmodel import mb
from repro.datasets import uniform_rects

left = uniform_rects(3000, seed=1, mean_edge=0.02)
right = uniform_rects(3000, seed=2, mean_edge=0.02, start_oid=10**6)
stats = spatial_join(left, right, mb(0.02), workers=2).stats
assert stats.executor == "process", stats.executor
print(" ".join(label[4:] for label in stats.worker_busy_seconds))
"""


def test_a_process_that_used_the_pool_exits_promptly_and_cleanly(own_shm_segments):
    env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_MAX_WORKERS="2")
    started = time.monotonic()
    child = subprocess.run(
        [sys.executable, "-c", CHILD],
        env=env,
        capture_output=True,
        text=True,
        timeout=TIMEOUT,
    )
    assert child.returncode == 0, child.stderr
    assert time.monotonic() - started < TIMEOUT
    assert "leaked shared_memory" not in child.stderr
    assert "Traceback" not in child.stderr
    workers = {int(pid) for pid in child.stdout.split()}
    assert workers
    # The child and its workers are gone; their pids name what they made.
    own_shm_segments.pids |= workers
    assert own_shm_segments() == set()


def test_a_forked_child_runs_its_own_pool():
    expected = expected_arrays()
    tracer = Tracer()
    pooled_join(tracer)
    parent_workers = worker_pids(tracer)
    pid = os.fork()
    if pid == 0:  # the child: report through the exit code only
        code = 1
        try:
            assert LIBRARY_POOL.pool is None  # the parent's is not ours
            child_tracer = Tracer()
            assert_same_pairs(pooled_join(child_tracer), expected)
            assert not worker_pids(child_tracer) & parent_workers
            if hasattr(os, "sched_setaffinity"):
                assert_pinned(LIBRARY_POOL.pool)
            LIBRARY_POOL.shutdown()
            code = 0
        finally:
            os._exit(code)
    assert child_exit_code(pid, "the forked child's join") == 0
    # ... and the parent's pool is still the one it had.
    assert worker_pids(tracer) <= pool_pids(LIBRARY_POOL.pool)


def test_a_child_forked_while_another_thread_is_in_the_tracker_attaches():
    """``fork`` copies the resource tracker's lock as it is.  A pool
    worker forked while another thread creates, attaches or unlinks a
    segment must still attach one (it used to block on the copy forever,
    and the join waiting for its chunk with it)."""
    from multiprocessing import resource_tracker

    resource_tracker.ensure_running()
    held, release = threading.Event(), threading.Event()

    def hold_the_tracker_lock():
        with resource_tracker._resource_tracker._lock:
            held.set()
            release.wait(TIMEOUT)

    with SharedColumnarStore.create({"x": np.arange(5)}) as store:
        holder = threading.Thread(target=hold_the_tracker_lock)
        holder.start()
        try:
            assert held.wait(TIMEOUT)
            pid = os.fork()
            if pid == 0:  # the child: report through the exit code only
                code = 1
                try:
                    with SharedColumnarStore.attach(store.manifest) as attached:
                        code = 0 if attached["x"].tolist() == [0, 1, 2, 3, 4] else 1
                finally:
                    os._exit(code)
        finally:
            release.set()
            holder.join(TIMEOUT)
        assert child_exit_code(pid, "the forked child's attach") == 0


def child_exit_code(pid, what):
    """The exit code of forked child *pid*; killed and failed after TIMEOUT."""
    deadline = time.monotonic() + TIMEOUT
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail(f"{what} did not finish")
        time.sleep(0.02)
