"""The engine host: one persistent worker pool, one shared planner cache.

A one-shot join pays worker-pool spawn, dataset serialisation and plan
enumeration on every call; the whole point of ``repro serve`` is to pay
each of those once.  :class:`EngineHost` owns the amortised pieces:

* a **persistent** :class:`~concurrent.futures.ProcessPoolExecutor`,
  created at startup and handed to every
  :class:`~repro.pbsm.ParallelPBSM` fan-out via its ``pool=`` hook — no
  query ever spawns processes;
* the shared :class:`~repro.planner.PlannerCache` (thread-safe, LRU), so
  the second occurrence of any distinct query re-uses its plan with zero
  re-profiling;
* the plumbing that routes a chosen parallel plan through the **pinned**
  dataset segments of the registry (workers attach each pinned segment
  once and keep it mapped — see ``pbsm/parallel.py``).

``plan`` and ``execute`` are deliberately separate calls: the server
needs the plan's cost estimate *between* them to apply the admission
budget before any join work starts.  Both are blocking and must be
reached through :func:`~repro.serve.executor.run_blocking` from async
code (lint rule RPL007).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Optional, Tuple

from repro.io.costmodel import CostModel
from repro.pbsm import ParallelPBSM
from repro.pbsm.parallel import MAX_WORKERS_ENV, worker_cap
from repro.planner import PlannerCache, plan_join
from repro.planner.plan import JoinPlan
from repro.serve.registry import Dataset


def _warm_worker(seconds: float) -> int:
    """Pool warm-up task: occupy a worker long enough to force spawning."""
    time.sleep(seconds)
    import os

    return os.getpid()


def _spawn_pool(workers: int) -> Any:
    """A new pool with every worker already running."""
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


class EngineHost:
    """Blocking join engine wrapped for service use (pool + shared cache)."""

    def __init__(
        self,
        memory_bytes: int,
        workers: int = 1,
        *,
        cache: Optional[PlannerCache] = None,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        if memory_bytes <= 0:
            raise ValueError("memory_bytes must be positive")
        cap = worker_cap()
        if workers > cap:
            # Same clamp ParallelPBSM applies; surfacing it here keeps
            # the plan enumeration and the pool size consistent.
            workers = cap
        self.memory_bytes = memory_bytes
        self.workers = max(1, workers)
        self.cache = cache if cache is not None else PlannerCache()
        self.cost_model = cost_model or CostModel()
        self.pool: Optional[Any] = None
        #: Guards ``pool``: concurrent queries can fail on the same dead
        #: pool, and only one of them may respawn it.
        self._pool_lock = threading.Lock()
        self._started = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the persistent pool (idempotent; blocking)."""
        if self._started:
            return
        self._started = True
        if self.workers > 1:
            pool = _spawn_pool(self.workers)
            with self._pool_lock:
                self.pool = pool

    def _replace_pool(self, dead: Any) -> None:
        """Swap the broken pool *dead* for a fresh one (first caller wins)."""
        workers = self.workers
        with self._pool_lock:
            if self.pool is not dead:
                return  # already replaced, or the host is shutting down
            dead.shutdown(wait=False)
            self.pool = _spawn_pool(workers)

    def shutdown(self) -> None:
        """Tear the pool down (idempotent; blocking)."""
        with self._pool_lock:
            pool = self.pool
            self.pool = None
        self._started = False
        if pool is not None:
            pool.shutdown(wait=True)

    # ------------------------------------------------------------------
    # planning and execution (blocking; reach via run_blocking)
    # ------------------------------------------------------------------
    def plan(
        self,
        left: Dataset,
        right: Dataset,
        memory_bytes: Optional[int] = None,
        tracer: Optional[Any] = None,
    ) -> JoinPlan:
        """Plan a join through the shared cache (``method="auto"`` path)."""
        return plan_join(
            left.kpes,
            right.kpes,
            memory_bytes if memory_bytes is not None else self.memory_bytes,
            cache=self.cache,
            cost_model=self.cost_model,
            workers=self.workers,
            tracer=tracer,
        )

    def execute(
        self,
        plan: JoinPlan,
        left: Dataset,
        right: Dataset,
        tracer: Optional[Any] = None,
    ) -> Any:
        """Execute *plan*, routing parallel PBSM through the persistent pool.

        Sequential plans run through ``JoinPlan.execute`` unchanged.  A
        parallel *process* PBSM plan is rebuilt with ``pool=`` (no spawn)
        and — when both datasets are pinned — with ``pinned=``
        manifests, so the per-query segment carries only CSR id arrays.
        A *thread* plan
        runs in-host: its whole point is skipping the process boundary,
        so it takes neither the pool nor pinned manifests.

        A pool whose worker died is broken for good
        (:class:`~concurrent.futures.process.BrokenProcessPool`): the
        query that finds out still fails, but not before the pool is
        replaced, so the next one runs.
        """
        chosen = plan.chosen
        kwargs = dict(chosen.kwargs)
        with self._pool_lock:
            pool = self.pool
        if (
            chosen.method == "pbsm"
            and "workers" in kwargs
            and kwargs.get("executor", "process") == "process"
            and pool is not None
        ):
            workers = kwargs.pop("workers")
            kwargs.setdefault("executor", "process")
            pinned: Optional[Tuple[Any, Any]] = None
            if left.manifest is not None and right.manifest is not None:
                pinned = (left.manifest, right.manifest)
            driver = ParallelPBSM(
                plan.memory_bytes,
                workers,
                cost_model=plan.cost_model,
                tracer=tracer,
                pool=pool,
                pinned=pinned,
                **kwargs,
            )
            try:
                result = driver.run(left.kpes, right.kpes)
            except BrokenProcessPool:
                self._replace_pool(pool)
                raise
        else:
            result = plan.execute(left.kpes, right.kpes, tracer=tracer)
        # result -> plan only.  A plan -> result back reference would
        # close a cycle, and a served pair list would then wait for the
        # cyclic collector instead of being freed when the handler drops
        # it (+34 MB peak RSS on a 127k-pair hot query).
        plan.last_result = None
        result.plan = plan
        result.stats.planning_seconds = plan.planning_seconds
        return result


__all__ = ["EngineHost", "MAX_WORKERS_ENV"]
