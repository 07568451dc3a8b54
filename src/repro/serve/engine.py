"""The engine host: one persistent worker pool, one shared planner cache.

A one-shot join pays worker-pool spawn, dataset serialisation and plan
enumeration on every call; the whole point of ``repro serve`` is to pay
each of those once.  :class:`EngineHost` owns the amortised pieces:

* the **persistent** process pool — the process's one warm pool,
  :data:`~repro.pbsm.parallel.LIBRARY_POOL`, which every
  :class:`~repro.pbsm.ParallelPBSM` fan-out borrows (the library's
  ``spatial_join(workers=N)`` too) — spawned at startup, so no query
  ever spawns processes;
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

from typing import Any, Optional, Tuple

from repro.io.costmodel import CostModel
from repro.pbsm import ParallelPBSM
from repro.pbsm.parallel import LIBRARY_POOL, MAX_WORKERS_ENV, worker_cap
from repro.planner import PlannerCache, plan_join
from repro.planner.plan import JoinPlan
from repro.serve.registry import Dataset


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

    @property
    def pool(self) -> Optional[Any]:
        """The warm pool this host's fan-outs run on (``None`` with one
        worker, or while no pool of the host's size is running)."""
        if self.workers > 1 and LIBRARY_POOL.workers == self.workers:
            return LIBRARY_POOL.pool
        return None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the warm pool (idempotent; blocking)."""
        if self.workers > 1:
            LIBRARY_POOL.start(self.workers)

    def shutdown(self) -> None:
        """Close the warm pool (idempotent; blocking).

        A stopped server leaves no worker process behind, and the
        workers' mappings of the registry's pinned segments go with them.
        A fan-out still running keeps its pool until it is done; the
        next one spawns a fresh pool.
        """
        if self.workers > 1:
            LIBRARY_POOL.shutdown()

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
        """Execute *plan*, routing parallel PBSM through the pinned segments.

        Sequential plans run through ``JoinPlan.execute`` unchanged.  A
        parallel PBSM plan is rebuilt — when both datasets are pinned —
        with ``pinned=`` manifests, so the per-query segment carries only
        CSR id arrays.  Its fan-out borrows the warm pool; a query that
        finds a worker dead still fails, but the pool is replaced on the
        way out (:meth:`~repro.pbsm.parallel.WarmPool.borrow`), so the
        next one runs.
        """
        chosen = plan.chosen
        kwargs = dict(chosen.kwargs)
        if chosen.method == "pbsm" and "workers" in kwargs:
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
                pinned=pinned,
                **kwargs,
            )
            result = driver.run(left.kpes, right.kpes)
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
