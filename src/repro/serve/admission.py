"""Admission control: bounded in-flight work, bounded queue, cost budget.

SOLAR (see PAPERS.md) motivates feeding cost estimates into admission
decisions: a service that accepts every query melts down on the first
expensive one.  The controller enforces three limits:

* **in-flight capacity** — at most ``max_inflight`` queries execute at
  once (an :class:`asyncio.Semaphore`);
* **queue depth** — at most ``max_queue`` more may wait for a slot;
  beyond that the query is *rejected immediately* instead of queued into
  an unbounded latency cliff;
* **cost budget** — a query whose planner estimate exceeds
  ``budget_seconds`` (simulated seconds, the cost model's currency) is
  rejected before it executes, however empty the server is.

Rejections raise :class:`AdmissionReject` with a machine-readable
``reason`` (``"capacity"`` or ``"budget"``) that the server maps onto
the ``repro_serve_admission_rejects_total`` counter.
"""

from __future__ import annotations

import asyncio
import math
from typing import AsyncIterator, Callable, Optional

from contextlib import asynccontextmanager


class AdmissionReject(Exception):
    """A query refused by admission control."""

    def __init__(self, reason: str, message: str) -> None:
        super().__init__(message)
        self.reason = reason


class AdmissionController:
    """Semaphore-backed slot manager with a reject-over-queue policy."""

    def __init__(
        self,
        max_inflight: int = 4,
        max_queue: int = 16,
        budget_seconds: Optional[float] = None,
        on_change: Optional[Callable[["AdmissionController"], None]] = None,
    ) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        if budget_seconds is not None and not (
            math.isfinite(budget_seconds) and budget_seconds >= 0
        ):
            raise ValueError(f"budget_seconds must be finite and >= 0, got {budget_seconds!r}")
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self.budget_seconds = budget_seconds
        #: invoked after every inflight/queue-depth transition — the
        #: server's hook for keeping the Prometheus gauges current.
        self.on_change = on_change
        self._slots = asyncio.Semaphore(max_inflight)
        self._inflight = 0
        self._waiting = 0

    def _changed(self) -> None:
        if self.on_change is not None:
            self.on_change(self)

    # ------------------------------------------------------------------
    @property
    def inflight(self) -> int:
        """Queries currently executing."""
        return self._inflight

    @property
    def queue_depth(self) -> int:
        """Queries waiting for an execution slot."""
        return self._waiting

    # ------------------------------------------------------------------
    def check_budget(self, estimated_seconds: float) -> None:
        """Reject a planner estimate above the per-query cost budget.

        Safe to call from any thread (everything else here belongs to the
        event loop).
        """
        budget = self.budget_seconds
        if budget is not None and estimated_seconds > budget:
            raise AdmissionReject(
                "budget",
                f"estimated cost {estimated_seconds:.3f}s exceeds the "
                f"per-query budget of {budget:.3f}s",
            )

    @asynccontextmanager
    async def slot(self) -> AsyncIterator[None]:
        """Hold one execution slot; reject instead of over-queueing."""
        if self._inflight >= self.max_inflight and self._waiting >= self.max_queue:
            raise AdmissionReject(
                "capacity",
                f"{self._inflight} queries in flight and {self._waiting} "
                f"queued (limits {self.max_inflight}/{self.max_queue})",
            )
        self._waiting += 1
        self._changed()
        try:
            await self._slots.acquire()
        finally:
            self._waiting -= 1
        self._inflight += 1
        self._changed()
        try:
            yield
        finally:
            self._inflight -= 1
            self._slots.release()
            self._changed()


__all__ = ["AdmissionController", "AdmissionReject"]
