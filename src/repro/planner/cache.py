"""Content-keyed caches for profiles, joint histograms, and whole plans.

The planner's catalog: relations are identified by the strided-sample
fingerprint of :func:`repro.planner.stats.relation_fingerprint`, so the
second join over the same inputs re-uses the cached
:class:`~repro.planner.stats.RelationProfile`, joint-space histograms and
— when the memory budget and knobs match — the complete
:class:`~repro.planner.plan.JoinPlan`, skipping profiling *and*
enumeration (the bench's "second run plans in ~zero time" property).

Thread safety
-------------
``repro serve`` shares one cache across every concurrent request (the
handlers run planner work on an executor thread), so all map access is
serialised by an internal lock.  Profile and histogram *construction*
deliberately happens outside the lock: two racing builders of the same
fingerprint do redundant work once, but neither blocks every other
thread's cache hit for the duration of a 100k-record profiling pass.

Eviction is LRU in all three maps: a hit refreshes the entry's recency,
and an insertion into a full map drops the least-recently-used entry —
an insertion-order drop would evict the service's hottest query the
moment ``max_plans`` one-off queries had passed through.  Profiles and
joint histograms (~100 KB each) are bounded at two per plan slot, the
two sides of a join, so a long-lived ``repro serve`` holds a fixed
amount of planner state however many relations pass through it.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.core.space import Space
from repro.estimate import GridHistogram
from repro.planner.stats import (
    PROFILE_RESOLUTION,
    RelationProfile,
    relation_fingerprint,
)


def _lru_get(table: Dict[Any, Any], key: Any) -> Optional[Any]:
    """``table[key]`` moved to the recency tail, or ``None`` on a miss."""
    value = table.pop(key, None)
    if value is not None:
        table[key] = value
    return value


def _lru_put(table: Dict[Any, Any], key: Any, value: Any, limit: int) -> None:
    """Insert at the recency tail, evicting from the head down to *limit*."""
    table.pop(key, None)
    while len(table) >= limit:
        table.pop(next(iter(table)))
    table[key] = value


class PlannerCache:
    """Profile / histogram / plan cache with hit-miss accounting."""

    def __init__(self, max_plans: int = 128) -> None:
        self.max_plans = max_plans
        self._lock = threading.RLock()
        #: In all three maps insertion order doubles as recency order
        #: (dicts preserve it; a hit re-inserts its key at the end).
        self._profiles: Dict[str, RelationProfile] = {}
        self._histograms: Dict[Tuple, GridHistogram] = {}
        self._plans: Dict[Tuple, object] = {}
        self.profile_hits = 0
        self.profile_misses = 0
        self.plan_hits = 0
        self.plan_misses = 0

    # ------------------------------------------------------------------
    # profiles and histograms
    # ------------------------------------------------------------------
    def relation_profile(self, kpes: Sequence[Tuple]) -> RelationProfile:
        """Profile *kpes*, reusing the cached profile on a fingerprint hit."""
        fingerprint = relation_fingerprint(kpes)
        with self._lock:
            cached = _lru_get(self._profiles, fingerprint)
            if cached is not None:
                self.profile_hits += 1
                return cached
            self.profile_misses += 1
        # Built outside the lock: profiling is the expensive part, and a
        # racing duplicate build is benign (last writer wins).
        profile = RelationProfile.build(kpes, fingerprint)
        with self._lock:
            _lru_put(self._profiles, fingerprint, profile, 2 * self.max_plans)
        return profile

    def joint_histogram(
        self,
        kpes: Sequence[Tuple],
        fingerprint: str,
        space_key: Tuple[float, float, float, float],
    ) -> GridHistogram:
        """Histogram of *kpes* over a joint space, cached per (relation, space)."""
        key = (fingerprint, space_key, PROFILE_RESOLUTION)
        with self._lock:
            cached = _lru_get(self._histograms, key)
        if cached is not None:
            return cached
        hist = GridHistogram.build(
            kpes, Space(*space_key), PROFILE_RESOLUTION
        )
        with self._lock:
            _lru_put(self._histograms, key, hist, 2 * self.max_plans)
        return hist

    # ------------------------------------------------------------------
    # plans
    # ------------------------------------------------------------------
    @staticmethod
    def plan_key(
        fingerprint_left: str,
        fingerprint_right: str,
        memory_bytes: int,
        extra: Tuple = (),
    ) -> Tuple:
        return (fingerprint_left, fingerprint_right, memory_bytes) + tuple(extra)

    def get_plan(self, key: Tuple) -> Optional[object]:
        with self._lock:
            plan = _lru_get(self._plans, key)
            if plan is not None:
                self.plan_hits += 1
        return plan

    def put_plan(self, key: Tuple, plan: object) -> None:
        with self._lock:
            self.plan_misses += 1
            _lru_put(self._plans, key, plan, self.max_plans)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "profiles": len(self._profiles),
                "histograms": len(self._histograms),
                "plans": len(self._plans),
                "profile_hits": self.profile_hits,
                "profile_misses": self.profile_misses,
                "plan_hits": self.plan_hits,
                "plan_misses": self.plan_misses,
            }


#: The module-level cache ``spatial_join(method="auto")`` uses by default.
DEFAULT_CACHE = PlannerCache()
