"""Candidate-plan enumeration over the method/knob space.

The planner's search space is deliberately the cross product the paper's
experiments explore by hand:

* PBSM x {sweep_list, sweep_trie, sweep_tree} x a ``t``-factor grid
  (Fig. 4/5 x Sec. 3.2.3), every one with the Reference Point Method,
  plus one sort-based-dedup configuration so EXPLAIN can show *why* the
  online scheme wins (Fig. 3);
* S3J x its assignment/dedup strategies (original vs. size-replicated vs.
  hybrid — Fig. 10/11);
* SHJ and SSSJ as the one-pass baselines;
* the R-tree join, enumerated only when building two indexes is
  plausible (both inputs within a few memory budgets — an index is never
  "free" for a one-shot join).

Duplicate handling is not a dimension of the space: every PBSM plan
runs the Reference Point Method, and the one sort-based plan is there as
the paper's reference.  The parallel candidates carry no ``dedup`` key
at all: :class:`~repro.pbsm.ParallelPBSM` always runs RPM.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.io.costmodel import CostModel
from repro.planner.cost import (
    CostEstimate,
    estimate_pbsm,
    estimate_rtree,
    estimate_s3j,
    estimate_shj,
    estimate_sssj,
)
from repro.planner.stats import JoinProfile

#: The ``t``-factor grid enumerated for PBSM (1.0 = original formula (1)).
DEFAULT_T_GRID: Tuple[float, ...] = (1.0, 1.2, 1.5)

#: PBSM internal algorithms worth enumerating (nested loops never wins
#: at partition scale — Fig. 4).
PBSM_INTERNALS: Tuple[str, ...] = (
    "sweep_list",
    "sweep_trie",
    "sweep_tree",
    "sweep_numpy",
)

#: The internal every parallel PBSM candidate runs (the columnar engine).
PBSM_KERNEL_INTERNAL = "sweep_numpy"

#: S3J assignment strategies (its duplicate-handling axis).
S3J_STRATEGIES: Tuple[str, ...] = ("size", "original", "hybrid")

#: Building two R-trees is only considered when both inputs fit within
#: this many memory budgets (bulk-load working set).
RTREE_MEMORY_FACTOR = 4.0


@dataclass(frozen=True)
class PlanCandidate:
    """One enumerated configuration plus its cost estimate."""

    method: str
    kwargs: Dict[str, object] = field(default_factory=dict)
    estimate: CostEstimate = None

    def describe(self) -> str:
        """Stable human-readable label, e.g. ``pbsm(internal=sweep_trie, t=1.2)``."""
        if not self.kwargs:
            return self.method
        parts = []
        for key in sorted(self.kwargs):
            value = self.kwargs[key]
            short = {
                "internal": "internal",
                "t_factor": "t",
                "strategy": "strategy",
                "executor": "exec",
            }.get(key, key)
            parts.append(f"{short}={value}")
        return f"{self.method}({', '.join(parts)})"


def enumerate_candidates(
    jp: JoinProfile,
    memory_bytes: int,
    cost_model: Optional[CostModel] = None,
    t_grid: Sequence[float] = DEFAULT_T_GRID,
    methods: Optional[Sequence[str]] = None,
    workers: int = 1,
) -> List[PlanCandidate]:
    """All candidate plans for a join, each scored by the cost model.

    ``methods`` restricts the enumerated join methods (default: all of
    them); candidates are returned sorted by estimated total cost.  With
    ``workers > 1`` the process executor's parallel PBSM configurations
    join the space where its shared-memory segment can exist
    (``shm_enabled()``; without it ``executor="process"`` would run the
    in-process loop, which the sequential candidates already cover).
    """
    cost = cost_model or CostModel()
    wanted = set(methods) if methods is not None else None

    def include(name: str) -> bool:
        return wanted is None or name in wanted

    candidates: List[PlanCandidate] = []
    #: (side, n_partitions) -> sampled duplicate factor, replayed once per
    #: distinct grid instead of once per PBSM candidate.
    dup_factors: Dict[Tuple[int, int], Optional[float]] = {}

    if include("pbsm"):
        for internal in PBSM_INTERNALS:
            for t in t_grid:
                candidates.append(
                    PlanCandidate(
                        "pbsm",
                        {"internal": internal, "t_factor": t, "dedup": "rpm"},
                        estimate_pbsm(
                            jp,
                            memory_bytes,
                            cost,
                            internal=internal,
                            t_factor=t,
                            dup_factors=dup_factors,
                        ),
                    )
                )
        # The original PBSM (final sorting phase) as a reference point.
        candidates.append(
            PlanCandidate(
                "pbsm",
                {"internal": "sweep_trie", "t_factor": 1.2, "dedup": "sort"},
                estimate_pbsm(
                    jp,
                    memory_bytes,
                    cost,
                    internal="sweep_trie",
                    dedup="sort",
                    dup_factors=dup_factors,
                ),
            )
        )
        from repro.kernels.shm import shm_enabled

        if workers > 1 and shm_enabled():
            for t in t_grid:
                candidates.append(
                    PlanCandidate(
                        "pbsm",
                        {
                            "internal": PBSM_KERNEL_INTERNAL,
                            "t_factor": t,
                            "workers": workers,
                            "executor": "process",
                        },
                        estimate_pbsm(
                            jp,
                            memory_bytes,
                            cost,
                            internal=PBSM_KERNEL_INTERNAL,
                            t_factor=t,
                            workers=workers,
                            dup_factors=dup_factors,
                        ),
                    )
                )

    if include("s3j"):
        for strategy in S3J_STRATEGIES:
            candidates.append(
                PlanCandidate(
                    "s3j",
                    {"strategy": strategy},
                    estimate_s3j(jp, memory_bytes, cost, strategy=strategy),
                )
            )

    if include("shj"):
        candidates.append(
            PlanCandidate("shj", {}, estimate_shj(jp, memory_bytes, cost))
        )

    if include("sssj"):
        candidates.append(
            PlanCandidate("sssj", {}, estimate_sssj(jp, memory_bytes, cost))
        )

    if include("rtree"):
        input_bytes = (jp.n_left + jp.n_right) * cost.kpe_bytes
        if input_bytes <= RTREE_MEMORY_FACTOR * memory_bytes:
            candidates.append(
                PlanCandidate("rtree", {}, estimate_rtree(jp, memory_bytes, cost))
            )

    candidates.sort(key=lambda c: c.estimate.total_seconds)
    return candidates
