"""Candidate-plan enumeration: the configurations the planner can choose.

* PBSM on the columnar engine (``internal="sweep_numpy"``, the Reference
  Point Method) x a ``t``-factor grid (Sec. 3.2.3), run sequentially
  and, with ``workers > 1`` where shared memory exists, on the process
  executor (``PBSM(workers=W)``, which carries no ``dedup`` key: it runs
  RPM only);
* S3J x its assignment/dedup strategies (original vs. size-replicated vs.
  hybrid — Fig. 10/11);
* SHJ and SSSJ as the one-pass baselines.

The paper's internal-algorithm study (Fig. 4), its sort-against-RPM
comparison (Fig. 3) and the R-tree join are not priced here: no such
configuration was ever the cheapest candidate (docs/planner.md, "What the
planner does not enumerate").  ``python -m repro.bench fig3 fig4 fig5``
reproduces them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.io.costmodel import CostModel
from repro.kernels.shm import shm_enabled
from repro.planner.cost import (
    CostEstimate,
    Overflow,
    estimate_pbsm,
    estimate_s3j,
    estimate_shj,
    estimate_sssj,
)
from repro.planner.stats import JoinProfile

#: The ``t``-factor grid enumerated for PBSM (1.0 = original formula (1)).
#: It reaches the ``t`` at which no partition pair of the sweep and
#: benchmark joins overflows any more (docs/planner.md, "Accuracy").
DEFAULT_T_GRID: Tuple[float, ...] = (1.0, 1.2, 1.5, 2.0, 3.0)

#: The internal every PBSM candidate runs (the columnar engine).
PBSM_KERNEL_INTERNAL = "sweep_numpy"

#: S3J assignment strategies (its duplicate-handling axis).
S3J_STRATEGIES: Tuple[str, ...] = ("size", "original", "hybrid")


@dataclass(frozen=True)
class PlanCandidate:
    """One enumerated configuration plus its cost estimate."""

    method: str
    kwargs: Dict[str, object] = field(default_factory=dict)
    estimate: CostEstimate = None

    def describe(self) -> str:
        """Stable human-readable label, e.g. ``pbsm(dedup=rpm, internal=sweep_numpy, t=1.2)``."""
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
    workers: int = 1,
) -> List[PlanCandidate]:
    """All candidate plans for a join, each scored by the cost model,
    sorted by estimated total cost.

    With ``workers > 1`` the process executor's parallel PBSM
    configurations join the space where its shared-memory segment can
    exist (``shm_enabled()``; without it ``executor="process"`` would run
    the in-process loop, which the sequential candidates already cover).
    """
    cost = cost_model or CostModel()
    #: (side, n_partitions) -> sampled duplicate factor, replayed once per
    #: distinct grid instead of once per PBSM candidate.
    dup_factors: Dict[Tuple[int, int], Optional[float]] = {}
    #: (side, n_partitions, t) -> the overflow model's replay, once per
    #: distinct grid and t instead of once per PBSM candidate.
    overflows: Dict[Tuple[int, int, float], Overflow] = {}

    fan_outs = [1]
    if workers > 1 and shm_enabled():
        fan_outs.append(workers)
    candidates: List[PlanCandidate] = []
    for fan_out in fan_outs:
        for t in DEFAULT_T_GRID:
            kwargs: Dict[str, object] = {"internal": PBSM_KERNEL_INTERNAL, "t_factor": t}
            if fan_out == 1:
                kwargs["dedup"] = "rpm"
            else:
                kwargs.update(workers=fan_out, executor="process")
            estimate = estimate_pbsm(
                jp,
                memory_bytes,
                cost,
                t_factor=t,
                workers=fan_out,
                dup_factors=dup_factors,
                overflows=overflows,
            )
            candidates.append(PlanCandidate("pbsm", kwargs, estimate))
    for strategy in S3J_STRATEGIES:
        candidates.append(
            PlanCandidate(
                "s3j",
                {"strategy": strategy},
                estimate_s3j(jp, memory_bytes, cost, strategy=strategy),
            )
        )
    candidates.append(PlanCandidate("shj", {}, estimate_shj(jp, memory_bytes, cost)))
    candidates.append(PlanCandidate("sssj", {}, estimate_sssj(jp, memory_bytes, cost)))
    candidates.sort(key=lambda c: c.estimate.total_seconds)
    return candidates
