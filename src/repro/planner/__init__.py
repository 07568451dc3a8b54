"""Cost-based join planner: statistics, enumeration, plans, EXPLAIN.

The paper's practical lesson (Sec. 3.3, Figs. 4/12) is that no single
join configuration wins everywhere — the join method, the ``t``-factor
and the partitioning scheme all trade off against dataset shape.  This
subsystem automates the choice:

1. :mod:`repro.planner.stats` profiles the inputs (content-fingerprinted,
   so re-profiling is cached away);
2. :mod:`repro.planner.cost` prices each candidate with the same
   :class:`~repro.io.costmodel.CostModel` the simulator charges;
3. :mod:`repro.planner.enumerate` spans the candidates it can choose:
   columnar PBSM x ``t`` (sequential, and on the process executor with
   ``workers > 1``), S3J x strategy, SHJ and SSSJ;
4. :mod:`repro.planner.plan` picks the cheapest, executes it through
   the ordinary drivers, and renders EXPLAIN output with
   estimated-vs-actual counters.

Entry points: ``spatial_join(..., method="auto")``, :func:`plan_join`,
and the CLI's ``python -m repro explain LEFT RIGHT``.
"""

from repro.planner.cache import DEFAULT_CACHE, PlannerCache
from repro.planner.cost import (
    CostEstimate,
    estimate_pbsm,
    estimate_s3j,
    estimate_shj,
    estimate_sssj,
)
from repro.planner.enumerate import (
    DEFAULT_T_GRID,
    S3J_STRATEGIES,
    PlanCandidate,
    enumerate_candidates,
)
from repro.planner.plan import JoinPlan, plan_join
from repro.planner.stats import (
    JoinProfile,
    RelationProfile,
    profile_join,
    relation_fingerprint,
)

__all__ = [
    "CostEstimate",
    "DEFAULT_CACHE",
    "DEFAULT_T_GRID",
    "JoinPlan",
    "JoinProfile",
    "PlanCandidate",
    "PlannerCache",
    "RelationProfile",
    "S3J_STRATEGIES",
    "enumerate_candidates",
    "estimate_pbsm",
    "estimate_s3j",
    "estimate_shj",
    "estimate_sssj",
    "plan_join",
    "profile_join",
    "relation_fingerprint",
]
