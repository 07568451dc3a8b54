"""Join plans: choose, execute, and EXPLAIN.

:func:`plan_join` profiles the inputs (through the cache), enumerates the
candidate space, and wraps the winner in a :class:`JoinPlan`.  The plan
executes through the ordinary drivers and keeps the estimates alongside
the measured :class:`~repro.core.result.JoinStats`, so
:meth:`JoinPlan.explain` can render estimated-versus-actual counters —
making the estimator's error observable instead of hidden.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, List, Optional, Sequence, Tuple, cast

from repro.core.result import JoinResult
from repro.io.costmodel import CostModel, require_positive
from repro.obs.trace import KIND_PLAN, KIND_SECTION, NULL_TRACER
from repro.pbsm import PBSM
from repro.planner.cache import PlannerCache
from repro.planner.enumerate import PlanCandidate, enumerate_candidates
from repro.planner.stats import JoinProfile, profile_join, relation_fingerprint
from repro.s3j import S3J
from repro.shj import SpatialHashJoin
from repro.sssj import SSSJ


def _run_candidate(
    candidate: PlanCandidate,
    left: Sequence[Tuple],
    right: Sequence[Tuple],
    memory_bytes: int,
    cost_model: Optional[CostModel],
    tracer: Optional[Any] = None,
) -> JoinResult:
    """Execute one candidate through its driver."""
    kwargs = dict(candidate.kwargs)
    if cost_model is not None:
        kwargs["cost_model"] = cost_model
    if tracer is not None:
        kwargs["tracer"] = tracer
    method = candidate.method
    if method == "pbsm":
        return PBSM(memory_bytes, **kwargs).run(left, right)
    if method == "s3j":
        return S3J(memory_bytes, **kwargs).run(left, right)
    if method == "sssj":
        return SSSJ(memory_bytes, **kwargs).run(left, right)
    if method == "shj":
        return SpatialHashJoin(memory_bytes, **kwargs).run(left, right)
    raise ValueError(f"planner cannot execute method {candidate.method!r}")


@dataclass
class JoinPlan:
    """A chosen plan, its rejected rivals, and (after execution) actuals."""

    chosen: PlanCandidate
    candidates: List[PlanCandidate]
    profile: JoinProfile
    memory_bytes: int
    cost_model: CostModel
    #: wall seconds spent profiling + enumerating (≈ 0 on a cache hit)
    planning_seconds: float = 0.0
    from_cache: bool = False
    #: whether (left, right) are memory-mapped ``.rcd`` relations — the
    #: ingest line of EXPLAIN prices mmap-open vs re-parse from this.
    inputs_mapped: Tuple[bool, bool] = (False, False)
    last_result: Optional[JoinResult] = field(default=None, repr=False)

    # ------------------------------------------------------------------
    def execute(
        self,
        left: Sequence[Tuple],
        right: Sequence[Tuple],
        tracer: Optional[Any] = None,
    ) -> JoinResult:
        """Run the chosen candidate and remember the measured statistics."""
        result = _run_candidate(
            self.chosen,
            left,
            right,
            self.memory_bytes,
            self.cost_model,
            tracer=tracer,
        )
        self.last_result = result
        return result

    # ------------------------------------------------------------------
    def explain(self, verbose: bool = False) -> str:
        """Render the plan: inputs, every candidate, and est-vs-actual."""
        jp = self.profile
        est = self.chosen.estimate
        lines: List[str] = []
        lines.append("JOIN PLAN")
        lines.append(
            f"  inputs             {jp.n_left:,} x {jp.n_right:,} KPEs, "
            f"memory {self.memory_bytes:,} bytes"
        )
        lines.append(
            f"  profile            coverage {jp.left.coverage:.3f}/{jp.right.coverage:.3f}, "
            f"skew {jp.left.skew:.1f}/{jp.right.skew:.1f}"
        )
        lines.append(
            f"  est. results       {jp.est_results:,.0f} "
            f"(selectivity {jp.est_selectivity:.3e})"
        )
        source = "plan cache" if self.from_cache else "fresh enumeration"
        lines.append(
            f"  planning           {self.planning_seconds * 1000:.2f} ms ({source})"
        )
        lines.append(f"  ingest             {self._explain_ingest()}")
        lines.append(
            f"  chosen             {self.chosen.describe()} "
            f"-> est {est.total_seconds:.3f}s "
            f"(io {est.io_seconds:.3f} + cpu {est.cpu_seconds:.3f})"
        )
        lines.append("  candidates (by estimated simulated seconds):")
        for rank, candidate in enumerate(self.candidates, start=1):
            marker = "*" if candidate is self.chosen else " "
            lines.append(
                f"   {marker}{rank:>2}. {candidate.describe():<44}"
                f"{candidate.estimate.total_seconds:>10.3f}s"
            )
        if verbose:
            lines.append("  chosen-plan phase estimate:")
            for phase, seconds in sorted(est.breakdown.items()):
                lines.append(f"    {phase:<14} {seconds:>10.3f}s")
        if self.last_result is not None:
            lines.extend(self._explain_actuals())
        return "\n".join(lines)

    def _explain_ingest(self) -> str:
        """Price making each input join-ready: mmap-open vs per-record parse.

        For a mapped (``.rcd``) input the line also shows what a
        re-parse *would* cost — the amortization ``repro build`` buys.
        """
        parts: List[str] = []
        sides = (
            ("left", self.profile.n_left, self.inputs_mapped[0]),
            ("right", self.profile.n_right, self.inputs_mapped[1]),
        )
        for label, n, mapped in sides:
            seconds = self.cost_model.ingest_seconds(n, mapped)
            if mapped:
                parse = self.cost_model.ingest_seconds(n, False)
                parts.append(
                    f"{label} mapped open {seconds:.3f}s "
                    f"(re-parse would be {parse:.3f}s)"
                )
            else:
                parts.append(f"{label} parse {seconds:.3f}s")
        return ", ".join(parts)

    def _explain_actuals(self) -> List[str]:
        stats = self.last_result.stats
        est = self.chosen.estimate
        predicted = est.predicted
        lines = ["  estimated vs. actual (after execution):"]

        def row(label: str, estimate: float, actual: float, fmt: str = ",.0f") -> str:
            ratio = estimate / actual if actual else float("inf") if estimate else 1.0
            return (
                f"    {label:<18}{estimate:>14{fmt}}{actual:>14{fmt}}"
                f"{ratio:>8.2f}x"
            )

        lines.append(f"    {'':<18}{'estimated':>14}{'actual':>14}{'ratio':>8}")
        lines.append(row("results", predicted.get("est_results", 0.0), stats.n_results))
        detected_actual = stats.n_results + stats.duplicates_suppressed + stats.duplicates_sorted_out
        lines.append(
            row("detected pairs", predicted.get("detected_pairs", 0.0), detected_actual)
        )
        if stats.n_partitions:
            lines.append(
                row("partitions", predicted.get("n_partitions", 0.0), stats.n_partitions)
            )
        if "repartitions" in predicted:
            lines.append(
                row("repartitions", predicted["repartitions"], stats.repartition_events)
            )
        if stats.records_partitioned:
            lines.append(
                row(
                    "replication",
                    predicted.get("replication_rate", 1.0),
                    stats.replication_rate,
                    ".3f",
                )
            )
        lines.append(row("io units", est.io_units, stats.io_units))
        lines.append(row("sim seconds", est.total_seconds, stats.sim_seconds, ".3f"))
        lines.extend(self._explain_phase_drift())
        return lines

    def _explain_phase_drift(self) -> List[str]:
        """Estimated vs. measured per-phase *shares* of the runtime.

        The estimate's breakdown is in simulated seconds while the
        measurement is wall time (the phase spans the drivers record), so
        the comparable quantity is each phase's share of its total — the
        drift column shows where the cost model misattributes work.
        """
        stats = self.last_result.stats
        est = self.chosen.estimate
        wall = stats.wall_seconds_by_phase
        total_wall = sum(wall.values())
        total_est = sum(est.breakdown.values())
        if not wall or total_wall <= 0.0 or total_est <= 0.0:
            return []
        lines = ["  phase shares, estimated vs. measured wall:"]
        for phase in sorted(set(est.breakdown) | set(wall)):
            est_share = est.breakdown.get(phase, 0.0) / total_est
            wall_share = wall.get(phase, 0.0) / total_wall
            drift = wall_share - est_share
            lines.append(
                f"    {phase:<14} est {est_share:>6.1%}  "
                f"wall {wall_share:>6.1%}  drift {drift:+7.1%}"
            )
        return lines


def plan_join(
    left: Sequence[Tuple],
    right: Sequence[Tuple],
    memory_bytes: int,
    *,
    cache: Optional[PlannerCache] = None,
    cost_model: Optional[CostModel] = None,
    workers: int = 1,
    tracer: Optional[Any] = None,
) -> JoinPlan:
    """Choose the cheapest plan for joining *left* and *right*.

    With a *cache*, repeated planning of the same inputs, budget and
    cost model returns a copy of the cached :class:`JoinPlan` without
    re-profiling (the candidates and profile are shared, the per-call
    fields — ``from_cache``, ``planning_seconds``, ``inputs_mapped``,
    ``last_result`` — are the caller's own).  Planning is traced as one ``plan`` span (with ``profile`` and ``enumerate``
    child sections on a fresh enumeration); ``planning_seconds`` is that
    span's wall time.  ``workers > 1`` adds parallel PBSM candidates to
    the enumeration.
    """
    require_positive("memory_bytes", memory_bytes)
    cost = cost_model or CostModel()
    tracer = tracer if tracer is not None else NULL_TRACER
    inputs_mapped = (
        bool(getattr(left, "mapped", False)),
        bool(getattr(right, "mapped", False)),
    )

    with tracer.span("plan", kind=KIND_PLAN) as plan_span:
        key = None
        cached: Optional[JoinPlan] = None
        if cache is not None:
            key = cache.plan_key(
                relation_fingerprint(left),
                relation_fingerprint(right),
                memory_bytes,
                (workers, cost),
            )
            cached = cast(Optional[JoinPlan], cache.get_plan(key))
        plan_span.set_tag("from_cache", cached is not None)
        if cached is None:
            jp = profile_join(left, right, cache, tracer=tracer)
            with tracer.span("enumerate", kind=KIND_SECTION):
                candidates = enumerate_candidates(jp, memory_bytes, cost, workers)
            chosen = candidates[0]
            plan_span.set_tag("chosen", chosen.describe())

    if cached is not None:
        # A per-call copy: the cached plan is shared by every concurrent
        # query that hits it, so the per-call fields must not be stamped
        # onto it (and a result parked on it would stay pinned by the
        # cache).  Same content can arrive mapped on one call and
        # in-memory on the next (identical fingerprints), hence
        # inputs_mapped is per call too.
        return replace(
            cached,
            from_cache=True,
            planning_seconds=plan_span.wall_seconds,
            inputs_mapped=inputs_mapped,
            last_result=None,
        )
    plan = JoinPlan(
        chosen=chosen,
        candidates=candidates,
        profile=jp,
        memory_bytes=memory_bytes,
        cost_model=cost,
        planning_seconds=plan_span.wall_seconds,
        inputs_mapped=inputs_mapped,
    )
    if cache is not None:
        # The cache keeps its own copy, so executing the returned plan
        # does not park the result inside the cache either.
        cache.put_plan(key, replace(plan))
    return plan
