"""repro — a reproduction of Dittrich & Seeger, ICDE 2000.

*Data Redundancy and Duplicate Detection in Spatial Join Processing*:
improvements to the two leading no-index spatial join algorithms —
PBSM (Patel & DeWitt) and S3J (Koudas & Sevcik) — centred on an online
Reference Point Method for duplicate elimination and on the choice of
internal (in-memory) join algorithm.

Quick start::

    from repro import PBSM, S3J, mb
    from repro.datasets import uniform_rects

    R = uniform_rects(10_000, seed=1)
    S = uniform_rects(10_000, seed=2, start_oid=1_000_000)
    result = PBSM(memory_bytes=mb(2.5), internal="sweep_trie").run(R, S)
    print(len(result), result.stats.sim_seconds)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every table and figure.
"""

from typing import Optional, Sequence, Tuple

from repro.core import (
    KPE,
    distance_join,
    CpuCounters,
    JoinResult,
    JoinStats,
    Space,
    intersects,
    make_kpe,
    reference_point,
)
from repro.estimate import GridHistogram
from repro.internal import INTERNAL_ALGORITHMS, internal_algorithm
from repro.io import CostModel, SimulatedDisk, mb
from repro.obs import KIND_SECTION, MetricsRegistry, NULL_TRACER, Tracer
from repro.pbsm import PBSM, ParallelPBSM, pbsm_join
from repro.planner import JoinPlan, PlannerCache, plan_join
from repro.rtree import IndexNestedLoopJoin, RTree, RTreeJoin, index_nested_loop_join, rtree_join
from repro.s3j import S3J, quadtree_join, s3j_join
from repro.shj import SpatialHashJoin, spatial_hash_join
from repro.sssj import SSSJ, sssj_join
from repro.verify import VerificationError, results_consistent, verify_driver, verify_result

__version__ = "1.0.0"

#: Fixed join method registry for :func:`spatial_join`.
JOIN_METHODS = ("pbsm", "s3j", "sssj", "shj", "rtree")

#: Everything :func:`spatial_join` accepts, including the planner.
SPATIAL_JOIN_METHODS = JOIN_METHODS + ("auto",)


def spatial_join(
    left: Sequence[Tuple],
    right: Sequence[Tuple],
    memory_bytes: int,
    method: str = "pbsm",
    workers: Optional[int] = None,
    tracer=None,
    **kwargs,
) -> JoinResult:
    """Run the filter step of a spatial intersection join.

    Parameters
    ----------
    left, right:
        Sequences of KPE tuples ``(oid, xl, yl, xh, yh)``, or relations
        that carry their columns: a mapped ``.rcd`` file
        (:func:`repro.datasets.load_relation`) or a
        :class:`~repro.kernels.columnar.ColumnarRelation`.  The columnar
        engine and the planner read those in place; a tuple engine sees
        them as lazy sequences of KPEs.
    memory_bytes:
        Main-memory budget for the join (see :func:`repro.io.mb`).
    method:
        "pbsm" (default — the paper's overall winner), "s3j", "sssj",
        "shj" (spatial hash join), "rtree" (index on both relations), or
        "auto" — let the cost-based planner profile the inputs and pick
        algorithm, internal join and ``t``-factor itself (its PBSM plans
        handle duplicates with the Reference Point Method).  The
        profile is computed from the inputs' columns
        (``docs/planner.md``): columnar and mapped inputs are planned
        without boxing a record, lists are converted once per call and
        the chosen engine runs on the same columns.  A NaN or infinite
        coordinate raises ``ValueError`` (side and row named) before
        anything is planned.

        "pbsm" defaults to ``internal="sweep_numpy"``: the columnar
        engine (row-id partitions, id-pair kernels, repartitioned pairs
        included; see ``docs/kernels.md``), which reports the same pairs
        several times faster.  Pass ``internal="sweep_list"`` (or
        "sweep_trie", ...) for the paper's tuple engine — what
        :class:`~repro.pbsm.PBSM` itself defaults to.
    workers:
        When given (and > 1), execute the join-phase partition pairs on a
        warm process pool via :class:`~repro.pbsm.ParallelPBSM` —
        supported for ``method="pbsm"`` and, as an enumeration hint, for
        ``method="auto"`` (the planner then costs parallel candidates
        against the sequential plans).  The pool is one process-wide
        instance (:data:`repro.pbsm.parallel.LIBRARY_POOL`), spawned by
        the first such call, reused by the next ones (respawned for
        another worker count or after a worker died) and shut down at
        exit.  Partition data reaches it through one zero-copy
        shared-memory segment (``docs/kernels.md``); when platform shared
        memory is missing or ``REPRO_DISABLE_SHM`` is set, the join runs
        the in-process loop instead (one ``RuntimeWarning``) and
        ``stats.executor`` records what actually ran (``"simulated"``).
        ``workers=1`` loops in-process (``"simulated"`` too).  Every one of them runs the
        same id tasks over the inputs' columns, so a NaN coordinate or
        an inverted MBR is rejected up front with a ``ValueError``
        naming the row.
        Result pairs are identical to the sequential execution.
    tracer:
        A :class:`~repro.obs.Tracer` to record spans on: one
        ``spatial_join`` section wrapping the planner's ``plan`` span
        (method="auto") and the driver's ``run``/``phase``/``worker``/
        ``task`` spans.  Defaults to the no-op tracer, whose spans still
        time themselves, so the stats below are always populated.
    kwargs:
        Forwarded to the driver (e.g. ``internal="sweep_trie"``,
        ``dedup="rpm"``/``"sort"``, ``replicate=True``,
        ``curve="peano"``).  With ``workers`` the join always runs the
        Reference Point Method (``docs/duplicates.md``): ``dedup="rpm"``
        is accepted and any other ``dedup`` raises ``ValueError``.
        With ``method="auto"``: forwarded to
        :func:`repro.planner.plan_join` (e.g. ``cache=...``,
        ``t_grid=...``, ``methods=...``).

    Returns
    -------
    JoinResult
        All ``(left_oid, right_oid)`` pairs whose MBRs intersect, each
        exactly once, plus execution statistics —
        ``stats.total_wall_seconds`` covers this whole call (planning
        included; ``stats.planning_seconds`` isolates the planner's
        share).  For ``method="auto"`` the chosen
        :class:`~repro.planner.JoinPlan` is attached as ``result.plan``
        (``result.plan.explain()`` renders the EXPLAIN report with
        estimated-vs-actual counters and phase drift).
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    with tracer.span(
        "spatial_join", kind=KIND_SECTION, method=method, workers=workers
    ) as sp:
        if workers is not None and method not in ("pbsm", "auto"):
            raise ValueError(
                f"workers= requires method='pbsm' or 'auto', got method={method!r}"
            )
        if method == "pbsm":
            # Columns all the way (docs/kernels.md).
            kwargs.setdefault("internal", "sweep_numpy")
        if workers is not None and method == "pbsm":
            if kwargs.pop("dedup", "rpm") != "rpm":
                raise ValueError(
                    "workers= runs the Reference Point Method only: the "
                    "offline sorting phase would serialise the parallel join"
                )
            kwargs.setdefault("executor", "process")
            result = ParallelPBSM(
                memory_bytes, workers, tracer=tracer, **kwargs
            ).run(left, right)
        elif method == "auto":
            from repro.planner.cache import DEFAULT_CACHE

            kwargs.setdefault("cache", DEFAULT_CACHE)
            if workers is not None:
                kwargs["workers"] = workers
            plan = plan_join(left, right, memory_bytes, tracer=tracer, **kwargs)
            result = plan.execute(left, right, tracer=tracer)
            result.plan = plan
            result.stats.planning_seconds = plan.planning_seconds
        elif method == "pbsm":
            result = PBSM(memory_bytes, tracer=tracer, **kwargs).run(left, right)
        elif method == "s3j":
            result = S3J(memory_bytes, tracer=tracer, **kwargs).run(left, right)
        elif method == "sssj":
            result = SSSJ(memory_bytes, tracer=tracer, **kwargs).run(left, right)
        elif method == "shj":
            result = SpatialHashJoin(memory_bytes, tracer=tracer, **kwargs).run(
                left, right
            )
        elif method == "rtree":
            # The index join has no memory knob; its budget is the buffer.
            result = RTreeJoin(tracer=tracer, **kwargs).run(left, right)
        else:
            raise ValueError(
                f"unknown method {method!r}; choose from {SPATIAL_JOIN_METHODS}"
            )
    result.stats.total_wall_seconds = sp.wall_seconds
    return result


__all__ = [
    "CostModel",
    "GridHistogram",
    "IndexNestedLoopJoin",
    "CpuCounters",
    "INTERNAL_ALGORITHMS",
    "JOIN_METHODS",
    "JoinPlan",
    "JoinResult",
    "JoinStats",
    "KPE",
    "MetricsRegistry",
    "NULL_TRACER",
    "PBSM",
    "ParallelPBSM",
    "PlannerCache",
    "RTree",
    "RTreeJoin",
    "S3J",
    "SPATIAL_JOIN_METHODS",
    "SSSJ",
    "SpatialHashJoin",
    "SimulatedDisk",
    "Tracer",
    "VerificationError",
    "Space",
    "distance_join",
    "index_nested_loop_join",
    "internal_algorithm",
    "intersects",
    "make_kpe",
    "mb",
    "pbsm_join",
    "plan_join",
    "quadtree_join",
    "reference_point",
    "rtree_join",
    "s3j_join",
    "spatial_hash_join",
    "spatial_join",
    "results_consistent",
    "sssj_join",
    "verify_driver",
    "verify_result",
]
