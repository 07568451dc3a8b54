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
    CpuCounters,
    JoinResult,
    JoinStats,
    Space,
    intersects,
    make_kpe,
    reference_point,
)

# pbsm before internal: repro.internal pulls in the kernels, which import
# repro.pbsm.grid, whose package imports repro.internal back.
from repro.pbsm import PBSM
from repro.estimate import GridHistogram
from repro.internal import INTERNAL_ALGORITHMS, internal_algorithm
from repro.io import CostModel, SimulatedDisk, mb
from repro.kernels.columnar import ColumnarRelation
from repro.obs import KIND_SECTION, MetricsRegistry, NULL_TRACER, Tracer
from repro.planner import JoinPlan, PlannerCache, plan_join
from repro.rtree import RTree, RTreeJoin
from repro.s3j import S3J
from repro.shj import SpatialHashJoin
from repro.sssj import SSSJ

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
        Sequences of KPE tuples ``(oid, xl, yl, xh, yh)``, or a
        :class:`~repro.kernels.columnar.ColumnarRelation` — what
        :func:`repro.datasets.load_relation` opens an ``.rcd`` file as.
        The columnar engine and the planner read one in place; a tuple
        engine sees it as a lazy sequence of KPEs.
    memory_bytes:
        Main-memory budget for the join (see :func:`repro.io.mb`).
    method:
        "pbsm" (default — the paper's overall winner), "s3j", "sssj",
        "shj" (spatial hash join), "rtree" (index on both relations), or
        "auto" — let the cost-based planner profile the inputs and pick
        the join method and its ``t``-factor or strategy itself (its PBSM
        plans run the columnar engine under the Reference Point Method).  The
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
        warm process pool (``PBSM(workers=N)``, whose ``executor``
        defaults to ``"process"``) — supported for ``method="pbsm"``
        and, as an enumeration hint, for
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
        ``workers=1`` is the sequential join.  Every one of them runs the
        same leaves over the inputs' columns, so a NaN coordinate or
        an inverted MBR is rejected up front with a ``ValueError``
        naming the row.
        The result holds the same pairs as the sequential execution, in
        the same leaf order whenever both runs use the same number of
        partitions (a parallel run uses at least one per worker).
    tracer:
        A :class:`~repro.obs.Tracer` to record spans on: one
        ``spatial_join`` section wrapping the planner's ``plan`` span
        (method="auto") and the driver's ``run``/``phase``/``worker``/
        ``task`` spans.  Defaults to the no-op tracer, whose spans still
        time themselves, so the stats below are always populated.
    kwargs:
        Forwarded to the driver (e.g. ``internal="sweep_trie"``,
        ``dedup="rpm"``/``"sort"``, ``replicate=True``,
        ``curve="peano"``).  With ``workers > 1`` the join always runs
        the Reference Point Method (``docs/duplicates.md``): ``PBSM``
        accepts ``dedup="rpm"`` and raises ``ValueError`` for any other.
        With ``method="auto"``: forwarded to
        :func:`repro.planner.plan_join` (``cache=...``,
        ``cost_model=...``); the planner chooses the method and its
        knobs, so it takes no driver keyword.

    Returns
    -------
    JoinResult
        All ``(left_oid, right_oid)`` pairs whose MBRs intersect, each
        exactly once, plus execution statistics.  A PBSM result under
        the Reference Point Method (the default, and every ``workers``
        run) keeps two int64 arrays:
        ``len(result)`` and ``result.to_arrays()`` box nothing, and
        ``result.pairs`` is a read-only sequence that builds the tuples
        only while it is iterated — not a ``list`` (no ``append``; use
        ``list(result.pairs)`` for one).  Other methods and
        ``dedup="sort"`` return a ``list``.
        ``stats.total_wall_seconds`` covers this whole call (planning
        included; ``stats.planning_seconds`` isolates the planner's
        share).  For ``method="auto"`` the chosen
        :class:`~repro.planner.JoinPlan` is attached as ``result.plan``
        (``result.plan.explain(result=result)`` renders the EXPLAIN
        report with estimated-vs-actual counters and phase drift).  The
        plan holds no reference back to the result.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    with tracer.span(
        "spatial_join", kind=KIND_SECTION, method=method, workers=workers
    ) as sp:
        if workers is not None:
            if method not in ("pbsm", "auto"):
                raise ValueError(
                    f"workers= requires method='pbsm' or 'auto', got method={method!r}"
                )
            kwargs["workers"] = workers
        if method == "pbsm":
            # Columns all the way (docs/kernels.md).
            kwargs.setdefault("internal", "sweep_numpy")
            result = PBSM(memory_bytes, tracer=tracer, **kwargs).run(left, right)
        elif method == "auto":
            from repro.planner.cache import DEFAULT_CACHE

            kwargs.setdefault("cache", DEFAULT_CACHE)
            # Each list converted once: the plan is made and run on these.
            with tracer.span("ingest", kind=KIND_SECTION):
                left = ColumnarRelation.from_kpes(left)
                right = ColumnarRelation.from_kpes(right)
            plan = plan_join(left, right, memory_bytes, tracer=tracer, **kwargs)
            result = plan.execute(left, right, tracer=tracer)
            result.plan = plan
            result.stats.planning_seconds = plan.planning_seconds
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
    "PlannerCache",
    "RTree",
    "RTreeJoin",
    "S3J",
    "SPATIAL_JOIN_METHODS",
    "SSSJ",
    "SpatialHashJoin",
    "SimulatedDisk",
    "Tracer",
    "Space",
    "internal_algorithm",
    "intersects",
    "make_kpe",
    "mb",
    "plan_join",
    "reference_point",
    "spatial_join",
]
