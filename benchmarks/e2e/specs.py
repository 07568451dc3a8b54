"""What the benchmark runs and what it reports: datasets, workloads, metrics.

This module is the single definition of the names in ``BENCHMARK.json``;
``test_harness.py`` asserts the two agree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

#: Generator seeds of the (left, right) relation of every dataset.  The
#: geometry is pinned: see ``make_relations`` for what ``--seed`` varies.
GEOMETRY_SEEDS = (1, 2)
RIGHT_OID_BASE = 10**6
DEFAULT_SEED = 1

#: One run of a workload is this many blocks (one under ``--smoke``).
BLOCKS = 5
#: ``run_seconds`` of ``BENCHMARK.json``: about the seconds of timed ops
#: that the ``ops_per_block`` counts below add up to on the reference box
#: (2 s a block).  The counts scale with ``--seconds``; 35 gives issue 12's
#: run (5 x 7, 4, 10 and 7 ops), which the driver's time cap does not fit.
RUN_SECONDS = 10

#: Records per side of the ``--smoke`` scale (memory budgets scale along,
#: so partition counts — the replication regime — stay the same).
SMOKE_RECORDS = 2_000


@dataclass(frozen=True)
class Dataset:
    """One pinned pair of relations and the memory budget it is joined at."""

    name: str
    generator: str
    n: int
    memory_mb: float
    kwargs: Dict[str, float] = field(default_factory=dict)

    def scaled(self, n: int) -> "Dataset":
        return replace(self, n=n, memory_mb=self.memory_mb * n / self.n)


#: ``tiger50k`` at mb(0.25): 10 partitions, replication 1.04, 126,806
#: pairs, 6,126 duplicates suppressed by RPM — low coverage, small output.
#: ``uni30k`` at mb(0.06): 29 partitions, replication 1.20, 352,671 pairs
#: — high coverage, large output per input record (the paper's Fig. 13
#: axis).  At mb(2.5) either join is ONE partition with no replication
#: and no duplicates: the regime the paper is not about.
TIGER50K = Dataset("tiger50k", "polyline_mbrs", 50_000, 0.25)
UNI30K = Dataset("uni30k", "uniform_rects", 30_000, 0.06, {"mean_edge": 0.01})


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    dataset: Dataset
    #: timed ops per block at ``RUN_SECONDS``; fixed, not time-boxed
    ops_per_block: int
    why: str


WORKLOADS: Tuple[WorkloadSpec, ...] = (
    WorkloadSpec(
        "lib_default",
        TIGER50K,
        2,
        "spatial_join() with library defaults on in-memory lists: the tuple "
        "engine (records partitioner, sweep_list, scalar RPM) does all the work",
    ),
    WorkloadSpec(
        "lib_mapped_auto",
        UNI30K,
        1,
        "open two .rcd files and join with method=auto and a cold plan cache: "
        "mmapstore, planner and the columnar two-layer kernels do the work",
    ),
    WorkloadSpec(
        "serve_hot",
        TIGER50K,
        3,
        "summary-only join on a running server: plan-cache hit, persistent "
        "2-worker pool, pinned shm segments, result checksum; no streaming",
    ),
    WorkloadSpec(
        "serve_stream",
        UNI30K,
        2,
        "same server, all 352k pairs streamed in 20k-pair pages and decoded "
        "by the client: the wire path is about half of the op",
    ),
)
WORKLOAD_BY_NAME = {w.name: w for w in WORKLOADS}


def make_relations(dataset: Dataset, seed: int) -> Tuple[List[tuple], List[tuple]]:
    """The (left, right) KPE lists of *dataset* for one benchmark seed.

    The geometry comes from ``GEOMETRY_SEEDS`` whatever *seed* is; the
    seed shuffles the record order of both relations.  Regenerating the
    geometry per seed is not affordable here: across generator seeds 1-8
    the 50k x 50k polyline join returns 78k to 135k pairs, a swing several
    times wider than the bound any metric is gated on, so runs with
    different seeds would disagree because their *inputs* differ.  With
    pinned geometry every seed joins the same rectangles in another
    order: result set, partition counts and duplicate counts are
    identical, and only order-sensitive work (sorting, gathers) varies.
    """
    import repro.datasets as datasets

    generate = getattr(datasets, dataset.generator)
    left = generate(dataset.n, seed=GEOMETRY_SEEDS[0], **dataset.kwargs)
    right = generate(
        dataset.n, seed=GEOMETRY_SEEDS[1], start_oid=RIGHT_OID_BASE, **dataset.kwargs
    )
    rng = random.Random(seed)
    rng.shuffle(left)
    rng.shuffle(right)
    return left, right


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float = 0.0


#: Bounds: the share of the parent's median by which a metric may worsen
#: before a change counts as a regression.  Timings are at reference speed
#: (``speed.py``); over ten runs on a busy host they then spread by 0.03 to
#: 0.15 of their median (raw wall times: 0.20 to 0.50).  Issue 12 asked for
#: 0.10; the widest spread seen has to stay inside the bound with room to
#: spare, or the benchmark fails its own A/A test one time in a few (README,
#: "A/A mode and noise").  Peak memory spreads by 0.003 to 0.03 across seeds.
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("lat_p50_ms", "ms", "lower", 0.25),
    Metric("ops_per_s", "1/s", "higher", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.05),
)


def _layers(*rows: Tuple[str, str, str]) -> Tuple[Metric, ...]:
    return tuple(Metric(name, unit, better) for name, unit, better in rows)


#: Every per-layer metric of the traced run.  A traced run measures all of
#: them on its workload's dataset, whether or not the workload's op calls
#: the layer (``layers.ON_PATH`` says which it does).
PER_LAYER: Tuple[Metric, ...] = _layers(
    ("datasets.generate_ms", "ms", "lower"),
    ("mmapstore.write_rcd_ms", "ms", "lower"),
    ("rcd.bytes_per_record", "bytes", "lower"),
    ("mmapstore.open_ms", "ms", "lower"),
    ("mmapstore.materialize_ms", "ms", "lower"),
    ("columnar.from_kpes_list_ms", "ms", "lower"),
    ("columnar.from_kpes_mapped_ms", "ms", "lower"),
    ("planner.fingerprint_ms", "ms", "lower"),
    ("planner.profile_ms", "ms", "lower"),
    ("planner.enumerate_ms", "ms", "lower"),
    ("planner.candidates", "count", "lower"),
    ("planner.plan_cold_ms", "ms", "lower"),
    ("planner.plan_hit_ms", "ms", "lower"),
    ("planner.cache_hit_ratio", "ratio", "higher"),
    ("planner.est_over_wall", "ratio", "lower"),
    ("pbsm.phase_partition_ms", "ms", "lower"),
    ("pbsm.phase_join_ms", "ms", "lower"),
    ("pbsm.planning_ms", "ms", "lower"),
    ("pbsm.repartition_events", "count", "lower"),
    ("pbsm.join_unattributed_ms", "ms", "lower"),
    ("partitioner.partition_tuple_ms", "ms", "lower"),
    ("assign.partition_plan_ms", "ms", "lower"),
    ("partitioner.n_partitions", "count", "lower"),
    ("partitioner.replication_rate", "ratio", "lower"),
    ("partitioner.replicas_created", "count", "lower"),
    ("internal.sweep_list_ms", "ms", "lower"),
    ("internal.sweep_list_tests", "count", "lower"),
    ("refpoint.rpm_scalar_ms", "ms", "lower"),
    ("sweep.forward_scan_ms", "ms", "lower"),
    ("sweep.batch_ops_per_result", "ratio", "lower"),
    ("rpm.join_ids_ms", "ms", "lower"),
    ("twolayer.join_ids_ms", "ms", "lower"),
    ("dedup.duplicates_suppressed", "count", "lower"),
    ("dedup.useful_ratio", "ratio", "higher"),
    ("result.consume_ms", "ms", "lower"),
    ("shm.create_ms", "ms", "lower"),
    ("shm.pinned_bytes", "bytes", "lower"),
    ("registry.register_file_ms", "ms", "lower"),
    ("engine.start_ms", "ms", "lower"),
    ("engine.plan_hit_ms", "ms", "lower"),
    ("engine.execute_ms", "ms", "lower"),
    ("parallel.makespan_ms", "ms", "lower"),
    ("parallel.busy_ms", "ms", "lower"),
    ("parallel.worker_utilization", "ratio", "higher"),
    ("parallel.tasks_stolen", "count", "lower"),
    ("parallel.ipc_bytes", "bytes", "lower"),
    ("admission.slot_ms", "ms", "lower"),
    ("admission.rejects", "count", "lower"),
    ("protocol.checksum_ms", "ms", "lower"),
    ("protocol.paginate_encode_ms", "ms", "lower"),
    ("protocol.decode_ms", "ms", "lower"),
    ("protocol.bytes_per_pair", "bytes", "lower"),
    ("server.start_ready_ms", "ms", "lower"),
    ("server.first_query_ms", "ms", "lower"),
    ("server.ping_ms", "ms", "lower"),
    ("server.elapsed_p50_ms", "ms", "lower"),
    ("client.overhead_ms", "ms", "lower"),
    ("client.first_page_ms", "ms", "lower"),
    ("proc.cpu_s_per_op", "s", "lower"),
    ("e2e.lat_p50_ms", "ms", "lower"),
    ("e2e.lat_p90_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.path_coverage", "ratio", "higher"),
)

#: Count metrics: identical across two traced runs of the same seed.
EXACT_COUNTS = tuple(
    m.name
    for m in PER_LAYER
    if m.unit in ("count", "bytes") and m.name not in ("parallel.tasks_stolen",)
)
