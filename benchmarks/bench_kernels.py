"""Kernel benches: the leaf scan, and Bench A8, real multiprocess PBSM.

The leaf scan times the forward-scan kernel with RPM ownership on the
leaves a sequential columnar PBSM run joins, without the end-to-end
harness: the leaves are captured once, then replayed through
``rpm_join_ids`` / ``region_join_ids``.  Its counts are exact and pinned,
at full scale and at the smoke scale CI runs.

``PBSM(workers=W, executor="process")`` actually speeds the join phase up on
multicore hardware while producing byte-identical results.  The multicore
assertion is gated on the machine's CPU count — on a single core the
fan-out can only add IPC overhead, which the recorded JSON still
documents honestly.

Unlike the figure benches these assert *wall clock* (or exact counts),
not simulated seconds: the kernels change no simulated cost, only real
speed.
"""

import statistics
import time

import pytest

import repro.kernels.sweep as sweep_module
import repro.pbsm.leaf as leaf_module
from repro import CpuCounters
from repro.bench.render import ExperimentResult
from repro.datasets import polyline_mbrs, uniform_rects
from repro.io.costmodel import mb
from repro.kernels.rpm import region_join_ids, rpm_join_ids
from repro.obs import KIND_SECTION, NULL_TRACER, Tracer
from repro.pbsm import PBSM
from repro.pbsm.parallel import cpu_count

from benchmarks.conftest import column, record

#: Mean rectangle edge: ~200 simultaneously active rectangles, the
#: Fig.4 "large partition" regime.
MEAN_EDGE = 0.002

MIN_PROCESS_SPEEDUP = 2.0
PROCESS_WORKERS = 4

#: The geometry of the ``benchmarks/e2e`` datasets (same generators and
#: seeds, unshuffled), at the PBSM ``t`` their auto plans
#: pick: ``(name, generator, records per side, generator kwargs, t,
#: memory MB)``.  tiger50k's leaves stripe, uni30k's do not.
SCAN_DATASETS = (
    ("tiger50k", polyline_mbrs, 50_000, {}, 1.2, 0.25),
    ("uni30k", uniform_rects, 30_000, {"mean_edge": 0.01}, 3.0, 0.06),
)
#: Records per side at smoke scale; memory budgets scale along.
SCAN_SMOKE_RECORDS = 2_000
SCAN_REPS = 5
SCAN_COUNTS = ["leaves", "candidates", "detected", "kept", "batch_ops"]
#: The exact counts per dataset, per scale (records per side or None).
SCAN_PINNED = {
    None: {
        "tiger50k": (17, 1_060_315, 132_932, 126_806, 10_784_780),
        "uni30k": (58, 2_177_369, 410_919, 352_671, 11_334_164),
    },
    SCAN_SMOKE_RECORDS: {
        "tiger50k": (16, 6_991, 205, 195, 40_592),
        "uni30k": (58, 10_001, 1_874, 1_586, 61_972),
    },
}


def capture_leaves(left, right, memory_bytes, t_factor):
    """``(a, b, regions)`` of every leaf a sequential columnar PBSM run
    joins, in its order (the leaf's kernel calls, recorded as made)."""
    leaves = []
    rpm, region = leaf_module.rpm_join_ids, leaf_module.region_join_ids

    def record_rpm(a, b, grid, pid, cpu):
        leaves.append((a, b, ((grid, pid),)))
        return rpm(a, b, grid, pid, cpu)

    def record_region(a, b, regions, cpu):
        leaves.append((a, b, regions))
        return region(a, b, regions, cpu)

    leaf_module.rpm_join_ids, leaf_module.region_join_ids = record_rpm, record_region
    try:
        PBSM(memory_bytes, internal="sweep_numpy", t_factor=t_factor).run(left, right)
    finally:
        leaf_module.rpm_join_ids, leaf_module.region_join_ids = rpm, region
    return leaves


def scan_leaves(leaves):
    """Join every leaf once; returns ``(detected, kept, batch_ops)``."""
    counters = CpuCounters()
    detected = kept = 0
    for a, b, regions in leaves:
        if len(regions) == 1:
            rid, _, suppressed = rpm_join_ids(a, b, *regions[0], counters)
        else:
            rid, _, suppressed = region_join_ids(a, b, regions, counters)
        kept += len(rid)
        detected += len(rid) + suppressed
    return detected, kept, counters.batch_ops


def count_candidates(leaves):
    """Candidate pairs the scan expands over *leaves*: the summed length
    of every anchor's window (``hi - lo`` of each ``_pass_batches`` call)."""
    total = 0
    scan = sweep_module._pass_batches

    def counting(yl, yh, lo, hi, *rest):
        nonlocal total
        total += int((hi - lo).sum())
        return scan(yl, yh, lo, hi, *rest)

    sweep_module._pass_batches = counting
    try:
        scan_leaves(leaves)
    finally:
        sweep_module._pass_batches = scan
    return total


def run_leaf_scan_bench(records=None) -> ExperimentResult:
    """Scan wall time (median of ``SCAN_REPS``) and exact counts per dataset,
    at full scale or *records* per side."""
    rows = []
    for name, generate, n, kwargs, t_factor, memory_mb in SCAN_DATASETS:
        size = records or n
        left = generate(size, seed=1, **kwargs)
        right = generate(size, seed=2, start_oid=1_000_000, **kwargs)
        leaves = capture_leaves(left, right, mb(memory_mb * size / n), t_factor)
        walls = []
        for _ in range(SCAN_REPS):
            start = time.perf_counter()
            detected, kept, batch_ops = scan_leaves(leaves)
            walls.append(time.perf_counter() - start)
        rows.append(
            (
                name, len(leaves), count_candidates(leaves), detected, kept,
                batch_ops, round(1000 * statistics.median(walls), 2),
            )
        )
    return ExperimentResult(
        exp_id="Kernels: leaf scan",
        title="forward scan + RPM ownership over the e2e datasets' PBSM leaves",
        columns=["dataset", *SCAN_COUNTS, "scan_ms"],
        rows=rows,
        notes=[f"records per side: {records or 'full'}", f"machine cpu_count={cpu_count()}"],
    )


def assert_scan_counts(result, records):
    counts = {row[0]: tuple(row[1:-1]) for row in result.rows}
    assert counts == SCAN_PINNED[records]


def test_leaf_scan_counts_at_smoke_scale():
    """What CI runs: the counts exact at 2,000 records per side."""
    assert_scan_counts(run_leaf_scan_bench(SCAN_SMOKE_RECORDS), SCAN_SMOKE_RECORDS)


@pytest.mark.benchmark(group="kernels")
def test_leaf_scan(benchmark):
    result = benchmark.pedantic(run_leaf_scan_bench, rounds=1, iterations=1)
    record(
        "kernels_scan",
        result,
        workload="tiger50k t=1.2 mb(0.25), uni30k t=3.0 mb(0.06): every leaf, rpm",
        scan_ms=dict(zip(column(result, "dataset"), column(result, "scan_ms"))),
    )
    assert_scan_counts(result, None)


def run_process_pbsm_bench(tracer=None) -> ExperimentResult:
    # Only the last (most parallel) config runs with the live tracer, so
    # the baseline configs' walls stay untouched and the trace still
    # shows the worker/task fan-out; each config also gets a summary
    # span added outside its timed region.
    tracer = tracer if tracer is not None else NULL_TRACER
    left = uniform_rects(40_000, seed=83, mean_edge=MEAN_EDGE)
    right = uniform_rects(
        40_000, seed=84, start_oid=1_000_000, mean_edge=MEAN_EDGE
    )
    memory = mb(0.25)
    rows = []
    base_seconds = None
    base_pairs = None
    configs = (
        ("simulated", 1),
        ("process", 1),
        ("process", PROCESS_WORKERS),
    )
    for executor, workers in configs:
        live_trace = tracer if (executor, workers) == configs[-1] else None
        join = PBSM(
            memory, workers=workers, internal="sweep_numpy", executor=executor,
            tracer=live_trace,
        )
        start = time.perf_counter()
        result = join.run(left, right)
        seconds = time.perf_counter() - start
        if live_trace is None:
            tracer.add_span(
                "config", seconds, kind=KIND_SECTION,
                executor=executor, workers=workers,
            )
        if base_seconds is None:
            base_seconds = seconds
            base_pairs = result.pairs
        # Identical task decomposition => identical ordered output.
        if workers == 1:
            assert result.pairs == base_pairs
        else:
            assert set(result.pairs) == set(base_pairs)
        rows.append(
            (
                f"{executor}/W={workers}",
                len(result.pairs),
                round(seconds, 3),
                round(base_seconds / seconds, 2),
            )
        )
    return ExperimentResult(
        exp_id="Ablation A8b",
        title="PBSM(workers=): process executor vs sequential (sweep_numpy)",
        columns=["executor", "pairs", "wall_sec", "speedup"],
        rows=rows,
        paper_claim=(
            "RPM makes partition pairs independent, so the join phase "
            "fans out over real processes without coordination"
        ),
        notes=[f"machine cpu_count={cpu_count()}"],
    )


@pytest.mark.benchmark(group="kernels")
def test_process_pbsm_speedup(benchmark):
    tracer = Tracer()
    result = benchmark.pedantic(
        run_process_pbsm_bench, args=(tracer,), rounds=1, iterations=1
    )
    walls = column(result, "wall_sec")
    speedups = column(result, "speedup")
    record(
        "kernels_process_pbsm",
        result,
        tracer=tracer,
        workload="uniform 40,000x40,000 PBSM join, memory=0.25MB",
        wall_seconds=dict(zip(column(result, "executor"), walls)),
    )
    # The >=2x claim needs real cores; a single-CPU container can only
    # document the overhead, which the JSON records either way.
    if cpu_count() >= PROCESS_WORKERS:
        assert speedups[-1] >= MIN_PROCESS_SPEEDUP
