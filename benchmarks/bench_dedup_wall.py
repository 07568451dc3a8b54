"""Bench A12: duplicate handling on the clock — Fig. 3 in wall time.

The paper's Fig. 3 prices duplicate handling in simulated seconds: the
Reference Point Method is nearly free against original PBSM's final
sorting phase.  Bench A11 (``bench_twolayer.py``) adds two-layer
corner-class avoidance in the same currency, where it undercuts RPM.
This bench asks the same question of the wall clock, on the columnar
engine, for all four schemes:

* ``none`` (every detected pair is reported), ``rpm``, ``twolayer`` and
  ``sort``, each joining the same lists at the same grid;
* on the two datasets of the repo benchmark (``tiger50k`` at mb(0.25),
  ``uni30k`` at mb(0.06)) and on A11's own matched-grid workloads
  (uniform and zipf, mb(1.0), 64 tiles per partition);
* through three drivers: the sequential ``PBSM(sweep_numpy)``, the
  in-process id-task loop (``ParallelPBSM(executor="simulated")`` with
  ``result.pairs`` decoded) and the warm 2-worker process pool (the
  ``repro serve`` path, which never builds the pair list, so
  ``len(result)`` is what is read).  The id-task drivers run the two
  online schemes only: they reject ``sort``, and ``none`` has no owner
  rule to split work by.

Every cell is the median of :data:`REPETITIONS` runs; within a repetition
the schemes run back to back in a rotating order, and the ratio against
RPM is taken per repetition (paired), so drift of the box cancels.  The
inputs are KPE lists: a run includes the column conversion every caller
pays, identical across schemes.

Also recorded: where ``twolayer_join_ids`` spends its time on uni30k
(classification, sweep-axis probes, forward scans) against
``rpm_join_ids`` — what a *stored* class-sliced grid (the ``.rcd`` v2
idea) could save is the classification share alone.

``planner/enumerate.py`` proposes no two-layer plan because of this
record; ``dedup="twolayer"`` stays an explicit option.
"""

import cProfile
import gc
import pstats
import statistics
import time

import pytest

from repro.bench.render import ExperimentResult
from repro.io.costmodel import mb
from repro.kernels.shm import shm_enabled
from repro.pbsm import PBSM, ParallelPBSM
from repro.pbsm.parallel import LIBRARY_POOL

from benchmarks import bench_twolayer
from benchmarks.conftest import record
from benchmarks.e2e import specs

REPETITIONS = 15
WORKERS = 2
DEDUPS = ("none", "rpm", "twolayer", "sort")
ONLINE = ("rpm", "twolayer")
DRIVERS = ("sequential", "id_tasks", "warm_pool")
#: The grid of the kernel split: 58 leaves on uni30k, none repartitioned.
SPLIT_T_FACTOR = 3.0

#: A paired two-layer / RPM ratio below this in any cell means two-layer
#: wins somewhere and the planner needs a price for it, not a removal.
MIN_TWOLAYER_OVER_RPM = 0.95
MAX_RPM_OVER_NONE = 1.15
MIN_SORT_OVER_RPM = 1.5


def datasets():
    """``name -> (left, right, memory_bytes, tiles_per_partition)``."""
    out = {}
    for spec in (specs.TIGER50K, specs.UNI30K):
        left, right = specs.make_relations(spec, specs.DEFAULT_SEED)
        out[spec.name] = (left, right, mb(spec.memory_mb), 4)
    for name, (left, right) in bench_twolayer.workloads().items():
        out[f"a11_{name}"] = (
            left,
            right,
            bench_twolayer.MEMORY,
            bench_twolayer.TILES_PER_PARTITION,
        )
    return out


def make_join(driver, dedup, memory, tpp):
    """``call(left, right) -> (n_reported, result)``: run the join and read
    its result as the driver's callers do (what a repetition times)."""
    if driver == "sequential":
        join = PBSM(
            memory, internal="sweep_numpy", dedup=dedup, tiles_per_partition=tpp
        )
    else:
        join = ParallelPBSM(
            memory,
            WORKERS,
            internal="sweep_numpy",
            dedup=dedup,
            tiles_per_partition=tpp,
            executor="simulated" if driver == "id_tasks" else "process",
        )

    def call(left, right):
        result = join.run(left, right)
        n = len(result) if driver == "warm_pool" else len(result.pairs)
        return n, result

    return call


def time_cell(driver, schemes, left, right, memory, tpp, reference):
    """``dedup -> [ms per repetition]`` and ``dedup -> (reported, removed)``.

    Every scheme's warm-up run is checked against *reference*, the
    dataset's pair set (taken from the first run when ``None``); it is
    returned so one set a dataset is all that stays alive while timing.
    """
    calls = {d: make_join(driver, d, memory, tpp) for d in schemes}
    checked = {}
    for dedup, call in calls.items():
        n, result = call(left, right)
        pairs = result.pair_set()
        if reference is None:
            reference = pairs
        assert pairs == reference, (driver, dedup)
        if dedup != "none":  # exactly once
            assert n == len(reference), (driver, dedup)
        stats = result.stats
        removed = stats.duplicates_suppressed + stats.duplicates_sorted_out
        checked[dedup] = (n, removed)
        del result, pairs
    samples = {d: [] for d in schemes}
    for repetition in range(REPETITIONS):
        shift = repetition % len(schemes)
        for dedup in schemes[shift:] + schemes[:shift]:
            gc.collect()
            started = time.perf_counter()
            calls[dedup](left, right)
            samples[dedup].append((time.perf_counter() - started) * 1000.0)
    return samples, checked, reference


def paired_ratio(samples, dedup):
    ratios = [x / r for x, r in zip(samples[dedup], samples["rpm"])]
    return statistics.median(ratios), min(ratios), max(ratios)


def kernel_split():
    """One profiled uni30k join per online scheme at :data:`SPLIT_T_FACTOR`.

    cProfile inflates Python-level calls, so the shares are indicative.
    ``calls`` of ``forward_scan_batches`` counts generator resumes (three
    per one-batch scan), the same way for both kernels.
    """
    left, right = specs.make_relations(specs.UNI30K, specs.DEFAULT_SEED)
    split = {"t_factor": SPLIT_T_FACTOR}
    for dedup, kernel in (("rpm", "rpm_join_ids"), ("twolayer", "twolayer_join_ids")):
        join = PBSM(
            mb(specs.UNI30K.memory_mb),
            internal="sweep_numpy",
            dedup=dedup,
            t_factor=SPLIT_T_FACTOR,
        )
        join.run(left, right)
        profiler = cProfile.Profile()
        profiler.enable()
        stats = join.run(left, right).stats
        profiler.disable()
        assert stats.repartition_events == 0  # every leaf is one kernel call
        split["leaves"] = stats.n_partitions
        profile = {
            function: (calls, cumulative)
            for (_, _, function), (calls, _, _, cumulative, _) in pstats.Stats(
                profiler
            ).stats.items()
        }
        total = profile[kernel][1]
        row = {"kernel": kernel, "total_ms": round(total * 1000.0, 1)}
        for function in ("_classify", "_best_axis", "forward_scan_batches"):
            if function in profile:
                calls, cumulative = profile[function]
                row[function] = {
                    "calls": calls,
                    "ms": round(cumulative * 1000.0, 1),
                    "share": round(cumulative / total, 3),
                }
        split[dedup] = row
    return split


def run_dedup_wall():
    rows = []
    samples_ms = {}
    pooled = shm_enabled()
    if pooled:
        LIBRARY_POOL.start(WORKERS)
    try:
        for name, (left, right, memory, tpp) in datasets().items():
            reference = None
            for driver in DRIVERS:
                if driver == "warm_pool" and not pooled:
                    continue
                schemes = DEDUPS if driver == "sequential" else ONLINE
                samples, checked, reference = time_cell(
                    driver, schemes, left, right, memory, tpp, reference
                )
                for dedup in schemes:
                    n, dups = checked[dedup]
                    ratio = paired_ratio(samples, dedup)
                    samples_ms[f"{name}/{driver}/{dedup}"] = [
                        round(ms, 1) for ms in samples[dedup]
                    ]
                    rows.append(
                        (
                            name,
                            driver,
                            dedup,
                            round(statistics.median(samples[dedup]), 1),
                            round(min(samples[dedup]), 1),
                            round(max(samples[dedup]), 1),
                            round(ratio[0], 3),
                            round(ratio[1], 3),
                            round(ratio[2], 3),
                            n,
                            dups,
                        )
                    )
    finally:
        LIBRARY_POOL.shutdown()
    result = ExperimentResult(
        exp_id="Ablation A12",
        title=(
            f"Duplicate handling on the clock, columnar PBSM, "
            f"median of {REPETITIONS} interleaved runs"
        ),
        columns=[
            "dataset",
            "driver",
            "dedup",
            "median_ms",
            "min_ms",
            "max_ms",
            "vs_rpm",
            "vs_rpm_min",
            "vs_rpm_max",
            "reported",
            "dups_removed",
        ],
        rows=rows,
        paper_claim=(
            "Fig. 3 on the clock: RPM makes duplicate handling nearly free "
            "(within 10 % of reporting duplicates), the sorting phase of "
            "original PBSM costs a multiple of the join, and two-layer "
            "avoidance, cheapest in simulated seconds (A11), beats RPM in "
            "no cell when its class tables are re-derived per query"
        ),
        notes=[
            "vs_rpm is the median [min, max] of the per-repetition ratio "
            "to the RPM run of the same repetition",
            "id_tasks decodes result.pairs, warm_pool reads len(result); "
            "both run the online schemes only",
        ],
    )
    return result, samples_ms


@pytest.mark.benchmark(group="ablations")
def test_dedup_on_the_clock(benchmark):
    result, samples_ms = benchmark.pedantic(run_dedup_wall, rounds=1, iterations=1)
    split = kernel_split()
    record(
        "dedup_wall",
        result,
        repetitions=REPETITIONS,
        workers=WORKERS,
        samples_ms=samples_ms,
        twolayer_kernel_split=split,
        datasets={
            "tiger50k": "benchmarks.e2e TIGER50K, mb(0.25), tpp=4",
            "uni30k": "benchmarks.e2e UNI30K, mb(0.06), tpp=4",
            "a11_uniform": "bench_twolayer uniform, mb(1.0), tpp=64",
            "a11_zipf": "bench_twolayer zipf(alpha=1.2), mb(1.0), tpp=64",
        },
    )

    rows = [dict(zip(result.columns, row)) for row in result.rows]
    cells = {(r["dataset"], r["driver"], r["dedup"]): r for r in rows}
    for (dataset, driver, dedup), cell in cells.items():
        vs_rpm = cell["vs_rpm"]
        if dedup == "twolayer":
            # Two-layer wins no cell (a ratio under the floor would call
            # for a planner price instead of a removal).
            assert vs_rpm >= MIN_TWOLAYER_OVER_RPM, (dataset, driver, vs_rpm)
        if dedup == "sort":
            assert vs_rpm >= MIN_SORT_OVER_RPM, (dataset, vs_rpm)
        if dedup == "none":
            # Fig. 3's headline: RPM is nearly free.
            assert 1.0 / vs_rpm <= MAX_RPM_OVER_NONE, (dataset, vs_rpm)
            rpm = cells[(dataset, driver, "rpm")]
            assert cell["reported"] > rpm["reported"]  # the dataset replicates
    # The scans, not the classification, are what two-layer pays for.
    scans = {d: split[d]["forward_scan_batches"]["calls"] for d in ONLINE}
    assert scans["twolayer"] > 10 * scans["rpm"]
    assert split["twolayer"]["_classify"]["share"] < 0.25
