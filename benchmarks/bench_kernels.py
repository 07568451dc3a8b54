"""Bench A8: columnar kernel speedup and real multiprocess PBSM.

Two wall-clock claims ride on the kernels package:

* on a Fig.4-style large partition (100k rectangles a side) the vectorized
  forward-scan kernel (``sweep_numpy``) beats the list sweep by >= 10x —
  the batched candidate generation turns the per-element probe loop into
  a handful of array operations;
* ``ParallelPBSM(executor="process")`` actually speeds the join phase up
  on multicore hardware while producing byte-identical results.  The
  multicore assertion is gated on the machine's CPU count — on a single
  core the fan-out can only add IPC overhead, which the recorded JSON
  still documents honestly.

Unlike the figure benches these assert *wall clock*, not simulated
seconds: the kernels change no simulated cost, only real speed.
"""

import time

import pytest

from repro.bench.render import ExperimentResult
from repro.core.stats import CpuCounters
from repro.datasets import uniform_rects
from repro.internal import INTERNAL_ALGORITHMS
from repro.io.costmodel import mb
from repro.obs import KIND_SECTION, NULL_TRACER, Tracer
from repro.pbsm.parallel import ParallelPBSM, cpu_count

from benchmarks.conftest import column, record

#: The Fig.4-style large partition: 100k rectangles a side.
N_LARGE = 100_000
#: Mean rectangle edge: ~200 simultaneously active rectangles, the
#: "large partition" regime where the list sweep's O(n * active) hurts
#: while the kernel's y-striping keeps candidates near the result size.
MEAN_EDGE = 0.002

MIN_KERNEL_SPEEDUP = 10.0
MIN_PROCESS_SPEEDUP = 2.0
PROCESS_WORKERS = 4


def _timed_internal(name: str, left, right):
    algo = INTERNAL_ALGORITHMS[name]
    counters = CpuCounters()
    pairs = 0

    def count(r, s):
        nonlocal pairs
        pairs += 1

    start = time.perf_counter()
    algo(left, right, lambda r, s: count(r, s), counters)
    seconds = time.perf_counter() - start
    return pairs, seconds


def run_kernel_microbench(tracer=None) -> ExperimentResult:
    # Spans are recorded *after* each timed region (add_span with the
    # measured wall), so tracing costs the measurement nothing.
    tracer = tracer if tracer is not None else NULL_TRACER
    left = uniform_rects(N_LARGE, seed=81, mean_edge=MEAN_EDGE)
    right = uniform_rects(
        N_LARGE, seed=82, start_oid=1_000_000, mean_edge=MEAN_EDGE
    )
    rows = []
    base_seconds = None
    for name in ("sweep_list", "sweep_numpy"):
        pairs, seconds = _timed_internal(name, left, right)
        if base_seconds is None:
            base_seconds = seconds
        tracer.add_span(
            name, seconds, kind=KIND_SECTION, pairs=pairs, n=N_LARGE
        )
        rows.append(
            (
                name,
                pairs,
                round(seconds, 3),
                round(base_seconds / seconds, 1),
                round(pairs / seconds) if seconds > 0 else 0,
            )
        )
    return ExperimentResult(
        exp_id="Ablation A8a",
        title=f"Forward-scan kernel vs list sweep ({N_LARGE:,} rects/side)",
        columns=["internal", "pairs", "wall_sec", "speedup", "pairs_per_sec"],
        rows=rows,
        paper_claim=(
            "vectorized candidate generation removes the per-element probe "
            "loop the list sweep pays on large partitions (Fig. 4 regime)"
        ),
    )


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
        join = ParallelPBSM(
            memory, workers, internal="sweep_numpy", executor=executor,
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
        title="ParallelPBSM: process executor vs sequential (sweep_numpy)",
        columns=["executor", "pairs", "wall_sec", "speedup"],
        rows=rows,
        paper_claim=(
            "RPM makes partition pairs independent, so the join phase "
            "fans out over real processes without coordination"
        ),
        notes=[f"machine cpu_count={cpu_count()}"],
    )


@pytest.mark.benchmark(group="kernels")
def test_kernel_speedup(benchmark):
    tracer = Tracer()
    result = benchmark.pedantic(
        run_kernel_microbench, args=(tracer,), rounds=1, iterations=1
    )
    walls = column(result, "wall_sec")
    pairs = column(result, "pairs")
    speedups = column(result, "speedup")
    record(
        "kernels_forward_scan",
        result,
        tracer=tracer,
        workload=f"uniform {N_LARGE:,}x{N_LARGE:,}, mean_edge={MEAN_EDGE}",
        wall_seconds=dict(zip(column(result, "internal"), walls)),
        pairs_per_second=dict(
            zip(column(result, "internal"), column(result, "pairs_per_sec"))
        ),
    )
    assert len(set(pairs)) == 1  # identical result count
    assert speedups[-1] >= MIN_KERNEL_SPEEDUP


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
