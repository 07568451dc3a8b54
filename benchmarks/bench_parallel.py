"""Bench A7: parallel PBSM speedup (simulated shared-nothing workers).

The paper's related work cites parallel spatial join processing
[BKS 96, Pat 98]; RPM is what makes PBSM embarrassingly parallel (each
result is owned by exactly one partition, hence one worker).  The speedup
curve must rise with workers and flatten at the Amdahl bound set by the
sequential partitioning and repartitioning phases and the largest single
leaf.  Each row is ``PBSM(internal="sweep_trie", workers=W,
executor="simulated")``; the ``W=1`` row is the sequential run.
"""

import pytest

from repro.bench.experiments import run_ablation_parallel

from benchmarks.conftest import column, record


@pytest.mark.benchmark(group="ablations")
def test_parallel_speedup(benchmark):
    result = benchmark.pedantic(run_ablation_parallel, rounds=1, iterations=1)
    record("ablation_parallel", result)
    speedups = column(result, "speedup")
    totals = column(result, "total_sec")
    results = set(column(result, "results"))
    sequential = [
        p + rp
        for p, rp in zip(column(result, "partition_sec"), column(result, "repartition_sec"))
    ]
    assert len(results) == 1  # worker count cannot change the answer
    # Monotone non-increasing runtime, meaningful speedup by 8 workers.
    assert totals == sorted(totals, reverse=True)
    assert speedups[3] > 1.5
    # Amdahl: total never drops below the sequential phases.
    assert all(t >= s for t, s in zip(totals, sequential))
