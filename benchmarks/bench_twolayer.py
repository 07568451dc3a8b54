"""Bench A11: duplicate handling — sort (PD) vs RPM vs two-layer avoidance.

The claim under test is about *simulated* seconds only: at matched grids
(same memory budget, same tiles-per-partition, hence identical tile
layout) the two-layer corner-class scheme turns duplicate handling from
a per-pair charge into a per-replica charge — its ``sim_join`` undercuts
RPM's, it pays no dedup phase at all (the sort baseline pays both), and
the result set is identical pair-for-pair.  The grid matters: two-layer
mini-joins lose y-pruning below tile height, so the race is run at the
fine grids the partition estimator actually chooses (see
docs/duplicates.md).

No wall time is recorded here: one unrepeated run orders nothing.  The
clock is settled in ``bench_dedup_wall.py``
(``results/BENCH_dedup_wall.json``): on these same two workloads
two-layer is 1.05x / 1.16x *slower* than RPM in wall time (paired
medians of 15), which is why ``method="auto"`` does not enumerate it.
"""

import pytest

from repro.bench.render import ExperimentResult
from repro.core.phases import PHASE_DEDUP, PHASE_JOIN
from repro.datasets.synthetic import uniform_rects, zipf_rects
from repro.io.costmodel import mb
from repro.pbsm import PBSM

from benchmarks.conftest import column, record

N_SIDE = 30_000
#: Rectangles comparable to the tile size: replication (and with it
#: RPM's per-pair charge) is what the schemes disagree about, so the
#: race is run where replication actually happens.  Tiny rectangles on
#: coarse tiles would instead measure y-striping granularity (see the
#: caveat in docs/duplicates.md).
MEAN_EDGE = 0.02
MEMORY = mb(1.0)
TILES_PER_PARTITION = 64
DEDUPS = ("sort", "rpm", "twolayer")


def workloads():
    return {
        "uniform": (
            uniform_rects(N_SIDE, seed=11, mean_edge=MEAN_EDGE),
            uniform_rects(
                N_SIDE, seed=12, mean_edge=MEAN_EDGE, start_oid=10**6
            ),
        ),
        "zipf": (
            zipf_rects(N_SIDE, seed=21, alpha=1.2, mean_edge=MEAN_EDGE),
            zipf_rects(
                N_SIDE, seed=22, alpha=1.2, mean_edge=MEAN_EDGE,
                start_oid=10**6,
            ),
        ),
    }


def run_twolayer_bench() -> ExperimentResult:
    rows = []
    for workload, (left, right) in workloads().items():
        reference = None
        for dedup in DEDUPS:
            join = PBSM(
                MEMORY,
                internal="sweep_numpy",
                dedup=dedup,
                tiles_per_partition=TILES_PER_PARTITION,
            )
            result = join.run(left, right)
            stats = result.stats
            if reference is None:
                reference = result.pair_set()
            else:
                assert result.pair_set() == reference  # same answer
            assert not result.has_duplicates()
            join_cpu = stats.cpu_by_phase[PHASE_JOIN]
            rows.append(
                (
                    workload,
                    dedup,
                    round(stats.sim_seconds_by_phase[PHASE_JOIN], 3),
                    round(stats.sim_seconds_by_phase.get(PHASE_DEDUP, 0.0), 3),
                    round(stats.sim_seconds, 3),
                    join_cpu.get("refpoint_tests", 0),
                    stats.duplicates_suppressed + stats.duplicates_sorted_out,
                    stats.n_results,
                )
            )
    return ExperimentResult(
        exp_id="Ablation A11",
        title=(
            f"Duplicate handling at matched grids, "
            f"{N_SIDE // 1000}k x {N_SIDE // 1000}k, "
            f"tpp={TILES_PER_PARTITION}"
        ),
        columns=[
            "workload",
            "dedup",
            "sim_join",
            "sim_dedup",
            "sim_total",
            "refpoint_tests",
            "dups_removed",
            "results",
        ],
        rows=rows,
        paper_claim=(
            "in simulated seconds avoidance beats detection: two-layer "
            "pays per replica, RPM per detected pair, the sort baseline "
            "per result page — at equal grids the two-layer sim_join is "
            "the cheapest and needs no dedup phase at all (sim_join only: "
            "on the clock RPM wins, see BENCH_dedup_wall.json)"
        ),
    )


@pytest.mark.benchmark(group="ablations")
def test_twolayer_vs_rpm_vs_sort(benchmark):
    result = benchmark.pedantic(run_twolayer_bench, rounds=1, iterations=1)

    record(
        "twolayer",
        result,
        workload=(
            f"uniform + zipf(alpha=1.2), mean_edge={MEAN_EDGE}, "
            f"{N_SIDE}x{N_SIDE}"
        ),
        memory_mb=1.0,
        tiles_per_partition=TILES_PER_PARTITION,
    )

    labels = list(zip(column(result, "workload"), column(result, "dedup")))
    sim_join = dict(zip(labels, column(result, "sim_join")))
    sim_dedup = dict(zip(labels, column(result, "sim_dedup")))
    refpoints = dict(zip(labels, column(result, "refpoint_tests")))
    dups = dict(zip(labels, column(result, "dups_removed")))

    for workload in ("uniform", "zipf"):
        # The workload genuinely replicates: the sort baseline really
        # has duplicates to remove, or the race proves nothing.
        assert dups[(workload, "sort")] > 0
        # The headline: avoidance <= detection in the simulated join
        # phase itself, at the identical grid.  (The batched RPM charges
        # its per-pair ownership mask as batch_ops, already inside
        # sim_join.)
        assert sim_join[(workload, "twolayer")] <= sim_join[(workload, "rpm")]
        # Two-layer removes nothing because it generates nothing to
        # remove, and runs zero scalar ownership tests.
        assert dups[(workload, "twolayer")] == 0
        assert refpoints[(workload, "twolayer")] == 0
        # Only the sort baseline pays an offline dedup phase.
        assert sim_dedup[(workload, "sort")] > 0
        assert sim_dedup[(workload, "rpm")] == 0
        assert sim_dedup[(workload, "twolayer")] == 0
