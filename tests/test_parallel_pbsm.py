"""Tests for PBSM with ``workers > 1`` and LPT scheduling."""

from functools import lru_cache

import pytest

from repro.core.phases import PHASE_JOIN, PHASE_PARTITION
from repro.core.space import Space
from repro.core.stats import CpuCounters
from repro.internal import brute_force_pairs
from repro.io.costmodel import CostModel
from repro.io.disk import SimulatedDisk
from repro.io.paper_io import charge_partition
from repro.kernels.assign import partition_runs
from repro.kernels.shm import shm_enabled
from repro.pbsm import PBSM, TileGrid
from repro.pbsm.parallel import lpt_schedule

from tests.conftest import random_kpes
from tests.test_planner_overflow import IDS, WORKLOADS


class TestLptSchedule:
    def test_empty(self):
        makespan, loads = lpt_schedule([], 4)
        assert makespan == 0.0
        assert loads == [0.0] * 4

    def test_single_worker_sums(self):
        makespan, _ = lpt_schedule([3.0, 1.0, 2.0], 1)
        assert makespan == pytest.approx(6.0)

    def test_perfect_split(self):
        makespan, loads = lpt_schedule([2.0, 2.0, 2.0, 2.0], 2)
        assert makespan == pytest.approx(4.0)
        assert sorted(loads) == [4.0, 4.0]

    def test_makespan_bounds(self):
        tasks = [5.0, 3.0, 3.0, 2.0, 2.0, 1.0]
        makespan, loads = lpt_schedule(tasks, 3)
        assert makespan >= max(tasks)
        assert makespan >= sum(tasks) / 3
        assert sum(loads) == pytest.approx(sum(tasks))

    def test_more_workers_never_worse(self):
        tasks = [4.0, 3.0, 3.0, 2.0, 2.0, 2.0, 1.0]
        previous = float("inf")
        for workers in (1, 2, 4, 8):
            makespan, _ = lpt_schedule(tasks, workers)
            assert makespan <= previous + 1e-12
            previous = makespan


class TestParallelPBSM:
    def test_validation(self):
        with pytest.raises(ValueError):
            PBSM(0, workers=4, executor="simulated")
        # Out-of-range worker counts clamp with a warning, not an error.
        with pytest.warns(RuntimeWarning, match="clamped to 1"):
            assert PBSM(1024, workers=0, executor="simulated").workers == 1

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_matches_brute_force(self, workers, small_pair):
        left, right = small_pair
        res = PBSM(
            2048, internal="sweep_trie", workers=workers, executor="simulated"
        ).run(left, right)
        assert res.pair_set() == set(brute_force_pairs(left, right))
        assert not res.has_duplicates()

    def test_empty_inputs(self):
        empty = PBSM(1024, internal="sweep_trie", workers=4, executor="simulated")
        assert len(empty.run([], random_kpes(5, 1))) == 0

    def test_speedup_with_more_workers(self):
        left = random_kpes(1500, 81, max_edge=0.02)
        right = random_kpes(1500, 82, start_oid=50_000, max_edge=0.02)
        memory = 3000 * 20 // 8
        seq = PBSM(memory, internal="sweep_trie").run(left, right)
        par = PBSM(
            memory, internal="sweep_trie", workers=8, executor="simulated"
        ).run(left, right)
        seq_total = sum(seq.stats.sim_seconds_by_phase.values())
        par_total = sum(par.stats.sim_seconds_by_phase.values())
        assert par_total < seq_total

    def test_partition_phase_not_parallelised(self):
        """Amdahl: the partitioning phase cost is identical regardless of
        worker count."""
        left = random_kpes(800, 83, max_edge=0.03)
        right = random_kpes(800, 84, start_oid=50_000, max_edge=0.03)
        one = PBSM(4096, internal="sweep_trie").run(left, right)
        many = PBSM(
            4096, internal="sweep_trie", workers=8, executor="simulated"
        ).run(left, right)
        assert one.stats.sim_seconds_by_phase[PHASE_PARTITION] == pytest.approx(
            many.stats.sim_seconds_by_phase[PHASE_PARTITION]
        )

    @pytest.mark.parametrize("executor", ["simulated", "process"])
    def test_iter_pairs_streams_the_run_s_pairs(self, executor):
        """PBSM's ``iter_pairs``, leaf by leaf, on either executor."""
        if executor == "process" and not shm_enabled():
            pytest.skip("needs POSIX shared memory")
        left = random_kpes(900, 89, max_edge=0.03)
        right = random_kpes(900, 90, start_oid=50_000, max_edge=0.03)
        join = PBSM(6_000, workers=2, internal="sweep_numpy", executor=executor)
        result = join.run(left, right)
        assert result.stats.repartition_events > 0
        assert list(join.iter_pairs(left, right)) == list(result.pairs)

    def test_at_least_one_task_per_worker(self):
        left = random_kpes(100, 85)
        right = random_kpes(100, 86, start_oid=9_000)
        res = PBSM(
            10**8, internal="sweep_trie", workers=6, executor="simulated"
        ).run(left, right)
        assert res.stats.n_partitions >= 6

    @pytest.mark.parametrize("internal", ["sweep_numpy", "sweep_trie"])
    def test_io_pages_by_phase_filled_like_the_sequential_driver(self, internal):
        left = random_kpes(900, 87, max_edge=0.03)
        right = random_kpes(900, 88, start_oid=50_000, max_edge=0.03)
        memory = 12_000  # four partitions, every pair fits
        seq = PBSM(memory, internal=internal).run(left, right)
        par = PBSM(
            memory, workers=2, internal=internal, executor="simulated"
        ).run(left, right)
        assert seq.stats.repartition_events == 0
        assert par.stats.n_partitions == seq.stats.n_partitions
        # Same grid, same files: the same pages written and read back.
        assert par.stats.io_pages_by_phase == seq.stats.io_pages_by_phase
        # Join pages are the task files' pages, nothing else.
        cost = CostModel()
        disk = SimulatedDisk(cost)
        grid = TileGrid.for_partitions(
            Space.of(left, right), par.stats.n_partitions, 4
        )
        sides = []
        for rel in (left, right):
            runs = partition_runs(rel, grid, CpuCounters())
            charge_partition(disk, runs, cost.kpe_bytes)
            sides.append(runs)
        assert par.stats.io_pages_by_phase[PHASE_JOIN] == sum(
            cost.pages_for(len(rl), cost.kpe_bytes)
            + cost.pages_for(len(rr), cost.kpe_bytes)
            for rl, rr in zip(*sides)
            if len(rl) and len(rr)
        )
        assert par.stats.io_pages_by_phase[PHASE_PARTITION] == sum(
            disk.pages_by_phase().values()
        )


@lru_cache(maxsize=None)
def sequential(name, internal):
    """``PBSM``'s run of the named overflow workload."""
    _, left, right, memory = WORKLOADS[IDS.index(name)]
    return PBSM(memory, internal=internal).run(left, right)


class TestSameRecursionAsPBSM:
    """``PBSM(workers=W)`` only changes where the leaves run: on the
    planner's overflow workloads (most of them over the budget) it
    repartitions the same pairs, reports the same overruns and, with one
    worker, is the sequential run itself."""

    @pytest.mark.parametrize(
        "workers, executor",
        [
            (1, "simulated"),
            (2, "simulated"),
            pytest.param(
                2,
                "process",
                marks=pytest.mark.skipif(
                    not shm_enabled(), reason="needs POSIX shared memory"
                ),
            ),
        ],
        ids=["W1-simulated", "W2-simulated", "W2-process"],
    )
    @pytest.mark.parametrize("internal", ["sweep_numpy", "sweep_trie"])
    @pytest.mark.parametrize("name", IDS)
    def test_matches_pbsm(self, name, internal, workers, executor):
        _, left, right, memory = WORKLOADS[IDS.index(name)]
        seq = sequential(name, internal)
        par = PBSM(
            memory, workers=workers, internal=internal, executor=executor
        ).run(left, right)
        # One worker never fans out: the sequential run, which has none.
        assert par.stats.executor == (executor if workers > 1 else "")
        assert par.pair_set() == seq.pair_set()
        assert not par.has_duplicates()
        if par.stats.n_partitions == seq.stats.n_partitions:
            assert par.stats.repartition_events == seq.stats.repartition_events
            assert par.stats.memory_overruns == seq.stats.memory_overruns
            # The same leaves in the same order: the same pair order.
            for got, want in zip(par.to_arrays(), seq.to_arrays()):
                assert got.tolist() == want.tolist()
        if workers == 1:
            assert par.stats.algorithm == seq.stats.algorithm
            assert par.stats.io_units_by_phase == seq.stats.io_units_by_phase
            assert par.stats.sim_seconds_by_phase == seq.stats.sim_seconds_by_phase
            assert par.stats.sim_seconds == seq.stats.sim_seconds
