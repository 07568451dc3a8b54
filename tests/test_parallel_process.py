"""The process executor of ParallelPBSM: identical results, real fan-out.

The RPM contract is what makes this safe: partition pairs share no state,
each worker reports only pairs whose reference point it owns, and the
deterministic merge (ordered by partition id) reassembles exactly the
sequence the in-process executor produces.  These tests pin the
byte-identical claim, the graceful ``workers=1`` degrade (no pool), and
the plumbing (picklable grid specs, LPT chunking, counter merge).
"""

import pytest

from repro.core.space import Space
from repro.io.costmodel import mb
from repro.kernels.shm import shm_enabled
from repro.pbsm.grid import TileGrid
from repro.pbsm.parallel import (
    EXECUTORS,
    ParallelPBSM,
    cpu_count,
    _chunk_tasks,
)

from tests.conftest import random_kpes

LEFT = random_kpes(1500, seed=61, max_edge=0.02)
RIGHT = random_kpes(1500, seed=62, start_oid=10**6, max_edge=0.02)
MEMORY = mb(0.05)


def run(executor, workers, internal="sweep_trie", left=LEFT, right=RIGHT):
    join = ParallelPBSM(
        MEMORY, workers, internal=internal, executor=executor
    )
    return join.run(left, right)


class TestProcessExecutorParity:
    @pytest.mark.parametrize("internal", ["sweep_trie", "sweep_numpy"])
    def test_overlap_join_byte_identical(self, internal):
        sim = run("simulated", 2, internal)
        proc = run("process", 2, internal)
        assert proc.pairs == sim.pairs  # same pairs, same order
        assert proc.stats.duplicates_suppressed == sim.stats.duplicates_suppressed
        assert proc.stats.sim_seconds == pytest.approx(sim.stats.sim_seconds)
        assert proc.stats.cpu_by_phase == sim.stats.cpu_by_phase

    def test_self_join_byte_identical(self):
        sim = run("simulated", 2, left=LEFT, right=LEFT)
        proc = run("process", 2, left=LEFT, right=LEFT)
        assert proc.pairs == sim.pairs

    def test_executor_recorded_in_stats(self):
        # What actually ran: without a shared-memory segment
        # (REPRO_DISABLE_SHM) a process request runs the in-process loop.
        ran = "process" if shm_enabled() else "simulated"
        assert run("process", 2).stats.executor == ran
        assert run("simulated", 2).stats.executor == "simulated"


class TestGracefulDegrade:
    def test_workers_1_process_runs_in_process(self):
        # With one worker the process executor must not pay for a pool:
        # it takes the same in-process path as the simulated executor.
        one_proc = run("process", 1)
        one_sim = run("simulated", 1)
        assert one_proc.pairs == one_sim.pairs
        assert one_proc.stats.cpu_by_phase == one_sim.stats.cpu_by_phase

    def test_invalid_executor_rejected(self):
        for name in ("threads", "thread"):  # the thread pool is gone
            with pytest.raises(ValueError):
                ParallelPBSM(MEMORY, 2, executor=name)
        assert EXECUTORS == ("simulated", "process")

    def test_invalid_scheduler_rejected(self):
        # There is one dispatch policy and no option that names it.
        with pytest.raises(TypeError):
            ParallelPBSM(MEMORY, 2, scheduler="static")

    def test_invalid_workers_clamped_low(self):
        with pytest.warns(RuntimeWarning, match="below 1"):
            pbsm = ParallelPBSM(MEMORY, 0)
        assert pbsm.workers == 1
        with pytest.warns(RuntimeWarning, match="below 1"):
            assert ParallelPBSM(MEMORY, -3, executor="process").workers == 1

    def test_oversized_workers_clamped_for_process(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "4")
        with pytest.warns(RuntimeWarning, match="clamped to 4"):
            pbsm = ParallelPBSM(MEMORY, 99, executor="process")
        assert pbsm.workers == 4
        # The env override widens the clamp (oversubscription on purpose).
        monkeypatch.setenv("REPRO_MAX_WORKERS", "8")
        with pytest.warns(RuntimeWarning, match="clamped to 8"):
            assert ParallelPBSM(MEMORY, 99, executor="process").workers == 8

    def test_simulated_workers_not_capped(self):
        # The simulated executor models hypothetical hardware; a worker
        # count beyond this machine's cores is the whole point.
        assert ParallelPBSM(MEMORY, 64, executor="simulated").workers == 64


class TestPlumbing:
    def test_cpu_count_positive(self):
        assert cpu_count() >= 1

    def test_grid_spec_round_trip(self):
        grid = TileGrid(Space(0.0, 0.0, 2.0, 1.0), 8, 4, 5, mapping="hash")
        back = TileGrid.from_spec(grid.spec)
        assert back.nx == grid.nx and back.ny == grid.ny
        assert back.n_partitions == grid.n_partitions
        assert back.mapping == grid.mapping
        assert (
            back.space.xl, back.space.yl, back.space.xh, back.space.yh
        ) == (0.0, 0.0, 2.0, 1.0)
        # Identical ownership arithmetic after the round trip.
        for x, y in [(0.0, 0.0), (0.5, 0.25), (2.0, 1.0), (1.999, 0.999)]:
            assert back.partition_of_point(x, y) == grid.partition_of_point(x, y)

    def test_chunk_tasks_cover_all_tasks_once(self):
        tasks = [(pid, 0, pid + 1, 0, pid + 1) for pid in range(11)]
        chunks = _chunk_tasks(tasks, 3)
        flat = [t for chunk in chunks for t in chunk]
        assert sorted(t[0] for t in flat) == list(range(11))

    def test_chunk_tasks_balances_by_records(self):
        # One giant task plus many small ones: LPT puts the giant task
        # alone in its chunk rather than stacking more onto it.
        tasks = [(0, 0, 1000, 0, 1000)] + [
            (pid, 0, 1, 0, 1) for pid in range(1, 9)
        ]
        chunks = _chunk_tasks(tasks, 3)
        giant = next(c for c in chunks if any(t[0] == 0 for t in c))
        assert len(giant) == 1


class TestSpatialJoinWorkers:
    def test_workers_routes_to_process_pbsm(self):
        from repro import spatial_join

        plain = spatial_join(LEFT, RIGHT, MEMORY, method="pbsm", workers=1)
        # One worker never fans out: the in-process loop ran, and says so.
        assert plain.stats.executor == "simulated"
        assert plain.stats.algorithm.startswith("ParallelPBSM")
        # workers defaults the internal algorithm to the kernel.
        assert "sweep_numpy" in plain.stats.algorithm

    def test_workers_rejected_for_other_methods(self):
        from repro import spatial_join

        with pytest.raises(ValueError):
            spatial_join(LEFT, RIGHT, MEMORY, method="sssj", workers=2)

    def test_cli_workers_flag(self, tmp_path, capsys):
        from repro.cli import main
        from repro.datasets import save_relation

        lp = tmp_path / "l.csv"
        rp = tmp_path / "r.csv"
        save_relation(LEFT[:200], lp)
        save_relation(RIGHT[:200], rp)
        code = main(
            [
                "join",
                str(lp),
                str(rp),
                "--method",
                "pbsm",
                "--workers",
                "1",
                "--memory-mb",
                "0.05",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "executor" in out

    def test_cli_workers_requires_pbsm(self, tmp_path):
        from repro.cli import main
        from repro.datasets import save_relation

        lp = tmp_path / "l.csv"
        rp = tmp_path / "r.csv"
        save_relation(LEFT[:50], lp)
        save_relation(RIGHT[:50], rp)
        code = main(
            [
                "join",
                str(lp),
                str(rp),
                "--method",
                "sssj",
                "--workers",
                "2",
            ]
        )
        assert code == 2
