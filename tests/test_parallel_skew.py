"""Skewed workloads: exactly-once output, byte-identical on every executor.

A Zipf tile occupancy puts most of the join into one hot partition.
Nothing about the output may depend on that: every pair is owned by
exactly one partition, and the ``pid``-ordered merge reassembles the
same sequence whichever executor ran the tasks and in whatever order
the chunks finished.  These tests drive that claim with randomized
Zipf workloads on every executor.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.synthetic import zipf_rects
from repro.io.costmodel import mb
from repro.kernels.shm import shm_enabled
from repro.pbsm import PBSM

needs_shm = pytest.mark.skipif(
    not shm_enabled(), reason="needs platform shared memory"
)

MEMORY = mb(0.25)

# Big enough that the hot partition's scan runs y-striped.
N_SIDE = 20_000

LEFT = zipf_rects(N_SIDE, seed=101)
RIGHT = zipf_rects(N_SIDE, seed=202, start_oid=10**6)


def run(executor, *, workers=2):
    join = PBSM(MEMORY, workers=workers, internal="sweep_numpy", executor=executor)
    return join.run(LEFT, RIGHT)


# The ids keep the suffixes of the columns these matrices had while a
# pickle transport ("-True": over the shared segment) and a scheduler
# option ("-static": LPT chunks, the one dispatch policy) existed, so each
# row's history lines up across their removal.
REAL_EXECUTORS = [
    pytest.param("process", marks=needs_shm, id="process-True"),
]


# ----------------------------------------------------------------------
# byte-identity under skew, every executor
# ----------------------------------------------------------------------
class TestSkewedByteIdentity:
    @pytest.fixture(scope="class")
    def sequential(self):
        return PBSM(MEMORY, internal="sweep_numpy", dedup="rpm").run(LEFT, RIGHT)

    @pytest.fixture(scope="class")
    def simulated(self):
        return run("simulated")

    def test_simulated_matches_sequential_pairs(self, sequential, simulated):
        assert not simulated.has_duplicates()
        assert simulated.pair_set() == sequential.pair_set()

    @pytest.mark.parametrize("executor", REAL_EXECUTORS)
    def test_executors_byte_identical(self, simulated, executor):
        real = run(executor)
        assert real.pairs == simulated.pairs  # same pairs, same order
        assert not real.has_duplicates()
        assert (
            real.stats.duplicates_suppressed
            == simulated.stats.duplicates_suppressed
        )
        assert real.stats.cpu_by_phase == simulated.stats.cpu_by_phase

    @needs_shm
    def test_process_scheduler_stats_populated(self):
        result = run("process")
        stats = result.stats
        assert stats.executor == "process"
        assert stats.n_workers == 2
        assert stats.join_busy_seconds > 0.0
        assert stats.join_makespan_seconds > 0.0
        assert stats.scheduler_idle_seconds >= 0.0
        assert 0.0 < stats.worker_utilization <= 1.0


# ----------------------------------------------------------------------
# randomized property: duplicate-freedom survives any Zipf workload
# ----------------------------------------------------------------------
class TestZipfProperty:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        alpha=st.floats(min_value=0.8, max_value=2.0),
        n=st.integers(min_value=2_000, max_value=9_000),
        workers=st.integers(min_value=2, max_value=4),
    )
    def test_parallel_equals_sequential(self, seed, alpha, n, workers):
        left = zipf_rects(n, seed=seed, alpha=alpha)
        right = zipf_rects(n, seed=seed + 1, alpha=alpha, start_oid=10**6)
        seq = PBSM(MEMORY, internal="sweep_numpy", dedup="rpm").run(left, right)
        par = PBSM(
            MEMORY, workers=workers, internal="sweep_numpy", executor="simulated"
        ).run(left, right)
        assert not par.has_duplicates()
        assert par.pair_set() == seq.pair_set()
        assert len(par.pairs) == len(seq.pairs)
