"""``lpt_schedule``: the LPT packing behind the simulated join makespan.

What is left of the scheduling-policy tests now that parallel PBSM has
one dispatch policy: work is conserved across workers and one giant task
is a floor on the makespan.  (The cases stay in this file, under their
old ids, because the test floor list allows only a few renames; the
other ``lpt_schedule`` cases are ``test_parallel_pbsm.py::TestLptSchedule``.)
"""

import pytest

from repro.pbsm import lpt_schedule

# Adversarial cost distributions for a 1..4-worker pool.
ONE_GIANT = [100.0] + [1.0] * 20
ALL_EQUAL = [5.0] * 12
GEOMETRIC = [2.0**k for k in range(10)]  # 1, 2, 4, ... 512
DISTRIBUTIONS = [ONE_GIANT, ALL_EQUAL, GEOMETRIC]


class TestLpt:
    @pytest.mark.parametrize("costs", DISTRIBUTIONS)
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_loads_conserve_work(self, costs, workers):
        makespan, loads = lpt_schedule(costs, workers)
        assert len(loads) == workers
        assert sum(loads) == pytest.approx(sum(costs))
        assert makespan == pytest.approx(max(loads))

    def test_lower_bounds(self):
        # The giant task is an absolute floor on the makespan.
        makespan, _ = lpt_schedule(ONE_GIANT, 4)
        assert makespan >= 100.0
        assert lpt_schedule([], 3) == (0.0, [0.0, 0.0, 0.0])
