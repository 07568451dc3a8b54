"""Hypothesis cross-validation for the extension drivers.

The core drivers already have property suites (test_properties.py); this
file extends the same any-input-matches-brute-force guarantee to the
R-tree join, the spatial hash join and the parallel PBSM.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rect import KPE
from repro.internal import brute_force_pairs
from repro.pbsm import PBSM
from repro.pbsm.parallel import lpt_schedule
from repro.rtree import RTreeJoin
from repro.shj import SpatialHashJoin

coord = st.floats(0, 1, allow_nan=False)


@st.composite
def kpe(draw, oid):
    x1, y1, x2, y2 = draw(coord), draw(coord), draw(coord), draw(coord)
    return KPE(oid, min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))


@st.composite
def relation_pair(draw, max_size=20):
    n_left = draw(st.integers(0, max_size))
    n_right = draw(st.integers(0, max_size))
    left = [draw(kpe(i)) for i in range(n_left)]
    right = [draw(kpe(1000 + i)) for i in range(n_right)]
    return left, right


class TestIndexJoinsUnderHypothesis:
    @given(relation_pair(), st.sampled_from([4, 16]))
    def test_rtree_join_any_input(self, pair, fanout):
        left, right = pair
        res = RTreeJoin(fanout=fanout).run(left, right)
        assert sorted(res.pairs) == sorted(brute_force_pairs(left, right))


class TestShjUnderHypothesis:
    @given(relation_pair(), st.sampled_from([256, 8192]))
    def test_any_input(self, pair, memory):
        left, right = pair
        res = SpatialHashJoin(memory).run(left, right)
        assert sorted(res.pairs) == sorted(brute_force_pairs(left, right))


class TestParallelUnderHypothesis:
    @given(relation_pair(), st.integers(1, 6))
    @settings(max_examples=25)
    def test_any_input_any_workers(self, pair, workers):
        left, right = pair
        res = PBSM(
            1024, internal="sweep_trie", workers=workers, executor="simulated"
        ).run(left, right)
        assert sorted(res.pairs) == sorted(brute_force_pairs(left, right))

    @given(st.lists(st.floats(0, 100, allow_nan=False), max_size=30), st.integers(1, 8))
    def test_lpt_conserves_work(self, tasks, workers):
        makespan, loads = lpt_schedule(tasks, workers)
        assert sum(loads) == pytest.approx(sum(tasks))
        assert makespan == (max(loads) if loads else 0.0)
        if tasks:
            assert makespan >= max(tasks) - 1e-12
            assert makespan >= sum(tasks) / workers - 1e-9
