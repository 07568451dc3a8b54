"""Cross-algorithm integration: every driver must return the identical
result set, with zero duplicates, on a spread of workloads and budgets.

This is the suite's strongest guarantee: PBSM (both dedup modes, several
internal algorithms), S3J (both variants), SSSJ, the spatial hash join and
the R-tree join all return brute force's filter-step answer.
"""

import itertools
import time

import pytest

from repro.core.phases import PHASE_JOIN
from repro.core.rect import KPE
from repro.datasets import clustered_rects, polyline_mbrs, scale_edges, uniform_rects
from repro.internal import brute_force_pairs
from repro.pbsm import PBSM
from repro.rtree import RTreeJoin
from repro.s3j import S3J
from repro.shj import SpatialHashJoin
from repro.sssj import SSSJ

from tests.conftest import random_kpes


def all_drivers(memory):
    return [
        PBSM(memory, internal="sweep_list", dedup="rpm"),
        PBSM(memory, internal="sweep_trie", dedup="rpm"),
        PBSM(memory, internal="nested_loops", dedup="sort"),
        PBSM(memory, internal="sweep_tree", dedup="sort"),
        S3J(memory, replicate=True, internal="nested_loops"),
        S3J(memory, replicate=True, internal="sweep_list"),
        S3J(memory, replicate=False, internal="nested_loops"),
        S3J(memory, replicate=True, curve="hilbert"),
        SSSJ(memory, internal="sweep_list"),
        SpatialHashJoin(memory),
        RTreeJoin(fanout=16),
    ]


WORKLOADS = {
    "random": lambda: (
        random_kpes(250, 101, max_edge=0.05),
        random_kpes(250, 102, start_oid=10_000, max_edge=0.05),
    ),
    "uniform": lambda: (
        uniform_rects(250, 103, mean_edge=0.02),
        uniform_rects(250, 104, start_oid=10_000, mean_edge=0.02),
    ),
    "clustered": lambda: (
        clustered_rects(250, 105),
        clustered_rects(250, 106, start_oid=10_000),
    ),
    "tiger_like": lambda: (
        polyline_mbrs(250, 107),
        polyline_mbrs(250, 108, start_oid=10_000),
    ),
    "scaled_up_coverage": lambda: (
        scale_edges(polyline_mbrs(200, 109), 10.0),
        scale_edges(polyline_mbrs(200, 110, start_oid=10_000), 10.0),
    ),
    "mixed_sizes": lambda: (
        random_kpes(100, 111, max_edge=0.3) + random_kpes(100, 112, start_oid=500, max_edge=0.005),
        random_kpes(100, 113, start_oid=20_000, max_edge=0.3)
        + random_kpes(100, 114, start_oid=20_500, max_edge=0.005),
    ),
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("memory", [1024, 16_384])
def test_all_algorithms_agree(workload, memory):
    left, right = WORKLOADS[workload]()
    truth = set(brute_force_pairs(left, right))
    for driver in all_drivers(memory):
        res = driver.run(left, right)
        label = res.stats.algorithm
        assert res.pair_set() == truth, f"{label} wrong result set on {workload}"
        assert not res.has_duplicates(), f"{label} produced duplicates on {workload}"
        assert res.stats.n_results == len(res.pairs)


def test_self_join_all_algorithms():
    rel = polyline_mbrs(300, 201)
    truth = set(brute_force_pairs(rel, rel))
    for driver in all_drivers(4096):
        res = driver.run(rel, rel)
        assert res.pair_set() == truth, res.stats.algorithm
        assert not res.has_duplicates(), res.stats.algorithm


def test_extreme_overlap_workload():
    """Everything overlaps everything: maximal duplicate pressure."""
    left = [KPE(i, 0.3, 0.3, 0.7, 0.7) for i in range(25)]
    right = [KPE(100 + i, 0.4, 0.4, 0.8, 0.8) for i in range(25)]
    truth = set(brute_force_pairs(left, right))
    assert len(truth) == 625
    for driver in all_drivers(512):
        res = driver.run(left, right)
        assert res.pair_set() == truth, res.stats.algorithm
        assert not res.has_duplicates(), res.stats.algorithm


def test_no_overlap_workload():
    left = [KPE(i, i * 0.01, 0.0, i * 0.01 + 0.004, 0.4) for i in range(50)]
    right = [KPE(100 + i, i * 0.01 + 0.005, 0.6, i * 0.01 + 0.009, 0.9) for i in range(50)]
    for driver in all_drivers(1024):
        res = driver.run(left, right)
        assert len(res) == 0, res.stats.algorithm


def first_result_share(driver, left, right):
    """Wall time to the first pair of ``iter_pairs`` over its total time."""
    start = time.perf_counter()
    first = None
    for _ in driver.iter_pairs(left, right):
        if first is None:
            first = time.perf_counter() - start
    total = time.perf_counter() - start
    return (total if first is None else first) / total


class TestPipelining:
    """The paper's pipelining argument: RPM streams pairs out of the join
    phase, the sort-based removal blocks until its final phase."""

    def _pair(self):
        return (
            random_kpes(150, 1, max_edge=0.06),
            random_kpes(150, 2, start_oid=9_000, max_edge=0.06),
        )

    @pytest.mark.parametrize(
        "driver_factory",
        [
            lambda: PBSM(4096, dedup="rpm"),
            lambda: PBSM(4096, dedup="sort"),
            lambda: S3J(4096),
            lambda: SSSJ(4096),
        ],
    )
    def test_iter_pairs_produces_full_result(self, driver_factory):
        left, right = self._pair()
        pairs = list(driver_factory().iter_pairs(left, right))
        assert sorted(pairs) == sorted(brute_force_pairs(left, right))

    def test_limit_on_top_of_join_stops_early(self):
        """A consumer that wants five pairs does not need the whole RPM
        join to finish."""
        left, right = self._pair()
        stream = PBSM(4096, dedup="rpm").iter_pairs(left, right)
        assert len(list(itertools.islice(stream, 5))) == 5

    def test_rpm_first_result_before_sort_variant(self):
        """PBSM+RPM must produce its first result earlier (relative to its
        own total) than original PBSM, whose final sort blocks."""
        left = random_kpes(1500, 3, max_edge=0.03)
        right = random_kpes(1500, 4, start_oid=50_000, max_edge=0.03)
        rpm = first_result_share(PBSM(8192, dedup="rpm"), left, right)
        sort = first_result_share(PBSM(8192, dedup="sort"), left, right)
        assert rpm < sort


class TestRegressionPins:
    """Exact deterministic values for fixed seeds and configurations.

    These intentionally break when behaviour changes; update them only
    after confirming the change is intended (and re-verifying against
    brute force)."""

    def _pair(self):
        return (
            random_kpes(200, 11, max_edge=0.06),
            random_kpes(200, 22, start_oid=10_000, max_edge=0.06),
        )

    def test_pbsm_counters_pinned(self):
        left, right = self._pair()
        res = PBSM(4096, internal="sweep_list", dedup="rpm").run(left, right)
        st = res.stats
        assert st.n_results == 151
        assert st.n_partitions == 3
        assert st.records_partitioned == 454
        assert st.duplicates_suppressed == 9

    def test_s3j_counters_pinned(self):
        left, right = self._pair()
        res = S3J(4096, strategy="size").run(left, right)
        st = res.stats
        assert st.n_results == 151
        assert st.records_partitioned == 980
        assert st.duplicates_suppressed == 126
        assert st.cpu_by_phase[PHASE_JOIN]["intersection_tests"] == 930

    def test_s3j_hybrid_counters_pinned(self):
        left, right = self._pair()
        res = S3J(4096, strategy="hybrid").run(left, right)
        assert res.stats.n_results == 151
        assert 1.0 < res.stats.replication_rate < 2.0
