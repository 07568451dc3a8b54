"""Unit tests for CPU counters and join statistics."""

import pytest

from repro import PBSM, S3J, SSSJ, RTreeJoin, SpatialHashJoin
from repro.core.result import JoinResult, JoinStats, empty_result, pair_columns
from repro.core.stats import CpuCounters
from repro.internal import brute_force_pairs

from .conftest import random_kpes


class TestCpuCounters:
    def test_starts_at_zero(self):
        c = CpuCounters()
        assert c.total_ops() == 0
        assert all(v == 0 for v in c.as_dict().values())

    def test_add_accumulates(self):
        a = CpuCounters(intersection_tests=5, comparisons=2)
        b = CpuCounters(intersection_tests=1, heap_ops=7)
        a.add(b)
        assert a.intersection_tests == 6
        assert a.comparisons == 2
        assert a.heap_ops == 7

    def test_reset(self):
        c = CpuCounters(intersection_tests=9, structure_ops=3)
        c.reset()
        assert c.total_ops() == 0

    def test_total_ops_excludes_result_tallies(self):
        c = CpuCounters(results_reported=100, duplicates_suppressed=50)
        assert c.total_ops() == 0

    def test_as_dict_round_trips_fields(self):
        c = CpuCounters(intersection_tests=1, refpoint_tests=2)
        d = c.as_dict()
        assert d["intersection_tests"] == 1
        assert d["refpoint_tests"] == 2


class TestJoinStats:
    def test_replication_rate(self):
        s = JoinStats(n_left=100, n_right=100, records_partitioned=250)
        assert s.replication_rate == pytest.approx(1.25)

    def test_replication_rate_empty_inputs(self):
        assert JoinStats().replication_rate == 0.0

    def test_selectivity(self):
        s = JoinStats(n_left=10, n_right=20, n_results=4)
        assert s.selectivity() == pytest.approx(0.02)

    def test_selectivity_empty(self):
        assert JoinStats().selectivity() == 0.0

    def test_sim_seconds_sums_io_and_cpu(self):
        s = JoinStats(sim_io_seconds=1.5, sim_cpu_seconds=0.5)
        assert s.sim_seconds == pytest.approx(2.0)

    def test_io_units_sums_phases(self):
        s = JoinStats(io_units_by_phase={"a": 10.0, "b": 4.0})
        assert s.io_units == pytest.approx(14.0)


class TestJoinResult:
    def test_pair_set_and_len(self):
        r = JoinResult(pairs=[(1, 2), (3, 4), (1, 2)], stats=JoinStats())
        assert len(r) == 3
        assert r.pair_set() == {(1, 2), (3, 4)}

    def test_has_duplicates(self):
        assert JoinResult(pairs=[(1, 2), (1, 2)], stats=JoinStats()).has_duplicates()
        assert not JoinResult(pairs=[(1, 2), (2, 1)], stats=JoinStats()).has_duplicates()

    def test_empty_result(self):
        r = empty_result("X", 5, 6)
        assert len(r) == 0
        assert r.stats.algorithm == "X"
        assert r.stats.n_left == 5
        assert r.stats.n_right == 6


def column_lists(columns):
    return [column.tolist() for column in columns]


class TestBufferBackedResult:
    """A result built from oid buffers boxes a tuple only behind ``.pairs``."""

    PAIRS = [(1, 20), (3, 40), (1, 20), (-5, 2**40)]

    def make(self):
        return JoinResult.from_arrays(*pair_columns(self.PAIRS), JoinStats(algorithm="B"))

    def test_len_and_to_arrays_do_not_decode(self):
        result = self.make()
        assert len(result) == 4
        assert column_lists(result.to_arrays()) == [[1, 3, 1, -5], [20, 40, 20, 2**40]]
        assert "4 pairs" in repr(result)
        assert result._pairs is None  # still the buffers, no list built

    def test_pairs_decodes_once_into_the_single_truth(self):
        result = self.make()
        pairs = result.pairs
        assert pairs == self.PAIRS and type(pairs) is list
        assert all(type(oid) is int for pair in pairs for oid in pair)
        assert result.pairs is pairs  # the same list on every access
        assert result._oids is None  # memory holds one form
        assert result.has_duplicates()
        assert result.pair_set() == {(1, 20), (3, 40), (-5, 2**40)}

    def test_mutations_of_the_list_are_the_result(self):
        result = self.make()
        result.pairs.append((7, 70))
        assert len(result) == 5
        assert column_lists(result.to_arrays()) == [
            [1, 3, 1, -5, 7],
            [20, 40, 20, 2**40, 70],
        ]
        result.pairs = [(9, 90)]
        assert len(result) == 1 and not result.has_duplicates()
        assert column_lists(result.to_arrays()) == [[9], [90]]

    def test_assignment_before_any_read_drops_the_buffers(self):
        result = self.make()
        result.pairs = []
        assert len(result) == 0 and result.pairs == []
        assert column_lists(result.to_arrays()) == [[], []]

    def test_verify_sees_edits_of_a_buffer_backed_result(self):
        left = random_kpes(60, seed=5, max_edge=0.2)
        right = random_kpes(60, seed=6, start_oid=1000, max_edge=0.2)
        listed = SSSJ(4096).run(left, right)
        result = JoinResult.from_arrays(*listed.to_arrays(), listed.stats)
        truth = set(brute_force_pairs(left, right))
        assert result.pair_set() == truth and not result.has_duplicates()
        result.pairs.append(result.pairs[0])
        assert result.pair_set() == truth and result.has_duplicates()
        result.pairs = result.pairs[:-2]
        assert result.pair_set() < truth and not result.has_duplicates()


class TestListBackedToArrays:
    """``to_arrays()`` of every tuple-producing driver is ``zip(*pairs)``."""

    LEFT = random_kpes(150, seed=41, max_edge=0.1)
    RIGHT = random_kpes(150, seed=42, start_oid=10_000, max_edge=0.1)

    @pytest.mark.parametrize(
        "driver",
        [
            S3J(4096),
            SSSJ(4096),
            SpatialHashJoin(4096),
            RTreeJoin(4096),
            PBSM(4096, internal="sweep_trie"),
        ],
        ids=lambda driver: type(driver).__name__,
    )
    def test_equals_zip_of_pairs(self, driver):
        result = driver.run(self.LEFT, self.RIGHT)
        assert result._oids is None and len(result) > 0
        assert column_lists(result.to_arrays()) == [
            list(column) for column in zip(*result.pairs)
        ]

    def test_empty_list_backed_result(self):
        assert column_lists(empty_result("X").to_arrays()) == [[], []]
