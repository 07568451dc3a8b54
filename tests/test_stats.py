"""Unit tests for CPU counters and join statistics."""

import copy
import pickle
import tracemalloc
from collections.abc import Sequence

import numpy as np
import pytest

import repro.core.result as core_result
from repro import PBSM, S3J, SSSJ, RTreeJoin, SpatialHashJoin
from repro.core.result import JoinResult, JoinStats, RowOids, pair_columns
from repro.core.stats import CpuCounters
from repro.datasets import load_relation, save_relation
from repro.kernels.shm import shm_enabled
from repro.internal import brute_force_pairs

from .conftest import random_kpes


class TestCpuCounters:
    def test_starts_at_zero(self):
        c = CpuCounters()
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
        assert all(v == 0 for v in c.as_dict().values())

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


def column_lists(columns):
    return [column.tolist() for column in columns]


def rows_result(left_oids, right_oids, stats):
    """A result holding row positions into each side's distinct oids."""
    sides, rows = [], []
    for oids in (left_oids, right_oids):
        column, row = np.unique(oids, return_inverse=True)
        sides.append(RowOids(column))
        rows.append(row.astype(np.int64))
    return JoinResult.from_arrays(*rows, stats, tuple(sides))


class TestBufferBackedResult:
    """A result built from row buffers boxes a tuple only behind ``.pairs``."""

    PAIRS = [(1, 20), (3, 40), (1, 20), (-5, 2**40)]

    def make(self):
        return rows_result(*pair_columns(self.PAIRS), JoinStats(algorithm="B"))

    def test_len_and_to_arrays_do_not_decode(self, pair_decodes):
        result = self.make()
        assert len(result) == 4
        assert column_lists(result.to_arrays()) == [[1, 3, 1, -5], [20, 40, 20, 2**40]]
        assert "4 pairs" in repr(result)
        assert pair_decodes == []  # still the buffers, no tuple built
        assert list(result.pairs) == self.PAIRS and len(pair_decodes) == 1

    def test_pairs_decodes_once_into_the_single_truth(self):
        result = self.make()
        pairs = result.pairs
        assert pairs == self.PAIRS and isinstance(pairs, Sequence)
        assert type(pairs) is not list  # a view of the buffers, read-only
        assert all(type(oid) is int for pair in pairs for oid in pair)
        assert list(result.pairs) == list(pairs)  # every read decodes the same
        assert result._pairs is None  # the buffers stay the one form
        assert result.has_duplicates()
        assert result.pair_set() == {(1, 20), (3, 40), (-5, 2**40)}


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
            PBSM(4096, internal="sweep_trie", dedup="sort"),
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
        empty = JoinResult(pairs=[], stats=JoinStats(algorithm="X"))
        assert column_lists(empty.to_arrays()) == [[], []]


class TestRowBackedPbsmResult:
    """PBSM under RPM keeps the leaves' row positions; ``pairs`` is a
    read-only sequence that decodes them only while it is read."""

    LEFT = random_kpes(3000, seed=61, start_oid=10**6, max_edge=0.1)
    RIGHT = random_kpes(3000, seed=62, start_oid=2 * 10**6, max_edge=0.1)
    ENGINES = ("sweep_numpy", "sweep_list")

    @pytest.mark.parametrize("internal", ENGINES)
    def test_oids_are_boxed_only_when_pairs_are_read(self, internal, tmp_path, monkeypatch):
        save_relation(self.LEFT[:400], tmp_path / "l.rcd")
        save_relation(self.RIGHT[:400], tmp_path / "r.rcd")
        left, right = load_relation(tmp_path / "l.rcd"), load_relation(tmp_path / "r.rcd")
        boxing = core_result.oid_objects
        calls = []

        def spy(side):
            calls.append(side)
            return boxing(side)

        monkeypatch.setattr(core_result, "oid_objects", spy)
        result = PBSM(4096, internal=internal).run(left, right)
        truth = brute_force_pairs(self.LEFT[:400], self.RIGHT[:400])
        assert len(result) == len(truth) > 0
        assert sorted(zip(*column_lists(result.to_arrays()))) == sorted(truth)
        assert result.pairs[0] in truth  # indexing reads the oid columns
        assert calls == []  # run, len(), to_arrays() and indexing box nothing
        assert sorted(result.pairs) == sorted(truth)
        assert len(calls) == 2  # once per side, on the first read
        assert list(result.pairs)[-3:] == result.pairs[-3:]
        assert len(calls) == 4  # and on every read after: no boxes are kept

    @pytest.mark.parametrize("source", ["list", "rcd"])
    def test_a_row_backed_result_pickles_and_copies(self, source, tmp_path):
        left, right = self.LEFT[:400], self.RIGHT[:400]
        if source == "rcd":
            save_relation(left, tmp_path / "l.rcd")
            save_relation(right, tmp_path / "r.rcd")
            left, right = load_relation(tmp_path / "l.rcd"), load_relation(tmp_path / "r.rcd")
        result = PBSM(4096).run(left, right)
        for copied in (pickle.loads(pickle.dumps(result)), copy.deepcopy(result)):
            assert list(copied.pairs) == list(result.pairs) and len(copied) > 0
            assert column_lists(copied.to_arrays()) == column_lists(result.to_arrays())
            assert copied.stats.n_results == result.stats.n_results

    def test_iterating_pairs_builds_no_pair_list(self):
        tracemalloc.start()
        try:
            result = PBSM(2**20, internal="sweep_numpy").run(self.LEFT, self.RIGHT)
            assert len(result) >= 20_000
            tracemalloc.reset_peak()
            for _left_oid, _right_oid in result.pairs:
                pass
            iterated = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            listed = list(result.pairs)
            listed_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(listed) == len(result)
        assert iterated < listed_peak / 2, (iterated, listed_peak)

    @pytest.mark.parametrize(
        "internal, workers",
        [
            *((internal, 1) for internal in ENGINES),
            # The process executor's result holds row positions too.
            pytest.param(
                "sweep_numpy",
                2,
                marks=pytest.mark.skipif(
                    not shm_enabled(), reason="needs POSIX shared memory"
                ),
            ),
        ],
        ids=[*ENGINES, "process"],
    )
    def test_pairs_behave_like_the_list_they_decode_to(self, internal, workers):
        result = PBSM(2**16, internal=internal, workers=workers).run(
            self.LEFT[:500], self.RIGHT[:500]
        )
        pairs, listed = result.pairs, list(result.pairs)
        assert len(pairs) == len(listed) == len(result) > 10
        assert pairs[0] == listed[0] and pairs[-1] == listed[-1]
        assert pairs[3:11] == listed[3:11] and pairs[::-7] == listed[::-7]
        assert pairs == listed and listed == pairs and pairs == tuple(listed)
        assert pairs != listed[:-1] and listed[:-1] != pairs
        assert sorted(pairs) == sorted(listed) and set(pairs) == set(listed)
        assert listed[len(listed) // 2] in pairs and (-1, -1) not in pairs
        with pytest.raises(IndexError):
            pairs[len(listed)]
        with pytest.raises(TypeError):
            hash(pairs)
        # The inputs' own oid objects, not equal copies.
        left_oid, right_oid = pairs[0]
        assert left_oid is next(k[0] for k in self.LEFT if k[0] == left_oid)
        assert right_oid is next(k[0] for k in self.RIGHT if k[0] == right_oid)
        with pytest.raises(AttributeError):
            pairs.append((1, 2))
