"""Tests for the spatial hash join (replication on one relation only)."""

import pytest

from repro.core.phases import PHASE_JOIN, PHASE_PARTITION
from repro.core.rect import KPE
from repro.internal import brute_force_pairs
from repro.shj import SpatialHashJoin

from tests.conftest import random_kpes


class TestConfiguration:
    def test_rejects_nonpositive_memory(self):
        with pytest.raises(ValueError):
            SpatialHashJoin(0)


@pytest.mark.parametrize("memory", [512, 4096, 10**7])
class TestCorrectness:
    def test_matches_brute_force(self, memory, small_pair):
        left, right = small_pair
        res = SpatialHashJoin(memory).run(left, right)
        assert res.pair_set() == set(brute_force_pairs(left, right))
        assert not res.has_duplicates()

    def test_skewed(self, memory, clustered_pair):
        left, right = clustered_pair
        res = SpatialHashJoin(memory).run(left, right)
        assert res.pair_set() == set(brute_force_pairs(left, right))
        assert not res.has_duplicates()


class TestReplicationModel:
    def test_no_duplicates_means_no_suppression(self, small_pair):
        """The build side is never replicated, so each pair appears once
        and no dedup machinery exists."""
        left, right = small_pair
        res = SpatialHashJoin(2048).run(left, right)
        assert res.stats.duplicates_suppressed == 0
        assert res.stats.duplicates_sorted_out == 0

    def test_probe_side_replicated_build_side_not(self):
        """Total partitioned records: |R| exactly, plus >= the surviving
        probe records."""
        left = random_kpes(200, 21, max_edge=0.05)
        right = random_kpes(200, 22, start_oid=9_000, max_edge=0.05)
        res = SpatialHashJoin(1024).run(left, right)
        assert res.stats.records_partitioned >= len(left)
        assert res.stats.replicas_created >= 0

    def test_asymmetric_sides(self):
        """Swapping build and probe must not change the result (modulo
        pair orientation)."""
        left = random_kpes(150, 23, max_edge=0.08)
        right = random_kpes(150, 24, start_oid=9_000, max_edge=0.08)
        forward = SpatialHashJoin(2048).run(left, right)
        backward = SpatialHashJoin(2048).run(right, left)
        assert forward.pair_set() == {(b, a) for a, b in backward.pair_set()}


class TestEdgeCases:
    def test_empty_inputs(self):
        assert len(SpatialHashJoin(1024).run([], random_kpes(5, 25))) == 0
        assert len(SpatialHashJoin(1024).run(random_kpes(5, 25), [])) == 0

    def test_probe_records_outside_all_buckets_dropped_safely(self):
        left = [KPE(1, 0.1, 0.1, 0.2, 0.2)]
        right = [KPE(10, 0.8, 0.8, 0.9, 0.9)]  # overlaps no bucket extent
        res = SpatialHashJoin(1024).run(left, right)
        assert len(res) == 0

    def test_self_join(self):
        rel = random_kpes(120, 26, max_edge=0.1)
        res = SpatialHashJoin(1024).run(rel, rel)
        assert res.pair_set() == set(brute_force_pairs(rel, rel))

    def test_convenience(self, small_pair):
        left, right = small_pair
        res = SpatialHashJoin(2048).run(left, right)
        assert res.pair_set() == set(brute_force_pairs(left, right))

    def test_io_phases_recorded(self, small_pair):
        left, right = small_pair
        res = SpatialHashJoin(2048).run(left, right)
        assert res.stats.io_units_by_phase[PHASE_PARTITION] > 0
        assert res.stats.io_units_by_phase[PHASE_JOIN] > 0
