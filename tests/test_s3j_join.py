"""Integration tests for the full S3J driver."""

import pytest

from repro.core.phases import PHASE_JOIN, PHASE_PARTITION, PHASE_SORT
from repro.core.rect import KPE
from repro.internal import brute_force_pairs
from repro.s3j import S3J

from tests.conftest import random_kpes


class TestConfiguration:
    def test_rejects_nonpositive_memory(self):
        with pytest.raises(ValueError):
            S3J(0)

    def test_rejects_bad_max_level(self):
        with pytest.raises(ValueError):
            S3J(1000, max_level=0)

    def test_rejects_unknown_curve(self):
        with pytest.raises(ValueError):
            S3J(1000, curve="spiral")

    def test_algorithm_label(self):
        res = S3J(10_000, replicate=False).run(
            random_kpes(5, 1), random_kpes(5, 2, start_oid=100)
        )
        assert res.stats.algorithm == "S3J(nested_loops,orig)"


@pytest.mark.parametrize("replicate", [True, False])
@pytest.mark.parametrize("internal", ["nested_loops", "sweep_list", "sweep_trie"])
class TestCorrectness:
    def test_matches_brute_force(self, replicate, internal, small_pair):
        left, right = small_pair
        truth = set(brute_force_pairs(left, right))
        res = S3J(8192, replicate=replicate, internal=internal).run(left, right)
        assert res.pair_set() == truth
        assert not res.has_duplicates()

    def test_skewed_inputs(self, replicate, internal, clustered_pair):
        left, right = clustered_pair
        truth = set(brute_force_pairs(left, right))
        res = S3J(8192, replicate=replicate, internal=internal).run(left, right)
        assert res.pair_set() == truth
        assert not res.has_duplicates()


@pytest.mark.parametrize("curve", ["peano", "hilbert"])
class TestCurves:
    def test_correct_under_both_curves(self, curve, small_pair):
        left, right = small_pair
        truth = set(brute_force_pairs(left, right))
        res = S3J(8192, curve=curve).run(left, right)
        assert res.pair_set() == truth
        assert not res.has_duplicates()

    def test_curve_choice_does_not_change_tests_or_io(self, curve, small_pair):
        """Section 4.4.2: the curve affects neither the I/O nor the number
        of intersection tests — only the code computation cost."""
        left, right = small_pair
        res = S3J(8192, curve=curve).run(left, right)
        baseline = S3J(8192, curve="peano").run(left, right)
        assert (
            res.stats.cpu_by_phase[PHASE_JOIN]["intersection_tests"]
            == baseline.stats.cpu_by_phase[PHASE_JOIN]["intersection_tests"]
        )
        assert res.stats.io_units == pytest.approx(baseline.stats.io_units)

    def test_hilbert_costs_more_cpu_for_codes(self, curve, small_pair):
        left, right = small_pair
        if curve != "hilbert":
            pytest.skip("comparison runs once")
        hilbert = S3J(8192, curve="hilbert").run(left, right)
        peano = S3J(8192, curve="peano").run(left, right)
        assert hilbert.stats.sim_cpu_seconds > peano.stats.sim_cpu_seconds


class TestEdgeCases:
    def test_empty_inputs(self):
        assert len(S3J(1000).run([], [])) == 0
        assert len(S3J(1000).run(random_kpes(5, 1), [])) == 0

    def test_self_join(self):
        rel = random_kpes(120, 5, max_edge=0.1)
        truth = set(brute_force_pairs(rel, rel))
        res = S3J(4096).run(rel, rel)
        assert res.pair_set() == truth
        assert not res.has_duplicates()

    def test_degenerate_rectangles(self):
        left = [
            KPE(1, 0.5, 0.5, 0.5, 0.5),
            KPE(2, 0.0, 0.5, 1.0, 0.5),
            KPE(3, 0.25, 0.25, 0.25, 0.75),
        ]
        right = [KPE(10, 0.2, 0.2, 0.8, 0.8)]
        res = S3J(4096).run(left, right)
        assert res.pair_set() == set(brute_force_pairs(left, right))

    def test_all_identical_rectangles(self):
        left = [KPE(i, 0.45, 0.45, 0.55, 0.55) for i in range(40)]
        right = [KPE(100 + i, 0.5, 0.5, 0.6, 0.6) for i in range(40)]
        res = S3J(4096).run(left, right)
        assert res.pair_set() == set(brute_force_pairs(left, right))
        assert not res.has_duplicates()

    def test_boundary_straddlers(self):
        """Tiny rectangles on major cell boundaries — the exact pattern
        original S3J handles badly and replication fixes."""
        eps = 1e-4
        left = [KPE(i, 0.5 - eps, 0.5 - eps, 0.5 + eps, 0.5 + eps) for i in range(10)]
        right = [KPE(100 + i, 0.5 - eps, 0.25 - eps, 0.5 + eps, 0.25 + eps) for i in range(10)]
        for replicate in (True, False):
            res = S3J(4096, replicate=replicate).run(left, right)
            assert res.pair_set() == set(brute_force_pairs(left, right))
            assert not res.has_duplicates()


class TestStatistics:
    def test_original_has_no_replication(self, small_pair):
        left, right = small_pair
        res = S3J(8192, replicate=False).run(left, right)
        assert res.stats.replicas_created == 0
        assert res.stats.replication_rate == pytest.approx(1.0)
        assert res.stats.duplicates_suppressed == 0

    def test_replicated_bounded_by_four(self, small_pair):
        left, right = small_pair
        res = S3J(8192, replicate=True).run(left, right)
        assert 1.0 <= res.stats.replication_rate <= 4.0

    def test_replication_reduces_intersection_tests(self):
        """The paper's core S3J claim (Figure 11, CPU side)."""
        left = random_kpes(800, 61, max_edge=0.01)
        right = random_kpes(800, 62, start_oid=10_000, max_edge=0.01)
        orig = S3J(16_384, replicate=False).run(left, right)
        repl = S3J(16_384, replicate=True).run(left, right)
        assert (
            repl.stats.cpu_by_phase[PHASE_JOIN]["intersection_tests"]
            < orig.stats.cpu_by_phase[PHASE_JOIN]["intersection_tests"]
        )

    def test_phases_recorded(self, small_pair):
        left, right = small_pair
        res = S3J(8192).run(left, right)
        assert res.stats.io_units_by_phase[PHASE_PARTITION] > 0
        assert res.stats.io_units_by_phase[PHASE_JOIN] > 0
        assert PHASE_SORT in res.stats.sim_seconds_by_phase

    def test_iter_pairs_streams(self, small_pair):
        left, right = small_pair
        driver = S3J(8192)
        pairs = list(driver.iter_pairs(left, right))
        assert set(pairs) == set(brute_force_pairs(left, right))


class TestConvenienceApi:
    def test_s3j_join(self, small_pair):
        left, right = small_pair
        res = S3J(8192, replicate=False).run(left, right)
        assert res.pair_set() == set(brute_force_pairs(left, right))
