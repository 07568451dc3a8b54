"""Failure injection and stress: degenerate inputs, hostile budgets.

These target the situations the paper's algorithms must survive rather
than the ones they were designed for: memory too small for any partition
pair, pathological replication, coordinate extremes.
"""

import pytest

from repro import spatial_join
from repro.core.rect import KPE
from repro.internal import brute_force_pairs
from repro.pbsm import PBSM
from repro.s3j import S3J
from repro.sssj import SSSJ

from tests.conftest import random_kpes


class TestHostileMemoryBudgets:
    def test_pbsm_one_byte_pages_worth_of_memory(self):
        left = random_kpes(150, 1, max_edge=0.05)
        right = random_kpes(150, 2, start_oid=9000, max_edge=0.05)
        res = PBSM(64).run(left, right)  # less than four KPEs of memory
        assert res.pair_set() == set(brute_force_pairs(left, right))
        assert not res.has_duplicates()

    def test_s3j_tiny_memory(self):
        left = random_kpes(150, 3, max_edge=0.05)
        right = random_kpes(150, 4, start_oid=9000, max_edge=0.05)
        res = S3J(64).run(left, right)
        assert res.pair_set() == set(brute_force_pairs(left, right))

    def test_sssj_tiny_memory(self):
        left = random_kpes(150, 5, max_edge=0.05)
        right = random_kpes(150, 6, start_oid=9000, max_edge=0.05)
        res = SSSJ(128).run(left, right)
        assert res.pair_set() == set(brute_force_pairs(left, right))

    def test_pbsm_depth_limit_terminates(self, monkeypatch):
        """Unsplittable partitions (all rectangles identical) must not
        recurse forever."""
        monkeypatch.setattr("repro.pbsm.join.MAX_REPARTITION_DEPTH", 4)
        left = [KPE(i, 0.5, 0.5, 0.51, 0.51) for i in range(200)]
        right = [KPE(1000 + i, 0.5, 0.5, 0.51, 0.51) for i in range(200)]
        res = PBSM(256).run(left, right)
        assert len(res) == 200 * 200
        assert res.stats.memory_overruns > 0

    @pytest.mark.parametrize("method", ["pbsm", "s3j", "sssj", "shj", "auto"])
    def test_a_nan_budget_is_refused(self, method):
        """``nan <= 0`` is false: the budget check must not let NaN by."""
        left = random_kpes(40, 7)
        right = random_kpes(40, 8, start_oid=9000)
        with pytest.raises(ValueError, match="memory_bytes must be positive, got nan"):
            spatial_join(left, right, float("nan"), method=method)

    def test_a_nan_budget_is_refused_by_the_engine_host(self):
        from repro.serve.engine import EngineHost

        with pytest.raises(ValueError, match="memory_bytes must be positive, got nan"):
            EngineHost(float("nan"))

    def test_a_nan_t_factor_is_refused(self):
        left = random_kpes(40, 7)
        right = random_kpes(40, 8, start_oid=9000)
        with pytest.raises(ValueError, match="t_factor must be positive, got nan"):
            PBSM(4096, t_factor=float("nan")).run(left, right)


class TestCoordinateExtremes:
    def test_negative_and_large_coordinates(self):
        left = [KPE(1, -1000.0, -1000.0, -999.0, -999.0), KPE(2, 500.0, 500.0, 501.0, 501.0)]
        right = [KPE(10, -999.5, -999.5, 400.0, 400.0)]
        truth = set(brute_force_pairs(left, right))
        for driver in (PBSM(128), S3J(128), SSSJ(128)):
            assert driver.run(left, right).pair_set() == truth

    def test_all_points(self):
        left = [KPE(i, i * 0.01, i * 0.01, i * 0.01, i * 0.01) for i in range(50)]
        right = [KPE(100 + i, i * 0.01, i * 0.01, i * 0.01, i * 0.01) for i in range(50)]
        truth = set(brute_force_pairs(left, right))
        assert len(truth) == 50
        for driver in (PBSM(128), S3J(128), SSSJ(128)):
            res = driver.run(left, right)
            assert res.pair_set() == truth, res.stats.algorithm
            assert not res.has_duplicates()

    def test_collinear_horizontal_lines(self):
        left = [KPE(i, 0.0, i * 0.02, 1.0, i * 0.02) for i in range(30)]
        right = [KPE(100 + i, 0.0, i * 0.02, 1.0, i * 0.02) for i in range(30)]
        truth = set(brute_force_pairs(left, right))
        for driver in (PBSM(256), S3J(256), SSSJ(256)):
            assert driver.run(left, right).pair_set() == truth

    def test_single_giant_rect_against_many_small(self):
        left = [KPE(1, 0.0, 0.0, 1.0, 1.0)]
        right = random_kpes(300, 7, start_oid=100, max_edge=0.02)
        truth = set(brute_force_pairs(left, right))
        assert len(truth) == 300
        for driver in (PBSM(256), S3J(256), SSSJ(256)):
            res = driver.run(left, right)
            assert res.pair_set() == truth, res.stats.algorithm
            assert not res.has_duplicates()


class TestDuplicateGeometry:
    def test_same_rect_different_oids(self):
        """Distinct objects with identical geometry must each be
        reported; dedup must not merge them."""
        left = [KPE(i, 0.2, 0.2, 0.4, 0.4) for i in range(10)]
        right = [KPE(100, 0.3, 0.3, 0.5, 0.5)]
        for driver in (PBSM(128), S3J(128), SSSJ(128)):
            res = driver.run(left, right)
            assert len(res) == 10, res.stats.algorithm


class TestStatsSanityUnderStress:
    def test_pbsm_stats_consistent(self):
        left = random_kpes(200, 8, max_edge=0.1)
        right = random_kpes(200, 9, start_oid=9000, max_edge=0.1)
        res = PBSM(512).run(left, right)
        st = res.stats
        assert st.n_left == 200 and st.n_right == 200
        assert st.n_results == len(res.pairs)
        assert st.records_partitioned >= 400
        assert st.io_units > 0
        assert st.sim_seconds > 0
        assert all(v >= 0 for v in st.io_units_by_phase.values())

    def test_s3j_stats_consistent(self):
        left = random_kpes(200, 10, max_edge=0.1)
        right = random_kpes(200, 11, start_oid=9000, max_edge=0.1)
        res = S3J(512).run(left, right)
        st = res.stats
        assert st.n_results == len(res.pairs)
        assert 1.0 <= st.replication_rate <= 4.0
        assert st.peak_memory_bytes > 0
