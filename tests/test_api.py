"""Tests for the top-level public API."""

import pytest

import repro
from repro import JOIN_METHODS, spatial_join
from repro.internal import brute_force_pairs



class TestSpatialJoin:
    @pytest.mark.parametrize("method", JOIN_METHODS)
    def test_all_methods_agree(self, method, small_pair):
        left, right = small_pair
        truth = set(brute_force_pairs(left, right))
        res = spatial_join(left, right, 8192, method=method)
        assert res.pair_set() == truth
        assert not res.has_duplicates()

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            spatial_join([], [], 1000, method="voronoi")

    def test_kwargs_forwarded(self, small_pair):
        left, right = small_pair
        res = spatial_join(
            left, right, 8192, method="pbsm", internal="sweep_trie", dedup="sort"
        )
        assert res.stats.algorithm == "PBSM(sweep_trie,PD)"

    def test_scheduler_option_is_gone(self, small_pair):
        left, right = small_pair
        with pytest.raises(TypeError):
            spatial_join(left, right, 8192, workers=2, scheduler="stealing")

    def test_version_exported(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_mb_helper(self):
        assert repro.mb(1) == 2**20
