"""Tests for the R-tree substrate and the synchronized R-tree join."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.phases import PHASE_BUILD, PHASE_JOIN
from repro.core.rect import KPE
from repro.internal import brute_force_pairs
from repro.rtree import RTree, RTreeJoin

from tests.conftest import random_kpes


class TestBulkLoad:
    def test_all_entries_present(self):
        kpes = random_kpes(500, 1)
        tree = RTree.bulk_load(kpes, fanout=16)
        assert tree.size == 500
        assert sorted(k.oid for k in tree.iter_kpes()) == sorted(
            k.oid for k in kpes
        )

    def test_empty(self):
        tree = RTree.bulk_load([], fanout=16)
        assert tree.size == 0
        assert tree.search(0, 0, 1, 1) == []

    def test_fanout_respected(self):
        tree = RTree.bulk_load(random_kpes(300, 2), fanout=8)
        for node in tree.iter_nodes():
            assert len(node.entries) <= 8

    def test_height_logarithmic(self):
        tree = RTree.bulk_load(random_kpes(1000, 3), fanout=10)
        assert 3 <= tree.height() <= 5

    def test_node_mbrs_cover_children(self):
        tree = RTree.bulk_load(random_kpes(400, 4), fanout=16)
        for node in tree.iter_nodes():
            if node.is_leaf:
                for k in node.entries:
                    assert node.xl <= k.xl and k.xh <= node.xh
                    assert node.yl <= k.yl and k.yh <= node.yh
            else:
                for child in node.entries:
                    assert node.xl <= child.xl and child.xh <= node.xh

    def test_rejects_tiny_fanout(self):
        with pytest.raises(ValueError):
            RTree(fanout=2)


class TestSearch:
    def test_window_query_matches_scan(self):
        kpes = random_kpes(400, 8, max_edge=0.08)
        tree = RTree.bulk_load(kpes, fanout=16)
        for window in [(0, 0, 0.2, 0.2), (0.4, 0.4, 0.6, 0.9), (0, 0, 1, 1)]:
            found = {k.oid for k in tree.search(*window)}
            xl, yl, xh, yh = window
            expected = {
                k.oid
                for k in kpes
                if k.xl <= xh and xl <= k.xh and k.yl <= yh and yl <= k.yh
            }
            assert found == expected

    @given(st.integers(0, 10_000))
    def test_point_queries(self, seed):
        kpes = random_kpes(60, 9, max_edge=0.2)
        tree = RTree.bulk_load(kpes, fanout=8)
        x = (seed % 100) / 100.0
        y = ((seed // 100) % 100) / 100.0
        found = {k.oid for k in tree.search(x, y, x, y)}
        expected = {
            k.oid for k in kpes if k.xl <= x <= k.xh and k.yl <= y <= k.yh
        }
        assert found == expected


class TestRTreeJoin:
    @pytest.mark.parametrize("fanout", [8, 32, 128])
    def test_matches_brute_force(self, fanout, small_pair):
        left, right = small_pair
        res = RTreeJoin(fanout=fanout).run(left, right)
        assert res.pair_set() == set(brute_force_pairs(left, right))
        assert not res.has_duplicates()

    def test_different_tree_heights(self):
        left = random_kpes(800, 10, max_edge=0.02)
        right = random_kpes(20, 11, start_oid=10_000, max_edge=0.3)
        res = RTreeJoin(fanout=8).run(left, right)
        assert res.pair_set() == set(brute_force_pairs(left, right))

    def test_empty_inputs(self):
        assert len(RTreeJoin().run([], random_kpes(5, 12))) == 0

    def test_prebuilt_trees_reused(self, small_pair):
        left, right = small_pair
        tree_left = RTree.bulk_load(left, 16)
        tree_right = RTree.bulk_load(right, 16)
        joiner = RTreeJoin(fanout=16, prebuilt=True)
        res = joiner.run(left, right, tree_left, tree_right)
        assert res.pair_set() == set(brute_force_pairs(left, right))
        # prebuilt: no build-phase write charge
        assert res.stats.io_units_by_phase.get(PHASE_BUILD, 0.0) == 0.0

    def test_build_charged_when_not_prebuilt(self, small_pair):
        left, right = small_pair
        res = RTreeJoin(fanout=16, prebuilt=False).run(left, right)
        assert res.stats.io_units_by_phase[PHASE_BUILD] > 0

    def test_join_io_charged(self, small_pair):
        left, right = small_pair
        res = RTreeJoin(fanout=16).run(left, right)
        assert res.stats.io_units_by_phase[PHASE_JOIN] > 0

    def test_self_join(self):
        rel = random_kpes(150, 13, max_edge=0.08)
        res = RTreeJoin(fanout=16).run(rel, rel)
        assert res.pair_set() == set(brute_force_pairs(rel, rel))

    def test_convenience(self, small_pair):
        left, right = small_pair
        res = RTreeJoin(fanout=32).run(left, right)
        assert res.pair_set() == set(brute_force_pairs(left, right))

    def test_identical_rectangles(self):
        left = [KPE(i, 0.4, 0.4, 0.6, 0.6) for i in range(30)]
        right = [KPE(100 + i, 0.5, 0.5, 0.7, 0.7) for i in range(30)]
        res = RTreeJoin(fanout=8).run(left, right)
        assert len(res) == 900
        assert not res.has_duplicates()
