"""Tests for the R-tree substrate and the synchronized R-tree join."""

import pytest

from repro.core.phases import PHASE_BUILD, PHASE_JOIN
from repro.core.rect import KPE
from repro.internal import brute_force_pairs
from repro.rtree import RTree, RTreeJoin

from tests.conftest import random_kpes


def leaf_kpes(tree):
    return [k for node in tree.iter_nodes() if node.is_leaf for k in node.entries]


def height(tree):
    levels, node = 1, tree.root
    while not node.is_leaf:
        node, levels = node.entries[0], levels + 1
    return levels


class TestBulkLoad:
    def test_all_entries_present(self):
        kpes = random_kpes(500, 1)
        tree = RTree.bulk_load(kpes, fanout=16)
        assert tree.size == 500
        assert sorted(k.oid for k in leaf_kpes(tree)) == sorted(
            k.oid for k in kpes
        )

    def test_empty(self):
        tree = RTree.bulk_load([], fanout=16)
        assert tree.size == 0
        assert leaf_kpes(tree) == []

    def test_fanout_respected(self):
        tree = RTree.bulk_load(random_kpes(300, 2), fanout=8)
        for node in tree.iter_nodes():
            assert len(node.entries) <= 8

    def test_height_logarithmic(self):
        tree = RTree.bulk_load(random_kpes(1000, 3), fanout=10)
        assert 3 <= height(tree) <= 5

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
