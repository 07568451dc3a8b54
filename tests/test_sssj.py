"""Tests for the SSSJ baseline."""

import pytest

from repro.core.phases import PHASE_SORT
from repro.internal import brute_force_pairs
from repro.sssj import SSSJ

from tests.conftest import random_kpes


class TestConfiguration:
    def test_rejects_nonpositive_memory(self):
        with pytest.raises(ValueError):
            SSSJ(0)

    def test_rejects_non_sweep_internal(self):
        with pytest.raises(ValueError):
            SSSJ(1000, internal="nested_loops")


@pytest.mark.parametrize("internal", ["sweep_list", "sweep_trie", "sweep_tree"])
class TestCorrectness:
    def test_matches_brute_force(self, internal, small_pair):
        left, right = small_pair
        truth = set(brute_force_pairs(left, right))
        res = SSSJ(8192, internal=internal).run(left, right)
        assert res.pair_set() == truth
        assert not res.has_duplicates()

    def test_tiny_memory_forces_external_sort(self, internal, small_pair):
        left, right = small_pair
        truth = set(brute_force_pairs(left, right))
        res = SSSJ(512, internal=internal).run(left, right)
        assert res.pair_set() == truth
        # run generation + merge must have charged I/O
        assert res.stats.io_units_by_phase.get(PHASE_SORT, 0.0) > 0


class TestBehaviour:
    def test_empty_inputs(self):
        assert len(SSSJ(1000).run([], random_kpes(5, 1))) == 0

    def test_self_join(self):
        rel = random_kpes(100, 5, max_edge=0.1)
        res = SSSJ(4096).run(rel, rel)
        assert res.pair_set() == set(brute_force_pairs(rel, rel))

    def test_in_memory_sort_has_no_io(self, small_pair):
        """With a big budget SSSJ never touches the disk — but it still
        cannot emit anything until both inputs are fully sorted."""
        left, right = small_pair
        res = SSSJ(10**9).run(left, right)
        assert res.stats.io_units == 0.0

    def test_convenience(self, small_pair):
        left, right = small_pair
        res = SSSJ(8192).run(left, right)
        assert res.pair_set() == set(brute_force_pairs(left, right))
