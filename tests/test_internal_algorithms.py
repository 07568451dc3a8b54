"""Cross-validation of every internal join algorithm against brute force."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.rect import KPE
from repro.core.stats import CpuCounters
from repro.internal import (
    INTERNAL_ALGORITHMS,
    brute_force_pairs,
    internal_algorithm,
)

from tests.conftest import random_kpes

ALGO_NAMES = sorted(INTERNAL_ALGORITHMS)


def run_algo(name, left, right):
    counters = CpuCounters()
    pairs = []
    INTERNAL_ALGORITHMS[name](left, right, lambda r, s: pairs.append((r[0], s[0])), counters)
    return pairs, counters


class TestRegistry:
    def test_known_names(self):
        assert set(ALGO_NAMES) == {
            "nested_loops",
            "sweep_list",
            "sweep_trie",
            "sweep_tree",
            "sweep_numpy",
        }

    def test_lookup(self):
        assert internal_algorithm("sweep_list") is INTERNAL_ALGORITHMS["sweep_list"]

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            internal_algorithm("quantum_join")


@pytest.mark.parametrize("name", ALGO_NAMES)
class TestCorrectness:
    def test_matches_brute_force(self, name, small_pair):
        left, right = small_pair
        truth = sorted(brute_force_pairs(left, right))
        pairs, _ = run_algo(name, left, right)
        assert sorted(pairs) == truth

    def test_no_duplicates(self, name, small_pair):
        left, right = small_pair
        pairs, _ = run_algo(name, left, right)
        assert len(pairs) == len(set(pairs))

    def test_empty_left(self, name):
        pairs, _ = run_algo(name, [], random_kpes(10, 1))
        assert pairs == []

    def test_empty_right(self, name):
        pairs, _ = run_algo(name, random_kpes(10, 1), [])
        assert pairs == []

    def test_self_join_includes_self_pairs(self, name):
        rel = random_kpes(50, 3, max_edge=0.2)
        pairs, _ = run_algo(name, rel, rel)
        for k in rel:
            assert (k.oid, k.oid) in pairs

    def test_identical_rectangles(self, name):
        left = [KPE(i, 0.4, 0.4, 0.6, 0.6) for i in range(20)]
        right = [KPE(100 + i, 0.5, 0.5, 0.7, 0.7) for i in range(20)]
        pairs, _ = run_algo(name, left, right)
        assert len(pairs) == 400

    def test_degenerate_points_and_lines(self, name):
        left = [
            KPE(1, 0.5, 0.5, 0.5, 0.5),      # point
            KPE(2, 0.0, 0.5, 1.0, 0.5),      # horizontal line
            KPE(3, 0.5, 0.0, 0.5, 1.0),      # vertical line
        ]
        right = [KPE(10, 0.25, 0.25, 0.75, 0.75)]
        pairs, _ = run_algo(name, left, right)
        assert sorted(pairs) == [(1, 10), (2, 10), (3, 10)]

    def test_disjoint_relations(self, name):
        left = [KPE(i, 0.0, 0.0, 0.1, 0.1) for i in range(5)]
        right = [KPE(10 + i, 0.8, 0.8, 0.9, 0.9) for i in range(5)]
        pairs, _ = run_algo(name, left, right)
        assert pairs == []

    def test_counters_populated(self, name, small_pair):
        left, right = small_pair
        _, counters = run_algo(name, left, right)
        # The columnar kernel charges batch-level ops instead of scalar
        # intersection tests; either way the work must be accounted for.
        assert counters.intersection_tests > 0 or counters.batch_ops > 0

    def test_skewed_input(self, name, clustered_pair):
        left, right = clustered_pair
        truth = sorted(brute_force_pairs(left, right))
        pairs, _ = run_algo(name, left, right)
        assert sorted(pairs) == truth


class TestRelativeBehaviour:
    """The paper's qualitative claims about the internal algorithms."""

    def test_sweeps_do_fewer_tests_than_nested_loops(self, small_pair):
        left, right = small_pair
        _, nested = run_algo("nested_loops", left, right)
        _, sweep = run_algo("sweep_list", left, right)
        assert sweep.intersection_tests < nested.intersection_tests

    def test_trie_does_fewer_tests_than_list_on_large_inputs(self):
        left = random_kpes(1500, 41, max_edge=0.02)
        right = random_kpes(1500, 42, start_oid=10_000, max_edge=0.02)
        _, list_c = run_algo("sweep_list", left, right)
        _, trie_c = run_algo("sweep_trie", left, right)
        assert trie_c.intersection_tests < list_c.intersection_tests

    def test_trie_overhead_dominates_on_tiny_inputs(self):
        """Section 4.4.1: for S3J-sized partitions the trie's structure
        overhead exceeds the whole cost of nested loops."""
        left = random_kpes(6, 51, max_edge=0.3)
        right = random_kpes(6, 52, start_oid=100, max_edge=0.3)
        _, nested = run_algo("nested_loops", left, right)
        _, trie = run_algo("sweep_trie", left, right)
        def total_ops(counters):
            tallies = ("results_reported", "duplicates_suppressed")
            return sum(v for k, v in counters.as_dict().items() if k not in tallies)

        assert total_ops(trie) > total_ops(nested)


@st.composite
def kpe_lists(draw):
    def to_kpe(oid, raw):
        x1, y1, x2, y2 = raw
        return KPE(oid, min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))

    raw = st.tuples(
        st.floats(0, 1, allow_nan=False),
        st.floats(0, 1, allow_nan=False),
        st.floats(0, 1, allow_nan=False),
        st.floats(0, 1, allow_nan=False),
    )
    left = [to_kpe(i, r) for i, r in enumerate(draw(st.lists(raw, max_size=30)))]
    right = [
        to_kpe(1000 + i, r) for i, r in enumerate(draw(st.lists(raw, max_size=30)))
    ]
    return left, right


@pytest.mark.parametrize("name", ALGO_NAMES)
class TestHypothesisCrossValidation:
    @given(kpe_lists())
    def test_any_input_matches_brute_force(self, name, pair):
        left, right = pair
        truth = sorted(brute_force_pairs(left, right))
        pairs, _ = run_algo(name, left, right)
        assert sorted(pairs) == truth
