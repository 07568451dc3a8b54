"""Unit tests for the interval trie sweep-line status structure."""

import random

import pytest

from repro.internal.interval_trie import DEFAULT_MAX_DEPTH, IntervalTrie


def collect_hits(trie, qlo, qhi, sweep_x):
    hits = []
    tests = [0]
    trie.query(qlo, qhi, sweep_x, hits.append, tests)
    return hits, tests[0]


def node_count(trie):
    """Materialised trie nodes."""
    count, stack = 0, [trie.root]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(child for child in (node.left, node.right) if child is not None)
    return count


class TestInsertQuery:
    def test_basic_overlap(self):
        trie = IntervalTrie(0.0, 1.0)
        trie.insert(0.2, 0.4, 10.0, "a")
        trie.insert(0.6, 0.8, 10.0, "b")
        hits, _ = collect_hits(trie, 0.3, 0.7, 0.0)
        assert sorted(hits) == ["a", "b"]

    def test_disjoint_not_reported(self):
        trie = IntervalTrie(0.0, 1.0)
        trie.insert(0.1, 0.2, 10.0, "a")
        hits, _ = collect_hits(trie, 0.3, 0.4, 0.0)
        assert hits == []

    def test_touching_counts(self):
        trie = IntervalTrie(0.0, 1.0)
        trie.insert(0.1, 0.3, 10.0, "a")
        hits, _ = collect_hits(trie, 0.3, 0.5, 0.0)
        assert hits == ["a"]

    def test_interval_straddling_root_mid(self):
        trie = IntervalTrie(0.0, 1.0)
        trie.insert(0.4, 0.6, 10.0, "mid")
        assert trie.root.entries  # stored at the root
        hits, _ = collect_hits(trie, 0.0, 0.1, 0.0)
        assert hits == []
        hits, _ = collect_hits(trie, 0.45, 0.55, 0.0)
        assert hits == ["mid"]

    def test_narrow_intervals_descend(self):
        trie = IntervalTrie(0.0, 1.0)
        trie.insert(0.1, 0.12, 10.0, "left")
        trie.insert(0.9, 0.92, 10.0, "right")
        assert not trie.root.entries
        assert node_count(trie) > 1


class TestLazyExpiry:
    def test_expired_entry_not_reported(self):
        trie = IntervalTrie(0.0, 1.0)
        trie.insert(0.2, 0.4, expire_x=1.0, payload="old")
        hits, _ = collect_hits(trie, 0.2, 0.4, sweep_x=2.0)
        assert hits == []

    def test_expired_entry_compacted_out(self):
        trie = IntervalTrie(0.0, 1.0)
        trie.insert(0.4, 0.6, expire_x=1.0, payload="old")
        assert trie.size == 1
        collect_hits(trie, 0.4, 0.6, sweep_x=2.0)
        assert trie.size == 0
        assert not trie.root.entries

    def test_entry_alive_at_exact_expiry(self):
        """Closed-rectangle semantics: expire only strictly past xh."""
        trie = IntervalTrie(0.0, 1.0)
        trie.insert(0.2, 0.4, expire_x=1.0, payload="edge")
        hits, _ = collect_hits(trie, 0.2, 0.4, sweep_x=1.0)
        assert hits == ["edge"]


class TestStructure:
    def test_depth_bounded(self):
        trie = IntervalTrie(0.0, 1.0, max_depth=3)
        # A point interval would descend forever without the bound.
        trie.insert(0.123456, 0.123456, 10.0, "pt")
        assert node_count(trie) <= 2 ** 4

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            IntervalTrie(1.0, 0.0)

    def test_degenerate_range_widened(self):
        trie = IntervalTrie(0.5, 0.5)
        trie.insert(0.5, 0.5, 1.0, "a")
        hits, _ = collect_hits(trie, 0.5, 0.5, 0.0)
        assert hits == ["a"]

    def test_ops_counted(self):
        trie = IntervalTrie(0.0, 1.0)
        before = trie.ops
        trie.insert(0.1, 0.11, 1.0, "a")
        assert trie.ops > before


class TestAgainstBruteForce:
    def test_randomized_queries_match_linear_scan(self):
        """Queries with a monotone sweep position (the real usage pattern)
        must match a brute-force scan over the non-expired entries."""
        rng = random.Random(123)
        trie = IntervalTrie(0.0, 1.0, max_depth=DEFAULT_MAX_DEPTH)
        reference = []
        for i in range(300):
            lo = rng.random()
            hi = min(1.0, lo + rng.random() * 0.2)
            expire = rng.random() * 10
            trie.insert(lo, hi, expire, i)
            reference.append((lo, hi, expire, i))
        sweeps = sorted(rng.random() * 10 for _ in range(100))
        for sweep in sweeps:
            qlo = rng.random()
            qhi = min(1.0, qlo + rng.random() * 0.3)
            hits, _ = collect_hits(trie, qlo, qhi, sweep)
            expected = [
                payload
                for lo, hi, expire, payload in reference
                if expire >= sweep and lo <= qhi and qlo <= hi
            ]
            assert sorted(hits) == sorted(expected)
