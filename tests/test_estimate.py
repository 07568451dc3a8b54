"""Tests for grid histograms and selectivity estimation."""

import pytest

from repro.core.space import Space
from repro.datasets import clustered_rects, uniform_rects
from repro.estimate import GridHistogram
from repro.internal import brute_force_pairs

UNIT = Space(0.0, 0.0, 1.0, 1.0)


class TestHistogramConstruction:
    def test_counts_sum_to_n(self):
        kpes = uniform_rects(500, 1)
        hist = GridHistogram.build(kpes, UNIT, resolution=16)
        assert hist.n == 500
        assert sum(hist.counts) == 500

    def test_empty_relation(self):
        hist = GridHistogram.build([], UNIT)
        assert hist.n == 0
        assert all(hist.mean_edges(c) == (0.0, 0.0) for c in range(len(hist.counts)))

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            GridHistogram(UNIT, resolution=0)

    def test_mean_edges_match_data(self):
        kpes = uniform_rects(400, 2, mean_edge=0.02)
        hist = GridHistogram.build(kpes, UNIT, resolution=8)
        w = sum(hist.sum_w) / hist.n
        true_w = sum(k.xh - k.xl for k in kpes) / len(kpes)
        assert w == pytest.approx(true_w, rel=1e-9)

    def test_skew_shows_in_cells(self):
        kpes = clustered_rects(1000, 3, clusters=2, cluster_sigma=0.01)
        hist = GridHistogram.build(kpes, UNIT, resolution=16)
        occupied = sum(1 for c in hist.counts if c > 0)
        assert occupied < 40  # most cells empty under heavy skew


class TestJoinEstimation:
    def test_uniform_estimate_within_factor_three(self):
        left = uniform_rects(800, 4, mean_edge=0.02)
        right = uniform_rects(800, 5, mean_edge=0.02, start_oid=10_000)
        hist_left = GridHistogram.build(left, UNIT, 8)
        hist_right = GridHistogram.build(right, UNIT, 8)
        estimate = hist_left.estimate_join_results(hist_right)
        truth = len(brute_force_pairs(left, right))
        assert truth > 0
        assert truth / 3 <= estimate <= truth * 3

    def test_estimate_grows_with_rect_size(self):
        small = uniform_rects(300, 6, mean_edge=0.01)
        large = uniform_rects(300, 6, mean_edge=0.05)
        probe = uniform_rects(300, 7, mean_edge=0.01, start_oid=10_000)
        hist_probe = GridHistogram.build(probe, UNIT, 8)
        est_small = GridHistogram.build(small, UNIT, 8).estimate_join_results(hist_probe)
        est_large = GridHistogram.build(large, UNIT, 8).estimate_join_results(hist_probe)
        assert est_large > est_small

    def test_mismatched_histograms_rejected(self):
        a = GridHistogram(UNIT, 8)
        b = GridHistogram(UNIT, 16)
        with pytest.raises(ValueError):
            a.estimate_join_results(b)
