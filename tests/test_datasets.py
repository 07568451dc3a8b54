"""Tests for the synthetic dataset substrate."""

import pytest

from repro.core.rect import valid_kpe
from repro.datasets import (
    clustered_rects,
    coverage,
    polyline_mbrs,
    scale_edges,
    scale_to_coverage,
    summarize,
    uniform_rects,
)


class TestGenerators:
    @pytest.mark.parametrize(
        "gen", [polyline_mbrs, uniform_rects, clustered_rects]
    )
    def test_cardinality_and_validity(self, gen):
        kpes = gen(500, seed=1)
        assert len(kpes) == 500
        assert all(valid_kpe(k) for k in kpes)

    @pytest.mark.parametrize(
        "gen", [polyline_mbrs, uniform_rects, clustered_rects]
    )
    def test_deterministic_in_seed(self, gen):
        assert gen(100, seed=7) == gen(100, seed=7)
        assert gen(100, seed=7) != gen(100, seed=8)

    @pytest.mark.parametrize(
        "gen", [polyline_mbrs, uniform_rects, clustered_rects]
    )
    def test_within_unit_square(self, gen):
        for k in gen(300, seed=2):
            assert 0.0 <= k.xl <= k.xh <= 1.0
            assert 0.0 <= k.yl <= k.yh <= 1.0

    def test_start_oid(self):
        kpes = polyline_mbrs(10, seed=1, start_oid=500)
        assert [k.oid for k in kpes] == list(range(500, 510))

    def test_oids_unique(self):
        kpes = polyline_mbrs(1000, seed=3)
        assert len({k.oid for k in kpes}) == 1000

    def test_empty_generation(self):
        assert polyline_mbrs(0, seed=1) == []
        assert uniform_rects(0, seed=1) == []

    def test_polylines_are_thin_segments(self):
        """TIGER-likeness: segment MBRs are small relative to the space."""
        kpes = polyline_mbrs(1000, seed=4)
        avg_w = sum(k.xh - k.xl for k in kpes) / len(kpes)
        assert avg_w < 0.05


class TestTransforms:
    def test_scale_edges_doubles_extents(self):
        kpes = uniform_rects(50, seed=5)
        scaled = scale_edges(kpes, 2.0)
        for orig, new in zip(kpes, scaled):
            assert (new.xh - new.xl) == pytest.approx(2 * (orig.xh - orig.xl))
            assert (new.yh - new.yl) == pytest.approx(2 * (orig.yh - orig.yl))
            # centres preserved
            assert (new.xl + new.xh) / 2 == pytest.approx((orig.xl + orig.xh) / 2)

    def test_scale_edges_preserves_oids(self):
        kpes = uniform_rects(20, seed=6)
        assert [k.oid for k in scale_edges(kpes, 3.0)] == [k.oid for k in kpes]

    def test_scale_edges_invalid_factor(self):
        with pytest.raises(ValueError):
            scale_edges([], 0.0)

    def test_scale_to_coverage_hits_target(self):
        kpes = polyline_mbrs(2000, seed=7)
        for target in (0.03, 0.22, 0.5):
            scaled = scale_to_coverage(kpes, target)
            assert coverage(scaled) == pytest.approx(target, rel=0.05)

    def test_scale_to_coverage_zero_area_needs_padding(self):
        from repro.core.rect import KPE

        lines = [KPE(i, 0.1 * i, 0.2, 0.1 * i, 0.8) for i in range(1, 5)]
        with pytest.raises(ValueError):
            scale_to_coverage(lines, 0.1)
        padded = scale_to_coverage(lines, 0.1, min_edge=1e-4)
        assert coverage(padded) == pytest.approx(0.1, rel=0.05)

    def test_coverage_p_squared_law(self):
        """Table 1: scaling edges by p multiplies coverage by ~p^2 (the
        global MBR grows slightly, so the ratio is a bit below p^2)."""
        kpes = polyline_mbrs(3000, seed=8)
        base = coverage(kpes)
        for p in (2, 3):
            grown = coverage(scale_edges(kpes, p))
            assert grown == pytest.approx(base * p * p, rel=0.15)


class TestStats:
    def test_coverage_empty(self):
        assert coverage([]) == 0.0

    def test_coverage_single_full_rect(self):
        from repro.core.rect import KPE

        assert coverage([KPE(1, 0, 0, 1, 1)]) == pytest.approx(1.0)

    def test_summarize(self):
        kpes = uniform_rects(100, seed=9)
        s = summarize("X", kpes)
        assert s.name == "X"
        assert s.n_mbrs == 100
        assert s.coverage == pytest.approx(coverage(kpes))

    def test_summarize_empty(self):
        s = summarize("E", [])
        assert s.n_mbrs == 0 and s.coverage == 0.0
