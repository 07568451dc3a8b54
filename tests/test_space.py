"""Unit tests for repro.core.space."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.rect import KPE
from repro.core.space import Space


class TestSpaceConstruction:
    def test_invalid_extent_rejected(self):
        with pytest.raises(ValueError):
            Space(1.0, 0.0, 0.0, 1.0)

    def test_of_empty_is_unit_square(self):
        s = Space.of([])
        assert (s.xl, s.yl, s.xh, s.yh) == (0.0, 0.0, 1.0, 1.0)

    def test_of_single_relation(self):
        s = Space.of([KPE(1, 0.2, 0.1, 0.8, 0.9)])
        assert (s.xl, s.yl, s.xh, s.yh) == (0.2, 0.1, 0.8, 0.9)

    def test_of_two_relations_joint_mbr(self):
        s = Space.of(
            [KPE(1, 0.2, 0.5, 0.4, 0.6)],
            [KPE(2, -1.0, 0.0, 0.1, 2.0)],
        )
        assert (s.xl, s.yl, s.xh, s.yh) == (-1.0, 0.0, 0.4, 2.0)

    def test_equality_and_hash(self):
        a = Space(0, 0, 1, 1)
        b = Space(0, 0, 1, 1)
        c = Space(0, 0, 2, 1)
        assert a == b
        assert hash(a) == hash(b)
        assert a != c


class TestNormalisation:
    def test_corners(self):
        s = Space(2.0, 4.0, 6.0, 8.0)
        assert s.norm_x(2.0) == 0.0
        assert s.norm_x(6.0) == 1.0
        assert s.norm_y(4.0) == 0.0
        assert s.norm_y(8.0) == 1.0

    def test_midpoint(self):
        s = Space(0.0, 0.0, 2.0, 4.0)
        assert s.norm_x(1.0) == 0.5
        assert s.norm_y(2.0) == 0.5

    def test_degenerate_axis_does_not_divide_by_zero(self):
        s = Space(1.0, 1.0, 1.0, 5.0)
        assert s.norm_x(1.0) == 0.0
        assert s.norm_y(3.0) == 0.5

    @given(
        st.floats(-10, 10, allow_nan=False),
        st.floats(0.001, 10, allow_nan=False),
        st.floats(0, 1, allow_nan=False),
    )
    def test_norm_roundtrip(self, lo, width, t):
        s = Space(lo, 0.0, lo + width, 1.0)
        x = lo + t * width
        assert s.norm_x(x) == pytest.approx(t, abs=1e-9)
