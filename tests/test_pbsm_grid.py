"""Unit and property tests for PBSM's tile grid."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.rect import KPE
from repro.core.space import Space
from repro.pbsm.grid import TileGrid

from tests.conftest import HASH_ID

UNIT = Space(0.0, 0.0, 1.0, 1.0)


class TestConstruction:
    def test_rejects_fewer_tiles_than_partitions(self):
        with pytest.raises(ValueError):
            TileGrid(UNIT, 2, 2, 5)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            TileGrid(UNIT, 0, 1, 1)

    def test_for_partitions_guarantees_nt_ge_p(self):
        for p in (1, 2, 3, 7, 100):
            grid = TileGrid.for_partitions(UNIT, p, tiles_per_partition=4)
            assert grid.tile_count() >= p
            assert grid.n_partitions == p


class TestTileArithmetic:
    def test_tile_of_point_quadrants(self):
        grid = TileGrid(UNIT, 2, 2, 4)
        assert grid.tile_of_point(0.25, 0.25) == (0, 0)
        assert grid.tile_of_point(0.75, 0.25) == (1, 0)
        assert grid.tile_of_point(0.25, 0.75) == (0, 1)
        assert grid.tile_of_point(0.75, 0.75) == (1, 1)

    def test_far_border_clamped(self):
        grid = TileGrid(UNIT, 4, 4, 4)
        assert grid.tile_of_point(1.0, 1.0) == (3, 3)

    def test_out_of_space_clamped(self):
        grid = TileGrid(UNIT, 4, 4, 4)
        assert grid.tile_of_point(-1.0, 2.0) == (0, 3)

    def test_tiles_for_rect_single_tile(self):
        grid = TileGrid(UNIT, 4, 4, 4)
        k = KPE(1, 0.05, 0.05, 0.2, 0.2)
        assert list(grid.tiles_for_rect(k)) == [(0, 0)]

    def test_tiles_for_rect_block(self):
        grid = TileGrid(UNIT, 4, 4, 4)
        k = KPE(1, 0.3, 0.3, 0.55, 0.45)
        assert sorted(grid.tiles_for_rect(k)) == [(1, 1), (2, 1)]

    def test_whole_space_rect_covers_all_tiles(self):
        grid = TileGrid(UNIT, 3, 3, 2)
        k = KPE(1, 0.0, 0.0, 1.0, 1.0)
        assert len(list(grid.tiles_for_rect(k))) == 9


class TestPartitionMapping:
    @HASH_ID
    def test_partition_ids_in_range(self):
        grid = TileGrid(UNIT, 8, 8, 5)
        for tx in range(8):
            for ty in range(8):
                assert 0 <= grid.partition_of_tile(tx, ty) < 5

    @HASH_ID
    def test_every_partition_gets_tiles(self):
        grid = TileGrid(UNIT, 8, 8, 5)
        owners = {
            grid.partition_of_tile(tx, ty) for tx in range(8) for ty in range(8)
        }
        assert owners == set(range(5))

    def test_partitions_for_rect_deduplicates(self):
        grid = TileGrid(UNIT, 8, 8, 2)
        k = KPE(1, 0.0, 0.0, 1.0, 1.0)  # overlaps all 64 tiles
        assert grid.partitions_for_rect(k) == {0, 1}

    def test_point_partition_consistent_with_tile(self):
        grid = TileGrid(UNIT, 8, 8, 3)
        tx, ty = grid.tile_of_point(0.7, 0.3)
        assert grid.partition_of_point(0.7, 0.3) == grid.partition_of_tile(tx, ty)


coord = st.floats(0, 1, allow_nan=False)


class TestGridProperties:
    @given(coord, coord, st.integers(1, 6), st.integers(1, 20))
    def test_point_has_unique_partition(self, x, y, side, p):
        if side * side < p:
            return
        grid = TileGrid(UNIT, side, side, p)
        pid = grid.partition_of_point(x, y)
        assert 0 <= pid < p
        assert grid.partition_of_point(x, y) == pid  # deterministic

    @given(coord, coord, coord, coord, st.integers(2, 8))
    def test_rect_partitions_cover_contained_points(self, x1, y1, x2, y2, side):
        """Every point of a rectangle maps to one of the partitions the
        rectangle was inserted into — the completeness half of RPM."""
        grid = TileGrid(UNIT, side, side, max(1, side))
        k = KPE(1, min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))
        pids = grid.partitions_for_rect(k)
        for tx in (k.xl, (k.xl + k.xh) / 2, k.xh):
            for ty in (k.yl, (k.yl + k.yh) / 2, k.yh):
                assert grid.partition_of_point(tx, ty) in pids
