"""PBSM's equidistant tile grid and its tile-to-partition hash.

PBSM overlays the data space with ``NT >= P`` tiles and assigns each tile
to one of ``P`` partitions; a KPE is inserted into every partition owning a
tile its rectangle overlaps (hence the replication).  Assigning *multiple*
tiles to each partition by a hash, as Patel & DeWitt suggest (Section
3.1), spreads skewed data nearly uniformly over the partitions; the hash
is the only mapping.

The same grid arithmetic provides the Reference Point Method's region test:
``partition_of_point`` maps a point to the partition owning its (unique,
half-open, border-clamped) tile.
"""

from __future__ import annotations

import math
from typing import Iterator, Set, Tuple

from repro.core.space import Space, clamped_cell

#: Odd multipliers for the tile-to-partition hash.  The scalar
#: arithmetic here and the vectorized replay in
#: :mod:`repro.kernels.rpm` must hash identically, so both import these.
TILE_HASH_X = 73856093
TILE_HASH_Y = 19349663

#: Tiles per partition, ``NT ~= P * TILES_PER_PARTITION``: the default grid
#: of every PBSM run and the one the planner prices.
TILES_PER_PARTITION = 4


class TileGrid:
    """An ``nx x ny`` equidistant grid whose tiles hash to ``n_partitions``
    partitions."""

    __slots__ = ("space", "nx", "ny", "n_partitions")

    def __init__(
        self,
        space: Space,
        nx: int,
        ny: int,
        n_partitions: int,
    ) -> None:
        if nx < 1 or ny < 1:
            raise ValueError(f"grid must have at least one tile, got {nx}x{ny}")
        if n_partitions < 1:
            raise ValueError("need at least one partition")
        if nx * ny < n_partitions:
            raise ValueError(
                f"{nx * ny} tiles cannot cover {n_partitions} partitions (NT >= P)"
            )
        self.space = space
        self.nx = nx
        self.ny = ny
        self.n_partitions = n_partitions

    @classmethod
    def for_partitions(
        cls,
        space: Space,
        n_partitions: int,
        tiles_per_partition: int = TILES_PER_PARTITION,
    ) -> "TileGrid":
        """Build a near-square grid with ``NT ~= P * tiles_per_partition``."""
        nt = max(n_partitions, n_partitions * tiles_per_partition)
        side = max(1, math.ceil(math.sqrt(nt)))
        return cls(space, side, side, n_partitions)

    @property
    def spec(self) -> Tuple:
        """Plain values that determine the grid: a hashable key, and what a
        pool worker rebuilds it from (:meth:`from_spec`)."""
        space = self.space
        return (
            space.xl,
            space.yl,
            space.xh,
            space.yh,
            self.nx,
            self.ny,
            self.n_partitions,
        )

    @classmethod
    def from_spec(cls, spec: Tuple) -> "TileGrid":
        xl, yl, xh, yh, nx, ny, n_partitions = spec
        return cls(Space(xl, yl, xh, yh), nx, ny, n_partitions)

    # ------------------------------------------------------------------
    # tile arithmetic
    # ------------------------------------------------------------------
    def tile_of_point(self, x: float, y: float) -> Tuple[int, int]:
        """The unique (half-open, border-clamped) tile owning a point."""
        return (
            clamped_cell(self.space.norm_x(x) * self.nx, self.nx),
            clamped_cell(self.space.norm_y(y) * self.ny, self.ny),
        )

    def partition_of_tile(self, tx: int, ty: int) -> int:
        """The partition a tile is assigned to."""
        # Two odd multipliers decorrelate rows and columns so clustered
        # tiles spread over all partitions (Patel & DeWitt's intent).
        return ((tx * TILE_HASH_X) ^ (ty * TILE_HASH_Y)) % self.n_partitions

    def partition_of_point(self, x: float, y: float) -> int:
        """RPM's region test: the partition owning the point's tile."""
        tx, ty = self.tile_of_point(x, y)
        return self.partition_of_tile(tx, ty)

    def tiles_for_rect(self, kpe: Tuple) -> Iterator[Tuple[int, int]]:
        """All tiles a rectangle overlaps (consistent with the point map)."""
        txl, tyl = self.tile_of_point(kpe[1], kpe[2])
        txh, tyh = self.tile_of_point(kpe[3], kpe[4])
        for ty in range(tyl, tyh + 1):
            for tx in range(txl, txh + 1):
                yield tx, ty

    def partitions_for_rect(self, kpe: Tuple) -> Set[int]:
        """The distinct partitions a rectangle must be inserted into."""
        txl, tyl = self.tile_of_point(kpe[1], kpe[2])
        txh, tyh = self.tile_of_point(kpe[3], kpe[4])
        if txl == txh and tyl == tyh:
            return {self.partition_of_tile(txl, tyl)}
        partition_of_tile = self.partition_of_tile
        return {
            partition_of_tile(tx, ty)
            for ty in range(tyl, tyh + 1)
            for tx in range(txl, txh + 1)
        }

    def tile_count(self) -> int:
        return self.nx * self.ny

