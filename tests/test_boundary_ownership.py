"""Boundary-exact ownership: every engine agrees on tile-edge pairs.

Any exactly-once duplicate scheme lives or dies on its boundary
semantics: a reference point (or a corner class) computed for a corner
sitting *exactly on* a tile edge must land in exactly one tile under the
same half-open convention everywhere — the scalar ``reference_point``,
the batched ``kernels/rpm.py`` path, and the two-layer corner classifier
of ``kernels/twolayer.py`` all against ``TILE_HASH_X/Y``'s clamped
integer-cell arithmetic in ``pbsm/grid.py``.  These property tests
construct rectangles on a coordinate lattice that contains every tile
edge of the grids in play (plus the grid min/max edges, via sentinel
point MBRs pinning the data space), so intersection corners fall on
edges constantly rather than almost never, and assert pair-set parity
(rpm / sort) across the list engine, the columnar kernel path and S3J,
and exactly-once ownership of the two-layer kernel.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.space import Space
from repro.internal import brute_force_pairs
from repro.io.costmodel import mb
from repro.pbsm import PBSM, TileGrid
from repro.s3j import S3J

from tests.test_twolayer import assert_exactly_once

# Every tile edge of a 1x1, 2x2, 3x3, 4x4 or 6x6 grid over [0, 1]^2 is a
# multiple of 1/12 — drawing corners from this lattice makes
# exactly-on-edge intersections the common case, not a fluke.
LATTICE = [i / 12.0 for i in range(13)]

#: Sentinel point MBRs pinning the data space to [0, 1]^2 so tile edges
#: stay at lattice positions; the corner points also exercise the grid
#: min/max edges (the clamped top-right cell).
SENTINELS_LEFT = [(90_001, 0.0, 0.0, 0.0, 0.0), (90_002, 1.0, 1.0, 1.0, 1.0)]
SENTINELS_RIGHT = [(91_001, 0.0, 0.0, 0.0, 0.0), (91_002, 1.0, 1.0, 1.0, 1.0)]


@st.composite
def lattice_rects(draw, start_oid=0):
    """Rectangles (degenerate ones included) with lattice corners."""
    n = draw(st.integers(min_value=3, max_value=25))
    recs = []
    for i in range(n):
        xl = draw(st.sampled_from(LATTICE))
        yl = draw(st.sampled_from(LATTICE))
        xh = draw(st.sampled_from([c for c in LATTICE if c >= xl]))
        yh = draw(st.sampled_from([c for c in LATTICE if c >= yl]))
        recs.append((start_oid + i, xl, yl, xh, yh))
    return recs


def engine_pair_sets(left, right):
    """Every (engine, dedup) combination's pair set, labelled."""
    out = {}
    for dedup in ("rpm", "sort"):
        for label, internal in (("list", "sweep_list"), ("kernel", "sweep_numpy")):
            out[f"{label}/{dedup}"] = PBSM(
                mb(0.05), internal=internal, dedup=dedup, tiles_per_partition=16
            ).run(left, right).pair_set()
    out["s3j"] = S3J(mb(0.05)).run(left, right).pair_set()
    return out


class TestBoundaryExactParity:
    @settings(max_examples=25, deadline=None)
    @given(left=lattice_rects(), right=lattice_rects(start_oid=1000))
    def test_three_way_parity_on_tile_edges(self, left, right):
        left = left + SENTINELS_LEFT
        right = right + SENTINELS_RIGHT
        truth = set(brute_force_pairs(left, right))
        for name, pairs in engine_pair_sets(left, right).items():
            assert pairs == truth, f"{name} diverges from brute force"

    @settings(max_examples=25, deadline=None)
    @given(
        left=lattice_rects(),
        right=lattice_rects(start_oid=1000),
        nx=st.sampled_from([1, 2, 3, 4, 6]),
        n_partitions=st.sampled_from([1, 2, 4]),
    )
    def test_twolayer_exactly_once_across_partitions(
        self, left, right, nx, n_partitions
    ):
        # Summed over all partitions of an explicit grid, the two-layer
        # kernel's mini-joins must emit every intersecting pair exactly
        # once — no per-pair filtering exists to catch a double report.
        # Sentinel points sit on the grid's min/max edges.
        if nx * nx < n_partitions:
            n_partitions = nx * nx
        grid = TileGrid(Space(0.0, 0.0, 1.0, 1.0), nx, nx, n_partitions)
        assert_exactly_once(left + SENTINELS_LEFT, right + SENTINELS_RIGHT, grid)

    @settings(max_examples=40, deadline=None)
    @given(
        xl=st.sampled_from(LATTICE),
        yl=st.sampled_from(LATTICE),
        w=st.sampled_from([0.0, 1.0 / 12.0, 0.25]),
        h=st.sampled_from([0.0, 1.0 / 12.0, 0.25]),
        nx=st.sampled_from([2, 3, 4, 6]),
    )
    def test_owner_tile_contains_both_inputs(self, xl, yl, w, h, nx):
        # The bottom-left ownership point of any intersecting pair is a
        # point of both rectangles, so the owner tile must appear in both
        # rectangles' tile lists — ownership can never escape to a tile
        # either input was not replicated to.  Degenerate point MBRs and
        # slivers (w or h zero) are the sharpest instances.
        r = (1, xl, yl, min(1.0, xl + w), min(1.0, yl + h))
        s = (2, xl, yl, min(1.0, xl + 0.25), min(1.0, yl + 0.25))
        grid = TileGrid(Space(0.0, 0.0, 1.0, 1.0), nx, nx, 1)
        owner = grid.tile_of_point(max(r[1], s[1]), max(r[2], s[2]))
        assert owner in set(grid.tiles_for_rect(r))
        assert owner in set(grid.tiles_for_rect(s))
