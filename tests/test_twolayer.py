"""The retired two-layer kernel: classes, schedule, exactly-once ownership.

No driver runs ``kernels/twolayer.py`` any more; the frozen benchmark's
traced replay still times it, so it must stay exact.  The reference is
brute force: summed over every partition of a grid, the kernel must emit
each intersecting pair exactly once, from the partition holding the
intersection's bottom-left corner.  Also covered: corner-class
assignment (including degenerate point MBRs and slivers), the nine-combo
mini-join schedule, and the per-mini-join sweep-axis heuristic.
"""

from repro.core.refpoint import reference_point
from repro.core.space import Space
from repro.core.stats import CpuCounters
from repro.internal import brute_force_pairs
from repro.kernels.columnar import ColumnarRelation
from repro.kernels.twolayer import (
    CLASS_A,
    CLASS_B,
    CLASS_C,
    CLASS_D,
    MINI_JOIN_SCHEDULE,
    _classify,
    twolayer_join_ids,
)
from repro.pbsm import TileGrid

SPACE = Space(0.0, 0.0, 1.0, 1.0)


def grid4(n_partitions=1):
    return TileGrid(SPACE, 4, 4, n_partitions)


def owned_pairs(left, right, grid, counters=None):
    """``(pid, pair)`` for every pair the kernel emits over all of *grid*'s
    partitions, in partition order."""
    a = ColumnarRelation.from_kpes(left)
    b = ColumnarRelation.from_kpes(right)
    counters = counters if counters is not None else CpuCounters()
    out = []
    for pid in range(grid.n_partitions):
        rid, sid, suppressed = twolayer_join_ids(a, b, grid, pid, counters)
        assert suppressed == 0  # avoidance never detects a pair to drop
        out.extend((pid, pair) for pair in zip(rid.tolist(), sid.tolist()))
    return out


def assert_exactly_once(left, right, grid):
    """The kernel over every partition of *grid* equals brute force, each
    pair once."""
    pairs = [pair for _, pair in owned_pairs(left, right, grid)]
    assert sorted(pairs) == sorted(brute_force_pairs(left, right))
    assert len(pairs) == len(set(pairs))


def classes(rect, grid, pid=0, counters=None):
    """``{(tx, ty): corner class}`` of *rect*'s replicas in partition *pid*."""
    counters = counters if counters is not None else CpuCounters()
    _, key = _classify(ColumnarRelation.from_kpes([rect]), grid, pid, counters)
    return {
        (int(k // 4 % grid.nx), int(k // 4 // grid.nx)): int(k % 4) for k in key
    }


# ----------------------------------------------------------------------
# corner classes
# ----------------------------------------------------------------------
class TestCornerClass:
    def test_classes_relative_to_home_tile(self):
        rect = (1, 0.30, 0.30, 0.60, 0.60)  # home tile (1, 1), spans to (2, 2)
        assert classes(rect, grid4()) == {
            (1, 1): CLASS_A,
            (2, 1): CLASS_B,
            (1, 2): CLASS_C,
            (2, 2): CLASS_D,
        }

    def test_point_mbr_is_always_class_a(self):
        grid = grid4()
        for x, y in [(0.0, 0.0), (0.25, 0.25), (1.0, 1.0), (0.999, 0.5)]:
            point = (1, x, y, x, y)
            # a point overlaps exactly one tile, its home tile
            assert classes(point, grid) == {grid.tile_of_point(x, y): CLASS_A}

    def test_sliver_classes(self):
        # Zero-height sliver crossing a vertical tile edge: A at home,
        # B to the right, never C or D.
        sliver = (1, 0.20, 0.50, 0.30, 0.50)
        assert classes(sliver, grid4()) == {(0, 2): CLASS_A, (1, 2): CLASS_B}

    def test_classify_tiles_counts_and_partition_filter(self):
        grid = grid4(2)
        rect = (1, 0.30, 0.30, 0.60, 0.60)  # overlaps tiles (1..2, 1..2)
        counters = CpuCounters()
        tiles = []
        for pid in (0, 1):
            by_tile = classes(rect, grid, pid, counters)
            assert all(grid.partition_of_tile(*tile) == pid for tile in by_tile)
            tiles.extend(by_tile)
        # one replica per overlapped tile, split between the partitions
        assert sorted(tiles) == [(1, 1), (1, 2), (2, 1), (2, 2)]
        assert counters.batch_ops > 0


# ----------------------------------------------------------------------
# ownership points on degenerate geometry
# ----------------------------------------------------------------------
class TestDegenerateOwnership:
    #: One partition per tile, so the emitting partition names the tile:
    #: the hash is a bijection on 2x2 tiles with four partitions (on 4x4
    #: with sixteen it is not).
    GRID = TileGrid(SPACE, 2, 2, 4)

    def test_refpoint_and_bottom_left_inside_both_for_points(self):
        owners = {
            self.GRID.partition_of_tile(tx, ty) for tx in range(2) for ty in range(2)
        }
        assert owners == set(range(4))
        # A point MBR intersecting a rectangle: RPM's reference point and
        # the intersection's bottom-left corner (the kernel's owner) are
        # both the point itself.
        point = (1, 0.5, 0.5, 0.5, 0.5)
        rect = (2, 0.25, 0.25, 0.75, 0.75)
        assert reference_point(point, rect) == (0.5, 0.5)
        owner = self.GRID.partition_of_point(0.5, 0.5)
        assert owned_pairs([point], [rect], self.GRID) == [(owner, (1, 2))]
        assert owned_pairs([rect], [point], self.GRID) == [(owner, (2, 1))]

    def test_touching_corners_own_the_touch_point(self):
        # Two rectangles touching at exactly one corner: the
        # intersection is that corner, and the tile holding it — a tile
        # both rectangles are replicated to — emits the pair.
        a = (1, 0.0, 0.0, 0.5, 0.5)
        b = (2, 0.5, 0.5, 1.0, 1.0)
        assert reference_point(a, b) == (0.5, 0.5)
        owner = self.GRID.partition_of_point(0.5, 0.5)
        assert owned_pairs([a], [b], self.GRID) == [(owner, (1, 2))]
        tile = self.GRID.tile_of_point(0.5, 0.5)
        assert tile in set(self.GRID.tiles_for_rect(a))
        assert tile in set(self.GRID.tiles_for_rect(b))


# ----------------------------------------------------------------------
# mini-join schedule: exactly once, by construction
# ----------------------------------------------------------------------
class TestMiniJoinSchedule:
    def test_schedule_is_the_ownership_iff(self):
        # (r_class, s_class) is in the schedule exactly when the
        # intersection's bottom-left corner is owned by the tile:
        # per axis, at least one low corner inside.  Enumerating all 16
        # ordered combinations must reproduce the schedule — including
        # D x A, which an A-side-only listing would drop.
        def x_low_inside(cls):
            return cls in (CLASS_A, CLASS_C)

        def y_low_inside(cls):
            return cls in (CLASS_A, CLASS_B)

        expected = {
            (rc, sc)
            for rc in range(4)
            for sc in range(4)
            if (x_low_inside(rc) or x_low_inside(sc))
            and (y_low_inside(rc) or y_low_inside(sc))
        }
        assert set(MINI_JOIN_SCHEDULE) == expected
        assert (CLASS_D, CLASS_A) in MINI_JOIN_SCHEDULE

    def test_exactly_once_with_heavy_overlap(self):
        # Rectangles spanning many tiles: without the schedule every
        # shared tile would re-emit the pair.
        left = [(1, 0.1, 0.1, 0.9, 0.9), (2, 0.0, 0.0, 1.0, 1.0)]
        right = [(10, 0.2, 0.2, 0.8, 0.8), (11, 0.45, 0.45, 0.55, 0.55)]
        for n_partitions in (1, 4):
            assert_exactly_once(left, right, grid4(n_partitions))


# ----------------------------------------------------------------------
# per-mini-join sweep-axis heuristic (coarse grids below the stripe floor)
# ----------------------------------------------------------------------
class TestAxisHeuristic:
    """Sub-floor mini-joins probe both sweep axes and may run transposed.

    Below ``STRIPE_MIN_RECORDS`` the forward scan runs unstriped, so an
    x-anchored scan over wide-flat rectangles expands nearly the full
    cross product.  The heuristic transposes those scans to y-anchored
    windows — unstriped, y-pruning intact — without changing a single
    emitted pair.
    """

    def coarse_setup(self):
        import random

        rng = random.Random(5)
        kpes = []
        for i in range(3000):
            x, y = rng.random(), rng.random()
            # wide in x, flat in y: the regime where x-anchored windows
            # are nearly the full active set but y windows stay tiny
            kpes.append((i, x, y, min(x + 0.08, 1.0), min(y + 0.0004, 1.0)))
        return kpes, TileGrid(SPACE, 2, 2, 4)

    def run_all_partitions(self, kpes, grid):
        counters = CpuCounters()
        pairs = [pair for _, pair in owned_pairs(kpes, kpes, grid, counters)]
        return pairs, counters

    def test_transposed_scans_reduce_batch_ops(self):
        from repro.kernels import twolayer as tl

        kpes, grid = self.coarse_setup()
        with_heuristic, c_on = self.run_all_partitions(kpes, grid)
        original = tl.AXIS_PROBE_MIN_RECORDS
        tl.AXIS_PROBE_MIN_RECORDS = 10**9  # disable
        try:
            without, c_off = self.run_all_partitions(kpes, grid)
        finally:
            tl.AXIS_PROBE_MIN_RECORDS = original
        assert sorted(with_heuristic) == sorted(without)
        # y-pruning must at least halve the candidate volume here
        assert c_on.batch_ops * 2 < c_off.batch_ops

    def test_pair_set_matches_scalar_engine(self):
        kpes, grid = self.coarse_setup()
        kernel_pairs, _ = self.run_all_partitions(kpes, grid)
        assert sorted(kernel_pairs) == sorted(brute_force_pairs(kpes, kpes))

    def test_probe_skipped_below_minimum(self):
        import random

        from repro.kernels import twolayer as tl

        rng = random.Random(1)
        tiny = []
        for i in range(40):  # below AXIS_PROBE_MIN_RECORDS per mini-join
            x, y = rng.random(), rng.random()
            tiny.append((i, x, y, min(x + 0.1, 1.0), min(y + 0.001, 1.0)))
        cols = ColumnarRelation.from_kpes(tiny)
        grid = TileGrid(SPACE, 2, 2, 1)
        c_on = CpuCounters()
        rid_on, sid_on, _ = twolayer_join_ids(cols, cols, grid, 0, c_on)
        original = tl.AXIS_PROBE_MIN_RECORDS
        tl.AXIS_PROBE_MIN_RECORDS = 10**9
        try:
            c_off = CpuCounters()
            rid_off, sid_off, _ = twolayer_join_ids(cols, cols, grid, 0, c_off)
        finally:
            tl.AXIS_PROBE_MIN_RECORDS = original
        # below the probe minimum the heuristic must be a no-op
        assert rid_on.tolist() == rid_off.tolist()
        assert sid_on.tolist() == sid_off.tolist()
        assert c_on.batch_ops == c_off.batch_ops
