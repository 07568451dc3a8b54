"""Two-layer corner-class duplicate avoidance: classes, schedule, kernels.

Unit-level coverage for ``pbsm/twolayer.py`` and its vectorized twin
``kernels/twolayer.py``: corner-class assignment (including degenerate
point MBRs and slivers), the nine-combo mini-join schedule's
exactly-once guarantee, scalar/kernel parity, the zero-dedup-work
counter contract, and the driver integration (sequential PBSM with
``dedup="twolayer"`` on every internal algorithm).
"""

import pytest

from repro.core.phases import PHASE_JOIN
from repro.core.refpoint import reference_point
from repro.core.space import Space
from repro.core.stats import CpuCounters
from repro.internal import INTERNAL_ALGORITHMS, brute_force_pairs
from repro.io.costmodel import mb
from repro.pbsm import PBSM, TileGrid
from repro.pbsm.twolayer import (
    CLASS_A,
    CLASS_B,
    CLASS_C,
    CLASS_D,
    MINI_JOIN_SCHEDULE,
    bottom_left_refpoint,
    classify_tiles,
    corner_class,
    twolayer_partition_join,
)

SPACE = Space(0.0, 0.0, 1.0, 1.0)


def grid4(n_partitions=1):
    return TileGrid(SPACE, 4, 4, n_partitions)


def point_datasets(n=60, seed=7):
    """Pure point-MBR relations (xl==xh, yl==yh), lattice-aligned."""
    import random

    rng = random.Random(seed)
    lattice = [i / 8.0 for i in range(9)]
    left = []
    right = []
    for i in range(n):
        x, y = rng.choice(lattice), rng.choice(lattice)
        left.append((i, x, y, x, y))
        x, y = rng.choice(lattice), rng.choice(lattice)
        right.append((1000 + i, x, y, x, y))
    return left, right


# ----------------------------------------------------------------------
# corner classes
# ----------------------------------------------------------------------
class TestCornerClass:
    def test_classes_relative_to_home_tile(self):
        grid = grid4()
        rect = (1, 0.30, 0.30, 0.60, 0.60)  # home tile (1, 1), spans to (2, 2)
        assert corner_class(grid, rect, 1, 1) == CLASS_A
        assert corner_class(grid, rect, 2, 1) == CLASS_B
        assert corner_class(grid, rect, 1, 2) == CLASS_C
        assert corner_class(grid, rect, 2, 2) == CLASS_D

    def test_point_mbr_is_always_class_a(self):
        grid = grid4()
        for x, y in [(0.0, 0.0), (0.25, 0.25), (1.0, 1.0), (0.999, 0.5)]:
            point = (1, x, y, x, y)
            tiles = list(grid.tiles_for_rect(point))
            assert len(tiles) == 1  # a point overlaps exactly one tile
            tx, ty = tiles[0]
            assert corner_class(grid, point, tx, ty) == CLASS_A

    def test_sliver_classes(self):
        grid = grid4()
        # Zero-height sliver crossing a vertical tile edge: A at home,
        # B to the right, never C or D.
        sliver = (1, 0.20, 0.50, 0.30, 0.50)
        assert corner_class(grid, sliver, 0, 2) == CLASS_A
        assert corner_class(grid, sliver, 1, 2) == CLASS_B

    def test_classify_tiles_counts_and_partition_filter(self):
        grid = TileGrid(SPACE, 4, 4, 2)
        rect = (1, 0.30, 0.30, 0.60, 0.60)  # overlaps tiles (1..2, 1..2)
        counters = CpuCounters()
        for pid in (0, 1):
            groups = classify_tiles([rect], grid, pid, counters)
            for (tx, ty), by_class in groups.items():
                assert grid.partition_of_tile(tx, ty) == pid
                assert sum(len(g) for g in by_class) == 1
        assert counters.structure_ops > 0


# ----------------------------------------------------------------------
# ownership points on degenerate geometry
# ----------------------------------------------------------------------
class TestDegenerateOwnership:
    def test_refpoint_and_bottom_left_inside_both_for_points(self):
        # A point MBR intersecting a rectangle: both ownership points
        # must coincide with the point itself.
        point = (1, 0.5, 0.5, 0.5, 0.5)
        rect = (2, 0.25, 0.25, 0.75, 0.75)
        assert reference_point(point, rect) == (0.5, 0.5)
        assert bottom_left_refpoint(point, rect) == (0.5, 0.5)
        assert bottom_left_refpoint(rect, point) == (0.5, 0.5)

    def test_touching_corners_own_the_touch_point(self):
        # Two rectangles touching at exactly one corner: the
        # intersection is that corner, and both ownership conventions
        # pick it.
        a = (1, 0.0, 0.0, 0.5, 0.5)
        b = (2, 0.5, 0.5, 1.0, 1.0)
        assert bottom_left_refpoint(a, b) == (0.5, 0.5)
        assert reference_point(a, b) == (0.5, 0.5)
        grid = grid4()
        owner = grid.tile_of_point(*bottom_left_refpoint(a, b))
        assert owner in set(grid.tiles_for_rect(a))
        assert owner in set(grid.tiles_for_rect(b))


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
        grid = grid4()
        pairs = twolayer_partition_join(
            left, right, grid, 0, INTERNAL_ALGORITHMS["sweep_list"],
            CpuCounters(),
        )
        assert sorted(pairs) == sorted(brute_force_pairs(left, right))
        assert len(pairs) == len(set(pairs))


# ----------------------------------------------------------------------
# driver integration
# ----------------------------------------------------------------------
class TestDriverIntegration:
    @pytest.mark.parametrize(
        "internal", ["sweep_list", "sweep_trie", "sweep_tree", "nested_loops"]
    )
    def test_sequential_matches_rpm_every_internal(self, internal, small_pair):
        left, right = small_pair
        rpm = PBSM(mb(0.25), internal=internal, dedup="rpm").run(left, right)
        two = PBSM(mb(0.25), internal=internal, dedup="twolayer").run(
            left, right
        )
        assert two.pair_set() == rpm.pair_set()
        assert not two.has_duplicates()

    def test_zero_dedup_work_counters(self, small_pair):
        left, right = small_pair
        result = PBSM(mb(1.0), dedup="twolayer").run(left, right)
        stats = result.stats
        assert stats.algorithm.endswith(",2L)")
        for cpu in stats.cpu_by_phase.values():
            assert cpu.get("refpoint_tests", 0) == 0
        assert stats.duplicates_suppressed == 0
        assert stats.duplicates_sorted_out == 0

    def test_point_dataset_regression(self):
        # Pure point MBRs: every record is class A in its single tile;
        # coincident points must join exactly once under all dedups.
        left, right = point_datasets()
        truth = set(brute_force_pairs(left, right))
        for dedup in ("rpm", "sort", "twolayer"):
            result = PBSM(mb(0.05), dedup=dedup).run(left, right)
            assert result.pair_set() == truth, dedup
            assert not result.has_duplicates()

    def test_repartition_fallback_still_exact(self):
        # A memory budget small enough to force repartitioning: composed
        # regions lose the tile grid, so twolayer falls back to the
        # bottom-left ownership test — honestly charged as refpoint
        # tests — and the pair set must stay exact.
        import random

        rng = random.Random(3)
        left = []
        right = []
        for i in range(1500):
            x, y = rng.random(), rng.random()
            left.append((i, x, y, x + 0.02, y + 0.02))
            x, y = rng.random(), rng.random()
            right.append((10_000 + i, x, y, x + 0.02, y + 0.02))
        result = PBSM(mb(0.01), dedup="twolayer").run(left, right)
        assert result.stats.repartition_events > 0
        rpm = PBSM(mb(0.01), dedup="rpm").run(left, right)
        assert result.pair_set() == rpm.pair_set()
        assert not result.has_duplicates()

    def test_kernel_path_matches_scalar(self, small_pair):
        left, right = small_pair
        scalar = PBSM(mb(0.25), internal="sweep_list", dedup="twolayer").run(
            left, right
        )
        kernel = PBSM(mb(0.25), internal="sweep_numpy", dedup="twolayer").run(
            left, right
        )
        assert kernel.pair_set() == scalar.pair_set()
        assert not kernel.has_duplicates()

    def test_kernel_charges_batch_ops_only(self, small_pair):
        left, right = small_pair
        result = PBSM(mb(1.0), internal="sweep_numpy", dedup="twolayer").run(
            left, right
        )
        join_cpu = result.stats.cpu_by_phase[PHASE_JOIN]
        assert join_cpu["batch_ops"] > 0
        assert join_cpu["refpoint_tests"] == 0


# ----------------------------------------------------------------------
# per-mini-join sweep-axis heuristic (coarse grids below the stripe floor)
# ----------------------------------------------------------------------
class TestAxisHeuristic:
    """Sub-floor mini-joins probe both sweep axes and may run transposed.

    The coarse-grid caveat of docs/duplicates.md: below
    ``STRIPE_MIN_RECORDS`` the forward scan runs unstriped, so an
    x-anchored scan over wide-flat rectangles expands nearly the full
    cross product.  The heuristic transposes those scans to y-anchored
    windows — unstriped, y-pruning intact — without changing a single
    emitted pair.
    """

    def coarse_setup(self):
        import random

        from repro.kernels.columnar import ColumnarRelation

        rng = random.Random(5)
        kpes = []
        for i in range(3000):
            x, y = rng.random(), rng.random()
            # wide in x, flat in y: the regime where x-anchored windows
            # are nearly the full active set but y windows stay tiny
            kpes.append((i, x, y, min(x + 0.08, 1.0), min(y + 0.0004, 1.0)))
        grid = TileGrid(SPACE, 2, 2, 4)
        return ColumnarRelation.from_kpes(kpes), kpes, grid

    def run_all_partitions(self, cols, grid):
        from repro.kernels.twolayer import twolayer_join_ids

        counters = CpuCounters()
        pairs = []
        for pid in range(4):
            rid, sid, _ = twolayer_join_ids(cols, cols, grid, pid, counters)
            pairs.extend(zip(rid.tolist(), sid.tolist()))
        return pairs, counters

    def test_transposed_scans_reduce_batch_ops(self):
        from repro.kernels import twolayer as tl

        cols, _, grid = self.coarse_setup()
        with_heuristic, c_on = self.run_all_partitions(cols, grid)
        original = tl.AXIS_PROBE_MIN_RECORDS
        tl.AXIS_PROBE_MIN_RECORDS = 10**9  # disable
        try:
            without, c_off = self.run_all_partitions(cols, grid)
        finally:
            tl.AXIS_PROBE_MIN_RECORDS = original
        assert sorted(with_heuristic) == sorted(without)
        # y-pruning must at least halve the candidate volume here
        assert c_on.batch_ops * 2 < c_off.batch_ops

    def test_pair_set_matches_scalar_engine(self):
        cols, kpes, grid = self.coarse_setup()
        from repro.internal.sweep_list import sweep_list_join

        kernel_pairs, _ = self.run_all_partitions(cols, grid)
        scalar = []
        counters = CpuCounters()
        for pid in range(4):
            scalar.extend(
                twolayer_partition_join(
                    kpes, kpes, grid, pid, sweep_list_join, counters
                )
            )
        assert sorted(kernel_pairs) == sorted(scalar)

    def test_probe_skipped_below_minimum(self):
        import random

        from repro.kernels import twolayer as tl
        from repro.kernels.columnar import ColumnarRelation
        from repro.kernels.twolayer import twolayer_join_ids

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
