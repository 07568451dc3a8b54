"""Parity tests: the columnar kernel against the scalar algorithms.

The kernel path must be invisible in the results: for any input,
``sweep_numpy`` (vectorized, y-striped), ``sweep_list`` (scalar) and the
brute-force reference produce the same pair set, and the batched RPM
filter owns every pair in exactly one partition — including reference
points sitting exactly on tile boundaries, where a float discrepancy
between scalar and vectorized tile arithmetic would silently drop or
duplicate pairs.
"""

import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.rect import KPE, intersects
from repro.core.space import Space
from repro.core.stats import CpuCounters
from repro.internal import INTERNAL_ALGORITHMS, brute_force_pairs
from repro.internal.sweep_list import sweep_list_join
from repro.kernels.columnar import ColumnarRelation
import repro.kernels.rpm as rpm_module
from repro.kernels.assign import tile_ranges
from repro.kernels.rpm import point_tiles, rpm_join_ids, tile_partitions
from repro.kernels.sweep import STRIPE_MIN_RECORDS
from repro.kernels.twolayer import twolayer_join_ids
from repro.pbsm.grid import TILE_HASH_X, TILE_HASH_Y, TileGrid
from repro.pbsm.join import tuple_leaf

from tests.conftest import random_kpes

def run(name, left, right):
    counters = CpuCounters()
    pairs = []
    INTERNAL_ALGORITHMS[name](
        left, right, lambda r, s: pairs.append((r[0], s[0])), counters
    )
    return pairs


def make_inputs(kind, n, seed, start_oid=0):
    """Seeded workloads covering the distributions the paper varies."""
    from repro.datasets import clustered_rects, uniform_rects
    from repro.datasets.patterns import mixed_scale

    if kind == "uniform":
        return uniform_rects(n, seed=seed, start_oid=start_oid, mean_edge=0.01)
    if kind == "clustered":
        return clustered_rects(n, seed=seed, start_oid=start_oid)
    # Heavy-tailed extents: a few huge rectangles over many small ones —
    # the case that stresses both striping replication and the sweep's
    # active list.
    return mixed_scale(n, seed=seed, start_oid=start_oid)


@pytest.mark.parametrize("kind", ["uniform", "clustered", "skewed"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seeded_distributions_match(kind, seed):
    left = make_inputs(kind, 400, seed=seed)
    right = make_inputs(kind, 400, seed=seed + 100, start_oid=10**6)
    truth = sorted(brute_force_pairs(left, right))
    assert sorted(run("sweep_numpy", left, right)) == truth
    assert sorted(run("sweep_list", left, right)) == truth


@pytest.mark.parametrize("kind", ["uniform", "clustered"])
def test_striped_regime_matches_list_sweep(kind):
    # Inputs large enough that the kernel's y-striping engages.
    n = STRIPE_MIN_RECORDS
    left = make_inputs(kind, n, seed=7)
    right = make_inputs(kind, n, seed=8, start_oid=10**6)
    assert sorted(run("sweep_numpy", left, right)) == sorted(
        run("sweep_list", left, right)
    )


def test_touch_only_rectangles_count():
    # Shared edges and corners intersect (closed rectangles); the
    # searchsorted sides must treat the boundaries inclusively.
    left = [
        KPE(1, 0.0, 0.0, 0.5, 0.5),
        KPE(2, 0.5, 0.5, 1.0, 1.0),
        KPE(3, 0.25, 0.25, 0.25, 0.75),  # vertical segment
    ]
    right = [
        KPE(10, 0.5, 0.0, 1.0, 0.5),    # shares the corner (0.5, 0.5) w/ 1
        KPE(11, 0.0, 0.5, 0.5, 1.0),    # shares edges with 1 and 2
        KPE(12, 0.25, 0.5, 0.75, 0.5),  # touches 3 at a single point
    ]
    truth = sorted(brute_force_pairs(left, right))
    assert sorted(run("sweep_numpy", left, right)) == truth


@st.composite
def touching_kpes(draw):
    """Coordinates from a tiny lattice, so shared edges/corners abound."""
    lattice = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])

    def rect(oid):
        x1, x2 = sorted((draw(lattice), draw(lattice)))
        y1, y2 = sorted((draw(lattice), draw(lattice)))
        return KPE(oid, x1, y1, x2, y2)

    left = [rect(i) for i in range(draw(st.integers(0, 12)))]
    right = [rect(1000 + i) for i in range(draw(st.integers(0, 12)))]
    return left, right


@given(touching_kpes())
def test_property_lattice_parity(pair):
    left, right = pair
    truth = sorted(brute_force_pairs(left, right))
    assert sorted(run("sweep_numpy", left, right)) == truth
    assert sorted(run("sweep_list", left, right)) == truth


# ----------------------------------------------------------------------
# batched ownership (RPM, two-layer) vs scalar references, tile-boundary
# reference points included
# ----------------------------------------------------------------------
def rpm_grid():
    return TileGrid(Space(0.0, 0.0, 1.0, 1.0), 4, 4, 4, mapping="hash")


def boundary_rects(start_oid):
    """Rectangles engineered so reference points hit tile boundaries.

    With a 4x4 grid over the unit square, tile edges sit at multiples of
    0.25; ``max(xl)``/``min(yh)`` of these rectangles land exactly there.
    """
    coords = [0.0, 0.25, 0.5, 0.75]
    out = []
    oid = start_oid
    for x in coords:
        for y in coords:
            out.append(KPE(oid, x, y, x + 0.25, y + 0.25))
            oid += 1
            out.append(KPE(oid, x + 0.1, y + 0.1, x + 0.25, y + 0.25))
            oid += 1
    return out


def batched(join_ids, left, right, grid, pid):
    """One id-pair kernel on columns, as ``(pairs, suppressed)``."""
    rid, sid, suppressed = join_ids(
        ColumnarRelation.from_kpes(left),
        ColumnarRelation.from_kpes(right),
        grid,
        pid,
        CpuCounters(),
    )
    return list(zip(rid.tolist(), sid.tolist())), suppressed


def scalar_rpm(left, right, grid, pid):
    """The shared tuple leaf: list sweep + scalar RPM."""
    return tuple_leaf(
        left, right, ((grid, pid),), "rpm", sweep_list_join, CpuCounters()
    )


def scalar_twolayer(left, right, grid, pid):
    """Brute force, each pair kept by the partition of its intersection's
    bottom-left corner: the one tile whose mini-joins emit it."""
    pairs = [
        (r[0], s[0])
        for r in left
        for s in right
        if intersects(r, s)
        and grid.partition_of_point(max(r[1], s[1]), max(r[2], s[2])) == pid
    ]
    return pairs, 0


class BatchedVsScalar:
    """One id-pair kernel against its scalar ownership rule."""

    join_ids = scalar = None

    def test_tile_boundary_ownership_matches_scalar(self):
        join_ids, scalar = self.join_ids, self.scalar
        grid = rpm_grid()
        left = boundary_rects(0)
        right = boundary_rects(1000)
        for pid in range(grid.n_partitions):
            got, got_sup = batched(join_ids, left, right, grid, pid)
            want, want_sup = scalar(left, right, grid, pid)
            assert sorted(got) == sorted(want)
            assert got_sup == want_sup

    def test_each_pair_owned_exactly_once(self):
        join_ids = self.join_ids
        grid = rpm_grid()
        left = boundary_rects(0) + random_kpes(60, seed=3, max_edge=0.3)
        right = boundary_rects(1000) + random_kpes(
            60, seed=4, start_oid=5000, max_edge=0.3
        )
        truth = sorted(brute_force_pairs(left, right))
        owned = []
        for pid in range(grid.n_partitions):
            owned.extend(batched(join_ids, left, right, grid, pid)[0])
        assert sorted(owned) == truth  # no pair missed, none duplicated

    def test_batched_matches_scalar_on_random_input(self):
        join_ids, scalar = self.join_ids, self.scalar
        grid = rpm_grid()
        left = random_kpes(150, seed=5, max_edge=0.2)
        right = random_kpes(150, seed=6, start_oid=5000, max_edge=0.2)
        for pid in range(grid.n_partitions):
            got, got_sup = batched(join_ids, left, right, grid, pid)
            want, want_sup = scalar(left, right, grid, pid)
            assert sorted(got) == sorted(want)
            assert got_sup == want_sup


class TestBatchedRPM(BatchedVsScalar):
    join_ids = staticmethod(rpm_join_ids)
    scalar = staticmethod(scalar_rpm)


class TestBatchedTwolayer(BatchedVsScalar):
    join_ids = staticmethod(twolayer_join_ids)
    scalar = staticmethod(scalar_twolayer)


# ----------------------------------------------------------------------
# the ownership test runs per OWNERSHIP_BATCH_PAIRS detections: how the
# scan's batches are regrouped must be invisible
# ----------------------------------------------------------------------
def owned_scan(monkeypatch, batch_pairs, left, right, regions, batch_candidates):
    monkeypatch.setattr(rpm_module, "OWNERSHIP_BATCH_PAIRS", batch_pairs)
    counters = CpuCounters()
    rid, sid, detected, suppressed = rpm_module._owned_scan(
        ColumnarRelation.from_kpes(left),
        ColumnarRelation.from_kpes(right),
        regions,
        counters,
        batch_candidates,
    )
    return rid.tolist(), sid.tolist(), detected, suppressed, counters.as_dict()


def assert_regrouping_is_invisible(monkeypatch, *scan_args):
    per_scan_batch = owned_scan(monkeypatch, 1, *scan_args)
    whole_scan = owned_scan(monkeypatch, 2**62, *scan_args)
    default = owned_scan(monkeypatch, rpm_module.OWNERSHIP_BATCH_PAIRS, *scan_args)
    assert per_scan_batch == whole_scan == default
    return default


class TestOwnershipBatching:
    SUBGRID = TileGrid(Space(0.0, 0.0, 1.0, 1.0), 3, 3, 2, mapping="round_robin")

    def test_striped_scan(self, monkeypatch):
        n = STRIPE_MIN_RECORDS // 2 + 50
        left = random_kpes(n, seed=21, max_edge=0.07)
        right = random_kpes(n, seed=22, start_oid=10**6, max_edge=0.07)
        tests = []
        point_partitions = rpm_module.point_partitions

        def counting(grid, x, y):
            tests.append(len(x))
            return point_partitions(grid, x, y)

        monkeypatch.setattr(rpm_module, "point_partitions", counting)
        grid = rpm_grid()
        scan_args = (left, right, ((grid, 1),), 1 << 22)
        results = {}
        sizes = {}
        for batch_pairs in (1, 2**62, rpm_module.OWNERSHIP_BATCH_PAIRS):
            tests.clear()
            results[batch_pairs] = owned_scan(monkeypatch, batch_pairs, *scan_args)
            sizes[batch_pairs] = list(tests)
        per_pass, whole, default = results.values()
        assert per_pass == whole == default
        rid, sid, detected, suppressed, _ = default
        assert 0 < suppressed < detected == len(rid) + suppressed
        want, want_suppressed = scalar_rpm(left, right, grid, 1)
        assert sorted(zip(rid, sid)) == sorted(want) and suppressed == want_suppressed
        # One test per stripe pass, one per scan, one per 16k detections.
        per_pass, whole, default = sizes.values()
        assert len(per_pass) > 10 and sum(per_pass) == detected
        assert whole == [detected]
        assert default[0] >= 1 << 14 > default[1] and sum(default) == detected

    def test_unstriped_and_composed_region(self, monkeypatch):
        left = random_kpes(300, seed=23, max_edge=0.2)
        right = random_kpes(300, seed=24, start_oid=10**6, max_edge=0.2)
        grid = rpm_grid()
        kept = set()
        for regions in (
            (),
            ((grid, 2),),
            ((grid, 2), (self.SUBGRID, 0)),
            ((grid, 2), (self.SUBGRID, 1)),
        ):
            # 64 candidates a batch: dozens of scan batches.
            rid, sid, detected, suppressed, _ = assert_regrouping_is_invisible(
                monkeypatch, left, right, regions, 64
            )
            assert detected == len(brute_force_pairs(left, right))
            if len(regions) == 2:
                kept |= set(zip(rid, sid))
            elif regions:
                owned_by_parent = set(zip(rid, sid))
        # The sub-regions split the parent's pairs between them.
        assert kept == owned_by_parent

    @given(pair=touching_kpes(), batch_candidates=st.integers(1, 9))
    def test_property_regrouping_on_ties_and_tile_edges(self, pair, batch_candidates):
        # Lattice corners: xl ties everywhere, reference points on the
        # 4x4 grid's tile edges; a few candidates per scan batch.
        left, right = pair
        grid = rpm_grid()
        with pytest.MonkeyPatch.context() as monkeypatch:
            for regions in (((grid, 0),), ((grid, 3), (self.SUBGRID, 1))):
                assert_regrouping_is_invisible(
                    monkeypatch, left, right, regions, batch_candidates
                )


# ----------------------------------------------------------------------
# vectorized tile arithmetic vs TileGrid, point by point
# ----------------------------------------------------------------------
def adversarial_points(grid):
    """Points engineered to disagree under sloppy tile arithmetic.

    Every interior tile edge, every tile corner, the space border (where
    the scalar path clamps ``tx == nx`` back to ``nx - 1``), points
    epsilon-close to an edge on either side, and points outside the space
    entirely (both paths must clamp them to the border tiles).
    """
    import itertools

    space = grid.space
    xs = {space.xl + space.width * i / grid.nx for i in range(grid.nx + 1)}
    ys = {space.yl + space.height * j / grid.ny for j in range(grid.ny + 1)}
    eps = 1e-12
    xs |= {x + d for x in list(xs) for d in (-eps, eps)}
    ys |= {y + d for y in list(ys) for d in (-eps, eps)}
    # Far outside the space, so the int64 cast sees negative / >= n values.
    xs |= {space.xl - 0.5, space.xh + 0.5}
    ys |= {space.yl - 0.5, space.yh + 0.5}
    # A negative fraction of a tile (truncates to tile 0, not -1), and
    # finite positions beyond +-2**63 tiles, which no int64 cast survives.
    xs |= {space.xl - space.width / grid.nx / 2, space.xl + 1e25, space.xl - 1e25}
    ys |= {space.yl - space.height / grid.ny / 2, space.yl + 1e25, space.yl - 1e25}
    return list(itertools.product(sorted(xs), sorted(ys)))


class TestGridKernelParity:
    """Pin ``point_tiles``/``tile_partitions`` to the scalar ``TileGrid``."""

    GRIDS = [
        TileGrid(Space(0.0, 0.0, 1.0, 1.0), 4, 4, 4, mapping="hash"),
        TileGrid(Space(0.0, 0.0, 1.0, 1.0), 4, 4, 4, mapping="round_robin"),
        # Non-square grid over a non-unit, offset space: norm_x/norm_y
        # scaling and the row-major round-robin index diverge from the
        # square case if either side hardcodes symmetry.
        TileGrid(Space(-2.0, 1.0, 6.0, 3.0), 5, 3, 7, mapping="hash"),
        TileGrid(Space(-2.0, 1.0, 6.0, 3.0), 5, 3, 7, mapping="round_robin"),
    ]

    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.nx}x{g.ny}-{g.mapping}")
    def test_boundary_points_tile_and_partition_parity(self, grid):
        import numpy as np

        points = adversarial_points(grid)
        x = np.array([p[0] for p in points])
        y = np.array([p[1] for p in points])
        tx, ty = point_tiles(grid, x, y)
        owner = tile_partitions(grid, tx, ty)
        for i, (px, py) in enumerate(points):
            want_tile = grid.tile_of_point(px, py)
            assert (int(tx[i]), int(ty[i])) == want_tile, (px, py)
            assert int(owner[i]) == grid.partition_of_point(px, py), (px, py)

    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.nx}x{g.ny}-{g.mapping}")
    def test_tile_ranges_are_point_tiles_of_both_corners(self, grid):
        import numpy as np

        points = adversarial_points(grid)
        kpes = [
            (i, min(ax, bx), min(ay, by), max(ax, bx), max(ay, by))
            for i, ((ax, ay), (bx, by)) in enumerate(zip(points, reversed(points)))
        ]
        ranges = tile_ranges(grid, kpes)
        table = np.asarray(kpes, dtype=np.float64)
        columns = ColumnarRelation(np.arange(len(kpes)), *table.T[1:])
        from_columns = tile_ranges(grid, columns)
        for got, same in zip(ranges, from_columns):
            assert got.tolist() == same.tolist()
        for i, kpe in enumerate(kpes):
            low = grid.tile_of_point(kpe[1], kpe[2])
            high = grid.tile_of_point(kpe[3], kpe[4])
            assert tuple(int(r[i]) for r in ranges) == low + high, kpe

    def test_non_finite_points_clamp_without_a_cast_warning(self):
        import numpy as np

        inf = float("inf")
        x = np.array([-inf, inf, float("nan"), 0.3])
        y = np.array([inf, -inf, 0.3, float("nan")])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            bounded = TileGrid(Space(-2.0, 1.0, 6.0, 3.0), 5, 3, 7)
            tx, ty = point_tiles(bounded, x, y)
            # Border tiles for the infinities, tile 0 for a NaN.
            assert tx.tolist() == [0, 4, 0, 1] and ty.tolist() == [2, 0, 0, 0]
            # An unbounded axis has one tile's worth of arithmetic: every
            # position on it, finite or not, is NaN or 0 -> tile 0.
            unbounded = TileGrid(Space(-inf, 1.0, inf, inf), 5, 3, 7)
            tx, ty = point_tiles(unbounded, x, np.array([1.0, 7.0, inf, 2.0]))
            assert tx.tolist() == [0, 0, 0, 0] and ty.tolist() == [0, 0, 0, 0]

    def test_hash_constants_single_source(self):
        # The kernel replays the scalar hash; both must read the shared
        # constants, and those must be the documented odd multipliers.
        import re
        from pathlib import Path

        import repro.kernels.rpm as rpm_mod
        import repro.pbsm.grid as grid_mod

        # This is the single sanctioned restatement of the multiplier
        # values: the test that pins them.
        assert (TILE_HASH_X, TILE_HASH_Y) == (73856093, 19349663)
        assert rpm_mod.TILE_HASH_X is grid_mod.TILE_HASH_X
        assert rpm_mod.TILE_HASH_Y is grid_mod.TILE_HASH_Y
        # Nowhere else: a re-typed multiplier can drift from grid.py and
        # turn duplicate suppression into result loss.
        root = Path(__file__).resolve().parent.parent
        exempt = {Path(__file__).resolve(), Path(grid_mod.__file__).resolve()}
        literal = re.compile(r"\b(73856093|19349663)\b")
        retyped = [
            f"{path.relative_to(root)}:{n}"
            for path in sorted(root.rglob("*.py"))
            if not any(p.startswith(".") for p in path.relative_to(root).parts)
            and path.resolve() not in exempt
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if literal.search(line)
        ]
        assert retyped == []

    def test_partition_of_tile_uses_shared_constants(self):
        # Guards against either side drifting back to inline literals:
        # recompute the mapping from the shared constants directly.
        import numpy as np

        grid = TileGrid(Space(0.0, 0.0, 1.0, 1.0), 8, 8, 5, mapping="hash")
        for tx in range(grid.nx):
            for ty in range(grid.ny):
                want = ((tx * TILE_HASH_X) ^ (ty * TILE_HASH_Y)) % grid.n_partitions
                assert grid.partition_of_tile(tx, ty) == want
        txs = np.arange(grid.nx).repeat(grid.ny)
        tys = np.tile(np.arange(grid.ny), grid.nx)
        owners = tile_partitions(grid, txs, tys)
        for tx, ty, got in zip(txs.tolist(), tys.tolist(), owners.tolist()):
            assert got == grid.partition_of_tile(tx, ty)
