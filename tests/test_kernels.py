"""Unit tests for the columnar kernel package (repro.kernels)."""

import pickle

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.rect import KPE
from repro.core.stats import CpuCounters
from repro.internal import sweep_list_join
from repro.io.costmodel import CostModel
import repro.kernels.columnar as columnar_module
from repro.kernels.columnar import ColumnarRelation
from repro.kernels.sweep import (
    BATCH_OPS_PER_CANDIDATE,
    STRIPE_MIN_RECORDS,
    _stripe_count,
    _stripe_layout,
    forward_scan_batches,
    sweep_numpy_join,
)

from tests.conftest import random_kpes

def xl_sorted(kpes):
    return ColumnarRelation.from_kpes(kpes).sort_by_xl()


def collect(fn, left, right):
    counters = CpuCounters()
    pairs = []
    fn(left, right, lambda r, s: pairs.append((r[0], s[0])), counters)
    return pairs, counters


class TestColumnarRelation:
    def test_round_trip_is_loss_free(self):
        kpes = random_kpes(100, seed=9)
        cols = ColumnarRelation.from_kpes(kpes)
        assert cols.to_kpes() == [KPE(*k) for k in kpes]

    def test_oids_stay_exact_integers(self):
        kpes = [KPE(2**40 + i, 0.1, 0.2, 0.3, 0.4) for i in range(5)]
        cols = ColumnarRelation.from_kpes(kpes)
        assert cols.oid.tolist() == [2**40 + i for i in range(5)]

    def test_oids_beyond_float64s_exact_integers_stay_exact(self):
        # The int64 column is a cast of the oid objects, not of a float64
        # pass: exact on either side of 2**53.
        oids = [2**53 - 1, -(2**53) + 1, 2**53, 2**53 + 1, -(2**62) - 1, 2**63 - 1, 7]
        for some in (oids[:2], oids, oids[2:3]):
            cols = ColumnarRelation.from_kpes([KPE(o, 0.1, 0.2, 0.3, 0.4) for o in some])
            assert cols.oid.dtype == "int64" and cols.oid.tolist() == some
        for not_an_oid, error in ((float("nan"), ValueError), (2**63, OverflowError)):
            with pytest.raises(error):
                ColumnarRelation.from_kpes([KPE(not_an_oid, 0.1, 0.2, 0.3, 0.4)])

    def test_numpy_integer_oids_round_trip(self):
        oids = [np.int64(2**62), np.int32(-3), np.uint8(200), np.int64(-(2**63))]
        kpes = [KPE(o, 0.1, 0.2, 0.3, 0.4) for o in oids]
        cols = ColumnarRelation.from_kpes(kpes)
        assert cols.oid.dtype == "int64" and cols.oid.tolist() == [int(o) for o in oids]
        assert [k.oid for k in cols.to_kpes()] == [int(o) for o in oids]

    def test_the_tuples_oid_objects_stay_on_the_relation_only(self):
        kpes = [KPE(2**53 + i, 0.1 * i, 0.2, 0.3 * i, 0.4) for i in range(6)]
        cols = ColumnarRelation.from_kpes(kpes)
        assert all(o is k[0] for o, k in zip(cols.oid_objects.tolist(), kpes))
        # Derived relations, pickles and mapped/shared columns carry none.
        assert cols.rows(np.arange(3)).oid_objects is None
        assert cols.take(np.arange(3)).oid_objects is None
        assert cols.sort_by_xl().oid_objects is None
        copy = pickle.loads(pickle.dumps(cols))
        assert copy.oid_objects is None and copy.oid.tolist() == cols.oid.tolist()
        assert copy.xl.tolist() == cols.xl.tolist()
        assert ColumnarRelation.from_kpes(cols) is cols

    def test_empty_relation(self):
        cols = ColumnarRelation.from_kpes([])
        assert cols.n == 0 and len(cols) == 0
        assert cols.to_kpes() == []

    def test_slices_and_iteration_box_equal_kpes(self, monkeypatch):
        kpes = random_kpes(300, seed=12)
        cols = ColumnarRelation.from_kpes(kpes)
        # Iteration boxes chunk by chunk: make the chunks small.
        monkeypatch.setattr(columnar_module, "_ITER_CHUNK", 64)
        for got, want in (
            (cols[:], kpes),
            (cols[10:250:7], kpes[10:250:7]),
            (cols[-5:], kpes[-5:]),
            (cols[7:7], []),
            (list(cols), kpes),
        ):
            assert all(type(k) is KPE for k in got)
            assert got == [KPE(*k) for k in want]
        row = cols[:][3]
        assert (row.oid, row.xl, row.yl, row.xh, row.yh) == tuple(kpes[3])
        assert type(row.oid) is int and type(row.yh) is float

    def test_sort_by_xl_is_stable(self):
        kpes = [KPE(i, 0.5, i / 10.0, 0.6, 1.0) for i in range(10)]
        cols = ColumnarRelation.from_kpes(kpes).sort_by_xl()
        # Equal xl keys keep their input order.
        assert cols.oid.tolist() == list(range(10))
        assert cols.sorted_by_xl


class TestForwardScanBatches:
    def test_rejects_unsorted_inputs(self):
        cols = ColumnarRelation.from_kpes(random_kpes(10, seed=3))
        with pytest.raises(ValueError):
            list(forward_scan_batches(cols, cols, CpuCounters()))

    def test_empty_side_yields_nothing(self):
        counters = CpuCounters()
        empty = ColumnarRelation.from_kpes([])
        empty.sorted_by_xl = True
        full = xl_sorted(random_kpes(10, seed=4))
        assert list(forward_scan_batches(empty, full, counters)) == []
        assert list(forward_scan_batches(full, empty, counters)) == []

    def test_small_batch_candidates_same_pairs(self):
        counters = CpuCounters()
        a = xl_sorted(random_kpes(300, seed=5, max_edge=0.1))
        b = xl_sorted(random_kpes(300, seed=6, start_oid=1000, max_edge=0.1))
        big = set()
        for ai, bi in forward_scan_batches(a, b, counters):
            big.update(zip(ai.tolist(), bi.tolist()))
        small = set()
        for ai, bi in forward_scan_batches(a, b, counters, batch_candidates=64):
            small.update(zip(ai.tolist(), bi.tolist()))
        assert small == big

    def test_batch_ops_charged(self):
        a = xl_sorted(random_kpes(200, seed=7, max_edge=0.2))
        b = xl_sorted(random_kpes(200, seed=8, start_oid=1000, max_edge=0.2))
        counters = CpuCounters()
        list(forward_scan_batches(a, b, counters))
        assert counters.batch_ops > 0
        assert counters.intersection_tests == 0  # batch currency only


class TestStriping:
    def test_small_inputs_use_one_stripe(self):
        a = xl_sorted(random_kpes(100, seed=1))
        b = xl_sorted(random_kpes(100, seed=2))
        assert _stripe_count(a, b, 1.0) == 1

    def test_large_inputs_stripe(self):
        n = STRIPE_MIN_RECORDS
        a = xl_sorted(random_kpes(n, seed=3, max_edge=0.01))
        b = xl_sorted(random_kpes(n, seed=4, max_edge=0.01))
        assert _stripe_count(a, b, 1.0) > 1

    def test_tall_rectangles_cap_replication(self):
        # Rectangles spanning most of the y axis: striping would replicate
        # every record into every stripe, so the cap must kick in.
        tall = [
            KPE(i, i / 10_000.0, 0.0, i / 10_000.0 + 0.001, 0.9)
            for i in range(STRIPE_MIN_RECORDS)
        ]
        cols = xl_sorted(tall)
        assert _stripe_count(cols, cols, 1.0) == 1

    def test_stripe_layout_covers_every_overlapped_stripe(self):
        counters = CpuCounters()
        kpes = [
            KPE(0, 0.0, 0.05, 1.0, 0.05),  # stripe 0 only
            KPE(1, 0.0, 0.15, 1.0, 0.38),  # stripes 1..3
            KPE(2, 0.0, 0.95, 1.0, 1.0),   # clipped into the last stripe
        ]
        cols = xl_sorted(kpes)
        k = 10
        orig, bounds, slo = _stripe_layout(cols, 0.0, k / 1.0, k, counters)
        assert slo.tolist() == [0, 1, 9]
        members = {
            s: orig[bounds[s] : bounds[s + 1]].tolist() for s in range(k)
        }
        assert members[0] == [0]
        assert members[1] == [1] and members[2] == [1] and members[3] == [1]
        assert members[9] == [2]
        assert all(members[s] == [] for s in (4, 5, 6, 7, 8))

    def test_striped_and_unstriped_agree(self):
        # Past STRIPE_MIN_RECORDS the kernel stripes; the pair set must
        # match the paper's list sweep bit for bit.
        n = STRIPE_MIN_RECORDS
        left = random_kpes(n, seed=5, max_edge=0.01)
        right = random_kpes(n, seed=6, start_oid=10**6, max_edge=0.01)
        got, counters = collect(sweep_numpy_join, left, right)
        want, _ = collect(sweep_list_join, left, right)
        assert sorted(got) == sorted(want)
        assert counters.batch_ops > 0


# ----------------------------------------------------------------------
# the scan's pair order against the two-pass, per-stripe reference
# ----------------------------------------------------------------------
def _reference_pass(anchor, probe, lo, hi, counters, batch_candidates, swap, stripe=-1):
    """One pass as the kernel ran it with a loop per pass: candidates
    expanded in anchor chunks, hits boolean-indexed, ownership by
    ``max`` of the two bottom stripes.  ``anchor``/``probe`` are
    ``(yl, yh, bottom_stripe)`` columns."""
    counts = hi - lo
    csum = np.cumsum(counts)
    per_candidate = BATCH_OPS_PER_CANDIDATE + (2 if stripe >= 0 else 0)
    start = base = 0
    while counts.size and csum[-1] and start < counts.shape[0]:
        stop = int(np.searchsorted(csum, base + batch_candidates, side="right"))
        stop = min(max(stop, start + 1), counts.shape[0])
        counts_c = counts[start:stop]
        chunk_total = int(csum[stop - 1]) - base
        base = int(csum[stop - 1])
        flat = np.arange(chunk_total) + np.repeat(
            lo[start:stop] - (np.cumsum(counts_c) - counts_c), counts_c
        )
        a_yl, a_yh, a_slo = (np.repeat(col[start:stop], counts_c) for col in anchor)
        mask = (probe[0][flat] <= a_yh) & (a_yl <= probe[1][flat])
        if stripe >= 0:
            mask &= np.maximum(a_slo, probe[2][flat]) == stripe
        counters.batch_ops += per_candidate * chunk_total
        anchor_hit = np.repeat(np.arange(start, stop), counts_c)[mask]
        probe_hit = flat[mask]
        start = stop
        if anchor_hit.size:
            yield (probe_hit, anchor_hit) if swap else (anchor_hit, probe_hit)


def reference_scan(a, b, counters, batch_candidates):
    """``forward_scan_batches`` as two passes per stripe, each with its own
    expansion: pass 1 over every stripe's a anchors, then pass 2."""
    ylo = min(float(a.yl.min()), float(b.yl.min()))
    span = max(float(a.yh.max()), float(b.yh.max())) - ylo
    k = _stripe_count(a, b, span)
    if k == 1:
        a_orig, a_bounds, a_slo = np.arange(a.n), [0, a.n], np.zeros(a.n, np.int64)
        b_orig, b_bounds, b_slo = np.arange(b.n), [0, b.n], np.zeros(b.n, np.int64)
        counters.batch_ops += 2 * a.n + 2 * b.n
    else:
        a_orig, a_bounds, a_slo = _stripe_layout(a, ylo, k / span, k, counters)
        b_orig, b_bounds, b_slo = _stripe_layout(b, ylo, k / span, k, counters)
    for s in range(k):
        ai = a_orig[a_bounds[s] : a_bounds[s + 1]]
        bi = b_orig[b_bounds[s] : b_bounds[s + 1]]
        if not (ai.size and bi.size):
            continue
        if k > 1:
            counters.batch_ops += 8 * (ai.size + bi.size)
        ra = (a.yl[ai], a.yh[ai], a_slo[ai])
        rb = (b.yl[bi], b.yh[bi], b_slo[bi])
        stripe = s if k > 1 else -1
        ss = np.searchsorted
        lo, hi = ss(b.xl[bi], a.xl[ai], side="left"), ss(b.xl[bi], a.xh[ai], side="right")
        for x, y in _reference_pass(ra, rb, lo, hi, counters, batch_candidates, False, stripe):
            yield ai[x], bi[y]
        lo, hi = ss(a.xl[ai], b.xl[bi], side="right"), ss(a.xl[ai], b.xh[bi], side="right")
        for x, y in _reference_pass(rb, ra, lo, hi, counters, batch_candidates, True, stripe):
            yield ai[x], bi[y]


@st.composite
def scan_inputs(draw):
    """Two xl-sorted relations, striped or not, with the shapes that
    stress the scan's windows: ``xl`` ties (``-0.0`` next to ``0.0``),
    infinite extents, zero-height rectangles."""
    striped = draw(st.booleans())
    if striped:
        n_a = draw(st.integers(STRIPE_MIN_RECORDS // 2, STRIPE_MIN_RECORDS // 2 + 400))
        n_b = STRIPE_MIN_RECORDS - n_a + draw(st.integers(0, 400))
    else:
        n_a, n_b = draw(st.integers(1, 80)), draw(st.integers(1, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edge = draw(st.sampled_from([0.0, 0.003, 0.03, 0.3]))
    ties = draw(st.booleans())
    zero_height = draw(st.booleans())
    infinite = draw(st.sampled_from(["", "x", "y"]))

    def relation(n, oid0):
        xl, yl = rng.random(n), rng.random(n)
        if ties:  # a coarse grid, and both zeros
            xl = np.floor(xl * 8) / 8
            xl[rng.random(n) < 0.2] = -0.0
        w, h = rng.random(n) * edge, rng.random(n) * edge
        if zero_height:
            h[rng.random(n) < 0.5] = 0.0
        xh, yh = xl + w, yl + h
        if infinite:
            lo, hi = (xl, xh) if infinite == "x" else (yl, yh)
            lo[rng.random(n) < 0.05] = -np.inf
            hi[rng.random(n) < 0.05] = np.inf
        return ColumnarRelation(np.arange(oid0, oid0 + n), xl, yl, xh, yh).sort_by_xl()

    batch_candidates = draw(
        st.sampled_from([256, 4096, 1 << 22] if striped else [1, 2, 5, 17, 64, 1 << 22])
    )
    return relation(n_a, 0), relation(n_b, 10**6), batch_candidates, striped


class TestScanOrderOracle:
    """The fused scan yields exactly the pairs, in exactly the order, and
    charges exactly the ``batch_ops`` of two passes per stripe."""

    @given(scan_inputs())
    @example(
        (
            xl_sorted([KPE(0, -0.0, 0.0, 0.5, 0.0), KPE(1, 0.0, 0.0, 0.0, 1.0)]),
            xl_sorted([KPE(9, 0.0, 0.0, 0.0, 0.0), KPE(8, -0.0, 0.5, 1.0, 0.5)]),
            1,
            False,
        )
    )
    def test_same_pairs_order_and_batch_ops(self, inputs):
        a, b, batch_candidates, striped = inputs
        if striped and np.isfinite(a.yh).all() and np.isfinite(b.yh).all():
            span = max(a.yh.max(), b.yh.max()) - min(a.yl.min(), b.yl.min())
            assert _stripe_count(a, b, span) > 1  # the striped loop runs
        want_counters, got_counters = CpuCounters(), CpuCounters()
        want = list(reference_scan(a, b, want_counters, batch_candidates))
        got = list(forward_scan_batches(a, b, got_counters, batch_candidates))
        for side in (0, 1):
            expected = np.concatenate([batch[side] for batch in want] or [[]])
            actual = np.concatenate([batch[side] for batch in got] or [[]])
            assert actual.tolist() == expected.tolist()
        assert got_counters == want_counters
        for a_idx, b_idx in got:
            assert a_idx.size == b_idx.size > 0


class TestCostModelCurrency:
    def test_batch_ops_priced_into_cpu_seconds(self):
        cost = CostModel()
        counters = CpuCounters(batch_ops=10**6)
        assert cost.cpu_seconds(counters) == pytest.approx(
            10**6 * cost.batch_op_seconds
        )

    def test_cpu_seconds_from_counts_accepts_batch_ops(self):
        cost = CostModel()
        assert cost.cpu_seconds_from_counts(batch_ops=2.0) == pytest.approx(
            2.0 * cost.batch_op_seconds
        )

    def test_total_ops_includes_batch_ops(self):
        counters = CpuCounters(batch_ops=7)
        assert counters.total_ops() >= 7


class TestPlannerIntegration:
    def test_sweep_numpy_enumerated_only_with_numpy(self):
        """numpy is a dependency: the kernel internal is always a candidate."""
        from repro.planner.enumerate import enumerate_candidates
        from repro.planner.stats import profile_join

        jp = profile_join(
            random_kpes(300, seed=31, max_edge=0.05),
            random_kpes(300, seed=32, start_oid=10**4, max_edge=0.05),
        )
        internals = {
            c.kwargs.get("internal")
            for c in enumerate_candidates(jp, 10**6)
            if c.method == "pbsm"
        }
        assert "sweep_numpy" in internals
