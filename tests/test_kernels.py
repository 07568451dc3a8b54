"""Unit tests for the columnar kernel package (repro.kernels)."""

import pickle

import numpy as np
import pytest

from repro.core.rect import KPE
from repro.core.stats import CpuCounters
from repro.internal import sweep_list_join
from repro.io.costmodel import CostModel
from repro.kernels.columnar import ColumnarRelation
from repro.kernels.sweep import (
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
