"""One exact ``xl`` sort per input, inherited by every leaf.

``kernels.columnar.xl_order`` must be ``np.argsort(xl, kind="stable")``
bit for bit, ties, signed zeros, NaNs and infinities included.  The
columnar partitioner keys records by their rank in that order
(``partition_ids(..., by_xl=True)``), so every partition's run is the
stable ``xl`` sort of the ascending run; both PBSM drivers then hand
their leaves rows already sorted, and nothing inside a leaf sorts.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.kernels.assign
import repro.kernels.columnar
import repro.kernels.sweep
import repro.pbsm.leaf
from repro import PBSM
from repro.core.space import Space
from repro.datasets.fileio import load_relation, save_relation
from repro.io.costmodel import mb
from repro.kernels.assign import partition_ids
from repro.kernels.columnar import ColumnarRelation, xl_order
from repro.pbsm.grid import TileGrid

from tests.conftest import HASH_ID, random_kpes

NAN = float("nan")
INF = float("inf")
SUBNORMAL = 5e-324

#: Few distinct values, so draws are mostly ties: signed zeros,
#: subnormals, infinities and NaN among them.
HOSTILE = [NAN, INF, -INF, 0.0, -0.0, SUBNORMAL, -SUBNORMAL, 2.2e-308, 0.25, 0.5, 1.0]

hostile_xl = st.lists(
    st.sampled_from(HOSTILE) | st.floats(allow_subnormal=True), max_size=80
).map(lambda values: np.array(values, dtype=np.float64))


def assert_stable_order(xl):
    expected = np.argsort(xl, kind="stable")
    got = xl_order(xl)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


class TestXlOrder:
    @given(hostile_xl)
    def test_equals_the_stable_argsort(self, xl):
        assert_stable_order(xl)

    @pytest.mark.parametrize(
        "values",
        [[], [NAN], [0.5], [0.0, -0.0], [-0.0, 0.0], [NAN, NAN], [1.0, NAN], [INF, -INF]],
    )
    def test_lengths_zero_one_and_two(self, values):
        assert_stable_order(np.array(values, dtype=np.float64))

    @pytest.mark.parametrize("value", [0.0, -0.0, NAN, INF, SUBNORMAL, 0.5])
    def test_all_equal(self, value):
        assert_stable_order(np.full(1000, value))


UNIT = Space(0.0, 0.0, 1.0, 1.0)


@st.composite
def hostile_relations(draw):
    """Columns whose ``xl`` is a hostile draw; many records span tiles."""
    xl = draw(hostile_xl)
    n = xl.shape[0]
    widths = st.sampled_from([0.0, 0.1, 0.3, 1.0])
    xh = xl + np.array(draw(st.lists(widths, min_size=n, max_size=n)))
    yl = np.array(draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.9]), min_size=n, max_size=n)))
    yh = yl + np.array(draw(st.lists(widths, min_size=n, max_size=n)))
    return ColumnarRelation(np.arange(n, dtype=np.int64), xl, yl, xh, yh)


class TestPartitionIdsByXl:
    @HASH_ID
    @given(rel=hostile_relations(), n_partitions=st.integers(1, 5))
    def test_same_runs_in_xl_order(self, rel, n_partitions):
        grid = TileGrid.for_partitions(UNIT, n_partitions)
        offsets, ids = partition_ids(rel, grid)
        xl_offsets, xl_ids = partition_ids(rel, grid, by_xl=True)
        # Same offsets, hence the same records_written (len(ids)).
        assert np.array_equal(xl_offsets, offsets)
        assert xl_ids.shape == ids.shape
        for pid in range(grid.n_partitions):
            run = ids[offsets[pid] : offsets[pid + 1]]
            xl_run = xl_ids[offsets[pid] : offsets[pid + 1]]
            assert sorted(xl_run.tolist()) == run.tolist()
            # (xl, row) order: the stable xl sort of the ascending run.
            assert np.array_equal(xl_run, run[np.argsort(rel.xl[run], kind="stable")])


# ----------------------------------------------------------------------
# no leaf sorts
# ----------------------------------------------------------------------
@pytest.fixture
def orders(monkeypatch):
    """The length of every ``xl_order`` call, in call order."""
    calls = []

    def counting(xl):
        calls.append(len(xl))
        return xl_order(xl)

    for module in (repro.kernels.columnar, repro.kernels.assign, repro.kernels.sweep):
        monkeypatch.setattr(module, "xl_order", counting)
    return calls


@pytest.fixture
def leaves(monkeypatch, orders):
    """Per ``columnar_leaf`` call: the ``xl_order`` calls it made."""
    per_leaf = []
    # ``join_leaf`` is the one caller, for both drivers.
    leaf = repro.pbsm.leaf.columnar_leaf

    def spying(left, right, l_ids, r_ids, *args):
        for cols, ids in ((left, l_ids), (right, r_ids)):
            xl = cols.xl[ids]
            assert np.all(xl[:-1] <= xl[1:])
        before = len(orders)
        out = leaf(left, right, l_ids, r_ids, *args)
        per_leaf.append(len(orders) - before)
        return out

    monkeypatch.setattr(repro.pbsm.leaf, "columnar_leaf", spying)
    return per_leaf


LEFT = random_kpes(2500, 31, max_edge=0.03)
RIGHT = random_kpes(2500, 32, 10**6, max_edge=0.03)


class TestNoLeafSorts:
    def test_sequential_pbsm_with_repartitioning(self, orders, leaves):
        result = PBSM(mb(0.008), internal="sweep_numpy").run(LEFT, RIGHT)
        assert result.stats.repartition_events > 0
        assert len(leaves) > result.stats.n_partitions
        assert orders == [len(LEFT), len(RIGHT)]
        assert set(leaves) == {0}

    def test_parallel_in_process_loop(self, orders, leaves):
        result = PBSM(
            mb(0.05), workers=2, internal="sweep_numpy", executor="simulated"
        ).run(LEFT, RIGHT)
        assert result.stats.executor == "simulated"
        assert len(leaves) > 1
        assert orders == [len(LEFT), len(RIGHT)]
        assert set(leaves) == {0}

    def test_sorted_rcd_inputs_are_never_sorted(self, tmp_path, orders, leaves):
        paths = []
        for name, kpes in (("l", LEFT), ("r", RIGHT)):
            path = tmp_path / f"{name}.rcd"
            save_relation(sorted(kpes, key=lambda k: k[1]), path)
            paths.append(path)
        left, right = (load_relation(path) for path in paths)
        try:
            assert left.sorted_by_xl and right.sorted_by_xl
            mapped = PBSM(mb(0.008), internal="sweep_numpy").run(left, right)
            parallel = PBSM(
                mb(0.05), workers=2, internal="sweep_numpy", executor="simulated"
            ).run(left, right)
            assert orders == []
            assert leaves and set(leaves) == {0}
        finally:
            left.store.close()
            right.store.close()
        from_lists = PBSM(mb(0.008), internal="sweep_numpy").run(LEFT, RIGHT)
        assert sorted(mapped.pairs) == sorted(parallel.pairs) == sorted(from_lists.pairs)
