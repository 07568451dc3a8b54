"""Partition once, query many: the partition memo of a read-only relation.

``kernels.assign.partition_ids`` keeps its ``(offsets, ids)`` on a
relation whose five columns are all read-only (a mapped ``.rcd``, a
registry dataset), keyed by the grid's spec and ``by_xl``.  A hit must be
indistinguishable from a miss in everything a join reports — pairs, pair
order and every simulated counter, because the partitioner still charges
the runs it is handed — while doing no partition work at all.  A
writeable relation may change under the caller and never enters the
memo.
"""

import sys
import threading
import time

import numpy as np
import pytest

import repro.kernels.assign
import repro.kernels.columnar
import repro.kernels.sweep
from repro import PBSM
from repro.core.phases import PHASE_PARTITION
from repro.core.space import Space
from repro.datasets.fileio import load_relation, save_relation
from repro.internal.brute import brute_force_pairs
from repro.io.costmodel import mb
from repro.kernels.assign import PARTITION_MEMO_GRIDS, partition_ids
from repro.kernels.columnar import ColumnarRelation, xl_order
from repro.kernels.shm import shm_enabled
from repro.obs import Tracer
from repro.pbsm.grid import TileGrid
from repro.serve.engine import EngineHost
from repro.serve.registry import DatasetRegistry

from tests.conftest import random_kpes

needs_shm = pytest.mark.skipif(
    not shm_enabled(), reason="needs platform shared memory"
)

LEFT = random_kpes(2500, 61, max_edge=0.03)
RIGHT = random_kpes(2500, 62, 10**6, max_edge=0.03)
UNIT = Space(0.0, 0.0, 1.0, 1.0)


def observe(result):
    """Everything a hit must reproduce of a miss."""
    stats = result.stats
    rid, sid = result.to_arrays()
    return {
        "pairs": list(zip(rid.tolist(), sid.tolist())),
        "records_partitioned": stats.records_partitioned,
        "replicas_created": stats.replicas_created,
        "repartition_events": stats.repartition_events,
        "duplicates_suppressed": stats.duplicates_suppressed,
        "cpu_by_phase": stats.cpu_by_phase,
        "io_units_by_phase": stats.io_units_by_phase,
        "io_pages_by_phase": stats.io_pages_by_phase,
        "sim_seconds_by_phase": stats.sim_seconds_by_phase,
    }


def partitions_reused(tracer):
    """The ``partitions_reused`` counter of the trace's partition span."""
    (span,) = [s for s in tracer.spans if s.name == PHASE_PARTITION]
    return span.counters.get("partitions_reused", 0)


@pytest.fixture
def rcd_pair(tmp_path):
    """``LEFT``/``RIGHT`` as two opened ``.rcd`` relations."""
    opened = []
    for name, kpes in (("l", LEFT), ("r", RIGHT)):
        path = tmp_path / f"{name}.rcd"
        save_relation(kpes, path)
        opened.append(load_relation(path))
    yield opened
    for relation in opened:
        relation.store.close()


@pytest.fixture
def registered():
    """``LEFT``/``RIGHT`` registered from records (and pinned if possible)."""
    registry = DatasetRegistry()
    try:
        yield registry.register("L", LEFT), registry.register("R", RIGHT)
    finally:
        registry.close()


@pytest.fixture
def kernel_calls(monkeypatch):
    """Names of the ``xl_order`` and tile-range calls made, in order."""
    calls = []

    def counting_order(xl):
        calls.append("xl_order")
        return xl_order(xl)

    tile_ranges = repro.kernels.assign.tile_ranges

    def counting_ranges(*args):
        calls.append("tile_ranges")
        return tile_ranges(*args)

    for module in (repro.kernels.columnar, repro.kernels.assign, repro.kernels.sweep):
        monkeypatch.setattr(module, "xl_order", counting_order)
    monkeypatch.setattr(repro.kernels.assign, "tile_ranges", counting_ranges)
    return calls


# ----------------------------------------------------------------------
# a hit equals a miss
# ----------------------------------------------------------------------
class TestHitEqualsMiss:
    @pytest.mark.parametrize("memory", [mb(0.25), mb(0.008)], ids=["flat", "repartitioned"])
    def test_sequential_columnar_pbsm_on_rcd(self, rcd_pair, memory):
        left, right = rcd_pair
        assert left.columnar.read_only and right.columnar.read_only
        runs, tracers = [], []
        for _ in range(2):
            tracer = Tracer()
            runs.append(PBSM(memory, internal="sweep_numpy", tracer=tracer).run(left, right))
            tracers.append(tracer)
        assert (memory == mb(0.008)) == (runs[0].stats.repartition_events > 0)
        assert [partitions_reused(t) for t in tracers] == [0, 2]
        lists = PBSM(memory, internal="sweep_numpy").run(LEFT, RIGHT)
        assert observe(runs[0]) == observe(runs[1]) == observe(lists)

    @needs_shm
    def test_pooled_parallel_pbsm_with_pins(self, registered):
        left, right = registered
        assert left.pinned and right.pinned
        runs, tracers = [], []
        for _ in range(2):
            tracer = Tracer()
            driver = PBSM(
                mb(0.05), workers=2, internal="sweep_numpy", executor="process",
                tracer=tracer,
            )
            runs.append(driver.run(left.kpes, right.kpes))
            tracers.append(tracer)
        assert runs[0].stats.executor == "process"
        assert [partitions_reused(t) for t in tracers] == [0, 2]
        loop = PBSM(
            mb(0.05), workers=2, internal="sweep_numpy", executor="simulated"
        ).run(LEFT, RIGHT)
        assert observe(runs[0]) == observe(runs[1]) == observe(loop)

    def test_a_self_join_reuses_its_own_partitioning(self, rcd_pair):
        left, _ = rcd_pair
        tracer = Tracer()
        PBSM(
            mb(0.05), workers=2, internal="sweep_numpy", executor="simulated",
            tracer=tracer,
        ).run(left, left)
        assert partitions_reused(tracer) == 1  # the right side is the left's


# ----------------------------------------------------------------------
# a hit does no partition work
# ----------------------------------------------------------------------
class TestNoPartitionWorkOnAHit:
    def test_second_served_query_runs_no_partition_kernel(self, registered, kernel_calls):
        left, right = registered
        host = EngineHost(mb(0.25), workers=2)
        host.start()
        try:
            results, calls = [], []
            for _ in range(2):
                before = len(kernel_calls)
                plan = host.plan(left, right)
                results.append(host.execute(plan, left, right))
                calls.append(kernel_calls[before:])
        finally:
            host.shutdown()
        assert results[0].stats.repartition_events == 0
        assert calls[0] == ["xl_order", "tile_ranges"] * 2  # the miss, per input
        assert calls[1] == []
        assert observe(results[0]) == observe(results[1])


# ----------------------------------------------------------------------
# only read-only relations enter the memo
# ----------------------------------------------------------------------
class TestWriteableRelations:
    def test_mutated_columns_are_partitioned_afresh(self):
        left = ColumnarRelation.from_kpes(LEFT)
        right = ColumnarRelation.from_kpes(RIGHT)
        assert not left.read_only
        before = PBSM(mb(0.05), internal="sweep_numpy").run(left, right)
        assert sorted(before.pairs) == sorted(brute_force_pairs(LEFT, RIGHT))
        # Deal the left rectangles out to other oids: the grid (the joint
        # extent) stays, a stale partitioning would be wrong.
        for column in (left.xl, left.yl, left.xh, left.yh):
            column[:] = column[::-1].copy()
        moved = left.to_kpes()
        after = PBSM(mb(0.05), internal="sweep_numpy").run(left, right)
        assert sorted(after.pairs) == sorted(brute_force_pairs(moved, RIGHT))
        assert sorted(after.pairs) != sorted(before.pairs)
        assert left.partition_memo is None and right.partition_memo is None

    def test_a_frozen_relation_refuses_writes(self):
        rel = ColumnarRelation.from_kpes(LEFT).freeze()
        assert rel.read_only
        with pytest.raises(ValueError):
            rel.xl[0] = 0.5


# ----------------------------------------------------------------------
# bounds
# ----------------------------------------------------------------------
class TestBounds:
    def test_one_entry_per_grid_capped_at_the_constant(self):
        rel = ColumnarRelation.from_kpes(LEFT).freeze()
        grids = [TileGrid.for_partitions(UNIT, p) for p in range(2, 4 + PARTITION_MEMO_GRIDS)]
        partition_ids(rel, grids[0], by_xl=True)
        partition_ids(rel, grids[1], by_xl=True)
        assert len(rel.partition_memo) == 2
        for grid in grids:
            offsets, ids = partition_ids(rel, grid, by_xl=True)
            assert not offsets.flags.writeable and not ids.flags.writeable
        assert len(rel.partition_memo) == PARTITION_MEMO_GRIDS
        # The newest grids stay; by_xl is part of the key.
        assert [key[0] for key in rel.partition_memo] == [
            grid.spec for grid in grids[-PARTITION_MEMO_GRIDS:]
        ]
        partition_ids(rel, grids[-1], by_xl=False)
        assert (grids[-1].spec, False) in rel.partition_memo

    def test_two_budgets_on_one_dataset_keep_two_entries(self, rcd_pair):
        left, right = rcd_pair
        for memory in (mb(0.25), mb(0.05)):
            PBSM(memory, internal="sweep_numpy").run(left, right)
        assert len(left.columnar.partition_memo) == 2
        assert len(right.columnar.partition_memo) == 2

    def test_a_hit_returns_the_same_arrays(self):
        rel = ColumnarRelation.from_kpes(LEFT).freeze()
        grid = TileGrid.for_partitions(UNIT, 5)
        first = partition_ids(rel, grid, by_xl=True)
        second = partition_ids(rel, grid, by_xl=True)
        assert first[0] is second[0] and first[1] is second[1]


# ----------------------------------------------------------------------
# concurrency
# ----------------------------------------------------------------------
class TestConcurrentJoins:
    def test_two_threads_join_the_same_pins_at_once(self, registered, monkeypatch):
        left, right = registered
        compute = repro.kernels.assign._partition_ids
        computing = []

        def slow_compute(*args):
            computing.append(threading.get_ident())
            time.sleep(0.2)  # both threads miss before either inserts
            return compute(*args)

        reference = observe(
            PBSM(
                mb(0.05), workers=2, internal="sweep_numpy", executor="simulated"
            ).run(LEFT, RIGHT)
        )
        monkeypatch.setattr(repro.kernels.assign, "_partition_ids", slow_compute)
        start = threading.Barrier(2)
        observed, failures = [], []

        def join():
            try:
                start.wait(10)
                for _ in range(3):
                    driver = PBSM(
                        mb(0.05), workers=2, internal="sweep_numpy",
                        executor="process" if left.pinned else "simulated",
                    )
                    observed.append(observe(driver.run(left.kpes, right.kpes)))
            except BaseException as exc:  # reported by the main thread
                failures.append(exc)

        threads = [threading.Thread(target=join) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert len(observed) == 6
        assert all(run == reference for run in observed)
        assert len(set(computing)) == 2  # the race this test is about happened
        for dataset in registered:
            (entry,) = dataset.kpes.columnar.partition_memo.values()
            offsets, ids = entry
            assert offsets[-1] == len(ids) and not ids.flags.writeable

    def test_lookups_inserts_and_evictions_under_thread_switching(self):
        """More threads than cores, a switch interval of a microsecond,
        more grids than the memo keeps: every call returns its own grid's
        runs, and the memo never outgrows its bound."""
        rel = ColumnarRelation.from_kpes(LEFT[:400]).freeze()
        grids = [TileGrid.for_partitions(UNIT, p) for p in range(2, 4 + PARTITION_MEMO_GRIDS)]
        fresh = ColumnarRelation.from_kpes(LEFT[:400])  # writeable: computed every time
        expected = {grid.spec: partition_ids(fresh, grid, by_xl=True) for grid in grids}
        wrong, failures = [], []

        def hammer(seed):
            try:
                for i in range(60):
                    grid = grids[(seed * 7 + i * (seed + 1)) % len(grids)]
                    offsets, ids = partition_ids(rel, grid, by_xl=True)
                    want = expected[grid.spec]
                    if not (np.array_equal(offsets, want[0]) and np.array_equal(ids, want[1])):
                        wrong.append(grid.spec)
                    assert len(rel.partition_memo) <= PARTITION_MEMO_GRIDS
            except BaseException as exc:  # reported by the main thread
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(k,)) for k in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == [] and wrong == []
        assert len(rel.partition_memo) == PARTITION_MEMO_GRIDS
