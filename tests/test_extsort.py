"""Unit and property tests for the external merge sort.

The sort is priced from its run lengths and done in memory
(:func:`~repro.io.paper_io.sort_records`); ``extsort_pinned.json``,
recorded from the file-based merge sort it replaced, holds, for a grid of ``(n, record_bytes,
memory_bytes)`` on 100-byte pages, the sort's output order and what it
charged: disk requests and pages, comparisons and heap operations, for
keyed records with many equal keys (S3J's level files) and for pairs
sorted and scanned for duplicates (original PBSM's final phase).  The
grid covers in-memory sorts, one merge pass and several.

Re-record::

    PYTHONPATH=src python -m tests.test_extsort
"""

import hashlib
import json
import operator
import random
from pathlib import Path

import pytest

from hypothesis import given
from hypothesis import strategies as st

from repro.core.phases import PHASE_DEDUP, PHASE_SORT
from repro.core.stats import CpuCounters
from repro.io.costmodel import CostModel
from repro.io.disk import SimulatedDisk
from repro.io.extsort import sort_in_memory
from repro.io.paper_io import sort_based_dedup, sort_records

PINNED = Path(__file__).with_name("extsort_pinned.json")

#: ``(n, record_bytes, memory_bytes)``: on 100-byte pages a 100-byte
#: budget holds two pages (fan-in 2), 1,000 bytes ten (fan-in 9).
GRID = [
    (n, record_bytes, memory_bytes)
    for n in (0, 1, 7, 50, 500, 2_000)
    for record_bytes in (8, 10, 24)
    for memory_bytes in (100, 300, 1_000, 100_000)
]


def digest(values):
    return hashlib.sha256(repr(list(values)).encode()).hexdigest()


def observe(n, record_bytes, memory_bytes):
    """One grid point: both sorts' output order and charges by phase."""
    rng = random.Random(n * 31 + record_bytes * 7 + memory_bytes)
    keyed = [(rng.randrange(max(1, n // 4)), i) for i in range(n)]
    pairs = [(rng.randrange(20), rng.randrange(20)) for _ in range(n)]
    disk = SimulatedDisk(CostModel(page_size=100, pt_ratio=5.0))
    cpu = {PHASE_SORT: CpuCounters(), PHASE_DEDUP: CpuCounters()}
    with disk.phase(PHASE_SORT):
        out = sort_records(
            disk, keyed, operator.itemgetter(0), record_bytes, memory_bytes, cpu[PHASE_SORT]
        )
    with disk.phase(PHASE_DEDUP):
        unique, removed = sort_based_dedup(
            disk, pairs, record_bytes, memory_bytes, cpu[PHASE_DEDUP]
        )
    return {
        "order_sha256": digest(i for _, i in out),
        "unique_sha256": digest(unique),
        "removed": removed,
        "io": {
            phase: [c.read_requests, c.pages_read, c.write_requests, c.pages_written]
            for phase, c in sorted(disk.counters.items())
        },
        "cpu": {
            phase: [c.comparisons, c.heap_ops] for phase, c in sorted(cpu.items())
        },
    }


def key(point):
    return "%d/%d/%d" % point


@pytest.mark.parametrize("point", GRID, ids=key)
def test_sort_equals_the_pinned_run(point):
    assert observe(*point) == json.loads(PINNED.read_text())[key(point)]


def test_the_grid_merges_in_one_and_in_several_passes():
    pinned = json.loads(PINNED.read_text())
    passes = set()
    for n, record_bytes, memory_bytes in GRID:
        heap_ops = pinned[key((n, record_bytes, memory_bytes))]["cpu"][PHASE_SORT][1]
        passes.add(heap_ops // (2 * n) if n else 0)
    assert {0, 1, 2} <= passes and max(passes) > 2


def small_disk():
    return SimulatedDisk(CostModel(page_size=100, pt_ratio=5.0))


def identity(value):
    return value


class TestSortInMemory:
    def test_sorts(self):
        c = CpuCounters()
        assert sort_in_memory([3, 1, 2], lambda v: v, c) == [1, 2, 3]

    def test_charges_nlogn_comparisons(self):
        c = CpuCounters()
        sort_in_memory(list(range(8)), lambda v: v, c)
        assert c.comparisons == 8 * 3

    def test_empty_and_singleton_charge_nothing(self):
        c = CpuCounters()
        sort_in_memory([], lambda v: v, c)
        sort_in_memory([1], lambda v: v, c)
        assert c.comparisons == 0

    def test_stable(self):
        c = CpuCounters()
        data = [(1, "a"), (0, "b"), (1, "c")]
        out = sort_in_memory(data, lambda v: v[0], c)
        assert out == [(0, "b"), (1, "a"), (1, "c")]


class TestExternalSortInMemoryPath:
    def test_small_file_one_read_one_write(self):
        disk = small_disk()
        out = sort_records(disk, [5, 3, 9, 1], identity, 10, 10_000, CpuCounters())
        assert out == [1, 3, 5, 9]
        total = disk.total_counters()
        assert total.read_requests == 1
        assert total.write_requests == 1

    def test_empty_file(self):
        disk = small_disk()
        assert sort_records(disk, [], identity, 10, 1000, CpuCounters()) == []
        assert disk.total_units() == 0.0


class TestExternalSortExternalPath:
    def test_large_file_sorted(self):
        rng = random.Random(9)
        values = [rng.randrange(10_000) for _ in range(500)]
        c = CpuCounters()
        # memory of 3 pages -> 30 records per run -> ~17 runs, 2-way+ merges
        out = sort_records(small_disk(), values, identity, 10, 300, c)
        assert out == sorted(values)
        assert c.heap_ops > 0

    def test_external_costs_exceed_in_memory(self):
        values = list(range(500, 0, -1))
        disk1, disk2 = small_disk(), small_disk()
        sort_records(disk1, values, identity, 10, 100_000, CpuCounters())
        sort_records(disk2, values, identity, 10, 300, CpuCounters())
        assert disk2.total_units() > disk1.total_units()

    @given(st.lists(st.integers(0, 1000), max_size=300), st.integers(200, 2000))
    def test_matches_sorted_builtin(self, values, memory):
        out = sort_records(small_disk(), values, identity, 10, memory, CpuCounters())
        assert out == sorted(values)


class TestSortedDedup:
    def test_removes_adjacent_duplicates(self):
        unique, removed = sort_based_dedup(
            small_disk(), [1, 1, 2, 3, 3, 3, 4], 10, 1000, CpuCounters()
        )
        assert unique == [1, 2, 3, 4]
        assert removed == 3

    def test_empty(self):
        disk = small_disk()
        assert sort_based_dedup(disk, [], 10, 1000, CpuCounters()) == ([], 0)
        assert disk.total_units() == 0.0

    def test_all_duplicates(self):
        unique, removed = sort_based_dedup(small_disk(), [7] * 50, 10, 1000, CpuCounters())
        assert (unique, removed) == ([7], 49)

    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50)), max_size=200))
    def test_equivalent_to_set(self, pairs):
        unique, removed = sort_based_dedup(small_disk(), pairs, 8, 1000, CpuCounters())
        assert unique == sorted(set(pairs))
        assert removed == len(pairs) - len(set(pairs))


def record():
    entries = {key(point): observe(*point) for point in GRID}
    PINNED.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
