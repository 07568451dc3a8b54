"""Property tests for the I/O substrate.

The external sort under arbitrary memory budgets and contents: its
order is the stable sort's, and its charges depend on the record count
alone, so any contents of a pinned length cost what the pinned run did
(``extsort_pinned.json``).
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.phases import PHASE_SORT
from repro.core.stats import CpuCounters
from repro.io.costmodel import CostModel
from repro.io.disk import SimulatedDisk
from repro.io.paper_io import sort_records

from tests.test_extsort import GRID, PINNED, key


class TestPageFileProperties:
    @given(st.lists(st.integers(0, 10_000), max_size=300), st.integers(100, 5_000))
    @settings(max_examples=25)
    def test_external_sort_any_budget(self, values, memory):
        disk = SimulatedDisk(CostModel(page_size=64))
        out = sort_records(disk, values, None, 8, memory, CpuCounters())
        assert out == sorted(values)

    @given(st.sampled_from(GRID), st.randoms(use_true_random=False))
    @settings(max_examples=40)
    def test_sort_charges_any_contents_as_pinned(self, point, rng):
        n, record_bytes, memory_bytes = point
        values = [(rng.randrange(5), i) for i in range(n)]
        disk = SimulatedDisk(CostModel(page_size=100, pt_ratio=5.0))
        counters = CpuCounters()
        with disk.phase(PHASE_SORT):
            out = sort_records(
                disk, values, lambda v: v[0], record_bytes, memory_bytes, counters
            )
        assert out == sorted(values, key=lambda v: v[0])
        pinned = json.loads(PINNED.read_text())[key(point)]
        io = disk.counters.get(PHASE_SORT)
        seen = io and [io.read_requests, io.pages_read, io.write_requests, io.pages_written]
        assert pinned["io"].get(PHASE_SORT) == seen
        assert pinned["cpu"][PHASE_SORT] == [counters.comparisons, counters.heap_ops]
