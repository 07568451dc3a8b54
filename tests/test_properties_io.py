"""Property tests for the I/O substrate.

Page files under arbitrary contents; the external sort under
arbitrary memory budgets.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stats import CpuCounters
from repro.io.costmodel import CostModel
from repro.io.disk import SimulatedDisk
from repro.io.extsort import external_sort
from repro.io.pagefile import PageFile


class TestPageFileProperties:
    @given(st.lists(st.integers(), max_size=300), st.integers(1, 5))
    def test_iter_records_equals_contents(self, values, buffer_pages):
        disk = SimulatedDisk(CostModel(page_size=64))
        f = PageFile(disk, record_bytes=8)
        f.records.extend(values)
        assert list(f.iter_records(buffer_pages)) == values

    @given(st.lists(st.integers(), max_size=200))
    def test_writer_preserves_order(self, values):
        disk = SimulatedDisk(CostModel(page_size=64))
        f = PageFile(disk, record_bytes=8)
        with f.writer(buffer_pages=2) as w:
            w.write_many(values)
        assert f.records == values

    @given(st.lists(st.integers(0, 10_000), max_size=300), st.integers(100, 5_000))
    @settings(max_examples=25)
    def test_external_sort_any_budget(self, values, memory):
        disk = SimulatedDisk(CostModel(page_size=64))
        f = PageFile(disk, record_bytes=8)
        f.records.extend(values)
        out = external_sort(f, lambda v: v, memory, CpuCounters())
        assert out.records == sorted(values)
