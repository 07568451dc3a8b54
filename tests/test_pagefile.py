"""Unit tests for the page charges of the paper's files.

The drivers keep records in lists; :mod:`repro.io.paper_io` charges what
writing and reading a file of them costs, from the record count and the
buffer it goes through.
"""

import pytest

from repro.io.costmodel import CostModel
from repro.io.disk import SimulatedDisk
from repro.io.paper_io import charge_read, charge_write


def small_disk(page_size=100, pt=5.0):
    return SimulatedDisk(CostModel(page_size=page_size, pt_ratio=pt))


class TestGeometry:
    def test_empty_file(self):
        disk = small_disk()
        charge_read(disk, 0, record_bytes=10)
        assert disk.total_counters().pages_read == 0

    def test_page_count(self):
        disk = small_disk(page_size=100)
        charge_read(disk, 25, record_bytes=10)  # 10 records per page
        assert disk.total_counters().pages_read == 3


class TestBulkIo:
    def test_append_bulk_single_request(self):
        disk = small_disk(page_size=100)
        charge_write(disk, 25, record_bytes=10)
        c = disk.counters["default"]
        assert c.write_requests == 1
        assert c.pages_written == 3

    def test_append_bulk_capped_requests(self):
        disk = small_disk(page_size=100)
        charge_write(disk, 100, record_bytes=10, buffer_pages=4)  # 10 pages
        c = disk.counters["default"]
        assert c.pages_written == 10
        assert c.write_requests == 3  # 4 + 4 + 2

    def test_append_bulk_empty_is_free(self):
        disk = small_disk()
        charge_write(disk, 0, 10)
        assert disk.total_units() == 0.0

    def test_read_all_single_request(self):
        disk = small_disk(page_size=100)
        charge_read(disk, 25, record_bytes=10)
        c = disk.counters["default"]
        assert c.read_requests == 1
        assert c.pages_read == 3

    def test_read_all_empty_is_free(self):
        disk = small_disk()
        charge_read(disk, 0, 10)
        assert disk.total_units() == 0.0


class TestChunkedReads:
    def test_iter_chunks_request_per_chunk(self):
        disk = small_disk(page_size=100)
        charge_read(disk, 35, record_bytes=10, buffer_pages=2)  # 20 + 15
        c = disk.counters["default"]
        assert c.read_requests == 2
        assert c.pages_read == 4

    def test_invalid_buffer_rejected(self):
        with pytest.raises(ValueError):
            charge_read(small_disk(), 10, 10, buffer_pages=-1)


class TestPageWriter:
    def test_flush_per_buffer(self):
        disk = small_disk(page_size=100)
        charge_write(disk, 25, record_bytes=10, buffer_pages=1)
        c = disk.counters["default"]
        # 10 + 10 + 5 records -> three one-request flushes
        assert c.write_requests == 3
        assert c.pages_written == 3

    def test_partial_buffer_flushed_on_close(self):
        disk = small_disk(page_size=100)
        charge_write(disk, 1, record_bytes=10, buffer_pages=1)
        assert disk.counters["default"].pages_written == 1

    def test_multi_page_buffer_fewer_requests(self):
        disk1 = small_disk(page_size=100)
        charge_write(disk1, 100, 10, buffer_pages=1)
        disk4 = small_disk(page_size=100)
        charge_write(disk4, 100, 10, buffer_pages=4)
        assert disk4.total_counters().write_requests < (
            disk1.total_counters().write_requests
        )
        assert disk4.total_counters().pages_written == (
            disk1.total_counters().pages_written
        )
