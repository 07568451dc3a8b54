"""Unit tests for paged files and buffered writers."""

import pytest

from repro.io.costmodel import CostModel
from repro.io.disk import SimulatedDisk
from repro.io.pagefile import PageFile


def small_disk(page_size=100, pt=5.0):
    return SimulatedDisk(CostModel(page_size=page_size, pt_ratio=pt))


class TestGeometry:
    def test_empty_file(self):
        f = PageFile(small_disk(), record_bytes=10)
        assert f.n_records == 0
        assert f.n_pages == 0

    def test_page_count(self):
        disk = small_disk(page_size=100)
        f = PageFile(disk, record_bytes=10)
        f.records.extend(range(25))  # 10 records per page
        assert f.n_pages == 3


class TestBulkIo:
    def test_append_bulk_single_request(self):
        disk = small_disk(page_size=100)
        f = PageFile(disk, record_bytes=10)
        f.append_bulk(list(range(25)))
        c = disk.counters["default"]
        assert c.write_requests == 1
        assert c.pages_written == 3

    def test_append_bulk_capped_requests(self):
        disk = small_disk(page_size=100)
        f = PageFile(disk, record_bytes=10)
        f.append_bulk(list(range(100)), max_request_pages=4)  # 10 pages
        c = disk.counters["default"]
        assert c.pages_written == 10
        assert c.write_requests == 3  # 4 + 4 + 2

    def test_append_bulk_empty_is_free(self):
        disk = small_disk()
        PageFile(disk, 10).append_bulk([])
        assert disk.total_units() == 0.0

    def test_read_all_single_request(self):
        disk = small_disk(page_size=100)
        f = PageFile(disk, record_bytes=10)
        f.append_bulk(list(range(25)))
        disk.counters.clear()
        data = f.read_all()
        assert data == list(range(25))
        c = disk.counters["default"]
        assert c.read_requests == 1
        assert c.pages_read == 3

    def test_read_all_empty_is_free(self):
        disk = small_disk()
        f = PageFile(disk, 10)
        assert f.read_all() == []
        assert disk.total_units() == 0.0


class TestChunkedReads:
    def test_iter_chunks_request_per_chunk(self):
        disk = small_disk(page_size=100)
        f = PageFile(disk, record_bytes=10)
        f.records.extend(range(35))  # 4 pages
        chunks = list(f.iter_chunks(buffer_pages=2))
        assert [len(c) for c in chunks] == [20, 15]
        c = disk.counters["default"]
        assert c.read_requests == 2
        assert c.pages_read == 4

    def test_iter_records_preserves_order(self):
        disk = small_disk(page_size=100)
        f = PageFile(disk, record_bytes=10)
        f.records.extend(range(42))
        assert list(f.iter_records(buffer_pages=1)) == list(range(42))

    def test_invalid_buffer_rejected(self):
        f = PageFile(small_disk(), 10)
        with pytest.raises(ValueError):
            list(f.iter_chunks(0))


class TestPageWriter:
    def test_flush_per_buffer(self):
        disk = small_disk(page_size=100)
        f = PageFile(disk, record_bytes=10)
        with f.writer(buffer_pages=1) as w:
            for i in range(25):
                w.write(i)
        c = disk.counters["default"]
        # 10 + 10 + 5 records -> three one-request flushes
        assert c.write_requests == 3
        assert c.pages_written == 3
        assert f.records == list(range(25))

    def test_partial_buffer_flushed_on_close(self):
        disk = small_disk(page_size=100)
        f = PageFile(disk, record_bytes=10)
        w = f.writer()
        w.write("a")
        w.close()
        assert f.records == ["a"]
        assert disk.counters["default"].pages_written == 1

    def test_write_after_close_fails(self):
        f = PageFile(small_disk(), 10)
        w = f.writer()
        w.close()
        with pytest.raises(RuntimeError):
            w.write(1)

    def test_close_idempotent(self):
        disk = small_disk()
        f = PageFile(disk, 10)
        w = f.writer()
        w.write(1)
        w.close()
        units = disk.total_units()
        w.close()
        assert disk.total_units() == units

    def test_write_many(self):
        f = PageFile(small_disk(), 10)
        with f.writer() as w:
            w.write_many(range(5))
        assert f.records == list(range(5))

    def test_multi_page_buffer_fewer_requests(self):
        disk1 = small_disk(page_size=100)
        f1 = PageFile(disk1, 10)
        with f1.writer(buffer_pages=1) as w:
            w.write_many(range(100))
        disk4 = small_disk(page_size=100)
        f4 = PageFile(disk4, 10)
        with f4.writer(buffer_pages=4) as w:
            w.write_many(range(100))
        assert disk4.total_counters().write_requests < (
            disk1.total_counters().write_requests
        )
        assert disk4.total_counters().pages_written == (
            disk1.total_counters().pages_written
        )
