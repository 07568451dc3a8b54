"""Paged record files on the simulated disk.

A :class:`PageFile` stores fixed-size records (KPEs, result tuples, or any
tuple with an attached sort code).  Contents live in memory, but every
access is charged to the owning :class:`~repro.io.disk.SimulatedDisk` at the
granularity the real algorithm would use:

* partition writers flush one buffer at a time (a buffer that holds one page
  models PBSM's per-partition output buffers → one positioning per page),
* sequential bulk reads/writes issue one contiguous request for many pages,
* merge readers pull one page per request (random access across runs).
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Sequence

from repro.io.disk import SimulatedDisk


class PageFile:
    """A file of fixed-size records with charged page I/O."""

    __slots__ = ("disk", "record_bytes", "name", "records")

    def __init__(self, disk: SimulatedDisk, record_bytes: int, name: str = "") -> None:
        self.disk = disk
        self.record_bytes = record_bytes
        self.name = name
        #: A list — or, for the id runs ``partition_relation(emit="ids")``
        #: wraps, a read-only int64 array (read side only; ``read_all``
        #: still returns a list).
        self.records: Any = []

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @property
    def n_records(self) -> int:
        return len(self.records)

    @property
    def n_pages(self) -> int:
        return self.disk.cost.pages_for(len(self.records), self.record_bytes)

    def records_per_page(self) -> int:
        return self.disk.cost.records_per_page(self.record_bytes)

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def writer(self, buffer_pages: int = 1) -> "PageWriter":
        """A buffered writer flushing whole buffers as single requests."""
        return PageWriter(self, buffer_pages)

    def append_bulk(self, records: Sequence, max_request_pages: int = 0) -> None:
        """Sequentially write *records* to the end of the file.

        The write is charged as one contiguous request (or several, when
        ``max_request_pages`` caps the request size — e.g. because only a
        bounded output buffer is available).
        """
        if not records:
            return
        pages = self.disk.cost.pages_for(len(records), self.record_bytes)
        if max_request_pages and max_request_pages < pages:
            full, rest = divmod(pages, max_request_pages)
            requests = full + (1 if rest else 0)
        else:
            requests = 1
        self.disk.charge_write(pages, requests)
        self.records.extend(records)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def read_all(self) -> List:
        """Read the whole file as one contiguous request."""
        self.disk.charge_read(self.n_pages, requests=1)
        records = self.records
        return list(records) if isinstance(records, list) else records.tolist()

    def iter_chunks(self, buffer_pages: int) -> Iterator[List]:
        """Iterate the file in buffer-sized chunks, one request each."""
        if buffer_pages < 1:
            raise ValueError("buffer_pages must be >= 1")
        per_chunk = buffer_pages * self.records_per_page()
        for start in range(0, len(self.records), per_chunk):
            chunk = self.records[start : start + per_chunk]
            pages = self.disk.cost.pages_for(len(chunk), self.record_bytes)
            self.disk.charge_read(pages, requests=1)
            yield chunk

    def iter_records(self, buffer_pages: int = 1) -> Iterator:
        """Iterate records with a small read buffer (merge-style access)."""
        for chunk in self.iter_chunks(buffer_pages):
            for record in chunk:
                yield record


class PageWriter:
    """Accumulates records and flushes whole buffers as single requests.

    With ``buffer_pages=1`` this models the per-partition one-page output
    buffers of PBSM's partitioning phase: every flush pays one positioning
    plus one transfer.
    """

    __slots__ = ("_file", "_buffer_pages", "_buffer_records", "_pending", "_closed")

    def __init__(self, file: PageFile, buffer_pages: int) -> None:
        if buffer_pages < 1:
            raise ValueError("buffer_pages must be >= 1")
        self._file = file
        self._buffer_pages = buffer_pages
        self._buffer_records = buffer_pages * file.records_per_page()
        self._pending: List = []
        self._closed = False

    def write(self, record: Any) -> None:
        if self._closed:
            raise RuntimeError(f"writer for {self._file.name!r} is closed")
        self._pending.append(record)
        if len(self._pending) >= self._buffer_records:
            self._flush()

    def write_many(self, records: Iterable) -> None:
        for record in records:
            self.write(record)

    def _flush(self) -> None:
        if not self._pending:
            return
        pages = self._file.disk.cost.pages_for(
            len(self._pending), self._file.record_bytes
        )
        self._file.disk.charge_write(pages, requests=1)
        self._file.records.extend(self._pending)
        self._pending = []

    def close(self) -> None:
        """Flush the final partial buffer and seal the writer."""
        if not self._closed:
            self._flush()
            self._closed = True

    def __enter__(self) -> "PageWriter":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()
