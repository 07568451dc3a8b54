"""The paper's I/O cost model plus a CPU cost model for simulated runtime.

Section 2 of the paper: data moves in fixed-size pages; a request for ``n``
contiguous pages costs ``PT + n`` *page-transfer units*, where ``PT`` is the
ratio of disk-arm positioning time to single-page transfer time.  Reading the
join inputs and writing the join output are free of charge.

Because the original experiments ran C++ on a Sun SPARCstation 20, absolute
numbers are not reproducible in Python.  We therefore translate (a) counted
page-transfer units and (b) counted CPU operations into *simulated seconds*
with fixed constants, calibrated so that the smallest join of the paper (J1)
lands in the paper's order of magnitude.  All figures in EXPERIMENTS.md are
reported in these simulated seconds (plus wall clock for reference); the
*shape* of every curve depends only on the counts, not on the constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro.core.rect import SIZEOF_KPE
from repro.core.stats import CpuCounters


@dataclass(frozen=True)
class CostModel:
    """Cost constants for the simulated disk and CPU.

    Attributes
    ----------
    page_size:
        Bytes per disk page.  8 KiB, a common mid-90s DBMS page size.
    pt_ratio:
        ``PT``: positioning time expressed in page-transfer units.  With a
        ~10 ms average seek and ~2 ms to transfer an 8 KiB page from a
        mid-90s disk, ``PT = 5``.
    page_transfer_seconds:
        Simulated seconds to transfer one page (the unit of ``PT + n``).
    kpe_bytes / result_bytes:
        Record sizes: a KPE is 20 bytes (4-byte id + four 4-byte floats);
        a result tuple is two ids (8 bytes).
    *_op_seconds:
        Simulated seconds per counted CPU operation.  Intersection tests,
        comparisons and structure operations get one constant; heap
        operations and Hilbert codes are more expensive; Z codes are cheap
        (two table lookups), which is exactly why Section 4.4.2 prefers the
        Peano curve.  ``batch_op_seconds`` prices one array *element*
        touched by the columnar kernels — orders of magnitude below the
        scalar constants, reflecting SIMD/C-loop execution.
    """

    page_size: int = 8192
    pt_ratio: float = 5.0
    page_transfer_seconds: float = 0.002
    kpe_bytes: int = SIZEOF_KPE
    result_bytes: int = 8
    test_op_seconds: float = 2.0e-6
    comparison_op_seconds: float = 1.0e-6
    heap_op_seconds: float = 3.0e-6
    structure_op_seconds: float = 1.5e-6
    refpoint_op_seconds: float = 3.0e-6
    batch_op_seconds: float = 5.0e-8
    zcode_op_seconds: float = 1.0e-6
    hilbert_code_op_seconds: float = 8.0e-6
    #: Simulated seconds per byte serialised across a process boundary
    #: (pickle encode + pipe + decode, ~500 MB/s end to end).  Prices the
    #: process executor's pipe traffic: task tuples out, manifests back.
    ipc_byte_seconds: float = 2.0e-9
    #: Simulated seconds of parent-side overhead per chunk submitted to
    #: a pool (future bookkeeping, queue handoff).
    dispatch_seconds: float = 5.0e-4
    #: Simulated seconds to spawn one pool worker process (fork/exec +
    #: interpreter warm-up).  The planner charges it to every parallel
    #: candidate: it prices the cold run, before any pool is warm.
    pool_spawn_seconds: float = 1.5e-2
    #: Simulated seconds to open a memory-mapped ``.rcd`` dataset: a
    #: header read plus one mmap, independent of cardinality.  The
    #: flat-vs-linear contrast with :attr:`parse_record_seconds` is what
    #: makes EXPLAIN show the build-once/join-many amortization.
    mmap_open_seconds: float = 2.0e-3
    #: Simulated seconds to parse and validate one record when ingesting
    #: a non-mapped relation file (CSV field splitting / npy row
    #: conversion into KPE tuples).
    parse_record_seconds: float = 1.5e-6

    # ------------------------------------------------------------------
    # page arithmetic
    # ------------------------------------------------------------------
    def records_per_page(self, record_bytes: int) -> int:
        """Records fitting on one page (at least one)."""
        return max(1, self.page_size // record_bytes)

    def pages_for(self, n_records: int, record_bytes: int) -> int:
        """Pages needed to store *n_records* fixed-size records."""
        if n_records <= 0:
            return 0
        per_page = self.records_per_page(record_bytes)
        return -(-n_records // per_page)

    # ------------------------------------------------------------------
    # cost translation
    # ------------------------------------------------------------------
    def request_units(self, n_pages: int) -> float:
        """Cost of one contiguous request of *n_pages* pages: ``PT + n``."""
        if n_pages <= 0:
            return 0.0
        return self.pt_ratio + n_pages

    def io_seconds(self, units: float) -> float:
        """Simulated seconds for a number of page-transfer units."""
        return units * self.page_transfer_seconds

    def ipc_seconds_for(self, n_bytes: float) -> float:
        """Simulated seconds to ship *n_bytes* between processes."""
        return n_bytes * self.ipc_byte_seconds

    def ingest_seconds(self, n_records: int, mapped: bool) -> float:
        """Simulated seconds to make *n_records* join-ready from a file.

        Mapped (``.rcd``) inputs pay a constant open; anything else pays
        a per-record parse.  EXPLAIN reports both so the amortization of
        ``repro build`` is visible per plan.
        """
        if mapped:
            return self.mmap_open_seconds
        return n_records * self.parse_record_seconds

    def cpu_seconds(self, counters: CpuCounters, hilbert: bool = False) -> float:
        """Simulated CPU seconds for a set of operation counts.

        ``hilbert`` selects the per-code cost; the caller knows which curve
        produced the ``code_computations`` count.
        """
        code_cost = (
            self.hilbert_code_op_seconds if hilbert else self.zcode_op_seconds
        )
        return (
            counters.intersection_tests * self.test_op_seconds
            + counters.comparisons * self.comparison_op_seconds
            + counters.heap_ops * self.heap_op_seconds
            + counters.structure_ops * self.structure_op_seconds
            + counters.refpoint_tests * self.refpoint_op_seconds
            + counters.batch_ops * self.batch_op_seconds
            + counters.code_computations * code_cost
        )

    def cpu_seconds_from_counts(
        self,
        *,
        intersection_tests: float = 0.0,
        comparisons: float = 0.0,
        heap_ops: float = 0.0,
        structure_ops: float = 0.0,
        refpoint_tests: float = 0.0,
        batch_ops: float = 0.0,
        code_computations: float = 0.0,
        hilbert: bool = False,
    ) -> float:
        """Simulated CPU seconds for *predicted* (fractional) counts.

        The planner's counterpart of :meth:`cpu_seconds`: estimated
        operation counts are real-valued expectations, not integer
        tallies, so this takes keywords instead of a :class:`CpuCounters`.
        Using the same per-operation constants keeps estimated and
        measured simulated seconds directly comparable in EXPLAIN output.
        """
        code_cost = (
            self.hilbert_code_op_seconds if hilbert else self.zcode_op_seconds
        )
        return (
            intersection_tests * self.test_op_seconds
            + comparisons * self.comparison_op_seconds
            + heap_ops * self.heap_op_seconds
            + structure_ops * self.structure_op_seconds
            + refpoint_tests * self.refpoint_op_seconds
            + batch_ops * self.batch_op_seconds
            + code_computations * code_cost
        )


DEFAULT_COST_MODEL = CostModel()


def mb(n: float) -> int:
    """Megabytes to bytes, for readable memory-budget literals."""
    return int(n * 1024 * 1024)


def require_positive(name: str, value: Any) -> None:
    """Raise ``ValueError`` unless *value* > 0, NaN included (``nan <= 0``
    is false): every driver's memory budget and PBSM's ``t_factor``."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


def is_memory_mb(value: Any) -> bool:
    """Whether *value* is a number (not a bool) that :func:`mb` turns into
    a finite budget of at least one byte: the CLI's ``--memory-mb`` and
    the join protocol's ``memory_mb`` rule."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and 1 <= value * 1024 * 1024 < math.inf  # false for NaN; exact for any int
    )
