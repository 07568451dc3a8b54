"""Simulated storage substrate: cost model, disk, paged files, external sort.

The paper's I/O model (Section 2): pages of fixed size; a request for ``n``
contiguous pages costs ``PT + n`` page-transfer units.  This package
implements that model as a deterministic simulation — see DESIGN.md for the
substitution rationale (original: Seagate 2 GB disk with direct I/O).
"""

from repro.io.costmodel import CostModel, DEFAULT_COST_MODEL, mb
from repro.io.disk import IoCounters, SimulatedDisk
from repro.io.extsort import external_sort, sort_in_memory, sorted_dedup
from repro.io.pagefile import PageFile, PageWriter
from repro.io.rcd import (
    RCD_MAGIC,
    RCD_VERSION,
    RcdFormatError,
    RcdHeader,
    read_header,
)

__all__ = [
    "CostModel",
    "DEFAULT_COST_MODEL",
    "IoCounters",
    "PageFile",
    "PageWriter",
    "RCD_MAGIC",
    "RCD_VERSION",
    "RcdFormatError",
    "RcdHeader",
    "SimulatedDisk",
    "external_sort",
    "mb",
    "read_header",
    "sort_in_memory",
    "sorted_dedup",
]
