"""Simulated storage substrate: cost model, disk ledger, the paper's page I/O.

The paper's I/O model (Section 2): pages of fixed size; a request for ``n``
contiguous pages costs ``PT + n`` page-transfer units.  This package
implements that model as a deterministic simulation — see DESIGN.md for the
substitution rationale (original: Seagate 2 GB disk with direct I/O).  The
drivers keep their records in memory; :mod:`repro.io.paper_io` charges
what the paper's files of them would cost, from their record counts.
"""

from repro.io.costmodel import CostModel, DEFAULT_COST_MODEL, mb
from repro.io.disk import IoCounters, SimulatedDisk
from repro.io.paper_io import sort_in_memory
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
    "RCD_MAGIC",
    "RCD_VERSION",
    "RcdFormatError",
    "RcdHeader",
    "SimulatedDisk",
    "mb",
    "read_header",
    "sort_in_memory",
]
