"""The paper's page I/O for PBSM's id runs, charged from their lengths.

The paper prices PBSM in ``PT + n`` page transfers (Sec. 3.1, Fig. 3a).
The driver keeps every partition and sub-partition as a plain int64 id
run, so no file stands behind it: what a run costs on the paper's disk
depends only on how many records (KPEs, ``cost.kpe_bytes`` each) it
holds.  This module is the one place that knows those charges; the run's
:class:`~repro.io.disk.SimulatedDisk` is only the ledger, per phase,
that the spans snapshot.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.io.disk import SimulatedDisk


def charge_partition(
    disk: SimulatedDisk, runs: Sequence[Any], record_bytes: int
) -> None:
    """Write *runs*, each through its own one-page buffer: every page
    flushed is one request."""
    pages = sum(disk.cost.pages_for(len(run), record_bytes) for run in runs)
    disk.charge_write(pages, requests=pages)


def charge_split(disk: SimulatedDisk, source: Any, runs: Sequence[Any]) -> None:
    """Read the split *source* in one request, then write its
    sub-partition *runs* like the initial partitioning's."""
    record_bytes = disk.cost.kpe_bytes
    disk.charge_read(disk.cost.pages_for(len(source), record_bytes), requests=1)
    charge_partition(disk, runs, record_bytes)


def charge_leaf(disk: SimulatedDisk, ids_left: Any, ids_right: Any) -> float:
    """Read both sides of a leaf, one request each; returns the units
    charged (``2 PT`` plus the pages), the leaf's I/O in the makespan."""
    cost = disk.cost
    pages = 0
    for ids in (ids_left, ids_right):
        side = cost.pages_for(len(ids), cost.kpe_bytes)
        disk.charge_read(side, requests=1)
        pages += side
    return cost.pt_ratio * 2 + pages
