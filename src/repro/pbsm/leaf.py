"""One PBSM leaf: a partition pair joined as it is.

The recursion of :class:`~repro.pbsm.join.PBSM` hands out leaves;
:func:`join_leaf` joins one, wherever it runs — in the driver's process
or in a pool worker (:mod:`repro.pbsm.parallel`).  Both import it from
here, so the pool side never imports the driver.
"""

from __future__ import annotations

from typing import Any, Callable, List, Tuple

import numpy as np

from repro.core.phases import PHASE_JOIN
from repro.core.stats import CpuCounters
from repro.internal import internal_algorithm
from repro.io.disk import SimulatedDisk
from repro.io.pagefile import PageFile
from repro.kernels.columnar import ColumnarRelation
from repro.kernels.rpm import owned_mask, region_join_ids, rpm_join_ids
from repro.kernels.sweep import _charge_batch_sort
from repro.pbsm.grid import TileGrid

#: The region a partition pair owns, as a chain of ``(grid, pid)``
#: ownership tests: one entry for a top-level partition (the union of its
#: tiles), one more per repartitioning step — parent region AND
#: sub-region.  Both engines AND it over whole batches of reference
#: points (:func:`~repro.kernels.rpm.owned_mask`).
Region = Tuple[Tuple[TileGrid, int], ...]

#: A leaf the recursion hands out: ``(file_left, file_right, region)``.
Leaf = Tuple[PageFile, PageFile, Region]

#: ``(pairs, suppressed, counters, wall_seconds)`` — one joined leaf: what
#: :func:`join_leaf` returned (*pairs* is ``(rid, sid)``), and the leaf's
#: own counters and wall time, measured where it ran.
LeafOutcome = Tuple[Any, int, CpuCounters, float]


def columnar_engine(internal_name: str) -> bool:
    """Whether a PBSM driver runs the columnar engine for this internal."""
    return internal_name == "sweep_numpy"


def read_leaf(disk: SimulatedDisk, file_left: PageFile, file_right: PageFile) -> Tuple[Any, Any]:
    """A leaf's two id runs, each read with one charged request."""
    with disk.phase(PHASE_JOIN):
        return file_left.read_view(), file_right.read_view()


def join_leaf(
    internal_name: str,
    left: ColumnarRelation,
    right: ColumnarRelation,
    l_ids: Any,
    r_ids: Any,
    region: Region,
    dedup: str,
    cpu: CpuCounters,
) -> Tuple[Tuple[Any, Any], int]:
    """Join rows *l_ids* of *left* with rows *r_ids* of *right*: one leaf.

    The one place a leaf picks its engine, in this process and in a pool
    worker alike: ``sweep_numpy`` runs :func:`columnar_leaf`, every other
    internal :func:`tuple_leaf`.  Both take the same inputs and return
    the same ``((rid, sid), suppressed)``: int64 row *positions* into
    *left* and *right*, not oids, which the driver decodes.
    """
    if columnar_engine(internal_name):
        return columnar_leaf(left, right, l_ids, r_ids, region, dedup, cpu)
    return tuple_leaf(
        left, right, l_ids, r_ids, region, dedup,
        internal_algorithm(internal_name), cpu,
    )


def _leaf_records(cols: ColumnarRelation, ids: Any) -> List[Tuple]:
    """Rows *ids* of *cols* as ``(oid, xl, yl, xh, yh, row)`` records, in
    id order: the internals read a KPE's five fields, the sixth is where
    the record came from."""
    fields = (cols.oid, cols.xl, cols.yl, cols.xh, cols.yh)
    return list(zip(*(field[ids].tolist() for field in fields), ids.tolist()))


def tuple_leaf(
    left: ColumnarRelation,
    right: ColumnarRelation,
    l_ids: Any,
    r_ids: Any,
    region: Region,
    dedup: str,
    internal: Callable[..., None],
    cpu: CpuCounters,
) -> Tuple[Tuple[Any, Any], int]:
    """The tuple engine's leaf: any internal algorithm over records.

    The internal's ``emit`` only collects the candidates' rows; under
    RPM one batched test (:func:`~repro.kernels.rpm.owned_mask`) then
    keeps the pairs *region* owns, charged one ``refpoint_tests`` per
    candidate.  The test-free ``"sort"`` mode returns every candidate.

    Returns ``((rid, sid), suppressed)`` like :func:`columnar_leaf`,
    pairs in the internal's emit order.
    """
    rids: List[int] = []
    sids: List[int] = []

    def emit(r: Tuple, s: Tuple) -> None:
        rids.append(r[5])
        sids.append(s[5])

    internal(_leaf_records(left, l_ids), _leaf_records(right, r_ids), emit, cpu)
    rid = np.array(rids, dtype=np.int64)
    sid = np.array(sids, dtype=np.int64)
    if dedup != "rpm":
        return (rid, sid), 0
    cpu.refpoint_tests += len(rids)
    owned = owned_mask(left, right, rid, sid, region)
    return (rid[owned], sid[owned]), len(rids) - int(owned.sum())


def columnar_leaf(
    left: ColumnarRelation,
    right: ColumnarRelation,
    l_ids: Any,
    r_ids: Any,
    region: Region,
    dedup: str,
    cpu: CpuCounters,
) -> Tuple[Tuple[Any, Any], int]:
    """The columnar engine's leaf: one id-pair kernel per partition pair.

    RPM under a top-level region (one grid's tiles) runs
    :func:`~repro.kernels.rpm.rpm_join_ids`; a composed region (and the
    test-free ``"sort"`` mode) runs the forward scan with the ownership
    chain ANDed over each batch.

    The id runs arrive in ``xl`` order (``partition_ids(..., by_xl=True)``),
    so the gathered rows are flagged ``sorted_by_xl`` and no kernel sorts
    here.  The paper sorts every partition pair, and its simulated
    seconds are this engine's currency too, so a sort per side is still
    charged — what the kernel's own sort charged.
    """
    a = left.rows(l_ids, sorted_by_xl=True)
    b = right.rows(r_ids, sorted_by_xl=True)
    _charge_batch_sort(cpu, a.n)
    _charge_batch_sort(cpu, b.n)
    if dedup == "rpm" and len(region) == 1:
        grid, pid = region[0]
        rid, sid, suppressed = rpm_join_ids(a, b, grid, pid, cpu)
    else:
        rid, sid, suppressed = region_join_ids(
            a, b, region if dedup == "rpm" else (), cpu
        )
    return (rid, sid), suppressed
