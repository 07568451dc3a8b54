"""Columnar numpy kernels for the hot paths of the join drivers.

The tuple-at-a-time representation every driver streams through partition
files is kept as the system's interchange format; this package adds a
*columnar* execution backend beneath it:

* :mod:`repro.kernels.columnar` — a relation as five parallel numpy
  arrays (``oid`` int64, ``xl/yl/xh/yh`` float64) with loss-free
  converters from/to KPE tuples;
* :mod:`repro.kernels.sweep` — the vectorized forward-scan plane sweep
  (registered as internal algorithm ``"sweep_numpy"``);
* :mod:`repro.kernels.rpm` — batched Reference Point Method: refpoints
  and partition ownership of whole candidate batches in a handful of
  array operations;
* :mod:`repro.kernels.assign` — vectorized tile assignment for the PBSM
  partitioning phase;
* :mod:`repro.kernels.twolayer` — batched two-layer corner-class
  duplicate avoidance, which no driver runs (kept for the frozen
  benchmark replay only);
* :mod:`repro.kernels.mmapstore` — zero-copy memory-mapped columnar
  stores over ``.rcd`` dataset files (build once, join many): a
  relation opens in O(ms) as live read-only columns.

numpy is a dependency of the package: every module here imports it at
the top and there is one implementation of each kernel.
"""

from repro.kernels.columnar import ColumnarRelation
from repro.kernels.mmapstore import (
    MappedColumnarStore,
    open_relation,
    write_rcd,
)
from repro.kernels.sweep import (
    DEFAULT_BATCH_CANDIDATES,
    forward_scan_batches,
    sweep_numpy_join,
)
from repro.kernels.rpm import (
    point_partitions,
    point_tiles,
    region_join_ids,
    rpm_join_ids,
    tile_partitions,
)
from repro.kernels.assign import partition_plan, tile_ranges
from repro.kernels.shm import SharedColumnarStore, columnar_arrays, shm_enabled
from repro.kernels.twolayer import twolayer_join_ids

__all__ = [
    "ColumnarRelation",
    "DEFAULT_BATCH_CANDIDATES",
    "MappedColumnarStore",
    "SharedColumnarStore",
    "columnar_arrays",
    "shm_enabled",
    "forward_scan_batches",
    "open_relation",
    "partition_plan",
    "point_partitions",
    "point_tiles",
    "region_join_ids",
    "rpm_join_ids",
    "sweep_numpy_join",
    "tile_partitions",
    "tile_ranges",
    "twolayer_join_ids",
    "write_rcd",
]
