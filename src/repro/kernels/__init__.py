"""Columnar numpy kernels for the hot paths of the join drivers.

The tuple-at-a-time representation every driver streams through partition
files is kept as the system's interchange format; this package adds a
*columnar* execution backend beneath it:

* :mod:`repro.kernels.columnar` — a relation as five parallel numpy
  arrays (``oid`` int64, ``xl/yl/xh/yh`` float64) with loss-free
  converters from/to KPE tuples;
* :mod:`repro.kernels.sweep` — the vectorized forward-scan plane sweep
  (registered as internal algorithm ``"sweep_numpy"``) plus its
  pure-Python fallback with identical results;
* :mod:`repro.kernels.rpm` — batched Reference Point Method: refpoints
  and partition ownership of whole candidate batches in a handful of
  array operations;
* :mod:`repro.kernels.assign` — vectorized tile assignment for the PBSM
  partitioning phase;
* :mod:`repro.kernels.twolayer` — batched two-layer corner-class
  duplicate avoidance: class assignment as two comparisons per replica
  and class-partitioned slices feeding the forward-scan internals;
* :mod:`repro.kernels.mmapstore` — zero-copy memory-mapped columnar
  stores over ``.rcd`` dataset files (build once, join many): a
  relation opens in O(ms) as live read-only columns.

Everything degrades gracefully without numpy (or with
``REPRO_DISABLE_NUMPY=1``): same result sets, classic per-element
counters, Python speed.  :func:`numpy_enabled` / :func:`active_backend`
are the single switch the drivers consult.
"""

from repro.kernels.backend import (
    HAVE_NUMPY,
    active_backend,
    cpu_count,
    get_numpy,
    numpy_backend,
    numpy_enabled,
    python_backend,
    require_numpy,
    set_numpy_enabled,
)
from repro.kernels.columnar import ColumnarRelation, from_kpes
from repro.kernels.mmapstore import (
    MappedColumnarStore,
    MappedRelation,
    open_relation,
    write_rcd,
)
from repro.kernels.sweep import (
    DEFAULT_BATCH_CANDIDATES,
    forward_scan_batches,
    python_forward_scan,
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
    "HAVE_NUMPY",
    "MappedColumnarStore",
    "MappedRelation",
    "SharedColumnarStore",
    "columnar_arrays",
    "shm_enabled",
    "active_backend",
    "cpu_count",
    "forward_scan_batches",
    "from_kpes",
    "get_numpy",
    "numpy_backend",
    "numpy_enabled",
    "open_relation",
    "partition_plan",
    "point_partitions",
    "point_tiles",
    "python_backend",
    "python_forward_scan",
    "region_join_ids",
    "require_numpy",
    "rpm_join_ids",
    "set_numpy_enabled",
    "sweep_numpy_join",
    "tile_partitions",
    "tile_ranges",
    "twolayer_join_ids",
    "write_rcd",
]
