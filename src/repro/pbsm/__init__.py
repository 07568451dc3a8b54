"""Partition Based Spatial-Merge Join (PBSM) and its paper improvements."""

from repro.pbsm.dedup import sort_based_dedup
from repro.pbsm.estimator import estimate_partitions
from repro.pbsm.grid import TileGrid
from repro.pbsm.join import DEDUP_MODES, PBSM
from repro.pbsm.parallel import EXECUTORS, lpt_schedule
from repro.pbsm.partitioner import partition_csr, partition_relation
from repro.pbsm.repartition import choose_split

__all__ = [
    "DEDUP_MODES",
    "EXECUTORS",
    "PBSM",
    "TileGrid",
    "choose_split",
    "estimate_partitions",
    "lpt_schedule",
    "partition_csr",
    "partition_relation",
    "sort_based_dedup",
]
