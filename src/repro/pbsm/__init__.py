"""Partition Based Spatial-Merge Join (PBSM) and its paper improvements."""

from repro.pbsm.dedup import sort_based_dedup
from repro.pbsm.estimator import estimate_partitions
from repro.pbsm.grid import TILE_MAPPINGS, TileGrid
from repro.pbsm.join import DEDUP_MODES, PBSM, pbsm_join
from repro.pbsm.parallel import (
    EXECUTORS,
    PARALLEL_DEDUP_MODES,
    ParallelPBSM,
    lpt_schedule,
    reset_clamp_warnings,
)
from repro.pbsm.partitioner import partition_csr, partition_relation
from repro.pbsm.repartition import choose_split, compose_region_test, split_partition
from repro.pbsm.twolayer import (
    CORNER_CLASSES,
    MINI_JOIN_SCHEDULE,
    bottom_left_refpoint,
    classify_tiles,
    corner_class,
    twolayer_partition_join,
)

__all__ = [
    "CORNER_CLASSES",
    "DEDUP_MODES",
    "EXECUTORS",
    "MINI_JOIN_SCHEDULE",
    "PARALLEL_DEDUP_MODES",
    "PBSM",
    "ParallelPBSM",
    "TILE_MAPPINGS",
    "TileGrid",
    "bottom_left_refpoint",
    "classify_tiles",
    "choose_split",
    "compose_region_test",
    "corner_class",
    "estimate_partitions",
    "lpt_schedule",
    "partition_csr",
    "partition_relation",
    "pbsm_join",
    "reset_clamp_warnings",
    "sort_based_dedup",
    "split_partition",
    "twolayer_partition_join",
]
