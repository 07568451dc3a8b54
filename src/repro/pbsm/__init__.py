"""Partition Based Spatial-Merge Join (PBSM) and its paper improvements."""

from repro.pbsm.dedup import sort_based_dedup
from repro.pbsm.estimator import estimate_partitions
from repro.pbsm.grid import TILE_MAPPINGS, TileGrid
from repro.pbsm.join import DEDUP_MODES, PBSM, pbsm_join
from repro.pbsm.parallel import (
    EXECUTORS,
    ParallelPBSM,
    lpt_schedule,
    reset_clamp_warnings,
)
from repro.pbsm.partitioner import partition_csr, partition_relation
from repro.pbsm.repartition import choose_split, compose_region_test

__all__ = [
    "DEDUP_MODES",
    "EXECUTORS",
    "PBSM",
    "ParallelPBSM",
    "TILE_MAPPINGS",
    "TileGrid",
    "choose_split",
    "compose_region_test",
    "estimate_partitions",
    "lpt_schedule",
    "partition_csr",
    "partition_relation",
    "pbsm_join",
    "reset_clamp_warnings",
    "sort_based_dedup",
]
