"""Size Separation Spatial Join (S3J) and the paper's replication variant."""

from repro.s3j.join import S3J
from repro.s3j.levelfile import (
    build_level_files,
    record_bytes_for_level,
    sort_level_files,
)
from repro.s3j.levels import assign_original, assign_replicated
from repro.s3j.scan import CellPartition, ScanStats, partition_stream, scan_pairs

__all__ = [
    "CellPartition",
    "S3J",
    "ScanStats",
    "assign_original",
    "assign_replicated",
    "build_level_files",
    "partition_stream",
    "record_bytes_for_level",
    "scan_pairs",
    "sort_level_files",
]
