"""Spatial Hash Join [LR 96]: replication on one relation only."""

from repro.shj.join import SpatialHashJoin

__all__ = ["SpatialHashJoin"]
