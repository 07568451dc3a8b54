"""Scalable Sweeping-Based Spatial Join (comparison baseline)."""

from repro.sssj.join import SSSJ

__all__ = ["SSSJ"]
