"""Dataset statistics: coverage, edge lengths, skew, summaries.

*Coverage* is Table 1's measure: the sum of rectangle areas divided by the
area of the MBR of all rectangles.  (Table 2's selectivity, result count
over the size of the cross product, is ``JoinStats.selectivity()``.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.core.rect import area, mbr_of


def coverage(kpes: Sequence[Tuple]) -> float:
    """Sum of MBR areas over the area of the global MBR (Table 1)."""
    global_mbr = mbr_of(kpes)
    if global_mbr is None:
        return 0.0
    width = global_mbr[2] - global_mbr[0]
    height = global_mbr[3] - global_mbr[1]
    total_area = width * height
    if total_area <= 0.0:
        return 0.0
    return sum(area(k) for k in kpes) / total_area


def average_edges(kpes: Sequence[Tuple]) -> Tuple[float, float]:
    """Mean rectangle width and height (0.0 for an empty relation)."""
    n = len(kpes)
    if n == 0:
        return 0.0, 0.0
    avg_w = sum(k[3] - k[1] for k in kpes) / n
    avg_h = sum(k[4] - k[2] for k in kpes) / n
    return avg_w, avg_h


def density_skew(cell_counts: Sequence[float]) -> float:
    """Max occupied-cell count over the mean occupied-cell count (>= 1).

    A cheap distribution-skew measure over any spatial binning (grid
    histogram cells, partitions): 1.0 means perfectly even occupancy;
    clustered data pushes it far above 1.  Used by the join planner to
    correct per-partition cost estimates for the largest partition.
    """
    occupied = [c for c in cell_counts if c > 0]
    if not occupied:
        return 1.0
    mean = sum(occupied) / len(occupied)
    if mean <= 0:
        return 1.0
    return max(occupied) / mean


@dataclass(frozen=True)
class DatasetSummary:
    """One row of a Table 1-style dataset inventory."""

    name: str
    n_mbrs: int
    coverage: float
    avg_width: float
    avg_height: float


def summarize(name: str, kpes: Sequence[Tuple]) -> DatasetSummary:
    """Compute the Table 1 row (plus average edge lengths) for a dataset."""
    n = len(kpes)
    if n == 0:
        return DatasetSummary(name, 0, 0.0, 0.0, 0.0)
    avg_w, avg_h = average_edges(kpes)
    return DatasetSummary(name, n, coverage(kpes), avg_w, avg_h)
