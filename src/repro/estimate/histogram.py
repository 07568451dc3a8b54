"""Grid histograms and spatial-join selectivity estimation.

Section 3.2.3: "computing the number of partitions is generally difficult
when the input relations do not refer to base relations of the underlying
DBMS.  Then, the DBMS has to provide statistics about the intermediate
results of operators."  This module supplies such statistics: a compact
grid histogram per relation (record count and average edge lengths per
cell) and two estimators on it, the expected join result count and the
expected pair detections on a tile grid.  The planner prices its
candidates with both.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

import numpy as np

from repro.core.space import Space


class GridHistogram:
    """Per-cell record counts and mean edge lengths over a fixed grid."""

    __slots__ = ("space", "resolution", "counts", "sum_w", "sum_h", "n")

    def __init__(self, space: Space, resolution: int = 32):
        if resolution < 1:
            raise ValueError("resolution must be >= 1")
        self.space = space
        self.resolution = resolution
        cells = resolution * resolution
        self.counts = [0.0] * cells
        self.sum_w = [0.0] * cells
        self.sum_h = [0.0] * cells
        self.n = 0

    @classmethod
    def build(
        cls,
        kpes: Sequence[Tuple],
        space: Optional[Space] = None,
        resolution: int = 32,
    ) -> "GridHistogram":
        """Histogram a relation by rectangle centre points.

        A relation that carries ``.columnar`` is binned array-wise: one
        centre-cell index, then ``np.bincount``, which accumulates in row
        order exactly as the loop below does — the cell lists come out
        bit-identical.
        """
        hist = cls(space if space is not None else Space.of(kpes), resolution)
        res = hist.resolution
        cols = getattr(kpes, "columnar", None)
        if cols is not None:
            sp = hist.space

            def axis_cells(lo: Any, hi: Any, origin: float, extent: float) -> Any:
                # Clipping the scaled float before the cast equals the
                # loop's min/max around int(): both truncate toward zero.
                scaled = ((lo + hi) / 2.0 - origin) / extent * res
                return np.clip(scaled, 0, res - 1).astype(np.int64)

            cell = axis_cells(cols.yl, cols.yh, sp.yl, sp.height) * res + axis_cells(
                cols.xl, cols.xh, sp.xl, sp.width
            )
            cells = res * res
            hist.counts = np.bincount(cell, minlength=cells).astype(np.float64).tolist()
            hist.sum_w = np.bincount(cell, cols.xh - cols.xl, cells).tolist()
            hist.sum_h = np.bincount(cell, cols.yh - cols.yl, cells).tolist()
            hist.n = len(cols)
            return hist
        for k in kpes:
            cx = (k[1] + k[3]) / 2.0
            cy = (k[2] + k[4]) / 2.0
            ix = min(res - 1, max(0, int(hist.space.norm_x(cx) * res)))
            iy = min(res - 1, max(0, int(hist.space.norm_y(cy) * res)))
            cell = iy * res + ix
            hist.counts[cell] += 1
            hist.sum_w[cell] += k[3] - k[1]
            hist.sum_h[cell] += k[4] - k[2]
            hist.n += 1
        return hist

    # ------------------------------------------------------------------
    def cell_area(self) -> float:
        return (self.space.width / self.resolution) * (
            self.space.height / self.resolution
        )

    def mean_edges(self, cell: int) -> Tuple[float, float]:
        count = self.counts[cell]
        if count == 0:
            return 0.0, 0.0
        return self.sum_w[cell] / count, self.sum_h[cell] / count

    # ------------------------------------------------------------------
    # estimators
    # ------------------------------------------------------------------
    def estimate_join_results(self, other: "GridHistogram") -> float:
        """Expected number of intersecting pairs against *other*.

        Assumes matching grids (same space, same resolution).  Within a
        cell of area A, two uniformly placed rectangles with mean edges
        (w1, h1) / (w2, h2) intersect with probability
        ``min(1, (w1 + w2) * (h1 + h2) / A)`` — the classic Minkowski-sum
        argument.  Cross-cell pairs are approximated by each rectangle's
        overhang being folded into its own cell, which keeps the estimator
        a sum over cells.
        """
        if (
            other.space != self.space
            or other.resolution != self.resolution
        ):
            raise ValueError("histograms must share space and resolution")
        area = self.cell_area()
        if area <= 0:
            return 0.0
        expected = 0.0
        for cell in range(self.resolution * self.resolution):
            n1 = self.counts[cell]
            n2 = other.counts[cell]
            if n1 == 0 or n2 == 0:
                continue
            w1, h1 = self.mean_edges(cell)
            w2, h2 = other.mean_edges(cell)
            probability = min(1.0, (w1 + w2) * (h1 + h2) / area)
            expected += n1 * n2 * probability
        return expected

    def estimate_detected_pairs(
        self, other: "GridHistogram", tiles: int
    ) -> float:
        """Expected pair *detections* on a ``tiles`` x ``tiles`` grid.

        A pair replicated onto a tile grid is detected once per tile
        holding copies of both rectangles — every tile the pair's
        overlap region touches.  Two intervals of lengths a and b that
        do intersect overlap by roughly their harmonic mean
        ``a*b/(a+b)``, so each cell's expected pairs are scaled by
        ``(1 + ov_w/tile_w)(1 + ov_h/tile_h)``.  On heavy-tailed extent
        distributions this grows far beyond the result count: the
        difference is the duplicate volume RPM (or sort dedup) must
        remove, which a planner has to price.
        """
        if (
            other.space != self.space
            or other.resolution != self.resolution
        ):
            raise ValueError("histograms must share space and resolution")
        area = self.cell_area()
        if area <= 0 or tiles < 1:
            return 0.0
        tile_w = self.space.width / tiles
        tile_h = self.space.height / tiles
        expected = 0.0
        for cell in range(self.resolution * self.resolution):
            n1 = self.counts[cell]
            n2 = other.counts[cell]
            if n1 == 0 or n2 == 0:
                continue
            w1, h1 = self.mean_edges(cell)
            w2, h2 = other.mean_edges(cell)
            probability = min(1.0, (w1 + w2) * (h1 + h2) / area)
            ov_w = w1 * w2 / (w1 + w2) if w1 + w2 > 0 else 0.0
            ov_h = h1 * h2 / (h1 + h2) if h1 + h2 > 0 else 0.0
            copies = (1.0 + ov_w / tile_w) * (1.0 + ov_h / tile_h)
            expected += n1 * n2 * probability * copies
        return expected
