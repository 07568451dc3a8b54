"""The data space: the bounding box all partitioning schemes subdivide.

Both PBSM's equidistant grid and S3J's hierarchy of grids subdivide a fixed
rectangular data space.  Real datasets are not confined to the unit square
(and the paper's ``(p)`` edge scaling grows rectangles beyond the original
extent), so every partitioner normalises coordinates against a
:class:`Space` computed from the inputs.
"""

from __future__ import annotations

from typing import Iterable, Tuple


class Space:
    """An axis-aligned rectangular data space with coordinate normalisation.

    Point-normalisation maps the space onto the half-open unit square
    ``[0, 1) x [0, 1)`` (values exactly on the far edge are clamped just
    below 1.0 via integer-cell clamping in the callers), which gives every
    point a *unique* owning cell at every grid resolution — the property the
    Reference Point Method needs.
    """

    __slots__ = ("xl", "yl", "xh", "yh", "width", "height")

    def __init__(self, xl: float, yl: float, xh: float, yh: float) -> None:
        if not (xl <= xh and yl <= yh):
            raise ValueError(f"invalid space ({xl}, {yl}, {xh}, {yh})")
        self.xl = xl
        self.yl = yl
        self.xh = xh
        self.yh = yh
        # Degenerate (zero-extent) axes normalise everything to 0.0.
        self.width = (xh - xl) or 1.0
        self.height = (yh - yl) or 1.0

    @classmethod
    def of(cls, *relations: Iterable[Tuple]) -> "Space":
        """The joint MBR of one or more relations of KPEs.

        An all-empty input yields the unit square so downstream grid maths
        stays well defined.  A ``ColumnarRelation`` (an opened ``.rcd``
        file among them) contributes its column minima/maxima instead of
        being iterated tuple by tuple.
        """
        import math

        xl = yl = math.inf
        xh = yh = -math.inf
        seen = False
        for rel in relations:
            cols = getattr(rel, "columnar", None)
            if cols is not None:
                if len(cols):
                    seen = True
                    cxl, cyl, cxh, cyh = cols.extent()
                    xl = min(xl, cxl)
                    yl = min(yl, cyl)
                    xh = max(xh, cxh)
                    yh = max(yh, cyh)
                continue
            for k in rel:
                seen = True
                if k[1] < xl:
                    xl = k[1]
                if k[2] < yl:
                    yl = k[2]
                if k[3] > xh:
                    xh = k[3]
                if k[4] > yh:
                    yh = k[4]
        if not seen:
            return cls(0.0, 0.0, 1.0, 1.0)
        return cls(xl, yl, xh, yh)

    def norm_x(self, x: float) -> float:
        """Normalise an x coordinate into [0, 1] (callers clamp cells)."""
        return (x - self.xl) / self.width

    def norm_y(self, y: float) -> float:
        """Normalise a y coordinate into [0, 1] (callers clamp cells)."""
        return (y - self.yl) / self.height

    def contains(self, x: float, y: float) -> bool:
        """Closed containment of a point in the space."""
        return self.xl <= x <= self.xh and self.yl <= y <= self.yh

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Space({self.xl}, {self.yl}, {self.xh}, {self.yh})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Space):
            return NotImplemented
        return (self.xl, self.yl, self.xh, self.yh) == (
            other.xl,
            other.yl,
            other.xh,
            other.yh,
        )

    def __hash__(self) -> int:
        return hash((self.xl, self.yl, self.xh, self.yh))


def clamped_cell(scaled: float, n: int) -> int:
    """A float position as a cell index in ``[0, n)``: the scalar
    :func:`repro.kernels.sweep.clamped_index`, clamped before the cast.
    A NaN (``inf / inf`` in an unbounded space) lands in cell 0, an
    infinity on the border; every finite position gets the cell that
    cast-then-clip gives it.  The one cell cast of every scalar grid
    (PBSM's tiles, S3J's levels, SHJ's buckets)."""
    if not scaled > 0.0:
        return 0
    if scaled >= n - 1:
        return n - 1
    return int(scaled)
