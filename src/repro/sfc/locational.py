"""Locational codes, MX-CIF levels, and size-separation levels.

This module holds all of S3J's grid mathematics:

* the hierarchy of equidistant grids: level ``k`` subdivides the data space
  into ``2^k x 2^k`` cells (``4^k`` nodes of the MX-CIF quadtree);
* the **original level function** of [KS 97]: a rectangle belongs to the
  deepest level at which a single cell covers it (its MX-CIF node);
* the paper's **size-separation level function** (Section 4.3):
  ``level(r) = max{k | xh-xl <= 2^-k  and  yh-yl <= 2^-k}``, after which the
  rectangle is replicated into every cell of that level it overlaps — at
  most four copies;
* locational codes: the index of a cell along a space-filling curve, 2 bits
  per level, used as the sort key of the level files.  Codes computed with
  either curve are *hierarchical*: the code of an ancestor cell is a prefix
  of the code of its descendants (shifted by two bits per level), which is
  what the synchronized scan's ancestor tests rely on.

Point membership uses half-open cells (a point on a shared edge belongs to
the higher-index cell, clamped at the far border of the space), so every
point owns exactly one cell per level — the property the Reference Point
Method requires.  Cell *overlap* enumeration is consistent with that point
map: a cell is listed for a rectangle iff some point of the rectangle maps
to it.
"""

from __future__ import annotations

import math
from typing import Callable, List, Tuple

from repro.core.space import Space, clamped_cell
from repro.sfc.hilbert import hilbert_decode, hilbert_encode
from repro.sfc.zorder import z_decode, z_encode

#: Default deepest grid level (2^10 x 2^10 cells), matching the resolution
#: regimes of the paper's TIGER data.
DEFAULT_MAX_LEVEL = 10

#: Curve registry: name -> encoder(ix, iy, bits).
CURVES: dict = {
    "peano": z_encode,
    "z": z_encode,
    "morton": z_encode,
    "hilbert": hilbert_encode,
}


#: Curve registry: name -> decoder(code, bits).
CURVE_DECODERS: dict = {
    "peano": z_decode,
    "z": z_decode,
    "morton": z_decode,
    "hilbert": hilbert_decode,
}


def curve_encoder(name: str) -> Callable[[int, int, int], int]:
    """Look up a locational-code encoder by curve name."""
    try:
        return CURVES[name]
    except KeyError:
        raise ValueError(
            f"unknown space-filling curve {name!r}; choose from {sorted(CURVES)}"
        ) from None


def curve_decoder(name: str) -> Callable[[int, int], Tuple[int, int]]:
    """Look up the matching locational-code decoder by curve name."""
    try:
        return CURVE_DECODERS[name]
    except KeyError:
        raise ValueError(
            f"unknown space-filling curve {name!r}; choose from "
            f"{sorted(CURVE_DECODERS)}"
        ) from None


def point_cell(space: Space, x: float, y: float, level: int) -> Tuple[int, int]:
    """The unique cell of the level-*level* grid owning point ``(x, y)``.

    Cells are half-open; points on the far border of the space are clamped
    into the last cell so the map stays total on the closed space, and an
    infinite coordinate (or the NaN it normalises to in an unbounded
    space) gets a border cell (:func:`~repro.core.space.clamped_cell`).
    """
    n = 1 << level
    return clamped_cell(space.norm_x(x) * n, n), clamped_cell(space.norm_y(y) * n, n)


def mxcif_level(space: Space, kpe: Tuple, max_level: int) -> int:
    """Original S3J level: the deepest grid whose single cell covers *kpe*.

    Computed via the common-prefix trick the paper describes: the level is
    the number of leading bit pairs shared by the locational coordinates of
    the lower-left and upper-right corners.
    """
    ixl, iyl = point_cell(space, kpe[1], kpe[2], max_level)
    ixh, iyh = point_cell(space, kpe[3], kpe[4], max_level)
    level_x = max_level - (ixl ^ ixh).bit_length()
    level_y = max_level - (iyl ^ iyh).bit_length()
    level = level_x if level_x < level_y else level_y
    return level if level > 0 else 0


def size_level(space: Space, kpe: Tuple, max_level: int) -> int:
    """Size-separation level of the paper's replication strategy.

    ``max{k | width <= 2^-k and height <= 2^-k}`` on space-normalised edge
    lengths, clamped to ``[0, max_level]``.  Degenerate (zero-extent) edges
    behave like arbitrarily small ones.
    """
    w = space.norm_x(kpe[3]) - space.norm_x(kpe[1])
    h = space.norm_y(kpe[4]) - space.norm_y(kpe[2])
    return min(_max_fitting_level(w, max_level), _max_fitting_level(h, max_level))


def _max_fitting_level(extent: float, max_level: int) -> int:
    """Largest k with ``extent <= 2^-k`` (clamped to ``[0, max_level]``)."""
    if extent <= 0.0:
        return max_level
    if extent >= 1.0:
        return 0
    mantissa, exponent = math.frexp(extent)  # extent = mantissa * 2**exponent
    level = 1 - exponent if mantissa == 0.5 else -exponent
    if level < 0:
        return 0
    return min(level, max_level)


def cells_for_rect(space: Space, kpe: Tuple, level: int) -> List[Tuple[int, int]]:
    """All level-*level* cells some point of *kpe* maps to.

    For a rectangle at its size-separation level this is at most a 2x2
    block — the paper's "replicated at most four times" bound.
    """
    ixl, iyl = point_cell(space, kpe[1], kpe[2], level)
    ixh, iyh = point_cell(space, kpe[3], kpe[4], level)
    return [
        (ix, iy)
        for iy in range(iyl, iyh + 1)
        for ix in range(ixl, ixh + 1)
    ]


def cell_of_rect(space: Space, kpe: Tuple, level: int) -> Tuple[int, int]:
    """The single covering cell of *kpe* at its MX-CIF level.

    Callers must pass ``level = mxcif_level(...)``; the lower-left corner's
    cell is then guaranteed to cover the whole rectangle.
    """
    return point_cell(space, kpe[1], kpe[2], level)


def preorder_key(code: int, level: int, max_level: int) -> int:
    """Sort key realising a pre-order traversal of the cell hierarchy.

    Left-aligning every code to ``2 * max_level`` bits makes an ancestor
    sort immediately before its first descendant, which is the order the
    synchronized scan of the level files consumes.
    """
    return code << (2 * (max_level - level))


def is_ancestor_code(
    code_shallow: int, level_shallow: int, code_deep: int, level_deep: int
) -> bool:
    """True iff the shallow cell is an ancestor of (or equal to) the deep one."""
    if level_shallow > level_deep:
        return False
    return (code_deep >> (2 * (level_deep - level_shallow))) == code_shallow
