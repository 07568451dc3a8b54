"""Level assignment for S3J: original MX-CIF vs. size separation.

The **original** assignment [KS 97] puts each rectangle into the single
deepest quadtree cell covering it.  Its weakness (Section 4.2, last
paragraph): a tiny rectangle straddling a high-level cell boundary lands in
a low level-file, where it is tested against all large rectangles of the
other relation although it can contribute almost no results.

The paper's **size-separation** assignment (Section 4.3) keys the level on
the rectangle's edge lengths alone —

    ``level(r) = max{k | xh-xl <= 2^-k  and  yh-yl <= 2^-k}``

— and *replicates* the rectangle into every cell of that level it overlaps,
which is at most four cells.  Duplicate results caused by the replicas are
suppressed online by the hierarchical Reference Point Method in the scan.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence, Tuple

from repro.core.space import Space
from repro.core.stats import CpuCounters
from repro.sfc.locational import (
    cell_of_rect,
    cells_for_rect,
    mxcif_level,
    size_level,
)

#: An assignment entry: (level, code, kpe).
Entry = Tuple[int, int, Tuple]


def assign_original(
    kpes: Sequence[Tuple],
    space: Space,
    max_level: int,
    encoder: Callable[[int, int, int], int],
    counters: CpuCounters,
) -> Iterator[Entry]:
    """Yield one entry per KPE at its MX-CIF level (no redundancy)."""
    codes = 0
    for kpe in kpes:
        level = mxcif_level(space, kpe, max_level)
        if level == 0:
            # Level 0 has a single cell; the paper notes its locational
            # code never needs computing.
            yield (0, 0, kpe)
            continue
        ix, iy = cell_of_rect(space, kpe, level)
        codes += 1
        yield (level, encoder(ix, iy, level), kpe)
    counters.code_computations += codes


def assign_replicated(
    kpes: Sequence[Tuple],
    space: Space,
    max_level: int,
    encoder: Callable[[int, int, int], int],
    counters: CpuCounters,
) -> Iterator[Entry]:
    """Yield up to four entries per KPE at its size-separation level."""
    codes = 0
    for kpe in kpes:
        level = size_level(space, kpe, max_level)
        if level == 0:
            yield (0, 0, kpe)
            continue
        for ix, iy in cells_for_rect(space, kpe, level):
            codes += 1
            yield (level, encoder(ix, iy, level), kpe)
    counters.code_computations += codes


def assign_hybrid(
    kpes: Sequence[Tuple],
    space: Space,
    max_level: int,
    encoder: Callable[[int, int, int], int],
    counters: CpuCounters,
    gap: int = 2,
) -> Iterator[Entry]:
    """A replication strategy between the two extremes (Section 4.3 notes
    several were evaluated; this is the natural "replicate only when it
    pays" member of the family).

    A rectangle keeps its original MX-CIF placement unless that placement
    is more than *gap* levels shallower than its size level — i.e. unless
    boundary straddling (not size) is what pushed it down.  Only those
    boundary victims are replicated, so the overall replication rate is
    much lower than full size separation while the pathological level-0
    population is still removed.
    """
    codes = 0
    for kpe in kpes:
        natural = mxcif_level(space, kpe, max_level)
        by_size = size_level(space, kpe, max_level)
        if by_size - natural <= gap:
            if natural == 0:
                yield (0, 0, kpe)
                continue
            ix, iy = cell_of_rect(space, kpe, natural)
            codes += 1
            yield (natural, encoder(ix, iy, natural), kpe)
        else:
            for ix, iy in cells_for_rect(space, kpe, by_size):
                codes += 1
                yield (by_size, encoder(ix, iy, by_size), kpe)
    counters.code_computations += codes


#: Strategy registry for :class:`repro.s3j.join.S3J`.
ASSIGNMENT_STRATEGIES = {
    "original": assign_original,
    "size": assign_replicated,
    "hybrid": assign_hybrid,
}

