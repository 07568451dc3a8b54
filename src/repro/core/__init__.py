"""Core geometry and bookkeeping primitives shared by every join algorithm.

The module deliberately keeps the record representation primitive: a
key-pointer element (KPE) is a named tuple ``(oid, xl, yl, xh, yh)`` so the
hot loops of the join algorithms can use positional indexing while user-facing
code reads named fields.  This mirrors the paper's model (Section 2) where a
KPE consists of an object identifier and its minimum bounding rectangle.
"""

from repro.core.rect import (
    KPE,
    OID,
    XL,
    YL,
    XH,
    YH,
    area,
    intersection,
    intersects,
    make_kpe,
    mbr_of,
    rect_contains_point,
    valid_kpe,
)
from repro.core.phases import (
    ALL_PHASES,
    PHASE_BUILD,
    PHASE_DEDUP,
    PHASE_JOIN,
    PHASE_PARTITION,
    PHASE_REPARTITION,
    PHASE_SORT,
)
from repro.core.refpoint import reference_point
from repro.core.space import Space
from repro.core.stats import CpuCounters
from repro.core.report import format_stats, stats_to_dict
from repro.core.result import JoinResult, JoinStats

__all__ = [
    "KPE",
    "OID",
    "XL",
    "YL",
    "XH",
    "YH",
    "ALL_PHASES",
    "PHASE_BUILD",
    "PHASE_DEDUP",
    "PHASE_JOIN",
    "PHASE_PARTITION",
    "PHASE_REPARTITION",
    "PHASE_SORT",
    "CpuCounters",
    "JoinResult",
    "JoinStats",
    "Space",
    "area",
    "format_stats",
    "intersection",
    "intersects",
    "make_kpe",
    "mbr_of",
    "rect_contains_point",
    "reference_point",
    "stats_to_dict",
    "valid_kpe",
]
