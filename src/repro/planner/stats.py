"""Relation and join profiles: the statistics the planner plans from.

Section 3.2.3 of the paper notes that partition-count planning needs
"statistics about the intermediate results of operators".  This module
derives those statistics once per relation and caches them by *content
fingerprint*, so repeated joins over the same relations skip the
profiling pass entirely (the planner's analogue of a DBMS catalog):

* :class:`RelationProfile` — cardinality, coverage, average extents and a
  density-skew estimate from a coarse :class:`~repro.estimate.GridHistogram`;
* :class:`JoinProfile` — two profiles plus joint-space histograms and the
  Minkowski-sum estimate of the result cardinality (Table 2's selectivity,
  predicted instead of measured).

Every statistic is an array operation over the relation's five columns
(``.columnar``: mapped and columnar inputs are read in place, lists are
converted once by :func:`profile_join`).  The per-record definitions in
:mod:`repro.datasets.stats` are the reference the tests compare against:
histograms, sampled pairs and fingerprints are bit-identical, the float
means differ by summation order only (pairwise against sequential, a few
ulps).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence, Tuple

from repro.core.space import Space
from repro.datasets.stats import density_skew
from repro.estimate import GridHistogram
from repro.kernels.columnar import ColumnarRelation, invalid_row
from repro.obs.trace import KIND_SECTION, NULL_TRACER

#: Histogram resolution used for profiling.  Coarse on purpose: profiling
#: must stay a vanishing fraction of join time (32 x 32 = 1024 cells).
PROFILE_RESOLUTION = 32

#: Records sampled (evenly spaced) for the content fingerprint.
_FINGERPRINT_SAMPLE = 64

#: Records sampled per relation for the pair-sampling selectivity estimate.
_SELECTIVITY_SAMPLE = 512

#: Minimum sampled intersecting pairs before the sample estimate is
#: trusted over the histogram one (below this, sampling noise dominates).
_MIN_SAMPLED_PAIRS = 8


def _strided_columns(cols: ColumnarRelation, size: int) -> ColumnarRelation:
    """Every ``n/size``-th row (at most *size*), as views of the columns."""
    step = max(1, len(cols) // size)
    return cols.take(slice(None, size * step, step))


def relation_fingerprint(kpes: Sequence[Tuple]) -> str:
    """A content key for a relation: cardinality plus a strided sample.

    Hashing every record would make cache lookups as expensive as
    profiling itself; hashing cardinality plus an evenly-spaced sample of
    records (including both ends) distinguishes relations reliably while
    staying O(1)-ish.  Collisions require two relations of identical size
    that agree on all 64 sampled records — accepted for a planning cache,
    where a stale hit costs a suboptimal plan, never a wrong result.

    Mapped relations (``.rcd`` files, :mod:`repro.kernels.mmapstore`)
    carry the fingerprint computed once at build time — returning it
    directly makes repeated opens hit the profile and plan caches
    without touching a single record.
    """
    stored = getattr(kpes, "fingerprint", None)
    if isinstance(stored, str) and stored:
        return stored
    n = len(kpes)
    digest = hashlib.blake2b(digest_size=16)
    digest.update(struct.pack("<q", n))
    if n:
        step = max(1, n // _FINGERPRINT_SAMPLE)
        for index in range(0, n, step):
            k = kpes[index]
            digest.update(struct.pack("<q4d", int(k[0]), k[1], k[2], k[3], k[4]))
        last = kpes[-1]
        digest.update(
            struct.pack("<q4d", int(last[0]), last[1], last[2], last[3], last[4])
        )
    return digest.hexdigest()


def _require_finite(kpes: Sequence[Tuple], side: str) -> None:
    """Reject NaN/±inf coordinates before they reach the cell arithmetic.

    The histogram would bin the record into an arbitrary cell and the
    planner would have no meaningful extent to plan over.
    """
    cols = ColumnarRelation.from_kpes(kpes)
    row = invalid_row(cols, finite=True, ordered=False)
    if row is not None:
        raise ValueError(
            f"{side} relation has a non-finite coordinate at row {row} "
            f"(oid={int(cols.oid[row])}); the planner cannot profile it"
        )


@dataclass(frozen=True)
class RelationProfile:
    """Compact statistics of one relation, the planner's unit of input.

    ``skew`` is the ratio of the densest histogram cell to the mean
    occupied cell (1.0 = perfectly uniform); it feeds the cost model's
    largest-partition correction.
    """

    fingerprint: str
    n: int
    coverage: float
    avg_width: float
    avg_height: float
    #: true mean area E[w*h] — exceeds avg_width*avg_height on
    #: heavy-tailed extent distributions (mixed-scale data), which is
    #: exactly when replication estimates need the difference.
    avg_area: float
    skew: float
    space: Tuple[float, float, float, float]

    @classmethod
    def build(cls, kpes: Sequence[Tuple], fingerprint: Optional[str] = None) -> "RelationProfile":
        """Profile a relation: extent sums, then the density histogram."""
        if fingerprint is None:
            fingerprint = relation_fingerprint(kpes)
        n = len(kpes)
        if n == 0:
            return cls(fingerprint, 0, 0.0, 0.0, 0.0, 0.0, 1.0, (0.0, 0.0, 1.0, 1.0))
        space = Space.of(kpes)
        cols = ColumnarRelation.from_kpes(kpes)
        w = cols.xh - cols.xl
        h = cols.yh - cols.yl
        total_area = float((w * h).sum())
        mbr_area = (space.xh - space.xl) * (space.yh - space.yl)
        hist = GridHistogram.build(kpes, space, PROFILE_RESOLUTION)
        return cls(
            fingerprint=fingerprint,
            n=n,
            coverage=total_area / mbr_area if mbr_area > 0.0 else 0.0,
            avg_width=float(w.sum()) / n,
            avg_height=float(h.sum()) / n,
            avg_area=total_area / n,
            skew=density_skew(hist.counts),
            space=(space.xl, space.yl, space.xh, space.yh),
        )


@dataclass(frozen=True)
class JoinProfile:
    """Statistics of one join: both sides over their *joint* space.

    The histograms are rebuilt over the joint space (profiles alone are
    per-relation and may disagree on extent), which is what
    :meth:`~repro.estimate.GridHistogram.estimate_join_results` requires.
    """

    left: RelationProfile
    right: RelationProfile
    space: Tuple[float, float, float, float]
    est_results: float
    #: wall seconds spent profiling (0.0 when every part was cached)
    profiling_seconds: float = 0.0
    hist_left: GridHistogram = field(repr=False, compare=False, default=None)
    hist_right: GridHistogram = field(repr=False, compare=False, default=None)
    #: intersecting pairs found among the strided samples — the cost
    #: model replays replication per pair on these, which is the only
    #: way to price heavy-tailed extents (means hide the tail).
    sample_pairs: Tuple = field(repr=False, compare=False, default=())

    @property
    def n_left(self) -> int:
        return self.left.n

    @property
    def n_right(self) -> int:
        return self.right.n

    @property
    def est_selectivity(self) -> float:
        denom = self.left.n * self.right.n
        return self.est_results / denom if denom else 0.0


def profile_join(
    left: Sequence[Tuple],
    right: Sequence[Tuple],
    cache: Optional["object"] = None,
    tracer: Optional[Any] = None,
) -> JoinProfile:
    """Build (or fetch from *cache*) the :class:`JoinProfile` of a join.

    ``cache`` is duck-typed (see :class:`repro.planner.cache.PlannerCache`):
    it must offer ``relation_profile(kpes)`` and
    ``joint_histogram(kpes, fingerprint, space)``.  The profiling pass is
    timed by a ``profile`` span on *tracer*; ``profiling_seconds`` is that
    span's wall time.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    with tracer.span("profile", kind=KIND_SECTION) as sp:
        jp_kwargs = _profile_join_inner(left, right, cache)
    return JoinProfile(profiling_seconds=sp.wall_seconds, **jp_kwargs)


def _profile_join_inner(
    left: Sequence[Tuple],
    right: Sequence[Tuple],
    cache: Optional["object"],
) -> dict:
    # Lists are converted here, once; everything below reads the columns.
    left = ColumnarRelation.from_kpes(left)
    right = ColumnarRelation.from_kpes(right)
    _require_finite(left, "left")
    _require_finite(right, "right")

    if cache is not None:
        prof_l = cache.relation_profile(left)
        prof_r = cache.relation_profile(right)
    else:
        prof_l = RelationProfile.build(left)
        prof_r = RelationProfile.build(right)

    space = Space.of(left, right)
    key = (space.xl, space.yl, space.xh, space.yh)
    if cache is not None:
        hist_l = cache.joint_histogram(left, prof_l.fingerprint, key)
        hist_r = cache.joint_histogram(right, prof_r.fingerprint, key)
    else:
        hist_l = GridHistogram.build(left, space, PROFILE_RESOLUTION)
        hist_r = GridHistogram.build(right, space, PROFILE_RESOLUTION)

    # Result cardinality: pair-sampling first, histogram as fallback.
    # The centre-point histogram confines each rectangle to one cell, so
    # on heavy-tailed extents (a few huge rectangles intersecting
    # everything that crosses their span) it undercounts results by an
    # order of magnitude; the sample sees those rectangles directly.
    pairs, tested = _sample_pairs(left, right)
    if len(pairs) >= _MIN_SAMPLED_PAIRS:
        est = len(pairs) * ((prof_l.n * prof_r.n) / tested)
    else:
        est = hist_l.estimate_join_results(hist_r)
    return dict(
        left=prof_l,
        right=prof_r,
        space=key,
        est_results=est,
        hist_left=hist_l,
        hist_right=hist_r,
        sample_pairs=pairs,
    )


def _sample_pairs(
    left: Sequence[Tuple], right: Sequence[Tuple]
) -> Tuple[Tuple[Tuple[Tuple, Tuple], ...], int]:
    """Intersecting ``(r, s)`` pairs among the strided samples, in
    sample order, and the number of sample pairs tested.

    The 512 x 512 tests are one broadcast mask and only the hits are
    paired up as KPE tuples.
    """
    sl = _strided_columns(ColumnarRelation.from_kpes(left), _SELECTIVITY_SAMPLE)
    sr = _strided_columns(ColumnarRelation.from_kpes(right), _SELECTIVITY_SAMPLE)
    hit = (
        (sl.xl[:, None] <= sr.xh)
        & (sr.xl <= sl.xh[:, None])
        & (sl.yl[:, None] <= sr.yh)
        & (sr.yl <= sl.yh[:, None])
    )
    hit_l, hit_r = hit.nonzero()  # row-major: left sample outer, right inner
    rows_l, rows_r = sl.to_kpes(), sr.to_kpes()
    pairs = tuple(
        (rows_l[i], rows_r[j]) for i, j in zip(hit_l.tolist(), hit_r.tolist())
    )
    return pairs, len(sl) * len(sr)
