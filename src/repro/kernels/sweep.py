"""Vectorized forward-scan plane sweep over columnar relations.

The kernel is the batched formulation of the forward-scan sweep that
*Parallel In-Memory Evaluation of Spatial Joins* (Tsitsigkos et al.)
identifies as the fastest in-memory algorithm: with both inputs sorted by
``xl``, every x-overlapping pair ``(r, s)`` is found exactly once by two
symmetric passes —

* pass 1 anchors on ``r`` and takes every ``s`` whose left edge starts
  inside ``[r.xl, r.xh]``;
* pass 2 anchors on ``s`` and takes every ``r`` whose left edge starts
  inside ``(s.xl, s.xh]`` (strict on the left so ties are not reported
  twice).

Both passes run as one scan over the rows ``[a; b]``: ``searchsorted``
gives every row's candidate window (pass 1's into b's rows, pass 2's
into a's), one repeat/arange expansion materialises the candidate probe
rows, and one mask applies the y test.  Hits are kept by position
(``flatnonzero``), each hit's anchor found by a search over the window
ends, so no candidate-length array is boolean-indexed.  Expansion is
chunked (``batch_candidates``) so memory stays bounded on dense inputs.

On large inputs the x-sorted scan alone generates every *x*-overlapping
pair as a candidate, which is quadratic in the active-set size.  The
kernel therefore stripes the y-axis first — the paper's own partitioning
idea applied inside a partition: records are replicated into every y
stripe they overlap, each stripe runs the (now much smaller) scan, and a
reference-point rule keeps a pair only in the first stripe both
rectangles overlap: the stripe that is either rectangle's bottom stripe
(both overlap it, so neither bottom stripe lies above it).  Results stay
exact and duplicate-free; striping changes the order in which pairs are
produced (stripe-major, pass 1 before pass 2), never the set.  The
kernel charges batch-level ``batch_ops`` only.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.core.stats import CpuCounters
from repro.kernels.columnar import ColumnarRelation, xl_order

#: Maximum candidate pairs expanded per batch (bounds peak memory: five
#: int64/float64 scratch arrays of this length, ~160 MB at the default).
DEFAULT_BATCH_CANDIDATES = 1 << 22

#: Elementwise array operations charged per candidate pair (window
#: expansion, two y comparisons, mask combine).
BATCH_OPS_PER_CANDIDATE = 4

#: Below this many total records striping cannot pay for its layout work.
STRIPE_MIN_RECORDS = 4096

#: Target records per stripe and the stripe-count ceiling.
STRIPE_RECORDS = 512
STRIPE_MAX = 1024

#: Stripe count is capped at ``y_span / (REPLICATION_EDGES * mean_height)``
#: so the expected replication factor stays below 1 + 1/REPLICATION_EDGES.
REPLICATION_EDGES = 4.0


def _charge_batch_sort(counters: CpuCounters, n: int) -> None:
    """Charge one vectorized ``argsort`` as batch-level operations."""
    if n > 1:
        counters.batch_ops += n * max(1, math.ceil(math.log2(n)))


def clamped_index(scaled: Any, n: int) -> Any:
    """Float positions *scaled* as int64 cell indices clamped into ``[0, n)``.

    Clamped in float, then cast: the same index as cast-then-clip for
    every castable value (a negative fraction truncates to 0 either way),
    but defined where that cast is not (and warns) — a NaN is dropped by
    ``fmax`` (cell 0), an infinity or a value beyond int64 hits a border.
    """
    clamped = np.fmax(scaled, 0.0)
    np.fmin(clamped, n - 1, out=clamped)
    return clamped.astype(np.int64)


# ----------------------------------------------------------------------
# the kernel proper
# ----------------------------------------------------------------------
def _pass_batches(
    yl: Any, yh: Any, lo: Any, hi: Any, counters: CpuCounters,
    batch_candidates: int, own: Optional[Any] = None,
) -> Iterator[Tuple]:
    """Yield the ``(anchor, probe)`` row pairs of one scan, in batches.

    Every row anchors the probe rows ``[lo, hi)`` of the same columns; a
    candidate survives the y test and, given ``own``, the stripe's
    ownership rule (either rectangle's bottom stripe is this one).  Hits
    come in anchor order, each anchor's in probe order, and are taken by
    position: no candidate-length array is boolean-indexed.
    """
    counts = hi - lo
    csum = np.cumsum(counts)
    if not counts.size or csum[-1] == 0:
        return
    n_anchors = counts.shape[0]
    repeat = np.repeat
    per_candidate = BATCH_OPS_PER_CANDIDATE + (0 if own is None else 2)
    start = 0
    base = 0
    while start < n_anchors:
        stop = int(np.searchsorted(csum, base + batch_candidates, side="right"))
        stop = min(max(stop, start + 1), n_anchors)
        counts_c = counts[start:stop]
        ends = csum[start:stop] - base  # each anchor's window end, chunk-local
        chunk_total = int(ends[-1])
        base += chunk_total
        start_prev, start = start, stop
        if chunk_total == 0:
            continue
        # Flat probe rows: one fused repeat, then an in-place arange.
        flat = repeat(hi[start_prev:stop] - ends, counts_c)
        flat += np.arange(chunk_total)
        # Anchor-side values expand with repeat (contiguous reads);
        # probe-side values gather through ``flat``.
        mask = (yl[flat] <= repeat(yh[start_prev:stop], counts_c)) & (
            repeat(yl[start_prev:stop], counts_c) <= yh[flat]
        )
        if own is not None:
            mask &= repeat(own[start_prev:stop], counts_c) | own[flat]
        counters.batch_ops += per_candidate * chunk_total
        hit = np.flatnonzero(mask)
        if hit.size:  # a hit's anchor: the first window ending past it
            yield np.searchsorted(ends, hit, side="right") + start_prev, flat[hit]


def _both_passes(
    a_cols: Sequence[Any], b_cols: Sequence[Any], counters: CpuCounters,
    batch_candidates: int, stripe: int = -1,
) -> Iterator[Tuple]:
    """Pass 1 then pass 2 of one stripe (or unstriped leaf), one expansion.

    ``a_cols``/``b_cols`` are ``(xl, xh, yl, yh, bottom_stripe)``.  The
    scan runs over the rows ``[a; b]``: pass 1's anchors are a's rows and
    its windows index b's (offset by ``len(a)``), pass 2's anchors are
    b's rows and its windows index a's.  Yields ``(a_row, b_row)``
    batches, side-local, with every pass-1 pair ahead of pass 2's.
    """
    a_xl, a_xh, a_yl, a_yh, a_slo = a_cols
    b_xl, b_xh, b_yl, b_yh, b_slo = b_cols
    n_a, n_b = a_xl.shape[0], b_xl.shape[0]
    searchsorted = np.searchsorted
    # Pass 1 probes s with s.xl in [r.xl, r.xh]; pass 2 probes r with
    # r.xl in (s.xl, s.xh] -- both ends side="right", so one call.
    ends_2 = searchsorted(a_xl, np.concatenate((b_xl, b_xh)), side="right")
    lo = np.concatenate((searchsorted(b_xl, a_xl, side="left") + n_a, ends_2[:n_b]))
    hi = np.concatenate((searchsorted(b_xl, a_xh, side="right") + n_a, ends_2[n_b:]))
    own = None if stripe < 0 else np.concatenate((a_slo, b_slo)) == stripe
    for anchor, probe in _pass_batches(
        np.concatenate((a_yl, b_yl)), np.concatenate((a_yh, b_yh)), lo, hi,
        counters, batch_candidates, own,
    ):
        # Anchors run in row order: the batch splits at its first b anchor.
        cut = int(searchsorted(anchor, n_a))
        probe[:cut] -= n_a
        anchor[cut:] -= n_a
        if cut:
            yield anchor[:cut], probe[:cut]
        if cut < anchor.shape[0]:
            yield probe[cut:], anchor[cut:]


def _stripe_count(a: ColumnarRelation, b: ColumnarRelation, span: float) -> int:
    """How many y stripes to use (1 = no striping).

    Bounded three ways: enough records per stripe to amortise the
    per-stripe setup, a hard ceiling, and a replication cap so records
    spanning many stripes do not blow up the working set.
    """
    n = a.n + b.n
    if n < STRIPE_MIN_RECORDS or not 0.0 < span < math.inf:
        return 1  # (an infinite or NaN extent has no stripe height)
    height_sum = float((a.yh - a.yl).sum() + (b.yh - b.yl).sum())
    mean_height = height_sum / n
    k = n // STRIPE_RECORDS
    if mean_height > 0.0:
        k = min(k, int(span / (REPLICATION_EDGES * mean_height)))
    return max(1, min(k, STRIPE_MAX))


def _stripe_layout(
    rel: ColumnarRelation, ylo: float, inv_height: float, k: int,
    counters: CpuCounters,
) -> Tuple:
    """Replicate *rel* into its overlapping y stripes.

    Returns ``(orig, bounds, slo)``: ``orig[bounds[s]:bounds[s+1]]`` are
    the indices (into *rel*, xl order preserved) of stripe ``s``'s
    records, and ``slo`` is each record's bottom stripe — the ownership
    key of the reference-point rule.
    """
    with np.errstate(invalid="ignore"):  # 0 * inf: a span next to zero
        slo = clamped_index((rel.yl - ylo) * inv_height, k)
        shi = clamped_index((rel.yh - ylo) * inv_height, k)
    counts = shi - slo + 1
    total = int(counts.sum())
    orig = np.repeat(np.arange(rel.n), counts)
    offsets = np.cumsum(counts) - counts
    # int16 (k <= STRIPE_MAX): numpy's stable sort of 16-bit keys is a
    # radix sort, an order of magnitude quicker than on int64.
    stripe = (np.arange(total) - np.repeat(offsets - slo, counts)).astype(np.int16)
    # Stable sort groups replicas by stripe while preserving xl order
    # inside every stripe — each stripe is forward-scan ready as-is.
    order = np.argsort(stripe, kind="stable")
    bounds = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.bincount(stripe, minlength=k), out=bounds[1:])
    counters.batch_ops += 6 * rel.n + 2 * total
    _charge_batch_sort(counters, total)
    return orig[order], bounds, slo


def _stripe_passes(
    a: ColumnarRelation,
    b: ColumnarRelation,
    k: int,
    ylo: float,
    inv_height: float,
    counters: CpuCounters,
    batch_candidates: int,
) -> Iterator[Tuple]:
    """The striped scan: per stripe, both passes plus the ownership rule.

    Each side's five scan columns are gathered into stripe-major replica
    order once; a stripe's columns are then plain slices (views).
    """
    a_orig, a_bounds, a_slo = _stripe_layout(a, ylo, inv_height, k, counters)
    b_orig, b_bounds, b_slo = _stripe_layout(b, ylo, inv_height, k, counters)
    a_cols = [col[a_orig] for col in (a.xl, a.xh, a.yl, a.yh, a_slo)]
    b_cols = [col[b_orig] for col in (b.xl, b.xh, b.yl, b.yh, b_slo)]
    a_bounds = a_bounds.tolist()
    b_bounds = b_bounds.tolist()
    for s in range(k):
        a_lo, a_hi = a_bounds[s], a_bounds[s + 1]
        b_lo, b_hi = b_bounds[s], b_bounds[s + 1]
        if a_lo == a_hi or b_lo == b_hi:
            continue
        ai, bi = a_orig[a_lo:a_hi], b_orig[b_lo:b_hi]
        counters.batch_ops += 8 * ((a_hi - a_lo) + (b_hi - b_lo))
        for a_hit, b_hit in _both_passes(
            [col[a_lo:a_hi] for col in a_cols],
            [col[b_lo:b_hi] for col in b_cols],
            counters, batch_candidates, s,
        ):
            yield ai[a_hit], bi[b_hit]


def forward_scan_batches(
    a: ColumnarRelation,
    b: ColumnarRelation,
    counters: CpuCounters,
    batch_candidates: int = DEFAULT_BATCH_CANDIDATES,
) -> Iterator[Tuple]:
    """All intersecting pairs of two xl-sorted columnar relations.

    Yields batches of ``(a_idx, b_idx)`` index arrays (positions in the
    *sorted* relations); every intersecting pair appears in exactly one
    batch, exactly once.  Batch order is deterministic but otherwise an
    implementation detail (the striped path emits stripe-major).
    Charges batch-level counters only.
    """
    if not (a.sorted_by_xl and b.sorted_by_xl):
        raise ValueError("forward_scan_batches needs xl-sorted inputs")
    if a.n == 0 or b.n == 0:
        return
    ylo = min(float(a.yl.min()), float(b.yl.min()))
    yhi = max(float(a.yh.max()), float(b.yh.max()))
    span = yhi - ylo
    k = _stripe_count(a, b, span)
    if k > 1:
        yield from _stripe_passes(a, b, k, ylo, k / span, counters, batch_candidates)
        return
    counters.batch_ops += 2 * a.n + 2 * b.n  # the four window searches
    yield from _both_passes(
        (a.xl, a.xh, a.yl, a.yh, None), (b.xl, b.xh, b.yl, b.yh, None),
        counters, batch_candidates,
    )


# ----------------------------------------------------------------------
# registry adapter
# ----------------------------------------------------------------------
def sweep_numpy_join(
    left: Sequence[Tuple],
    right: Sequence[Tuple],
    emit: Callable[[Tuple, Tuple], None],
    counters: CpuCounters,
    batch_candidates: int = DEFAULT_BATCH_CANDIDATES,
) -> None:
    """Internal-algorithm registry entry ``"sweep_numpy"``.

    Same calling convention as every other internal algorithm; detected
    pairs are computed in vectorized batches and only the *results* cross
    back into Python for ``emit``.
    """
    if not left or not right:
        return
    a = ColumnarRelation.from_kpes(left)
    b = ColumnarRelation.from_kpes(right)
    if getattr(left, "sorted_by_xl", False):
        a.sorted_by_xl = True
        left_sorted = list(left)
    else:
        _charge_batch_sort(counters, a.n)
        order = xl_order(a.xl)
        a = a.take(order, sorted_by_xl=True)
        left_sorted = [left[i] for i in order.tolist()]
    if getattr(right, "sorted_by_xl", False):
        b.sorted_by_xl = True
        right_sorted = list(right)
    else:
        _charge_batch_sort(counters, b.n)
        order = xl_order(b.xl)
        b = b.take(order, sorted_by_xl=True)
        right_sorted = [right[i] for i in order.tolist()]
    for a_idx, b_idx in forward_scan_batches(a, b, counters, batch_candidates):
        for i, j in zip(a_idx.tolist(), b_idx.tolist()):
            emit(left_sorted[i], right_sorted[j])


__all__ = [
    "BATCH_OPS_PER_CANDIDATE",
    "DEFAULT_BATCH_CANDIDATES",
    "forward_scan_batches",
    "sweep_numpy_join",
]
