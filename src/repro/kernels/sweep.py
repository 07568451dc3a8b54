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

Each pass is fully array-shaped: one ``searchsorted`` pair delivers every
anchor's candidate window, a repeat/arange expansion materialises the
candidate index pairs, and one boolean mask applies the y-overlap test.
Candidate expansion is chunked (``batch_candidates``) so memory stays
bounded on dense inputs.

On large inputs the x-sorted scan alone generates every *x*-overlapping
pair as a candidate, which is quadratic in the active-set size.  The
kernel therefore stripes the y-axis first — the paper's own partitioning
idea applied inside a partition: records are replicated into every y
stripe they overlap, each stripe runs the (now much smaller) forward
scan, and a reference-point rule keeps a pair only in the first stripe
both rectangles overlap (``max`` of their bottom stripes), so results
stay exact and duplicate-free.  Striping changes the order in which
pairs are produced (stripe-major), never the set.  The kernel charges
batch-level ``batch_ops`` only.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.core.stats import CpuCounters
from repro.io.extsort import BY_XL
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
    anchor_yl: Any,
    anchor_yh: Any,
    probe_yl: Any,
    probe_yh: Any,
    lo: Any,
    hi: Any,
    counters: CpuCounters,
    batch_candidates: int,
    swap: bool,
    anchor_slo: Optional[Any] = None,
    probe_slo: Optional[Any] = None,
    stripe: int = -1,
) -> Iterator[Tuple]:
    """Yield ``(anchor_idx, probe_idx)`` pairs of one pass, in batches.

    ``lo``/``hi`` bound each anchor's candidate window in the probe
    columns; ``swap`` reports pairs as ``(probe, anchor)`` so pass 2 can
    keep the (left, right) orientation of the join.  When ``stripe`` is
    given, only pairs owned by that y stripe (the first stripe both
    rectangles overlap) survive the mask.
    """
    counts = hi - lo
    csum = np.cumsum(counts)
    total = int(csum[-1]) if counts.size else 0
    if total == 0:
        return
    n_anchors = counts.shape[0]
    arange = np.arange
    repeat = np.repeat
    per_candidate = BATCH_OPS_PER_CANDIDATE + (2 if stripe >= 0 else 0)
    start = 0
    base = 0
    while start < n_anchors:
        stop = int(np.searchsorted(csum, base + batch_candidates, side="right"))
        stop = min(max(stop, start + 1), n_anchors)
        lo_c = lo[start:stop]
        counts_c = counts[start:stop]
        chunk_total = int(csum[stop - 1]) - base
        base = int(csum[stop - 1])
        start_prev, start = start, stop
        if chunk_total == 0:
            continue
        offsets = np.cumsum(counts_c) - counts_c
        # Flat probe positions: one arange plus a single fused repeat.
        flat = arange(chunk_total) + repeat(lo_c - offsets, counts_c)
        # Anchor-side values expand with repeat (contiguous reads);
        # probe-side values gather through ``flat``.
        mask = (probe_yl[flat] <= repeat(anchor_yh[start_prev:stop], counts_c)) & (
            repeat(anchor_yl[start_prev:stop], counts_c) <= probe_yh[flat]
        )
        if stripe >= 0:
            mask &= (
                np.maximum(
                    repeat(anchor_slo[start_prev:stop], counts_c),
                    probe_slo[flat],
                )
                == stripe
            )
        counters.batch_ops += per_candidate * chunk_total
        anchor_hit = repeat(arange(start_prev, stop), counts_c)[mask]
        probe_hit = flat[mask]
        if anchor_hit.size:
            yield (probe_hit, anchor_hit) if swap else (anchor_hit, probe_hit)


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
    searchsorted = np.searchsorted
    for s in range(k):
        a_lo, a_hi = a_bounds[s], a_bounds[s + 1]
        b_lo, b_hi = b_bounds[s], b_bounds[s + 1]
        if a_lo == a_hi or b_lo == b_hi:
            continue
        a_xl, a_xh, a_yl, a_yh, a_s = (col[a_lo:a_hi] for col in a_cols)
        b_xl, b_xh, b_yl, b_yh, b_s = (col[b_lo:b_hi] for col in b_cols)
        ai = a_orig[a_lo:a_hi]
        bi = b_orig[b_lo:b_hi]
        counters.batch_ops += 8 * ((a_hi - a_lo) + (b_hi - b_lo))
        lo = searchsorted(b_xl, a_xl, side="left")
        hi = searchsorted(b_xl, a_xh, side="right")
        for a_hit, b_hit in _pass_batches(
            a_yl, a_yh, b_yl, b_yh, lo, hi, counters, batch_candidates,
            False, a_s, b_s, s,
        ):
            yield ai[a_hit], bi[b_hit]
        lo = searchsorted(a_xl, b_xl, side="right")
        hi = searchsorted(a_xl, b_xh, side="right")
        for a_hit, b_hit in _pass_batches(
            b_yl, b_yh, a_yl, a_yh, lo, hi, counters, batch_candidates,
            True, b_s, a_s, s,
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
    # Unstriped: pass 1 anchors in a; probes s with s.xl in [r.xl, r.xh].
    lo = np.searchsorted(b.xl, a.xl, side="left")
    hi = np.searchsorted(b.xl, a.xh, side="right")
    counters.batch_ops += 2 * a.n + 2 * b.n  # the four searchsorted sweeps
    yield from _pass_batches(
        a.yl, a.yh, b.yl, b.yh, lo, hi, counters, batch_candidates, False
    )
    # Pass 2: anchors in b; probes r with r.xl in (s.xl, s.xh].
    lo = np.searchsorted(a.xl, b.xl, side="right")
    hi = np.searchsorted(a.xl, b.xh, side="right")
    yield from _pass_batches(
        b.yl, b.yh, a.yl, a.yh, lo, hi, counters, batch_candidates, True
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
    "BY_XL",
    "DEFAULT_BATCH_CANDIDATES",
    "forward_scan_batches",
    "sweep_numpy_join",
]
