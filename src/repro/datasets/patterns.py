"""Additional synthetic spatial patterns beyond the TIGER-like polylines.

These generators model other data shapes a spatial-join user meets:
Manhattan-style street grids (extremely thin axis-parallel rectangles —
the best case for size separation), radial cities (density decaying from
a centre — heavy skew for PBSM's tiles), and mixed-scale workloads
(a few huge objects over many small ones — the worst case for the
original S3J level assignment).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.rect import KPE


def manhattan_grid(
    n: int,
    seed: int,
    *,
    blocks: int = 24,
    jitter: float = 0.002,
    thickness: float = 5e-4,
    start_oid: int = 0,
) -> List[KPE]:
    """Axis-parallel street segments on a jittered grid.

    Every rectangle is a thin horizontal or vertical sliver spanning one
    block — the extreme of the thin-elongated regime.
    """
    if n <= 0:
        return []
    rng = np.random.default_rng(seed)
    kpes: List[KPE] = []
    oid = start_oid
    step = 1.0 / blocks
    while len(kpes) < n:
        horizontal = rng.random() < 0.5
        line = rng.integers(0, blocks + 1) * step + rng.normal(0.0, jitter)
        block = rng.integers(0, blocks)
        lo = block * step + rng.normal(0.0, jitter)
        hi = lo + step
        line = float(min(1.0, max(0.0, line)))
        lo = float(min(1.0, max(0.0, lo)))
        hi = float(min(1.0, max(0.0, hi)))
        if lo > hi:
            lo, hi = hi, lo
        half = thickness / 2.0
        if horizontal:
            kpes.append(
                KPE(oid, lo, max(0.0, line - half), hi, min(1.0, line + half))
            )
        else:
            kpes.append(
                KPE(oid, max(0.0, line - half), lo, min(1.0, line + half), hi)
            )
        oid += 1
    return kpes[:n]


def radial_city(
    n: int,
    seed: int,
    *,
    centre=(0.5, 0.5),
    decay: float = 6.0,
    mean_edge: float = 0.004,
    start_oid: int = 0,
) -> List[KPE]:
    """Density decaying exponentially with distance from a city centre."""
    if n <= 0:
        return []
    rng = np.random.default_rng(seed)
    radius = rng.exponential(1.0 / decay, n)
    angle = rng.uniform(0.0, 2 * np.pi, n)
    x = np.clip(centre[0] + radius * np.cos(angle), 0.0, 1.0)
    y = np.clip(centre[1] + radius * np.sin(angle), 0.0, 1.0)
    w = rng.exponential(mean_edge, n)
    h = rng.exponential(mean_edge, n)
    xl = np.clip(x - w / 2, 0.0, 1.0)
    yl = np.clip(y - h / 2, 0.0, 1.0)
    xh = np.clip(x + w / 2, 0.0, 1.0)
    yh = np.clip(y + h / 2, 0.0, 1.0)
    return [
        KPE(start_oid + i, float(a), float(b), float(c), float(d))
        for i, (a, b, c, d) in enumerate(zip(xl, yl, xh, yh))
    ]


def mixed_scale(
    n: int,
    seed: int,
    *,
    large_fraction: float = 0.02,
    large_edge: float = 0.3,
    small_edge: float = 0.003,
    start_oid: int = 0,
) -> List[KPE]:
    """A few region-sized objects over many tiny ones.

    The regime where original S3J's MX-CIF assignment collapses: the
    large objects legitimately sit at low levels, and every small object
    straddling a major boundary joins them there.
    """
    if n <= 0:
        return []
    rng = np.random.default_rng(seed)
    is_large = rng.random(n) < large_fraction
    edges_w = np.where(
        is_large,
        rng.uniform(large_edge / 2, large_edge, n),
        rng.exponential(small_edge, n),
    )
    edges_h = np.where(
        is_large,
        rng.uniform(large_edge / 2, large_edge, n),
        rng.exponential(small_edge, n),
    )
    x = rng.random(n)
    y = rng.random(n)
    xl = np.clip(x - edges_w / 2, 0.0, 1.0)
    yl = np.clip(y - edges_h / 2, 0.0, 1.0)
    xh = np.clip(x + edges_w / 2, 0.0, 1.0)
    yh = np.clip(y + edges_h / 2, 0.0, 1.0)
    return [
        KPE(start_oid + i, float(a), float(b), float(c), float(d))
        for i, (a, b, c, d) in enumerate(zip(xl, yl, xh, yh))
    ]
