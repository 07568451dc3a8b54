"""Synthetic TIGER-like dataset generators.

The paper's experiments use line MBRs from the TIGER/Line files (railways,
rivers and streets of LA; all streets of California).  Those files are not
redistributable here, so we generate *road-network-like* data with the
properties that drive the algorithms' behaviour (see DESIGN.md §2):

* MBRs of short polyline segments — thin, elongated, axis-leaning boxes;
* strong spatial clustering (city-like hot spots, sparse countryside);
* a controllable **coverage** (sum of rectangle areas over the area of the
  data-space MBR), the quantity Table 1 reports and the knob the paper's
  ``(p)`` scaling experiments turn.

All generators are deterministic in their ``seed``.
"""

from __future__ import annotations

import math
import random
from typing import Any, List, Optional

import numpy as np

from repro.core.rect import KPE


def zipf_rects(
    n: int,
    seed: int,
    *,
    grid: int = 16,
    alpha: float = 1.2,
    mean_edge: float = 0.004,
    start_oid: int = 0,
    tile_seed: Optional[int] = None,
) -> List[KPE]:
    """Rectangles with Zipf-distributed tile occupancy.

    The unit square is cut into ``grid x grid`` tiles; tile *k* (in a
    seed-shuffled order, so the hot tiles land in different places for
    different seeds) receives a share proportional to ``1 / (k+1)**alpha``
    of the *n* rectangles.  With the default ``alpha=1.2`` the hottest
    tile holds an order of magnitude more records than the median one —
    the partition-skew regime that breaks static LPT scheduling.  Edges
    are exponential with mean ``mean_edge``, small against the tile size,
    so skew stays in *placement* rather than in replication.

    ``tile_seed`` pins the tile *ordering* separately from the record
    randomness: two relations generated with different ``seed`` but the
    same ``tile_seed`` put their hot spots in the same places, which is
    what makes their join (not just each input) skewed.
    """
    if n <= 0:
        return []
    rng = random.Random(seed)
    n_tiles = grid * grid
    tiles = list(range(n_tiles))
    random.Random(seed if tile_seed is None else tile_seed).shuffle(tiles)
    weights = [1.0 / float(k + 1) ** alpha for k in range(n_tiles)]
    total = sum(weights)
    cum = 0.0
    out: List[KPE] = []
    produced = 0
    for rank, tile in enumerate(tiles):
        cum += weights[rank]
        target = int(round(n * cum / total))
        quota = target - produced
        if quota <= 0:
            continue
        ty, tx = divmod(tile, grid)
        for _ in range(quota):
            x = (tx + rng.random()) / grid
            y = (ty + rng.random()) / grid
            w = rng.expovariate(1.0 / mean_edge)
            h = rng.expovariate(1.0 / mean_edge)
            out.append(
                KPE(
                    start_oid + produced,
                    max(0.0, x - w / 2.0),
                    max(0.0, y - h / 2.0),
                    min(1.0, x + w / 2.0),
                    min(1.0, y + h / 2.0),
                )
            )
            produced += 1
    return out


def polyline_mbrs(
    n: int,
    seed: int,
    *,
    clusters: int = 16,
    steps_per_line: int = 48,
    step_mean: float = 0.004,
    heading_sigma: float = 0.35,
    cluster_sigma: float = 0.06,
    thickness: float = 1e-4,
    start_oid: int = 0,
) -> List[KPE]:
    """Generate *n* segment MBRs from clustered random-walk polylines.

    Each polyline starts near one of ``clusters`` city centres and walks
    with momentum (headings drift by ``heading_sigma`` per step); walks
    reflect off the unit-square borders so segments never wrap across the
    space.  Every step contributes the MBR of its segment, padded by
    ``thickness`` so areas are non-zero even for axis-parallel segments.
    """
    if n <= 0:
        return []
    rng = np.random.default_rng(seed)
    n_lines = max(1, -(-n // steps_per_line))

    centres = rng.random((clusters, 2)) * 0.84 + 0.08
    which = rng.integers(0, clusters, n_lines)
    starts = centres[which] + rng.normal(0.0, cluster_sigma, (n_lines, 2))

    theta0 = rng.uniform(0.0, 2.0 * math.pi, n_lines)
    dtheta = rng.normal(0.0, heading_sigma, (n_lines, steps_per_line))
    theta = theta0[:, None] + np.cumsum(dtheta, axis=1)
    lengths = rng.lognormal(math.log(step_mean), 0.6, (n_lines, steps_per_line))

    dx = lengths * np.cos(theta)
    dy = lengths * np.sin(theta)
    xs = np.concatenate(
        [starts[:, :1], starts[:, :1] + np.cumsum(dx, axis=1)], axis=1
    )
    ys = np.concatenate(
        [starts[:, 1:2], starts[:, 1:2] + np.cumsum(dy, axis=1)], axis=1
    )
    xs = _reflect_unit(xs)
    ys = _reflect_unit(ys)

    xl = np.minimum(xs[:, :-1], xs[:, 1:]).ravel()
    xh = np.maximum(xs[:, :-1], xs[:, 1:]).ravel()
    yl = np.minimum(ys[:, :-1], ys[:, 1:]).ravel()
    yh = np.maximum(ys[:, :-1], ys[:, 1:]).ravel()
    half = thickness / 2.0
    xl = np.clip(xl - half, 0.0, 1.0)
    yl = np.clip(yl - half, 0.0, 1.0)
    xh = np.clip(xh + half, 0.0, 1.0)
    yh = np.clip(yh + half, 0.0, 1.0)

    return _to_kpes(xl[:n], yl[:n], xh[:n], yh[:n], start_oid)


def uniform_rects(
    n: int,
    seed: int,
    *,
    mean_edge: float = 0.01,
    start_oid: int = 0,
) -> List[KPE]:
    """Uniformly placed rectangles with exponential edge lengths.

    Not TIGER-like; used by tests and as an unskewed counterpoint in
    examples.
    """
    if n <= 0:
        return []
    rng = np.random.default_rng(seed)
    x = rng.random(n)
    y = rng.random(n)
    w = rng.exponential(mean_edge, n)
    h = rng.exponential(mean_edge, n)
    xl = np.clip(x - w / 2.0, 0.0, 1.0)
    yl = np.clip(y - h / 2.0, 0.0, 1.0)
    xh = np.clip(x + w / 2.0, 0.0, 1.0)
    yh = np.clip(y + h / 2.0, 0.0, 1.0)
    return _to_kpes(xl, yl, xh, yh, start_oid)


def clustered_rects(
    n: int,
    seed: int,
    *,
    clusters: int = 8,
    cluster_sigma: float = 0.03,
    mean_edge: float = 0.008,
    start_oid: int = 0,
) -> List[KPE]:
    """Gaussian-clustered rectangles (highly skewed placement)."""
    if n <= 0:
        return []
    rng = np.random.default_rng(seed)
    centres = rng.random((clusters, 2))
    which = rng.integers(0, clusters, n)
    x = np.clip(centres[which, 0] + rng.normal(0, cluster_sigma, n), 0.0, 1.0)
    y = np.clip(centres[which, 1] + rng.normal(0, cluster_sigma, n), 0.0, 1.0)
    w = rng.exponential(mean_edge, n)
    h = rng.exponential(mean_edge, n)
    xl = np.clip(x - w / 2.0, 0.0, 1.0)
    yl = np.clip(y - h / 2.0, 0.0, 1.0)
    xh = np.clip(x + w / 2.0, 0.0, 1.0)
    yh = np.clip(y + h / 2.0, 0.0, 1.0)
    return _to_kpes(xl, yl, xh, yh, start_oid)


def _reflect_unit(values: Any) -> Any:
    """Fold arbitrary reals into [0, 1] by reflection at the borders."""
    folded = np.mod(values, 2.0)
    return np.where(folded > 1.0, 2.0 - folded, folded)


def _to_kpes(
    xl: Any,
    yl: Any,
    xh: Any,
    yh: Any,
    start_oid: int,
) -> List[KPE]:
    return [
        KPE(start_oid + i, float(a), float(b), float(c), float(d))
        for i, (a, b, c, d) in enumerate(zip(xl, yl, xh, yh))
    ]
