"""Partition-count estimation: the paper's formula (1) plus the safety
factor ``t``.

Original PBSM computes ``P = ceil((|R| + |S|) * sizeof(KPE) / M)``.
Section 3.2.3 observes that when the un-ceiled value is just below an
integer (e.g. 1.99), pairs of partitions are very unlikely to fit in
memory and repartitioning is triggered; multiplying by ``t > 1`` before
the ceiling avoids that cliff.
"""

from __future__ import annotations

import math
import warnings

from repro.io.costmodel import require_positive


def estimate_partitions(
    n_left: int,
    n_right: int,
    kpe_bytes: int,
    memory_bytes: int,
    t_factor: float = 1.2,
) -> int:
    """Number of partitions per relation (formula (1), scaled by ``t``).

    ``t_factor=1.0`` reproduces the original formula exactly; the paper's
    improvement uses a value slightly above one.

    The estimate is clamped to the total input cardinality: when the
    memory budget is smaller than ``t`` KPEs, formula (1) asks for more
    partitions than there are records, which only manufactures empty
    partition files (each still paying grid and I/O overhead).  A clamp
    to one-record partitions is the finest split that can ever help;
    memory pressure beyond that is repartitioning's problem.
    """
    require_positive("memory_bytes", memory_bytes)
    require_positive("t_factor", t_factor)
    total_records = n_left + n_right
    total_bytes = total_records * kpe_bytes
    raw = t_factor * total_bytes / memory_bytes
    estimate = max(1, math.ceil(raw))
    cap = max(1, total_records)
    if estimate > cap:
        warnings.warn(
            f"partition estimate {estimate} exceeds the input cardinality "
            f"{total_records} (memory_bytes={memory_bytes} is below one KPE "
            f"per partition); clamping to {cap}",
            RuntimeWarning,
            stacklevel=2,
        )
        return cap
    return estimate
