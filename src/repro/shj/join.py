"""Spatial Hash Join [LR 96] — replication on one relation only.

The paper's related work: "The spatial-hash join ... divides the datasets
into smaller partitions and applies a join algorithm to each pair of
partitions.  PBSM replicates some of the data of both input relations ...
whereas the spatial-hash join only allows replication on one relation",
and [KS 97] found its performance comparable to PBSM.

Implementation: the *build* relation R is partitioned without replication
— each record goes to the single bucket owning its centre point on an
equidistant grid — and each bucket's extent grows to the union MBR of its
contents.  The *probe* relation S is then replicated into every bucket
whose extent its rectangle overlaps.  Because every R record exists
exactly once, each result pair is produced exactly once: **no duplicate
removal is needed at all**, which is this algorithm's trade against
PBSM's symmetric replication.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro.core.phases import PHASE_JOIN, PHASE_PARTITION
from repro.core.result import JoinResult, JoinStats
from repro.core.space import Space, clamped_cell
from repro.internal import internal_algorithm
from repro.io.costmodel import CostModel, require_positive
from repro.io.disk import Ledger
from repro.io.paper_io import charge_partition, charge_read
from repro.obs.trace import KIND_RUN, NULL_TRACER
from repro.pbsm.estimator import estimate_partitions

#: Safety factor on the bucket count (formula (1), as PBSM's ``t_factor``).
T_FACTOR = 1.2


class SpatialHashJoin:
    """Spatial hash join: build-side buckets, probe-side replication."""

    def __init__(
        self,
        memory_bytes: int,
        *,
        internal: str = "sweep_list",
        cost_model: Optional[CostModel] = None,
        tracer=None,
    ):
        require_positive("memory_bytes", memory_bytes)
        self.memory_bytes = memory_bytes
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.internal_name = internal
        self.internal = internal_algorithm(internal)
        self.cost_model = cost_model or CostModel()

    def run(self, left: Sequence[Tuple], right: Sequence[Tuple]) -> JoinResult:
        """Join with *left* as the build side and *right* as the probe side."""
        stats = JoinStats(
            algorithm=f"SHJ({self.internal_name})",
            n_left=len(left),
            n_right=len(right),
        )
        ledger = Ledger(
            stats, (PHASE_PARTITION, PHASE_JOIN), self.cost_model, self.tracer
        )
        pairs: List[Tuple[int, int]] = []
        if left and right:
            self._execute(left, right, pairs, stats, ledger)
        stats.n_results = len(pairs)
        ledger.charge()
        return JoinResult(pairs=pairs, stats=stats)

    # ------------------------------------------------------------------
    def _execute(self, left, right, pairs, stats, ledger: Ledger) -> None:
        disk, cpu = ledger.disk, ledger.cpu
        kpe_bytes = self.cost_model.kpe_bytes
        space = Space.of(left, right)
        n_buckets = estimate_partitions(
            len(left), len(right), kpe_bytes, self.memory_bytes, T_FACTOR
        )
        side = max(1, math.ceil(math.sqrt(n_buckets)))
        n_buckets = side * side
        stats.n_partitions = n_buckets

        with self.tracer.span("shj", kind=KIND_RUN, internal=self.internal_name):
            with ledger.phase(PHASE_PARTITION):
                # Build side: one bucket per record, chosen by centre
                # point.
                builds: List[List[Tuple]] = [[] for _ in range(n_buckets)]
                extents: List[
                    Optional[Tuple[float, float, float, float]]
                ] = [None] * n_buckets
                counters = cpu[PHASE_PARTITION]
                for k in left:
                    cx = (k[1] + k[3]) / 2.0
                    cy = (k[2] + k[4]) / 2.0
                    bx = clamped_cell(space.norm_x(cx) * side, side)
                    by = clamped_cell(space.norm_y(cy) * side, side)
                    bucket = by * side + bx
                    builds[bucket].append(k)
                    counters.structure_ops += 1
                    extent = extents[bucket]
                    if extent is None:
                        extents[bucket] = (k[1], k[2], k[3], k[4])
                    else:
                        extents[bucket] = (
                            extent[0] if extent[0] < k[1] else k[1],
                            extent[1] if extent[1] < k[2] else k[2],
                            extent[2] if extent[2] > k[3] else k[3],
                            extent[3] if extent[3] > k[4] else k[4],
                        )

                # Probe side: replicate into every bucket whose extent
                # the rectangle overlaps.
                probes: List[List[Tuple]] = [[] for _ in range(n_buckets)]
                probe_written = 0
                for s in right:
                    for bucket, extent in enumerate(extents):
                        counters.intersection_tests += (
                            1 if extent is not None else 0
                        )
                        if extent is None:
                            continue
                        if (
                            s[1] <= extent[2]
                            and extent[0] <= s[3]
                            and s[2] <= extent[3]
                            and extent[1] <= s[4]
                        ):
                            probes[bucket].append(s)
                            probe_written += 1
                # Every bucket is written through its own one-page buffer.
                charge_partition(disk, builds + probes, kpe_bytes)
                stats.records_partitioned = len(left) + probe_written
                # Probe records overlapping no bucket extent are dropped
                # (they can produce no result), so the net replica count can
                # be negative; report only genuine replicas.
                stats.replicas_created = max(0, probe_written - len(right))

            join_cpu = cpu[PHASE_JOIN]
            with ledger.phase(PHASE_JOIN):
                for build, probe in zip(builds, probes):
                    if not build or not probe:
                        continue
                    charge_read(disk, len(build), kpe_bytes)
                    charge_read(disk, len(probe), kpe_bytes)
                    size = (len(build) + len(probe)) * kpe_bytes
                    if size > stats.peak_memory_bytes:
                        stats.peak_memory_bytes = size
                    if size > self.memory_bytes:
                        stats.memory_overruns += 1
                    self.internal(
                        build,
                        probe,
                        lambda r, s: pairs.append((r[0], s[0])),
                        join_cpu,
                    )
