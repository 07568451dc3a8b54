"""Scalable Sweeping-Based Spatial Join (SSSJ) — comparison baseline.

[APR+ 98]: sort both relations by their left edge, then run one global
plane sweep, keeping the sweep-line status in memory.  No partitioning, no
replication, no duplicates — but, as the paper's related-work discussion
stresses, *both* inputs must be completely sorted before the first output
tuple can be produced, which blocks pipelined processing in an operator
tree.  We implement it as a baseline so the comparison benches can place
PBSM and S3J against the best sort-based contender.

I/O model: reading the (unsorted) inputs is free, as for every other
algorithm; when an input exceeds the memory budget, sorted runs are
written and merged with charged I/O.  The sweep consumes the two sorted
streams through one-page buffers.
"""

from __future__ import annotations

import heapq
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core.phases import PHASE_JOIN, PHASE_SORT
from repro.core.result import JoinResult, JoinStats
from repro.core.stats import CpuCounters
from repro.internal import internal_algorithm
from repro.io.costmodel import CostModel, require_positive
from repro.io.disk import Ledger, SimulatedDisk
from repro.io.extsort import BY_XL, XlSorted, sort_in_memory
from repro.io.paper_io import charge_read, charge_write
from repro.obs.trace import KIND_RUN, NULL_TRACER


class SSSJ:
    """Sweeping-based spatial join over externally sorted inputs."""

    def __init__(
        self,
        memory_bytes: int,
        *,
        internal: str = "sweep_list",
        cost_model: Optional[CostModel] = None,
        tracer=None,
    ):
        require_positive("memory_bytes", memory_bytes)
        if internal not in ("sweep_list", "sweep_trie", "sweep_tree", "sweep_numpy"):
            raise ValueError(
                "SSSJ needs a sweep-based internal algorithm, got "
                f"{internal!r}"
            )
        self.memory_bytes = memory_bytes
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.internal_name = internal
        self.internal = internal_algorithm(internal)
        self.cost_model = cost_model or CostModel()

    def run(self, left: Sequence[Tuple], right: Sequence[Tuple]) -> JoinResult:
        stats = JoinStats(
            algorithm=f"SSSJ({self.internal_name})",
            n_left=len(left),
            n_right=len(right),
        )
        pairs = list(self.iter_pairs(left, right, stats))
        stats.n_results = len(pairs)
        return JoinResult(pairs=pairs, stats=stats)

    def iter_pairs(
        self,
        left: Sequence[Tuple],
        right: Sequence[Tuple],
        stats: Optional[JoinStats] = None,
    ) -> Iterator[Tuple[int, int]]:
        """Yield result pairs; nothing is available before sorting ends."""
        own = stats if stats is not None else JoinStats(algorithm="SSSJ")
        ledger = Ledger(own, (PHASE_SORT, PHASE_JOIN), self.cost_model, self.tracer)
        disk, cpu = ledger.disk, ledger.cpu
        if left and right:
            with self.tracer.span(
                "sssj", kind=KIND_RUN, internal=self.internal_name
            ):
                with ledger.phase(PHASE_SORT):
                    sorted_left = self._external_sort_input(
                        left, disk, cpu[PHASE_SORT]
                    )
                    sorted_right = self._external_sort_input(
                        right, disk, cpu[PHASE_SORT]
                    )

                results: List[Tuple[int, int]] = []
                with ledger.phase(PHASE_JOIN):
                    self.internal(
                        sorted_left,
                        sorted_right,
                        lambda r, s: results.append((r[0], s[0])),
                        cpu[PHASE_JOIN],
                    )
            own.peak_memory_bytes = (
                len(left) + len(right)
            ) * self.cost_model.kpe_bytes
            yield from results
        ledger.charge()

    def _external_sort_input(
        self, records: Sequence[Tuple], disk: SimulatedDisk, counters: CpuCounters
    ) -> List[Tuple]:
        """Sort an input relation; the initial read is free of charge."""
        cost = self.cost_model
        memory_records = max(8, self.memory_bytes // cost.kpe_bytes)
        if len(records) <= memory_records:
            return XlSorted(sort_in_memory(list(records), BY_XL, counters))
        # run generation: input chunks are free to read, runs are written
        runs: List[List[Tuple]] = []
        for start in range(0, len(records), memory_records):
            run = sort_in_memory(
                list(records[start : start + memory_records]), BY_XL, counters
            )
            charge_write(disk, len(run), cost.kpe_bytes)
            runs.append(run)
        # single merge pass with one page buffer per run; ties on xl go
        # to the smaller oid, then to the earlier run
        for run in runs:
            charge_read(disk, len(run), cost.kpe_bytes, buffer_pages=1)
        counters.heap_ops += 2 * len(records)
        return XlSorted(heapq.merge(*runs, key=_by_xl_oid))


def _by_xl_oid(record: Tuple) -> Tuple:
    return record[1], record[0]
