"""The Size Separation Spatial Join driver.

Implements both variants the paper compares:

* ``replicate=False`` — original S3J (Koudas & Sevcik): every rectangle in
  exactly one cell (its MX-CIF node), no duplicates, but small
  boundary-straddling rectangles sink into low level-files where they are
  tested against everything.
* ``replicate=True`` — the paper's improvement: size-separated levels with
  at most four copies per rectangle, duplicates suppressed online by the
  hierarchical Reference Point Method (the reference point must lie in the
  *deeper* of the two joined cells).

Phases (Figure 8): partitioning (level files), sorting (by locational
code), and the synchronized join scan.  The internal per-partition-pair
algorithm is pluggable; the paper's finding (Figure 12) is that nested
loops is the right choice for S3J's tiny partitions.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core.phases import PHASE_JOIN, PHASE_PARTITION, PHASE_SORT
from repro.core.result import JoinResult, JoinStats
from repro.core.space import Space
from repro.core.stats import CpuCounters
from repro.internal import internal_algorithm
from repro.io.costmodel import CostModel, require_positive
from repro.io.disk import Ledger
from repro.obs.trace import KIND_RUN, NULL_TRACER
from repro.s3j.levelfile import build_level_files, sort_level_files
from repro.s3j.levels import ASSIGNMENT_STRATEGIES
from repro.s3j.scan import ScanStats, scan_pairs
from repro.sfc.locational import (
    DEFAULT_MAX_LEVEL,
    curve_decoder,
    curve_encoder,
    point_cell,
)


class S3J:
    """Size Separation Spatial Join.

    Parameters
    ----------
    memory_bytes:
        Budget for the sorting phase and the scan's path partitions.
    replicate:
        True = the paper's size-separation replication (with online RPM);
        False = the original no-redundancy assignment.
    strategy:
        Overrides ``replicate`` with a named assignment strategy:
        "original" (no redundancy), "size" (full size separation, the
        paper's), or "hybrid" (replicate only boundary-straddling
        rectangles; Section 4.3 notes several such strategies were
        evaluated).
    internal:
        Internal join algorithm for partition pairs ("nested_loops" is the
        paper's recommendation for S3J).
    curve:
        Space-filling curve for the locational codes ("peano"/"hilbert").
        The choice affects only the code-computation CPU cost (4.4.2).
    max_level:
        Deepest grid level (the hierarchy has ``max_level + 1`` levels).
    io_buffer_pages:
        Pages per level-file output/scan buffer.  S3J has only
        ``max_level + 1`` files per relation, so multi-page buffers are
        affordable and keep its I/O nearly sequential (Section 5.1).
    """

    def __init__(
        self,
        memory_bytes: int,
        *,
        replicate: bool = True,
        internal: str = "nested_loops",
        curve: str = "peano",
        max_level: int = DEFAULT_MAX_LEVEL,
        cost_model: Optional[CostModel] = None,
        io_buffer_pages: int = 4,
        strategy: Optional[str] = None,
        tracer=None,
    ):
        require_positive("memory_bytes", memory_bytes)
        if max_level < 1:
            raise ValueError("max_level must be at least 1")
        self.memory_bytes = memory_bytes
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if strategy is None:
            strategy = "size" if replicate else "original"
        if strategy not in ASSIGNMENT_STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; choose from "
                f"{sorted(ASSIGNMENT_STRATEGIES)}"
            )
        self.strategy = strategy
        self.assign = ASSIGNMENT_STRATEGIES[strategy]
        self.replicate = strategy != "original"
        self.internal_name = internal
        self.internal = internal_algorithm(internal)
        self.curve = curve
        self.encoder = curve_encoder(curve)
        self.decoder = curve_decoder(curve)
        self.max_level = max_level
        self.cost_model = cost_model or CostModel()
        if io_buffer_pages < 1:
            raise ValueError("io_buffer_pages must be >= 1")
        self.io_buffer_pages = io_buffer_pages

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self, left: Sequence[Tuple], right: Sequence[Tuple]) -> JoinResult:
        """Execute the join and return all result pairs plus statistics."""
        stats = self._new_stats(left, right)
        pairs = list(self._generate(left, right, stats))
        stats.n_results = len(pairs)
        return JoinResult(pairs=pairs, stats=stats)

    def iter_pairs(
        self,
        left: Sequence[Tuple],
        right: Sequence[Tuple],
        stats: Optional[JoinStats] = None,
    ) -> Iterator[Tuple[int, int]]:
        """Yield result pairs as the scan produces them (pipelined)."""
        own_stats = stats if stats is not None else self._new_stats(left, right)
        yield from self._generate(left, right, own_stats)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _new_stats(self, left: Sequence[Tuple], right: Sequence[Tuple]) -> JoinStats:
        variant = {"size": "repl", "original": "orig", "hybrid": "hybrid"}[
            self.strategy
        ]
        return JoinStats(
            algorithm=f"S3J({self.internal_name},{variant})",
            n_left=len(left),
            n_right=len(right),
        )

    def _generate(
        self,
        left: Sequence[Tuple],
        right: Sequence[Tuple],
        stats: JoinStats,
    ) -> Iterator[Tuple[int, int]]:
        ledger = Ledger(
            stats,
            (PHASE_PARTITION, PHASE_SORT, PHASE_JOIN),
            self.cost_model,
            self.tracer,
        )
        disk, cpu = ledger.disk, ledger.cpu
        hilbert = self.curve == "hilbert"
        if not left or not right:
            ledger.charge(hilbert)
            return

        space = Space.of(left, right)
        assign = self.assign

        with self.tracer.span(
            "s3j",
            kind=KIND_RUN,
            internal=self.internal_name,
            strategy=self.strategy,
            curve=self.curve,
        ):
            # --- phase 1: partitioning into level files --------------------
            with ledger.phase(PHASE_PARTITION):
                files_left, n_left_written = build_level_files(
                    assign(
                        left,
                        space,
                        self.max_level,
                        self.encoder,
                        cpu[PHASE_PARTITION],
                    ),
                    self.max_level,
                    disk,
                    self.io_buffer_pages,
                )
                files_right, n_right_written = build_level_files(
                    assign(
                        right,
                        space,
                        self.max_level,
                        self.encoder,
                        cpu[PHASE_PARTITION],
                    ),
                    self.max_level,
                    disk,
                    self.io_buffer_pages,
                )
                stats.records_partitioned = n_left_written + n_right_written
                stats.replicas_created = (
                    stats.records_partitioned - len(left) - len(right)
                )
                stats.n_partitions = sum(
                    1 for f in files_left + files_right if f
                )

            # --- phase 2: sort level files by locational code ---------------
            with ledger.phase(PHASE_SORT):
                files_left = sort_level_files(
                    files_left, disk, self.memory_bytes, cpu[PHASE_SORT]
                )
                files_right = sort_level_files(
                    files_right, disk, self.memory_bytes, cpu[PHASE_SORT]
                )

            # --- phase 3: synchronized scan --------------------------------
            scan_stats = ScanStats()
            join_cpu = cpu[PHASE_JOIN]
            with ledger.phase(PHASE_JOIN):
                for part_left, part_right in scan_pairs(
                    files_left,
                    files_right,
                    self.max_level,
                    self.decoder,
                    disk,
                    join_cpu,
                    self.memory_bytes,
                    scan_stats,
                    self.io_buffer_pages,
                ):
                    yield from self._join_partition_pair(
                        part_left, part_right, space, join_cpu, stats
                    )
                stats.memory_overruns = scan_stats.memory_overruns
                stats.peak_memory_bytes = scan_stats.peak_stack_bytes
        ledger.charge(hilbert)

    def _join_partition_pair(
        self,
        part_left,
        part_right,
        space: Space,
        cpu: CpuCounters,
        stats: JoinStats,
    ) -> Iterator[Tuple[int, int]]:
        """Join one (ancestor, descendant) cell pair of the two relations."""
        results: List[Tuple[int, int]] = []
        if not self.replicate:

            def emit(r: Tuple, s: Tuple) -> None:
                results.append((r[0], s[0]))

        else:
            # Hierarchical RPM: the reference point must lie in the deeper
            # of the two cells (Section 4.3, Figure 10).
            deeper = part_left if part_left.level >= part_right.level else part_right
            deep_level = deeper.level
            deep_ix = deeper.ix
            deep_iy = deeper.iy
            refpoint_tests = 0
            suppressed = 0

            def emit(r: Tuple, s: Tuple) -> None:
                nonlocal refpoint_tests, suppressed
                refpoint_tests += 1
                rx = r[1]
                sx = s[1]
                ry = r[4]
                sy = s[4]
                x = rx if rx >= sx else sx
                y = ry if ry <= sy else sy
                ix, iy = point_cell(space, x, y, deep_level)
                if ix == deep_ix and iy == deep_iy:
                    results.append((r[0], s[0]))
                else:
                    suppressed += 1

        self.internal(part_left.kpes, part_right.kpes, emit, cpu)
        if self.replicate:
            cpu.refpoint_tests += refpoint_tests
            stats.duplicates_suppressed += suppressed
        yield from results
