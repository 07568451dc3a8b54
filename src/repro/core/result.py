"""Join results and per-run statistics.

Every join driver (PBSM, S3J, SSSJ, SHJ, the R-tree join) returns a
:class:`JoinResult`: the result pairs of the *filter step* plus a
:class:`JoinStats` record detailed enough to regenerate every figure of the
paper — per-phase I/O, CPU operation counts, simulated runtime split into
I/O and CPU shares, wall time, and redundancy/duplicate accounting.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

import numpy as np


@dataclass
class JoinStats:
    """Everything measured during one join execution."""

    algorithm: str = ""
    #: how partition joins were actually executed: "process" (fan-out
    #: over a warm pool and a shared-memory segment), "simulated" (the
    #: in-process loop with modelled parallelism, also what a process
    #: request runs with one worker or without that segment), or "" for
    #: sequential
    executor: str = ""
    # --- cardinalities -------------------------------------------------
    n_left: int = 0
    n_right: int = 0
    n_results: int = 0
    #: records written during partitioning, including replicas
    records_partitioned: int = 0
    #: replicas beyond the first copy, summed over both inputs
    replicas_created: int = 0
    duplicates_suppressed: int = 0
    #: duplicates removed by a final sort phase (original PBSM only)
    duplicates_sorted_out: int = 0
    # --- partitioning --------------------------------------------------
    n_partitions: int = 0
    repartition_events: int = 0
    #: pairs whose joined size exceeded the memory budget even after the
    #: repartitioning depth limit (degenerate inputs only)
    memory_overruns: int = 0
    peak_memory_bytes: int = 0
    # --- costs ----------------------------------------------------------
    io_units_by_phase: Dict[str, float] = field(default_factory=dict)
    #: pages moved (read + written) per phase, without positioning cost
    io_pages_by_phase: Dict[str, int] = field(default_factory=dict)
    cpu_by_phase: Dict[str, Dict[str, int]] = field(default_factory=dict)
    sim_io_seconds: float = 0.0
    sim_cpu_seconds: float = 0.0
    #: simulated seconds split by phase (io + cpu combined)
    sim_seconds_by_phase: Dict[str, float] = field(default_factory=dict)
    wall_seconds_by_phase: Dict[str, float] = field(default_factory=dict)
    # --- parallel execution timing --------------------------------------
    #: sum of per-task wall seconds, measured inside the workers (parallel
    #: executors only; 0.0 for sequential drivers)
    join_busy_seconds: float = 0.0
    #: parent-observed elapsed time of the task fan-out (the makespan the
    #: busy time is compared against to judge parallel efficiency)
    join_makespan_seconds: float = 0.0
    #: busy seconds per worker (label -> seconds; real executors only)
    worker_busy_seconds: Dict[str, float] = field(default_factory=dict)
    #: worker count the parallel drivers ran with (0 for sequential)
    n_workers: int = 0
    #: always 0; the frozen ``benchmarks/e2e/layers.py`` still reads it
    tasks_stolen: int = 0
    #: worker-seconds the fan-out paid for but did not fill:
    #: makespan x workers - total busy (the skew penalty, made visible)
    scheduler_idle_seconds: float = 0.0
    #: bytes that actually crossed the process boundary (chunk payloads
    #: out plus result blobs/manifests back; process executor only)
    ipc_bytes_shipped: int = 0
    #: parent-side wall seconds spent on transport work: payload
    #: encode/decode and the segment build
    ipc_seconds: float = 0.0
    # --- end-to-end timing ----------------------------------------------
    #: wall seconds spent planning before execution (method="auto" only)
    planning_seconds: float = 0.0
    #: wall seconds of the whole spatial_join() call, planning included
    total_wall_seconds: float = 0.0

    @property
    def sim_seconds(self) -> float:
        """Total simulated runtime (the paper's "total runtime" analogue)."""
        return self.sim_io_seconds + self.sim_cpu_seconds

    @property
    def io_units(self) -> float:
        """Total I/O cost in page-transfer units across all phases."""
        return sum(self.io_units_by_phase.values())

    @property
    def wall_seconds(self) -> float:
        return sum(self.wall_seconds_by_phase.values())

    @property
    def worker_utilization(self) -> float:
        """Busy fraction of the paid worker-seconds (busy / (makespan x W)).

        1.0 means every worker was busy for the whole fan-out; the gap to
        1.0 is exactly ``scheduler_idle_seconds`` as a fraction.  0.0 when
        the run was not a real parallel fan-out.
        """
        denom = self.join_makespan_seconds * self.n_workers
        if denom <= 0.0:
            return 0.0
        return self.join_busy_seconds / denom

    @property
    def replication_rate(self) -> float:
        """Partitioned records per input record (1.0 = no redundancy)."""
        base = self.n_left + self.n_right
        if base == 0:
            return 0.0
        return self.records_partitioned / base

    def selectivity(self) -> float:
        """Result count over the input cross-product size (Table 2)."""
        denom = self.n_left * self.n_right
        if denom == 0:
            return 0.0
        return self.n_results / denom


def pair_columns(pairs: Iterable[Tuple[int, int]]) -> Tuple[Any, Any]:
    """Pairs unboxed into ``(left_oids, right_oids)``, two int64 arrays."""
    rows = pairs if isinstance(pairs, (list, tuple)) else list(pairs)
    table = np.fromiter(
        chain.from_iterable(rows), dtype=np.int64, count=2 * len(rows)
    ).reshape(-1, 2)
    return table[:, 0], table[:, 1]


#: Pairs a :class:`PairRows` decodes at a time while it is iterated: the
#: bound on the ``tolist()`` lists alive at once.
DECODE_CHUNK = 16_384


class RowOids(NamedTuple):
    """One input's oids, indexed by row position."""

    #: the int64 oid column (what ``to_arrays`` gathers from)
    column: Any
    #: the oid objects in row order, an object array: a list input's own
    #: (its tuples hold the very same ones); ``None`` for an input without
    #: tuples, whose column :func:`oid_objects` boxes while pairs are read
    objects: Any = None


def oid_objects(side: RowOids) -> Any:
    """Every row's oid object: *side*'s own, else its int64 column boxed
    (``astype(object)``; a columnar input has no tuples).  The one place
    a result boxes oids.  Pairs are built from it (``oids[rid].tolist()``):
    indexing the int64 column instead would allocate two fresh ints per
    pair."""
    if side.objects is not None:
        return side.objects
    return side.column.astype(object)


class PairRows(Sequence):
    """Result pairs held as two int64 arrays and decoded while read.

    A read-only sequence of ``(left_oid, right_oid)`` tuples: ``len``,
    iteration, int and slice indexing (a slice is a ``list``), ``in``
    and ``==`` with any sequence, in both directions; unhashable.  The
    arrays are row positions, decoded through each input's oids
    (*sides*, :class:`RowOids`).

    Iteration decodes :data:`DECODE_CHUNK` pairs at a time into one
    ``zip`` each, so ``for l, r in pairs`` allocates no tuple per pair:
    ``zip`` reuses its result tuple once the loop has dropped it.  An
    input without oid objects has its column boxed once per iteration
    (:func:`oid_objects`), and the boxes go when the iteration does;
    indexing reads the column without boxing it.
    """

    __slots__ = ("_arrays", "_sides")

    def __init__(self, arrays: Tuple[Any, Any], sides: Tuple[RowOids, RowOids]) -> None:
        self._arrays = arrays
        self._sides = sides

    @property
    def columns(self) -> Tuple[Any, Any]:
        """Each input's int64 oid column: what the pairs' oids are
        gathered from."""
        return self._sides[0].column, self._sides[1].column

    def oids(self) -> Tuple[Any, Any]:
        """The pairs as two int64 oid arrays, gathered from the oid
        columns."""
        left, right = self.columns
        return left[self._arrays[0]], right[self._arrays[1]]

    def oid_chunks(self, size: int) -> Iterator[Tuple[Any, Any]]:
        """The pairs' oids in order, *size* pairs at a time: two int64
        arrays per chunk, gathered from the oid columns, so no more than
        one chunk's oids exist at once."""
        left, right = self.columns
        rid, sid = self._arrays
        for lo in range(0, len(rid), size):
            yield left[rid[lo : lo + size]], right[sid[lo : lo + size]]

    def _decode(
        self, index: slice, through: Optional[Tuple[Any, Any]] = None
    ) -> Iterator[Tuple[Any, Any]]:
        """Pairs *index* as oid tuples, row positions looked up in
        *through* (each side's :func:`oid_objects`), or else in each
        side's oid objects or column."""
        left, right = through or [
            side.column if side.objects is None else side.objects
            for side in self._sides
        ]
        rid, sid = left[self._arrays[0][index]], right[self._arrays[1][index]]
        return zip(rid.tolist(), sid.tolist())

    def __len__(self) -> int:
        return len(self._arrays[0])

    def __iter__(self) -> Iterator[Tuple[Any, Any]]:
        through = (oid_objects(self._sides[0]), oid_objects(self._sides[1]))
        return chain.from_iterable(
            self._decode(slice(lo, lo + DECODE_CHUNK), through)
            for lo in range(0, len(self), DECODE_CHUNK)
        )

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            return list(self._decode(index))
        position = range(len(self))[index]  # IndexError / TypeError as a list
        return next(self._decode(slice(position, position + 1)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"<{len(self):,} pairs, decoded on read>"


class JoinResult:
    """The output of the filter step of a spatial join.

    ``pairs`` holds ``(left_oid, right_oid)`` tuples.  For self joins the
    conventions of the paper apply: a pair is reported for every pair of
    intersecting *records* (including an object with itself), because the
    filter step operates purely on KPEs.

    A result is backed by one of two forms.  The paper's engines (S3J,
    SSSJ, SHJ, the R-tree join) and PBSM's ``dedup="sort"`` hand their
    ``list`` of tuples to the constructor, and ``pairs`` is that list.
    PBSM under the Reference Point Method, at any worker count, keeps
    the leaves' int64 row positions (:meth:`from_arrays`).  No tuple of
    those exists until a caller iterates ``pairs``: a read-only
    :class:`PairRows` that decodes them chunk by chunk, every time it is
    read.  ``len(result)`` and :meth:`to_arrays` read the buffers.  Such
    ``pairs`` is not a ``list`` — no ``append`` or ``sort``
    (``sorted(result.pairs)`` and ``list(result.pairs)`` work), and two
    reads need not return the same object.
    A row-backed result keeps each input's int64 oid column (and a list
    input's oid object array, 8 B a row each) alive for as long as it
    lives; boxes a columnar input's oids need live only while ``pairs``
    is iterated.
    """

    def __init__(self, pairs: List[Tuple[int, int]], stats: JoinStats) -> None:
        self._pairs: Optional[List[Tuple[int, int]]] = pairs
        self._oids: Optional[PairRows] = None
        self.stats = stats

    @classmethod
    def from_arrays(
        cls,
        left: Any,
        right: Any,
        stats: JoinStats,
        sides: Tuple[RowOids, RowOids],
    ) -> "JoinResult":
        """A result backed by two equally long int64 arrays of row
        positions, decoded through *sides*."""
        result = cls([], stats)
        result._pairs = None
        result._oids = PairRows((left, right), sides)
        return result

    @property
    def pairs(self) -> Sequence[Tuple[int, int]]:
        if self._oids is not None:
            return self._oids
        assert self._pairs is not None
        return self._pairs

    def to_arrays(self) -> Tuple[Any, Any]:
        """The result as ``(left_oids, right_oids)``, two int64 arrays.

        Gathered from the inputs' oid columns when the result holds row
        positions; otherwise unboxed from the pair list on every call
        (:func:`pair_columns`).
        """
        if self._oids is not None:
            return self._oids.oids()
        return pair_columns(self.pairs)

    def pair_set(self) -> set:
        """The result as a set — the canonical comparison form in tests."""
        return set(self.pairs)

    def has_duplicates(self) -> bool:
        """True if any pair was reported more than once."""
        return len(self.pairs) != len(set(self.pairs))

    def __len__(self) -> int:
        return len(self.pairs)

    def __repr__(self) -> str:
        return f"JoinResult({len(self):,} pairs, {self.stats.algorithm or 'no algorithm'})"
