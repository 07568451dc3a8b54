"""CPU operation counters.

The paper measures total runtime of C++ implementations on 1990s hardware.
A pure-Python reproduction cannot reproduce those constants faithfully
(repro band: "runtime benchmarks less faithful"), so in addition to wall
clock we *count* the operations that dominate the paper's CPU cost —
intersection tests, sort comparisons, heap operations, locational-code
computations — and let :class:`repro.io.costmodel.CostModel` translate the
counts into simulated seconds.  Counting is deterministic and
hardware-independent, which is what makes the figure *shapes* reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict


@dataclass
class CpuCounters:
    """Counts of the CPU operations the cost model charges.

    Attributes
    ----------
    intersection_tests:
        Rectangle-overlap predicate evaluations (the inner-loop unit of
        every internal join algorithm).
    comparisons:
        Key comparisons in sorting and sweep-line ordering.
    heap_ops:
        Push/pop operations on priority queues (S3J's synchronized scan,
        multiway merges).
    code_computations:
        Locational-code (space-filling-curve) evaluations; Z and Hilbert
        codes are charged differently by the cost model.
    structure_ops:
        Sweep-line status structure operations (node visits, inserts,
        removals) — the overhead term that separates list, trie and tree
        sweep variants.
    refpoint_tests:
        Reference-point computations plus region membership tests (the
        paper's "at most six comparisons" per produced result).
    batch_ops:
        Array-element operations performed by the columnar (numpy) kernel
        path — the batch-level currency replacing per-element
        intersection/refpoint/structure counts when a vectorized kernel
        runs.  Much cheaper per element than the scalar ops, which is how
        the cost model reflects the kernels' speed.
    results_reported:
        Pairs emitted to the caller (after duplicate suppression).
    duplicates_suppressed:
        Pairs detected but suppressed by the Reference Point Method.
    """

    intersection_tests: int = 0
    comparisons: int = 0
    heap_ops: int = 0
    code_computations: int = 0
    structure_ops: int = 0
    refpoint_tests: int = 0
    batch_ops: int = 0
    results_reported: int = 0
    duplicates_suppressed: int = 0

    def add(self, other: "CpuCounters") -> None:
        """Accumulate another counter set into this one."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def reset(self) -> None:
        """Zero every counter."""
        for f in fields(self):
            setattr(self, f.name, 0)

    def as_dict(self) -> Dict[str, int]:
        """Counters as a plain dict (stable field order)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}
