"""A simulated disk charging the paper's ``PT + n`` cost per request.

The drivers hold their records in memory; what the paper's files of them
would cost is computed from their record counts
(:mod:`repro.io.paper_io`) and charged to :class:`SimulatedDisk`, which
records, per named *phase* (partitioning, sorting, join, duplicate
removal, ...):

* the number of read/write requests (each paying the positioning cost PT),
* the number of pages read/written (each paying one transfer unit).

This reproduces the paper's I/O accounting deterministically, independent of
the host machine.

:class:`Ledger` is one join run's whole account under that model: its
disk, its CPU counters per phase, and the one rule that prices them into
the run's :class:`~repro.core.result.JoinStats`.  Every driver charges
through it.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, Sequence, Tuple

from repro.core.stats import CpuCounters
from repro.io.costmodel import CostModel, DEFAULT_COST_MODEL


@dataclass
class IoCounters:
    """Per-phase I/O tallies in requests and pages."""

    read_requests: int = 0
    pages_read: int = 0
    write_requests: int = 0
    pages_written: int = 0

    def units(self, cost: CostModel) -> float:
        """Page-transfer units: ``PT`` per request plus one per page."""
        requests = self.read_requests + self.write_requests
        pages = self.pages_read + self.pages_written
        return cost.pt_ratio * requests + pages

    def add(self, other: "IoCounters") -> None:
        self.read_requests += other.read_requests
        self.pages_read += other.pages_read
        self.write_requests += other.write_requests
        self.pages_written += other.pages_written


class SimulatedDisk:
    """Tracks simulated I/O per phase and owns the cost model.

    All page-level charging is funnelled through :meth:`charge_read` and
    :meth:`charge_write`; :mod:`repro.io.paper_io` decides what
    constitutes a contiguous request.
    """

    def __init__(self, cost_model: Optional[CostModel] = None) -> None:
        self.cost = cost_model or DEFAULT_COST_MODEL
        self._phase = "default"
        self.counters: Dict[str, IoCounters] = {}

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------
    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Attribute all charges inside the block to phase *name*."""
        previous = self._phase
        self._phase = name
        try:
            yield
        finally:
            self._phase = previous

    def _phase_counters(self) -> IoCounters:
        counters = self.counters.get(self._phase)
        if counters is None:
            counters = IoCounters()
            self.counters[self._phase] = counters
        return counters

    # ------------------------------------------------------------------
    # charging
    # ------------------------------------------------------------------
    def charge_read(self, n_pages: int, requests: int = 1) -> None:
        """Charge a read of *n_pages* pages in *requests* contiguous runs."""
        if n_pages <= 0:
            return
        counters = self._phase_counters()
        counters.read_requests += requests
        counters.pages_read += n_pages

    def charge_write(self, n_pages: int, requests: int = 1) -> None:
        """Charge a write of *n_pages* pages in *requests* contiguous runs."""
        if n_pages <= 0:
            return
        counters = self._phase_counters()
        counters.write_requests += requests
        counters.pages_written += n_pages

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def units_by_phase(self) -> Dict[str, float]:
        """Page-transfer units per phase."""
        return {
            phase: counters.units(self.cost)
            for phase, counters in self.counters.items()
        }

    def pages_by_phase(self) -> Dict[str, int]:
        """Pages moved (read + written) per phase, without positioning."""
        return {
            phase: counters.pages_read + counters.pages_written
            for phase, counters in self.counters.items()
        }

    def total_units(self) -> float:
        return sum(self.units_by_phase().values())

    def total_counters(self) -> IoCounters:
        total = IoCounters()
        for counters in self.counters.values():
            total.add(counters)
        return total


class Ledger:
    """One join run's account: its disk plus CPU counters per phase.

    *phases* are the driver's own, in its order (the order of
    ``stats.cpu_by_phase`` and ``stats.sim_seconds_by_phase``).  The
    phases of a run are opened with :meth:`phase`; :meth:`charge` prices
    the counters into *stats* once the run is done.
    """

    def __init__(
        self,
        stats: Any,
        phases: Sequence[str],
        cost_model: Optional[CostModel],
        tracer: Any,
    ) -> None:
        self.stats = stats
        self.disk = SimulatedDisk(cost_model)
        self.cpu = {phase: CpuCounters() for phase in phases}
        self.tracer = tracer

    def _io_totals(self) -> Tuple[float, int]:
        total = self.disk.total_counters()
        return self.disk.total_units(), total.pages_read + total.pages_written

    @contextmanager
    def phase(self, name: str) -> Iterator[Any]:
        """Phase *name* of the run: its span (yielded), with the disk
        charging to *name* inside it.  The span carries the phase's CPU
        counter deltas and the whole disk's ``io_units`` / ``io_pages``
        deltas; its wall time becomes ``stats.wall_seconds_by_phase``."""
        recording = self.tracer.recording
        if recording:
            cpu = self.cpu[name]
            cpu_before = cpu.as_dict()
            units_before, pages_before = self._io_totals()
        with self.tracer.span(name) as span:
            try:
                with self.disk.phase(name):
                    yield span
            finally:
                if recording:
                    after = cpu.as_dict()
                    deltas = {key: after[key] - cpu_before[key] for key in after}
                    units, pages = self._io_totals()
                    deltas["io_units"] = units - units_before
                    deltas["io_pages"] = pages - pages_before
                    span.add_counters(deltas)
        self.stats.wall_seconds_by_phase[name] = span.wall_seconds

    def charge(self, hilbert: bool = False) -> None:
        """The paper's cost rule: each phase is charged its CPU counters
        and its I/O units in simulated seconds.  *hilbert* prices S³J's
        Hilbert codes (:meth:`~repro.io.costmodel.CostModel.cpu_seconds`)."""
        stats = self.stats
        disk = self.disk
        cost = disk.cost
        stats.io_units_by_phase = units = disk.units_by_phase()
        stats.io_pages_by_phase = disk.pages_by_phase()
        stats.cpu_by_phase = {
            phase: counters.as_dict() for phase, counters in self.cpu.items()
        }
        cpu_seconds = {
            phase: cost.cpu_seconds(counters, hilbert=hilbert)
            for phase, counters in self.cpu.items()
        }
        stats.sim_io_seconds = cost.io_seconds(disk.total_units())
        stats.sim_cpu_seconds = sum(cpu_seconds.values())
        stats.sim_seconds_by_phase = {
            phase: seconds + cost.io_seconds(units.get(phase, 0.0))
            for phase, seconds in cpu_seconds.items()
        }
