"""Span-based wall-clock tracing for join execution.

The paper's headline claims are cost *decompositions* — which phase pays
for partitioning, which for duplicate handling — so the timing plumbing
has to attribute every wall-clock second to a named phase, consistently
across drivers, and survive a process boundary.  This module provides
that as a first-class subsystem instead of scattered ``perf_counter()``
pairs:

* a :class:`Span` is one timed region with a name, a kind (``run``,
  ``phase``, ``section``, ``task``, ``worker``, ``plan``), tags, and the
  counters attached to it while it was open (a join phase's CPU
  operation counts and simulated I/O, from the run's
  :class:`~repro.io.disk.Ledger`);
* a :class:`Tracer` opens spans as context managers, nests them via an
  explicit stack (children know their parent), and retains every finished
  span for export (JSONL via :mod:`repro.obs.export`, Prometheus text via
  :mod:`repro.obs.metrics`);
* :data:`NULL_TRACER` is the always-on default: its spans still measure
  wall time — drivers derive ``JoinStats.wall_seconds_by_phase`` from the
  span they just closed, so the numbers exist with tracing off — but
  nothing is retained, no counters are attached, and no tags are
  stored.  The cost of a disabled span is two ``perf_counter()`` calls
  and one small allocation per *phase* (never per record), which keeps
  the hot loops untouched.

Externally-timed spans (a worker process measured its own task; the
parent only learns the duration) enter through :meth:`Tracer.add_span`.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

#: Trace schema version stamped on every exported span.
SCHEMA_VERSION = 1

KIND_RUN = "run"
KIND_PHASE = "phase"
KIND_SECTION = "section"
KIND_TASK = "task"
KIND_WORKER = "worker"
KIND_PLAN = "plan"

#: Every kind a span may carry (the export validator enforces this).
SPAN_KINDS = (
    KIND_RUN,
    KIND_PHASE,
    KIND_SECTION,
    KIND_TASK,
    KIND_WORKER,
    KIND_PLAN,
)


@dataclass
class Span:
    """One finished timed region of a trace."""

    span_id: int
    parent_id: Optional[int]
    name: str
    kind: str
    #: seconds since the tracer's epoch (monotonic clock)
    t_start: float
    t_end: float
    tags: Dict[str, object] = field(default_factory=dict)
    #: counter deltas observed while the span was open (only non-zero ones)
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def wall_seconds(self) -> float:
        return self.t_end - self.t_start

    def to_dict(self) -> dict:
        """The JSONL export form (one line of the trace file)."""
        return {
            "schema": SCHEMA_VERSION,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "wall_seconds": self.wall_seconds,
            "tags": self.tags,
            "counters": self.counters,
        }


class _ActiveSpan:
    """A span in progress: context manager plus the handle drivers keep.

    On exit it computes the wall time and hands the finished
    :class:`Span` to the tracer.
    """

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    @property
    def wall_seconds(self) -> float:
        return self.span.wall_seconds

    @property
    def span_id(self) -> int:
        return self.span.span_id

    def set_tag(self, key: str, value: Any) -> None:
        self.span.tags[key] = value

    def add_counters(self, mapping: Dict[str, float]) -> None:
        counters = self.span.counters
        for key, value in mapping.items():
            if value:
                counters[key] = counters.get(key, 0) + value

    def __enter__(self) -> "_ActiveSpan":
        tracer = self._tracer
        tracer._stack.append(self.span.span_id)
        self.span.t_start = tracer._now()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        tracer = self._tracer
        self.span.t_end = tracer._now()
        stack = tracer._stack
        if stack and stack[-1] == self.span.span_id:
            stack.pop()
        elif self.span.span_id in stack:  # pragma: no cover - defensive
            stack.remove(self.span.span_id)
        tracer.spans.append(self.span)


class _NullSpan:
    """The disabled span: wall clock only, everything else a no-op."""

    __slots__ = ("_t0", "wall_seconds")

    span = None
    span_id = None

    def __enter__(self) -> "_NullSpan":
        self.wall_seconds = 0.0
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.wall_seconds = time.perf_counter() - self._t0

    def set_tag(self, key: str, value: Any) -> None:
        pass

    def add_counters(self, mapping: Dict[str, float]) -> None:
        pass


class Tracer:
    """Collects spans for one or more join executions.

    Spans nest through an explicit stack: a span opened while another is
    active becomes its child.  Time is recorded relative to the tracer's
    construction instant (monotonic), so a trace file is self-contained.
    """

    recording = True

    def __init__(self) -> None:
        self._epoch = time.perf_counter()
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._next_id = 1

    # ------------------------------------------------------------------
    def _now(self) -> float:
        return time.perf_counter() - self._epoch

    def _alloc_id(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        return span_id

    @property
    def current_span_id(self) -> Optional[int]:
        return self._stack[-1] if self._stack else None

    # ------------------------------------------------------------------
    def span(self, name: str, *, kind: str = KIND_PHASE, **tags: Any) -> _ActiveSpan:
        """Open a span as a context manager."""
        span = Span(
            span_id=self._alloc_id(),
            parent_id=self.current_span_id,
            name=name,
            kind=kind,
            t_start=0.0,
            t_end=0.0,
            tags={k: v for k, v in tags.items() if v is not None},
        )
        return _ActiveSpan(self, span)

    def add_span(
        self,
        name: str,
        wall_seconds: float,
        *,
        kind: str = KIND_TASK,
        parent_id: Optional[int] = None,
        counters: Optional[Dict[str, float]] = None,
        **tags: Any,
    ) -> Span:
        """Record an externally-timed span (e.g. measured in a worker).

        The span is placed ending "now" relative to the tracer's epoch;
        only its duration was measured remotely, not its absolute offset.
        """
        t_end = self._now()
        span = Span(
            span_id=self._alloc_id(),
            parent_id=parent_id if parent_id is not None else self.current_span_id,
            name=name,
            kind=kind,
            t_start=t_end - wall_seconds,
            t_end=t_end,
            tags={k: v for k, v in tags.items() if v is not None},
            counters={k: v for k, v in (counters or {}).items() if v},
        )
        self.spans.append(span)
        return span

    # ------------------------------------------------------------------
    # aggregation & export
    # ------------------------------------------------------------------
    def wall_by_phase(self) -> Dict[str, float]:
        """Total wall seconds of ``phase`` spans, aggregated by name."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            if span.kind == KIND_PHASE:
                totals[span.name] = totals.get(span.name, 0.0) + span.wall_seconds
        return totals

    def spans_of_kind(self, kind: str) -> List[Span]:
        return [span for span in self.spans if span.kind == kind]

    def to_jsonl(self) -> str:
        """The whole trace as JSON-lines text (one span per line)."""
        return "\n".join(json.dumps(span.to_dict()) for span in self.spans)

    def write(self, path: Union[str, Path]) -> int:
        """Write the trace as JSONL; returns the number of spans written."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict()))
                handle.write("\n")
        return len(self.spans)


class NullTracer:
    """The tracing-off tracer: spans measure wall time, nothing persists."""

    recording = False
    spans: List[Span] = []  # always empty; shared on purpose

    def span(self, name: str, *, kind: str = KIND_PHASE, **tags: Any) -> Any:
        return _NullSpan()

    def add_span(self, name: str, wall_seconds: float, **kwargs: Any) -> None:
        return None

    @property
    def current_span_id(self) -> Optional[int]:
        return None

    def wall_by_phase(self) -> Dict[str, float]:
        return {}

    def spans_of_kind(self, kind: str) -> List[Span]:
        return []

    def to_jsonl(self) -> str:
        return ""

    def write(self, path: Union[str, Path]) -> int:
        return 0


#: Shared do-nothing tracer; drivers default to it.
NULL_TRACER = NullTracer()
