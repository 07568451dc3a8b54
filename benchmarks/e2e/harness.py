"""The block loop, the timing, and the aggregation into end-to-end metrics.

One run of a workload is ``BLOCKS`` blocks spread over the whole run; a
block is a fresh set-up (timed), a fixed number of timed ops from ONE
client in a closed loop, and a teardown.  Every timing is a median over
samples from all blocks — ``setup_s`` of the block set-ups,
``lat_p50_ms`` of all timed ops — and every sample is its wall time at
reference speed: the shared reference box runs the same work 1.0x or
1.55x as fast for a minute at a time, so each interval is timed together
with the speed of the CPUs it ran on (:mod:`speed`).
"""

from __future__ import annotations

import gc
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, ContextManager, Dict, Iterator, List, Optional, Sequence, Tuple

from benchmarks.e2e import procs
from benchmarks.e2e.reference import Expected, expected_for
from benchmarks.e2e.speed import SpeedSensors, cpu_times
from benchmarks.e2e.specs import BLOCKS, RUN_SECONDS, SMOKE_RECORDS, WORKLOAD_BY_NAME
from benchmarks.e2e.workloads import WORKLOAD_CLASSES, Outcome, Workload

#: Per-run temp dirs (``.rcd`` files, socket, server log) live inside the
#: benchmark's own directory, so a run touches nothing outside its checkout.
TMP_ROOT = Path(__file__).with_name(".tmp")


def environment() -> Dict[str, Any]:
    """What a committed record says about the box it was measured on."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


SpanFactory = Callable[[str], ContextManager[Any]]


def no_span(name: str) -> ContextManager[Any]:
    """Tracing off: the end-to-end runs record nothing."""
    return nullcontext()


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0-100) with linear interpolation."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


@dataclass(frozen=True)
class Timing:
    """One timed interval: its wall time and the speed of the CPUs its work
    ran on (:mod:`speed`; 1.0 where no sensors run)."""

    wall_s: float
    speed: float = 1.0

    @property
    def at_ref_s(self) -> float:
        """The interval's duration at reference speed."""
        return self.wall_s * self.speed


def timed(workload: Workload, sensors: Optional[SpeedSensors], call: Callable[[], Any]) -> Tuple[Timing, Any]:
    """Time one call into *workload*; returns the timing and the call's result."""
    if sensors is None:
        started = time.perf_counter()
        result = call()
        return Timing(time.perf_counter() - started), result
    before = cpu_times(workload.pids())
    started = time.perf_counter()
    result = call()
    ended = time.perf_counter()
    speed = sensors.speed(started, ended, before, cpu_times(workload.pids()))
    return Timing(ended - started, speed), result


@dataclass
class BlockResult:
    setup: Timing
    #: one timing per op that passed its check
    ops: List[Timing] = field(default_factory=list)
    #: one reason per failed op (exception, wrong or duplicated result, ...)
    failures: List[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.ops) + len(self.failures)


def aggregate(blocks: Sequence[BlockResult]) -> Dict[str, float]:
    """The end-to-end metrics of one run; every timing at reference speed."""
    latencies = [op.at_ref_s for block in blocks for op in block.ops]
    if not latencies:
        raise RuntimeError("no op succeeded; there is nothing to report")
    return {
        "setup_s": statistics.median(block.setup.at_ref_s for block in blocks),
        "lat_p50_ms": 1000.0 * statistics.median(latencies),
        "ops_per_s": len(latencies) / sum(latencies),
        "peak_rss_mb": max(block.peak_rss_mb for block in blocks),
    }


def timed_op(
    workload: Workload,
    expected: Expected,
    block: BlockResult,
    sensors: Optional[SpeedSensors] = None,
    span: SpanFactory = no_span,
) -> Optional[Outcome]:
    """Run, time and check one op; returns its outcome if it passed.

    Garbage is collected before the clock starts and the result is checked
    after it stops.  Whatever the op raises is a failed op, not a failed
    run: the traceback is the failure reason.  Every failure is reported
    on stderr as it happens.
    """

    def op() -> Outcome:
        with span("op"):
            return workload.op()

    gc.collect()
    try:
        timing, outcome = timed(workload, sensors, op)
    except Exception:  # noqa: BLE001 - the op boundary: count it, keep running
        reason = traceback.format_exc(limit=4)
        print(f"FAILED OP: {reason}", file=sys.stderr)
        block.failures.append(reason)
        return None
    reason = workload.verify(outcome, expected)
    if reason is not None:
        print(f"FAILED OP: {reason}", file=sys.stderr)
        block.failures.append(reason)
        return None
    block.ops.append(timing)
    return outcome


def run_block(
    workload: Workload,
    expected: Expected,
    more_ops: Callable[[BlockResult], bool],
    sensors: Optional[SpeedSensors] = None,
    each_op: Callable[..., Any] = timed_op,
    span: SpanFactory = no_span,
) -> BlockResult:
    """Set up, run ops while ``more_ops(block)`` says so, tear down, and
    fail the run if the block left a segment or a process behind."""
    children_before = procs.children_of(os.getpid())

    def setup() -> None:
        with span("setup"):
            workload.setup()

    try:
        block = BlockResult(timed(workload, sensors, setup)[0])
        while more_ops(block):
            each_op(workload, expected, block, sensors)
        block.peak_rss_mb = workload.peak_rss_mb()
        workload.pids()  # remember the process tree before it goes away
    finally:
        with span("teardown"):
            workload.teardown()
    leaked = procs.leaked_segments(workload.pids())
    if leaked:
        raise RuntimeError(f"shared-memory segments left behind: {leaked}")
    strays = set(procs.children_of(os.getpid())) - set(children_before)
    if strays:
        raise RuntimeError(f"child processes left behind: {sorted(strays)}")
    return block


def fixed_ops(n: int) -> Callable[[BlockResult], bool]:
    return lambda block: block.attempted < n


def ops_per_block(name: str, seconds: float) -> int:
    """The op count of every block of *name*: the workload's fixed count,
    scaled with ``--seconds`` — a function of the arguments alone, never of
    how fast the ops turn out to be, so both sides of a comparison do
    identical work."""
    return max(1, round(WORKLOAD_BY_NAME[name].ops_per_block * seconds / RUN_SECONDS))


@contextmanager
def run_tmpdir() -> Iterator[Path]:
    TMP_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def prepare(name: str, seed: int, tmpdir: Path, smoke: bool = False) -> Tuple[Workload, Expected]:
    """The workload instance and the reference its ops are checked against."""
    dataset = WORKLOAD_BY_NAME[name].dataset
    if smoke:
        dataset = dataset.scaled(SMOKE_RECORDS)
    return WORKLOAD_CLASSES[name](dataset, seed, tmpdir), expected_for(dataset)


@dataclass
class RunResult:
    blocks: List[BlockResult]

    @property
    def attempted(self) -> int:
        return sum(block.attempted for block in self.blocks)

    @property
    def failures(self) -> List[str]:
        return [reason for block in self.blocks for reason in block.failures]

    @property
    def metrics(self) -> Dict[str, float]:
        return aggregate(self.blocks)


def run_workload(name: str, seed: int, seconds: float, *, smoke: bool = False) -> RunResult:
    """One untraced run: ``BLOCKS`` blocks (one at the smoke scale) of
    ``ops_per_block(name, seconds)`` ops each."""
    more_ops = fixed_ops(ops_per_block(name, seconds))
    with run_tmpdir() as tmpdir, SpeedSensors() as sensors:
        workload, expected = prepare(name, seed, tmpdir, smoke)
        results = [
            run_block(workload, expected, more_ops, sensors)
            for _ in range(1 if smoke else BLOCKS)
        ]
    return RunResult(results)
