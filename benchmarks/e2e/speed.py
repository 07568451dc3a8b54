"""How fast the box was while something ran: one speed sensor per CPU.

The reference box is a 2-vCPU microVM on a shared host.  Each vCPU drops
to about two thirds of its speed, independently of the other, for
stretches of a second up to a minute (README, "Timings are at reference
speed"); wall time — and CPU time with it — of the same work then reads
1.0x or 1.55x, whole runs at a time, and no statistic of raw timings
repeats.  So every timed interval is measured twice: its wall time, and
the speed of the CPUs its work ran on.  A sensor process pinned to each CPU times a fixed
pure-Python loop every ``PERIOD_S``; speed is ``LOOP_REF_S`` over the
loop's time, 1.0 on an undisturbed core of the reference box.  An
interval's speed is the mean of the sensor readings inside it, each CPU
weighted by the CPU time the measured processes' threads spent there.
``wall x speed`` is the interval's duration *at reference speed*, which is
what the end-to-end timings report.

The sensors cost the measured program 1 to 2 % of each CPU.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from bisect import bisect_left, bisect_right
from typing import Any, Dict, Iterable, List, Tuple

LOOP_ITERATIONS = 20_000
#: Seconds the loop takes on an undisturbed core of the reference box.
LOOP_REF_S = 0.00028
PERIOD_S = 0.025
#: Readings a sensor takes before it stops: ten minutes' worth.
_CAPACITY = 24_000


def _sense(cpu: int, parent: int, times: Any, loops: Any, count: Any) -> None:
    os.sched_setaffinity(0, {cpu})
    iterations = range(LOOP_ITERATIONS)
    for index in range(_CAPACITY):
        if os.getppid() != parent:
            return  # the benchmark was killed: do not outlive it
        started = time.perf_counter()
        for _ in iterations:
            pass
        loops[index] = time.perf_counter() - started
        times[index] = started
        count.value = index + 1
        time.sleep(PERIOD_S)


CpuTimes = Dict[int, Tuple[int, int]]


def cpu_times(pids: Iterable[int]) -> CpuTimes:
    """``{tid: (cpu ticks used so far, cpu last run on)}`` over every
    thread of *pids* (threads and processes that are gone are skipped)."""
    found: CpuTimes = {}
    for pid in pids:
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except FileNotFoundError:
            continue
        for tid in tids:
            try:
                with open(f"/proc/{pid}/task/{tid}/stat") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except (FileNotFoundError, ProcessLookupError):
                continue
            found[int(tid)] = (int(fields[11]) + int(fields[12]), int(fields[36]))
    return found


class SpeedSensors:
    """The sensor processes of one run (a context manager)."""

    def __init__(self) -> None:
        # fork, not spawn: the sensors start before the run has any thread,
        # and share their reading buffers as anonymous memory, not temp files.
        context = multiprocessing.get_context("fork")
        self._cpus = sorted(os.sched_getaffinity(0))
        self._readings = {
            cpu: (
                context.RawArray("d", _CAPACITY),
                context.RawArray("d", _CAPACITY),
                context.RawValue("q", 0),
            )
            for cpu in self._cpus
        }
        self._processes = [
            context.Process(
                target=_sense, args=(cpu, os.getpid(), *self._readings[cpu]), daemon=True
            )
            for cpu in self._cpus
        ]

    def __enter__(self) -> "SpeedSensors":
        for process in self._processes:
            process.start()
        while not all(count.value for _, _, count in self._readings.values()):
            time.sleep(0.001)  # until every CPU has its first reading
        return self

    def __exit__(self, exc_type: Any, *exc: Any) -> None:
        died = [p.pid for p in self._processes if not p.is_alive()]
        for process in self._processes:
            process.kill()
        for process in self._processes:
            process.join()
        if died and exc_type is None:
            raise RuntimeError(f"speed sensors {died} died during the run")

    @property
    def pids(self) -> List[int]:
        return [process.pid for process in self._processes]

    def _mean_speed(self, cpu: int, start: float, end: float) -> float:
        times, loops, count = self._readings[cpu]
        stamps = times[: count.value]
        low, high = bisect_left(stamps, start), bisect_right(stamps, end)
        if low == high:  # shorter than the period: the reading that preceded it
            low, high = max(low - 1, 0), max(low, 1)
        return sum(LOOP_REF_S / loop for loop in loops[low:high]) / (high - low)

    def speed(self, start: float, end: float, before: CpuTimes, after: CpuTimes) -> float:
        """Mean speed over ``[start, end]`` (``perf_counter`` values) of the
        CPUs the threads of *after* ran on, weighted by the CPU time each
        spent since *before*."""
        ticks: Dict[int, int] = {}
        for tid, (used, cpu) in after.items():
            spent = used - before.get(tid, (0, cpu))[0]
            if spent > 0:
                ticks[cpu] = ticks.get(cpu, 0) + spent
        if not ticks:  # too short to have used a whole tick: this process's CPU
            ticks = {after[os.getpid()][1]: 1}
        return sum(n * self._mean_speed(cpu, start, end) for cpu, n in ticks.items()) / sum(
            ticks.values()
        )
