"""Process-tree readers (``/proc``) and the leak checks between blocks."""

from __future__ import annotations

import os
import time
from typing import Iterable, List

SHM_DIR = "/dev/shm"
SHM_PREFIX = "repro_shm_"
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> List[str]:
    """``/proc/<pid>/stat`` after the command name (which may hold spaces)."""
    with open(f"/proc/{pid}/stat") as handle:
        return handle.read().rsplit(")", 1)[1].split()


def children_of(pid: int) -> List[int]:
    """Live direct children of *pid* (zombies excluded)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            fields = _stat_fields(int(entry))
        except (FileNotFoundError, ProcessLookupError):
            continue  # exited while we were scanning
        if int(fields[1]) == pid and fields[0] != "Z":
            found.append(int(entry))
    return sorted(found)


def has_ended(pid: int) -> bool:
    """True once *pid* is gone or a zombie (orphans wait for init to reap them)."""
    try:
        return _stat_fields(pid)[0] == "Z"
    except (FileNotFoundError, ProcessLookupError):
        return True


def wait_ended(pids: Iterable[int], timeout_s: float) -> List[int]:
    """Wait until every one of *pids* has ended; returns those still running."""
    deadline = time.monotonic() + timeout_s
    running = list(pids)
    while True:
        running = [pid for pid in running if not has_ended(pid)]
        if not running or time.monotonic() > deadline:
            return running
        time.sleep(0.005)


def process_tree(pid: int) -> List[int]:
    """*pid* and all of its live descendants."""
    tree = [pid]
    for parent in tree:
        tree.extend(children_of(parent))
    return tree


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size of one process, in MB (``VmHWM``)."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of ``VmHWM`` over *pid* and its descendants."""
    return sum(vm_hwm_mb(p) for p in process_tree(pid))


def cpu_seconds(pids: Iterable[int]) -> float:
    """User + system CPU seconds consumed so far by *pids*."""
    ticks = 0
    for pid in pids:
        fields = _stat_fields(pid)
        ticks += int(fields[11]) + int(fields[12])
    return ticks / _CLOCK_TICKS


def leaked_segments(pids: Iterable[int]) -> List[str]:
    """Shared-memory segments still present that one of *pids* created.

    Segment names carry their creator's pid (``repro_shm_<pid>_...``), so
    segments of unrelated processes on the same box are never blamed.
    """
    if not os.path.isdir(SHM_DIR):
        return []
    owners = {f"{SHM_PREFIX}{pid}_" for pid in pids}
    return sorted(
        name for name in os.listdir(SHM_DIR) if any(name.startswith(o) for o in owners)
    )
